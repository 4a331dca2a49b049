//! Discrete-event simulation substrate for the Proteus reproduction.
//!
//! The paper ("Proteus: Power Proportional Memory Cache Cluster in Data
//! Centers", ICDCS 2013) evaluates on a 40-server hardware testbed. This
//! crate provides the laptop-scale substitute: a deterministic,
//! seedable discrete-event simulation (DES) kernel on which
//! `proteus-core` runs the full RBE → web → cache → database pipeline.
//!
//! The crate deliberately contains *no* Proteus-specific logic; it is a
//! small, reusable DES toolkit:
//!
//! - [`SimTime`] / [`SimDuration`] — nanosecond-resolution simulated time.
//! - [`EventQueue`] — a priority queue of timestamped events with
//!   deterministic FIFO tie-breaking for equal timestamps.
//! - [`Resource`] — a FIFO multi-server queueing station (models
//!   database connection pools and server service capacity).
//! - [`SimRng`] and [`dist`] — seedable randomness and the latency /
//!   workload distributions used by the experiments (implemented via
//!   inverse-CDF and Box–Muller over the generator's uniform draws).
//! - [`Histogram`] — log-bucketed latency histogram with quantile
//!   queries (the evaluation reports 99.9th-percentile response times).
//! - [`TimeSeries`] — slot-bucketed counters for per-slot figures.
//!
//! # Example
//!
//! ```
//! use proteus_sim::{EventQueue, SimDuration, SimTime};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Tick(u32) }
//!
//! let mut q = EventQueue::new();
//! q.schedule(SimTime::ZERO + SimDuration::from_millis(5), Ev::Tick(1));
//! q.schedule(SimTime::ZERO + SimDuration::from_millis(2), Ev::Tick(0));
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!(t, SimTime::ZERO + SimDuration::from_millis(2));
//! assert_eq!(ev, Ev::Tick(0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dist;
pub mod histogram;
mod queue;
mod resource;
mod rng;
mod series;
mod stats;
mod time;

pub use dist::Distribution;
pub use histogram::Histogram;
pub use queue::EventQueue;
pub use resource::Resource;
pub use rng::SimRng;
pub use series::TimeSeries;
pub use stats::Welford;
pub use time::{SimDuration, SimTime};
