//! The Proteus system: a power-proportional memory cache cluster.
//!
//! This crate assembles the substrates (`proteus-ring`, `proteus-bloom`,
//! `proteus-cache`, `proteus-store`, `proteus-workload`, `proteus-sim`)
//! into the full system of the ICDCS 2013 paper:
//!
//! - [`Scenario`] — the four Table II configurations (Static, Naive,
//!   Consistent, Proteus) and their placement strategies.
//! - [`TransitionManager`] — the smooth-provisioning window (Section
//!   IV): old and new mapping, the digests broadcast when it opened,
//!   per-server power state; clock-free, one window at a time. Beside
//!   it **Algorithm 2**, sans-IO: [`TransitionManager::probe_target`]
//!   (after a miss at the new server, ask the old one iff its digest
//!   vouches for the key) and [`fetch_class`] (what the answers amount
//!   to: hit, migrated, database, false positive, degraded).
//! - [`Router`] — placement, and the in-memory driver of that decision;
//!   [`ClusterSim`] and `proteus-net`'s `ClusterClient` are the others.
//! - [`ProvisioningPlan`] / [`FeedbackController`] — the paper's
//!   feedback provisioning loop (0.4 s reference, 0.5 s delay bound,
//!   per-slot updates) and the load-proportional planner used to derive
//!   the Fig. 4 `n(t)` curve that all scenarios replay.
//! - [`PowerModel`] / [`EnergyMeter`] — per-server power states and
//!   PDU-style sampling for the Fig. 10/11 energy accounting.
//! - [`ClusterSim`] — the discrete-event simulation of the whole
//!   RBE → web → cache → database pipeline, with queueing at the
//!   database connection pools (the mechanism that turns miss storms
//!   into the Fig. 9 delay spikes), producing a [`ClusterReport`].
//!
//! # Example
//!
//! ```
//! use proteus_core::{ClusterConfig, ClusterSim, Scenario};
//! use proteus_sim::SimDuration;
//! use proteus_workload::{Trace, TraceConfig};
//!
//! let mut config = ClusterConfig::small();
//! config.slots = 4;
//! config.slot = SimDuration::from_secs(10);
//! let trace = Trace::synthesize(&config.trace_config(200.0), 1);
//! let plan = proteus_core::ProvisioningPlan::load_proportional(
//!     &trace.requests_per_slot(config.slot, config.slots),
//!     config.cache_servers,
//!     2,
//! );
//! let report = ClusterSim::new(config, Scenario::Proteus, &trace, &plan, 7).run();
//! assert!(report.completed_requests() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod config;
mod controller;
mod metrics;
mod power;
mod replicated_router;
mod router;
mod scenario;
mod transition;

pub use cluster::{page_key, ClusterSim};
pub use config::{ClusterConfig, LatencyModel};
pub use controller::{DelaySignal, FeedbackController, ProvisioningPlan, SetPoints};
pub use metrics::{ClusterReport, FetchClass, FetchCounters};
pub use power::{EnergyMeter, PowerModel, PowerState, TierPowerModel};
pub use replicated_router::{ReplicaFetch, ReplicatedRouter};
pub use router::{FetchOutcome, Router};
pub use scenario::{Scenario, VnodeBudget};
pub use transition::{fetch_class, Probe, TransitionManager, TransitionOverlap};
