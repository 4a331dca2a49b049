//! Workload synthesis for the Proteus evaluation.
//!
//! The paper drives its testbed with (a) the real Wikipedia request
//! trace of Urdaneta et al. for load-balancing and Bloom experiments,
//! and (b) a synthetic session workload — hundreds of emulated users
//! per RBE server, 0.5 s think time, 50-page personal page sets, with
//! the active-user population following the Wikipedia trace's diurnal
//! volume — for response-time experiments. We do not have the trace,
//! so this crate synthesizes both from the properties the paper states
//! and assumes:
//!
//! - request volume varies diurnally with peak ≈ 2× nadir
//!   (Section II's assumption, visible in the paper's Fig. 4);
//! - page popularity is heavy-tailed ([`ZipfSampler`]);
//! - users behave as sessions: exponential session lengths, fixed
//!   think time, uniform choice within a personal page set
//!   ([`SessionWorkload`]).
//!
//! Traces are materialized ([`Trace`]) so all four Table II scenarios
//! replay the *identical* request sequence, as the paper does.
//!
//! # Example
//!
//! ```
//! use proteus_workload::{DiurnalCurve, TraceConfig, Trace};
//! use proteus_sim::SimDuration;
//!
//! let cfg = TraceConfig {
//!     duration: SimDuration::from_secs(60),
//!     mean_rate: 100.0,
//!     pages: 10_000,
//!     ..TraceConfig::default()
//! };
//! let trace = Trace::synthesize(&cfg, 42);
//! assert!(!trace.is_empty());
//! assert!(trace.records().windows(2).all(|w| w[0].at <= w[1].at));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod diurnal;
pub mod lru_model;
mod replay;
mod session;
mod trace;
pub mod wikipedia;
mod zipf;

pub use diurnal::DiurnalCurve;
pub use replay::{CompressedDay, ReplayPacer};
pub use session::{SessionConfig, SessionWorkload};
pub use trace::{PageId, Trace, TraceConfig, TraceRecord};
pub use zipf::ZipfSampler;
