//! The Proteus control plane: a closed feedback loop over live sockets.
//!
//! The paper's controller (Section V) watches measured load and delay
//! and resizes the active server set so the cluster draws power in
//! proportion to its load while holding the delay bound. This crate is
//! that loop, wall-clock native, wired to the real subsystems grown in
//! the rest of the workspace:
//!
//! - **Observe** — a shared [`proteus_agg::ClusterObserver`] merges
//!   every server's `/metrics.json` into one snapshot; its
//!   [`ControlSignal`](proteus_agg::ControlSignal) carries aggregate
//!   ops/s and the *windowed* cluster p99 (delta of cumulative merged
//!   histograms — the delay of this tick's commands, not of history).
//! - **Decide** — [`WallPolicy`], the paper's reference/bound set
//!   points ([`proteus_core::SetPoints`]) plus the guard rails a live
//!   loop needs: a utilization hysteresis band, a per-decision ramp
//!   limit, and a post-transition cooldown.
//! - **Actuate** — a clock-free lifecycle maps each tick's signal to a
//!   [`StepAction`] (boot, open, drain, close, hold, back off), and
//!   [`ClusterController`] carries it out on
//!   [`proteus_net::ClusterClient`]'s smooth-transition machinery
//!   (digest broadcast, dual-mapping drain window, power-off) and
//!   stamps every decision onto the shared trace ring as a
//!   [`ControllerDecision`](proteus_obs::TraceKind::ControllerDecision)
//!   event before the transition events it causes.
//!
//! The `proteus-controller` binary runs the loop as a daemon against a
//! deployed cluster; paired with
//! `proteus_workload::CompressedDay` it replays the paper's 24-hour
//! experiment in minutes (Figs. 10–11).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod controller;
mod lifecycle;
mod policy;

pub use controller::{ClusterController, StepReport};
pub use lifecycle::{ActuationConfig, StepAction};
pub use policy::{Decision, HoldReason, PolicyConfig, PolicyInput, WallPolicy};
