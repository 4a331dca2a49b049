//! The actuating controller: one [`step`](ClusterController::step) per
//! tick closes the observe → decide → actuate loop on real sockets.
//!
//! The controller is the I/O driver of the crate's clock-free lifecycle
//! (`lifecycle.rs`), which owns every phase, deadline and counter. Each
//! step pulls a fresh merged snapshot from the [`ClusterObserver`],
//! feeds it to the lifecycle, and carries out the [`StepAction`] it
//! returns on the [`ClusterClient`] and the observer: a scale-up marks
//! the joining servers [`PowerState::Booting`] and, once the boot delay
//! is over, opens the window; a scale-down opens the window at once and
//! marks the departing servers [`PowerState::Draining`]; when the drain
//! window elapses the controller closes it and powers the departed
//! servers off.
//!
//! Every actuated decision is recorded as a
//! [`TraceKind::ControllerDecision`] event on the cluster client's
//! shared trace ring *before* the transition events it causes, so the
//! exported `/trace.jsonl` reads as cause → effect in seq order.
//!
//! Power-off loses DRAM. This reproduction cannot cut a server's wall
//! power, so the controller does to its memory what a power cut would:
//! a departed server is flushed when its window closes, and a joiner is
//! flushed again before its window opens, so it enters the digest
//! broadcast empty — also when some other actor powered it off. A
//! server that kept its cache while "off" would be routed to again at
//! the next grow and serve values older than every write made in
//! between. A joiner that cannot be emptied is not admitted.

use std::net::SocketAddr;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::RwLock;
use proteus_agg::{ClusterObserver, ControlSignal};
use proteus_core::PowerState;
use proteus_net::ClusterClient;
use proteus_obs::TraceKind;

use crate::lifecycle::{ActuationConfig, Coverage, Lifecycle, StepAction};
use crate::policy::{PolicyInput, WallPolicy};

/// One step's observations and the action taken on them.
#[derive(Debug, Clone, Copy)]
pub struct StepReport {
    /// The control signal measured this step.
    pub signal: ControlSignal,
    /// What the controller did about it.
    pub action: StepAction,
}

/// The closed-loop controller daemon core.
///
/// Owns the lifecycle (policy state and the pending-transition
/// machinery); shares the [`ClusterObserver`] (metrics plane) and the
/// [`ClusterClient`] (data plane) with whatever else is using them —
/// the client sits behind an `RwLock` so workload threads keep fetching
/// through reads while the controller takes brief write locks to
/// open/close windows.
pub struct ClusterController {
    observer: Arc<ClusterObserver>,
    client: Arc<RwLock<ClusterClient>>,
    /// Metrics endpoint per server index, for power-state bookkeeping.
    metrics_addrs: Vec<SocketAddr>,
    lifecycle: Lifecycle,
}

impl ClusterController {
    /// Wires a controller to a live observer and cluster client.
    /// `metrics_addrs[i]` must be the metrics endpoint of the server
    /// the client knows as index `i` — the controller uses it to tell
    /// the observer which servers boot, drain, and power off.
    ///
    /// # Panics
    ///
    /// Panics if `metrics_addrs` does not cover the policy's
    /// `total_servers`.
    #[must_use]
    pub fn new(
        observer: Arc<ClusterObserver>,
        client: Arc<RwLock<ClusterClient>>,
        metrics_addrs: Vec<SocketAddr>,
        policy: WallPolicy,
        actuation: ActuationConfig,
    ) -> Self {
        assert_eq!(
            metrics_addrs.len(),
            policy.config().total_servers,
            "one metrics endpoint per provisioned server"
        );
        ClusterController {
            observer,
            client,
            metrics_addrs,
            lifecycle: Lifecycle::new(policy, actuation),
        }
    }

    /// Scale decisions actuated so far.
    #[must_use]
    pub fn decisions(&self) -> u64 {
        self.lifecycle.decisions()
    }

    /// Steps the controller backed off: a foreign transition window was
    /// open, or its own window could not be opened (see
    /// [`StepAction::BackedOff`]).
    #[must_use]
    pub fn backoffs(&self) -> u64 {
        self.lifecycle.backoffs()
    }

    /// Whether a boot or drain phase is in flight.
    #[must_use]
    pub fn transition_pending(&self) -> bool {
        self.lifecycle.pending()
    }

    /// Runs one observe → decide → actuate round at the current wall
    /// clock.
    pub fn step(&mut self) -> StepReport {
        self.step_at(Instant::now())
    }

    /// [`step`](Self::step) with an explicit `now`, the instant the
    /// lifecycle's boot and drain deadlines are measured against.
    pub fn step_at(&mut self, now: Instant) -> StepReport {
        let signal = self.observer.tick().control_signal();
        let (active, window_open) = {
            let client = self.client.read();
            (client.active(), client.transition_active())
        };
        let input = PolicyInput {
            active,
            ops_per_sec: signal.ops_per_sec,
            p99: signal.p99,
        };
        let coverage = Coverage {
            answered: signal.answered_servers,
            active: signal.active_servers,
        };
        let action = match self.lifecycle.step(now, &input, coverage, window_open) {
            action @ StepAction::BootScheduled { from, to } => {
                // The decision event precedes the transition events it
                // causes; a grow's comes now, its window after the boot.
                self.record_decision(from, to, &signal);
                self.set_power(from..to, PowerState::Booting);
                action
            }
            StepAction::WindowOpened { from, to } => {
                if to < from {
                    self.record_decision(from, to, &signal);
                }
                self.open_window(from, to)
            }
            action @ StepAction::WindowClosed { from, to } => {
                self.close_window(from, to);
                action
            }
            other => other,
        };
        StepReport { signal, action }
    }

    fn open_window(&mut self, from: usize, to: usize) -> StepAction {
        // A joiner enters the broadcast empty (module doc). The window
        // is refused one way: a foreign window raced us between the
        // lifecycle's check and the write lock.
        let joiners = from..to.max(from); // none on a shrink
        let emptied = (joiners.clone()).all(|s| self.client.read().client(s).flush_all().is_ok());
        if !emptied || self.client.write().begin_transition(to).is_err() {
            self.set_power(joiners, PowerState::Off);
            return self.lifecycle.refused();
        }
        if to > from {
            self.set_power(joiners, PowerState::On);
        } else {
            self.set_power(to..from, PowerState::Draining);
        }
        StepAction::WindowOpened { from, to }
    }

    fn close_window(&self, from: usize, to: usize) {
        self.client.write().end_transition();
        // Drain complete: the departed servers power off, and lose
        // their DRAM with it. A flush that fails does not fail the
        // step — the server is off the ring, and the boot flush that
        // readmits it must succeed first.
        let client = self.client.read();
        for s in to..from {
            let _ = client.client(s).flush_all();
            self.observer
                .set_power_state(self.metrics_addrs[s], PowerState::Off);
        }
    }

    fn set_power(&self, servers: Range<usize>, state: PowerState) {
        for addr in &self.metrics_addrs[servers] {
            self.observer.set_power_state(*addr, state);
        }
    }

    fn record_decision(&self, from: usize, to: usize, signal: &ControlSignal) {
        let p99_us = signal
            .p99
            .map_or(0, |d| u32::try_from(d.as_micros()).unwrap_or(u32::MAX));
        let ops = if signal.ops_per_sec.is_finite() && signal.ops_per_sec > 0.0 {
            if signal.ops_per_sec >= f64::from(u32::MAX) {
                u32::MAX
            } else {
                signal.ops_per_sec as u32
            }
        } else {
            0
        };
        self.client
            .read()
            .tracer()
            .record(TraceKind::ControllerDecision {
                from: from as u32,
                to: to as u32,
                p99_us,
                ops,
            });
    }
}

impl std::fmt::Debug for ClusterController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterController")
            .field("servers", &self.metrics_addrs.len())
            .field("lifecycle", &self.lifecycle)
            .finish_non_exhaustive()
    }
}
