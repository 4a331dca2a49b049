//! The actuating controller: one [`step`](ClusterController::step) per
//! tick closes the observe → decide → actuate loop on real sockets.
//!
//! Each step pulls a fresh merged snapshot from the
//! [`ClusterObserver`], runs the [`WallPolicy`], and drives the
//! [`ClusterClient`]'s transition machinery through the paper's
//! lifecycle: a scale-up waits out the boot delay (joining servers
//! marked [`PowerState::Booting`]) before the digest broadcast; a
//! scale-down opens the window immediately and marks the departing
//! servers [`PowerState::Draining`]; when the drain window elapses the
//! controller closes it, powers the departed servers off in the energy
//! account, and starts the policy cooldown.
//!
//! Every actuated decision is recorded as a
//! [`TraceKind::ControllerDecision`] event on the cluster client's
//! shared trace ring *before* the transition events it causes, so the
//! exported `/trace.jsonl` reads as cause → effect in seq order.
//!
//! "Power off" here is logical: the observer's energy meter and the
//! routing exclude the server, while the process keeps running (this
//! reproduction cannot cut wall power). That is safe for correctness
//! because a powered-off server is never routed to; it only means the
//! testbed's physical idle draw is not actually saved.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::RwLock;
use proteus_agg::{ClusterObserver, ControlSignal};
use proteus_core::PowerState;
use proteus_net::ClusterClient;
use proteus_obs::TraceKind;

use crate::policy::{Decision, HoldReason, PolicyInput, WallPolicy};

/// Timing knobs for the actuation side of the loop (the decision side
/// lives in [`PolicyConfig`](crate::PolicyConfig)).
#[derive(Debug, Clone, Copy)]
pub struct ActuationConfig {
    /// How long a joining server "boots" before it may serve (the
    /// paper models boot as a powered, non-serving state).
    pub boot_delay: Duration,
    /// How long a transition window stays open for hot keys to
    /// migrate before the old mapping is retired.
    pub drain: Duration,
}

impl Default for ActuationConfig {
    fn default() -> Self {
        ActuationConfig {
            boot_delay: Duration::from_millis(500),
            drain: Duration::from_secs(2),
        }
    }
}

/// What one controller step did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepAction {
    /// The policy held n; no window is open.
    Held(HoldReason),
    /// A scale-up was decided; joining servers are booting until the
    /// deadline, then the window opens.
    BootScheduled {
        /// Current active count.
        from: usize,
        /// Target active count.
        to: usize,
    },
    /// Still waiting for joining servers to finish booting.
    BootWait,
    /// A transition window was opened this step.
    WindowOpened {
        /// Active count under the old mapping.
        from: usize,
        /// Active count under the new mapping.
        to: usize,
    },
    /// A window is open; hot keys are draining to the new mapping.
    DrainWait,
    /// The window was closed this step; departing servers powered off.
    WindowClosed {
        /// Active count before the whole transition.
        from: usize,
        /// Active count now.
        to: usize,
    },
    /// The client reported a transition window the controller did not
    /// open (foreign actuation); the controller backed off this step
    /// instead of erroring.
    BackedOff,
}

/// One step's observations and the action taken on them.
#[derive(Debug, Clone, Copy)]
pub struct StepReport {
    /// The control signal measured this step.
    pub signal: ControlSignal,
    /// What the controller did about it.
    pub action: StepAction,
}

#[derive(Debug, Clone, Copy)]
enum Pending {
    Boot { to: usize, deadline: Instant },
    Drain { from: usize, deadline: Instant },
}

/// The closed-loop controller daemon core.
///
/// Owns the policy state and the pending-transition machinery; shares
/// the [`ClusterObserver`] (metrics plane) and the [`ClusterClient`]
/// (data plane) with whatever else is using them — the client sits
/// behind an `RwLock` so workload threads keep fetching through reads
/// while the controller takes brief write locks to open/close windows.
pub struct ClusterController {
    observer: Arc<ClusterObserver>,
    client: Arc<RwLock<ClusterClient>>,
    /// Metrics endpoint per server index, for power-state bookkeeping.
    metrics_addrs: Vec<SocketAddr>,
    policy: WallPolicy,
    actuation: ActuationConfig,
    pending: Option<Pending>,
    decisions: u64,
    backoffs: u64,
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
            policy,
            actuation,
            pending: None,
            decisions: 0,
            backoffs: 0,
        }
    }

    /// Scale decisions actuated so far.
    #[must_use]
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// Steps the controller skipped because a foreign transition
    /// window was open (see [`StepAction::BackedOff`]).
    #[must_use]
    pub fn backoffs(&self) -> u64 {
        self.backoffs
    }

    /// Whether a boot or drain phase is in flight.
    #[must_use]
    pub fn transition_pending(&self) -> bool {
        self.pending.is_some()
    }

    /// Runs one observe → decide → actuate round at the current wall
    /// clock.
    pub fn step(&mut self) -> StepReport {
        self.step_at(Instant::now())
    }

    /// [`step`](Self::step) with an explicit `now`, the seam the tests
    /// drive phase deadlines through.
    pub fn step_at(&mut self, now: Instant) -> StepReport {
        let snapshot = self.observer.tick();
        let signal = snapshot.control_signal();

        let action = match self.pending {
            Some(Pending::Boot { to, deadline }) => {
                if now < deadline {
                    StepAction::BootWait
                } else {
                    self.open_window_at(to, now)
                }
            }
            Some(Pending::Drain { from, deadline }) => {
                if now < deadline {
                    StepAction::DrainWait
                } else {
                    self.close_window(from, now)
                }
            }
            None => self.decide_and_actuate(now, &signal),
        };
        StepReport { signal, action }
    }

    fn decide_and_actuate(&mut self, now: Instant, signal: &ControlSignal) -> StepAction {
        // Satellite of the transition-status accessor: if some other
        // actor opened a window on the shared client, back off rather
        // than eat a TransitionInProgress error.
        if self.client.read().transition_active() {
            self.backoffs += 1;
            return StepAction::BackedOff;
        }
        let active = self.client.read().active();
        let input = PolicyInput {
            active,
            ops_per_sec: signal.ops_per_sec,
            p99: signal.p99,
        };
        let decision = self.policy.decide(now, &input);
        let Decision::Scale { from, to } = decision else {
            let Decision::Hold(reason) = decision else {
                unreachable!()
            };
            return StepAction::Held(reason);
        };

        // The decision event precedes the transition events it causes.
        self.record_decision(from, to, signal);
        self.decisions += 1;
        if to > from {
            // Joining servers boot before they serve.
            for addr in &self.metrics_addrs[from..to] {
                self.observer.set_power_state(*addr, PowerState::Booting);
            }
            self.pending = Some(Pending::Boot {
                to,
                deadline: now + self.actuation.boot_delay,
            });
            StepAction::BootScheduled { from, to }
        } else {
            self.open_window_at(to, now)
        }
    }

    fn open_window_at(&mut self, to: usize, now: Instant) -> StepAction {
        let mut client = self.client.write();
        let from = client.active();
        let opened = client.begin_transition(to);
        drop(client);
        if opened.is_err() {
            // The one way `begin_transition` fails: a foreign window
            // raced us between the check and the write lock. Surface
            // it as a backoff, not a failure.
            self.pending = None;
            self.backoffs += 1;
            return StepAction::BackedOff;
        }
        for (i, addr) in self.metrics_addrs.iter().enumerate() {
            let state = if i < to.min(from) {
                continue; // staying active, state unchanged
            } else if i < to {
                PowerState::On // finished booting, now serving
            } else if i < from {
                PowerState::Draining
            } else {
                continue; // already off
            };
            self.observer.set_power_state(*addr, state);
        }
        self.pending = Some(Pending::Drain {
            from,
            deadline: now + self.actuation.drain,
        });
        StepAction::WindowOpened { from, to }
    }

    fn close_window(&mut self, from: usize, now: Instant) -> StepAction {
        let closed = self.client.write().end_transition();
        let to = self.client.read().active();
        if let Some(status) = closed {
            if status.to < status.from {
                // Drain complete: the departed servers power off for
                // real (in the energy account — the paper's actuation
                // point). A grow's close has nobody to power down.
                for addr in &self.metrics_addrs[status.to..status.from] {
                    self.observer.set_power_state(*addr, PowerState::Off);
                }
            }
        }
        self.policy.record_window_closed(now);
        self.pending = None;
        StepAction::WindowClosed { from, to }
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
            .field("pending", &self.pending)
            .field("decisions", &self.decisions)
            .field("backoffs", &self.backoffs)
            .finish_non_exhaustive()
    }
}
