//! The power-control lifecycle, clock-free and socket-free.
//!
//! [`Lifecycle`] holds everything the control loop remembers between
//! ticks — the boot or drain phase in flight and its deadline, the
//! [`WallPolicy`] with its cooldown, and the decision and back-off
//! counters — and maps one tick's measurements to one [`StepAction`].
//! It reads no clock and opens no socket: the caller supplies `now`,
//! the measured [`PolicyInput`], the scrape [`Coverage`] and whether the
//! client has a window open. [`ClusterController`](crate::ClusterController)
//! is its I/O driver, the way `ClusterClient` drives
//! `proteus_core::TransitionManager`; the unit tests below are another,
//! with a fake client.
//!
//! The returned [`StepAction`] is the whole command set: a
//! [`BootScheduled`](StepAction::BootScheduled) powers the joiners on, a
//! [`WindowOpened`](StepAction::WindowOpened) empties any joiner and
//! opens the window, a [`WindowClosed`](StepAction::WindowClosed) closes
//! it and powers the departed servers off. A driver that cannot carry a
//! `WindowOpened` out reports it with [`Lifecycle::refused`], and the
//! step reads [`BackedOff`](StepAction::BackedOff).

use std::time::{Duration, Instant};

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
    /// open (foreign actuation), or refused the one it tried to open;
    /// the controller backed off this step instead of erroring.
    BackedOff,
}

/// How much of the powered-on cluster answered this tick's scrape.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Coverage {
    /// Powered-on servers whose scrape succeeded this tick.
    pub(crate) answered: usize,
    /// Powered-on servers (booting and draining included).
    pub(crate) active: usize,
}

#[derive(Debug, Clone, Copy)]
enum Pending {
    Boot {
        from: usize,
        to: usize,
        deadline: Instant,
    },
    Drain {
        from: usize,
        to: usize,
        deadline: Instant,
    },
}

/// The boot → window → drain → power-off state machine (module doc).
#[derive(Debug)]
pub(crate) struct Lifecycle {
    policy: WallPolicy,
    actuation: ActuationConfig,
    pending: Option<Pending>,
    decisions: u64,
    backoffs: u64,
}

impl Lifecycle {
    pub(crate) fn new(policy: WallPolicy, actuation: ActuationConfig) -> Self {
        Lifecycle {
            policy,
            actuation,
            pending: None,
            decisions: 0,
            backoffs: 0,
        }
    }

    pub(crate) fn decisions(&self) -> u64 {
        self.decisions
    }

    pub(crate) fn backoffs(&self) -> u64 {
        self.backoffs
    }

    pub(crate) fn pending(&self) -> bool {
        self.pending.is_some()
    }

    /// One tick. `window_open` is whether the client has a transition
    /// window open; it is read only while no phase is pending, when any
    /// open window is someone else's.
    pub(crate) fn step(
        &mut self,
        now: Instant,
        input: &PolicyInput,
        coverage: Coverage,
        window_open: bool,
    ) -> StepAction {
        match self.pending {
            Some(Pending::Boot { deadline, .. }) if now < deadline => StepAction::BootWait,
            Some(Pending::Boot { from, to, .. }) => self.open(now, from, to),
            Some(Pending::Drain { deadline, .. }) if now < deadline => StepAction::DrainWait,
            Some(Pending::Drain { from, to, .. }) => {
                self.pending = None;
                self.policy.record_window_closed(now);
                StepAction::WindowClosed { from, to }
            }
            None if window_open => {
                self.backoffs += 1;
                StepAction::BackedOff
            }
            None => self.decide(now, input, coverage),
        }
    }

    /// The driver could not carry out the `WindowOpened` this step
    /// returned (the client refused the window, or a joiner could not
    /// be emptied): nothing is pending, and the step backed off.
    pub(crate) fn refused(&mut self) -> StepAction {
        self.pending = None;
        self.backoffs += 1;
        StepAction::BackedOff
    }

    fn decide(&mut self, now: Instant, input: &PolicyInput, coverage: Coverage) -> StepAction {
        let (from, to) = match self.policy.decide(now, input) {
            Decision::Hold(reason) => return StepAction::Held(reason),
            // A server that did not answer reads as idle, so a partial
            // view always looks like spare capacity. Growth on what the
            // answering servers show is real; a shrink needs them all.
            Decision::Scale { from, to } if to < from && coverage.answered < coverage.active => {
                return StepAction::Held(HoldReason::Blind)
            }
            Decision::Scale { from, to } => (from, to),
        };
        self.decisions += 1;
        if to > from {
            self.pending = Some(Pending::Boot {
                from,
                to,
                deadline: now + self.actuation.boot_delay,
            });
            StepAction::BootScheduled { from, to }
        } else {
            self.open(now, from, to)
        }
    }

    fn open(&mut self, now: Instant, from: usize, to: usize) -> StepAction {
        self.pending = Some(Pending::Drain {
            from,
            to,
            deadline: now + self.actuation.drain,
        });
        StepAction::WindowOpened { from, to }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyConfig;

    const SERVERS: usize = 4;
    const CAPACITY_OPS: f64 = 10_000.0;

    fn input(active: usize, ops_per_sec: f64, p99_ms: Option<u64>) -> PolicyInput {
        PolicyInput {
            active,
            ops_per_sec,
            p99: p99_ms.map(Duration::from_millis),
        }
    }

    fn covered(answered: usize, active: usize) -> Coverage {
        Coverage { answered, active }
    }

    #[test]
    fn a_shrink_on_a_partial_view_holds_blind() {
        let policy = WallPolicy::new(PolicyConfig::for_cluster(SERVERS, CAPACITY_OPS));
        let now = Instant::now();
        // Nobody answered: no load, no latency, and the policy alone
        // reads that as an idle cluster.
        let blind = input(4, 0.0, None);
        // Two of four answered at 70 % each: 14 000 ops/s measured,
        // 28 000 real — 93 % of the three servers the policy would keep.
        let half = input(4, 14_000.0, Some(1));
        for (signal, coverage, alone) in [(blind, covered(0, 4), 2), (half, covered(2, 4), 3)] {
            assert_eq!(
                policy.decide(now, &signal),
                Decision::Scale { from: 4, to: alone }
            );
            let mut lifecycle = Lifecycle::new(policy.clone(), ActuationConfig::default());
            assert_eq!(
                lifecycle.step(now, &signal, coverage, false),
                StepAction::Held(HoldReason::Blind)
            );
            assert_eq!(lifecycle.decisions(), 0);
            assert!(!lifecycle.pending());
            // The same measurements from every server do shrink.
            assert_eq!(
                lifecycle.step(now, &signal, covered(4, 4), false),
                StepAction::WindowOpened { from: 4, to: alone }
            );
        }
    }

    #[test]
    fn an_overload_seen_on_a_partial_view_still_grows() {
        let policy = WallPolicy::new(PolicyConfig::for_cluster(SERVERS, CAPACITY_OPS));
        let mut lifecycle = Lifecycle::new(policy, ActuationConfig::default());
        assert_eq!(
            lifecycle.step(
                Instant::now(),
                &input(2, 5_000.0, Some(800)),
                covered(1, 2),
                false
            ),
            StepAction::BootScheduled { from: 2, to: 4 }
        );
        assert_eq!(lifecycle.decisions(), 1);
    }

    /// What one tick of the synthetic day looks like to the lifecycle.
    struct Tick {
        input: PolicyInput,
        coverage: Coverage,
        foreign_window: bool,
    }

    const TICK_MS: u64 = 250;
    const DAY_MS: u64 = 96_000;
    /// Ticks after the day, so the last window closes.
    const TAIL_MS: u64 = 4_000;

    /// One compressed day (96 s, trough at 0, peak of 28 000 ops/s at
    /// 48 s against 4 × 10 000 ops/s) with scripted faults: nobody
    /// answers the first 2 s, one server does not answer at 30–31 s
    /// (while the delay bound is violated) and at 70–74 s, and a
    /// foreign window is open at 9–10 s, 12.25–12.75 s (over a grow's
    /// boot deadline) and 60–61 s.
    fn day_tick(t_ms: u64, active: usize) -> Tick {
        let phase = std::f64::consts::TAU * t_ms.min(DAY_MS) as f64 / DAY_MS as f64;
        let load = 16_000.0 - 12_000.0 * phase.cos();
        let answered = match t_ms {
            0..2_000 => 0,
            30_000..31_000 | 70_000..74_000 => active - 1,
            _ => active,
        };
        let overloaded = (30_000..31_000).contains(&t_ms) || load > active as f64 * CAPACITY_OPS;
        let p99 = match (answered, overloaded) {
            (0, _) => None,
            (_, true) => Some(800),
            (_, false) => Some(1),
        };
        Tick {
            // A server that does not answer contributes no load.
            input: input(active, load * answered as f64 / active as f64, p99),
            coverage: covered(answered, active),
            foreign_window: matches!(t_ms, 9_000..10_000 | 12_250..12_750 | 60_000..61_000),
        }
    }

    /// Drives the day through a lifecycle with a fake client (its
    /// active count and whether our window is open), checking the
    /// lifecycle's invariants on every tick. Returns the `(t_ms,
    /// action)` log with repeats of the previous action left out.
    fn run_day() -> Vec<(u64, StepAction)> {
        let actuation = ActuationConfig::default();
        let policy = WallPolicy::new(PolicyConfig {
            cooldown: Duration::from_secs(2),
            ..PolicyConfig::for_cluster(SERVERS, CAPACITY_OPS)
        });
        let mut lifecycle = Lifecycle::new(policy, actuation);
        let t0 = Instant::now();
        let ms = |d: Duration| d.as_millis() as u64;
        let mut active = SERVERS;
        let mut booting: Option<u64> = None;
        let mut open: Option<(u64, usize, usize)> = None;
        let mut log: Vec<(u64, StepAction)> = Vec::new();
        for t_ms in (0..DAY_MS + TAIL_MS).step_by(TICK_MS as usize) {
            let tick = day_tick(t_ms, active);
            let idle = booting.is_none() && open.is_none();
            let window_open = tick.foreign_window || open.is_some();
            let now = t0 + Duration::from_millis(t_ms);
            let mut action = lifecycle.step(now, &tick.input, tick.coverage, window_open);
            match action {
                StepAction::BootScheduled { .. } => booting = Some(t_ms),
                // The fake client refuses a window while another is
                // open, as `begin_transition` does.
                StepAction::WindowOpened { .. } if tick.foreign_window => {
                    booting = None;
                    action = lifecycle.refused();
                }
                StepAction::WindowOpened { from, to } => {
                    assert!(open.is_none(), "{t_ms} ms: a second window opened");
                    if to > from {
                        let scheduled = booting.take().expect("a grow boots first");
                        assert!(
                            t_ms - scheduled >= ms(actuation.boot_delay),
                            "{t_ms} ms: joiners admitted before their boot deadline"
                        );
                    } else {
                        assert_eq!(
                            tick.coverage.answered, tick.coverage.active,
                            "{t_ms} ms: shrank on a partial view"
                        );
                    }
                    open = Some((t_ms, from, to));
                    active = to;
                }
                StepAction::WindowClosed { from, to } => {
                    let (opened, o_from, o_to) = open.take().expect("closed a window never opened");
                    assert_eq!((o_from, o_to), (from, to));
                    assert!(
                        t_ms - opened >= ms(actuation.drain),
                        "{t_ms} ms: window closed before its drain"
                    );
                }
                _ => {}
            }
            if tick.foreign_window && idle {
                assert_eq!(action, StepAction::BackedOff, "{t_ms} ms");
            }
            if log.last().map(|&(_, last)| last) != Some(action) {
                log.push((t_ms, action));
            }
        }
        assert!(open.is_none() && booting.is_none(), "every window closes");
        log
    }

    /// `run_day`'s log. A change that moves a line here changes when
    /// the loop boots, opens, closes or holds, and is a behaviour change.
    const GOLDEN_DAY: &str = "\
0 Held(Blind)
2000 WindowOpened { from: 4, to: 2 }
2250 DrainWait
4000 WindowClosed { from: 4, to: 2 }
4250 Held(Cooldown)
6000 WindowOpened { from: 2, to: 1 }
6250 DrainWait
8000 WindowClosed { from: 2, to: 1 }
8250 Held(Cooldown)
9000 BackedOff
10000 Held(Steady)
12000 BootScheduled { from: 1, to: 2 }
12250 BootWait
12500 BackedOff
12750 BootScheduled { from: 1, to: 2 }
13000 BootWait
13250 WindowOpened { from: 1, to: 2 }
13500 DrainWait
15250 WindowClosed { from: 1, to: 2 }
15500 Held(Cooldown)
17250 Held(Steady)
22750 BootScheduled { from: 2, to: 3 }
23000 BootWait
23250 WindowOpened { from: 2, to: 3 }
23500 DrainWait
25250 WindowClosed { from: 2, to: 3 }
25500 Held(Cooldown)
27250 Held(Steady)
30000 BootScheduled { from: 3, to: 4 }
30250 BootWait
30500 WindowOpened { from: 3, to: 4 }
30750 DrainWait
32500 WindowClosed { from: 3, to: 4 }
32750 Held(Cooldown)
34500 Held(Steady)
60000 BackedOff
61000 Held(Steady)
70000 Held(Blind)
74000 WindowOpened { from: 4, to: 3 }
74250 DrainWait
76000 WindowClosed { from: 4, to: 3 }
76250 Held(Cooldown)
78000 Held(Steady)
78750 WindowOpened { from: 3, to: 2 }
79000 DrainWait
80750 WindowClosed { from: 3, to: 2 }
81000 Held(Cooldown)
82750 Held(Steady)
88500 WindowOpened { from: 2, to: 1 }
88750 DrainWait
90500 WindowClosed { from: 2, to: 1 }
90750 Held(Cooldown)
92500 Held(AtFloor)
";

    #[test]
    fn a_compressed_day_keeps_the_lifecycle_invariants() {
        let log = run_day();
        let rendered: String = log.iter().map(|(t, a)| format!("{t} {a:?}\n")).collect();
        assert_eq!(rendered, GOLDEN_DAY);
        // The day reaches every command, and the blind hold.
        let kinds: std::collections::BTreeSet<u8> = (log.iter())
            .map(|(_, action)| match action {
                StepAction::Held(_) => 0,
                StepAction::BootScheduled { .. } => 1,
                StepAction::BootWait => 2,
                StepAction::WindowOpened { .. } => 3,
                StepAction::DrainWait => 4,
                StepAction::WindowClosed { .. } => 5,
                StepAction::BackedOff => 6,
            })
            .collect();
        assert_eq!(kinds.len(), 7, "all seven StepAction variants");
        assert!(log
            .iter()
            .any(|&(_, a)| a == StepAction::Held(HoldReason::Blind)));
    }
}
