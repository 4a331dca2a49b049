//! The wall-clock provisioning policy: what `n(t)` should be, given
//! what the cluster measured this tick.
//!
//! This is the paper's feedback controller (Section V: 0.4 s reference
//! delay, 0.5 s delay bound, per-slot updates) ported from simulated
//! slots to wall-clock ticks, with the guard rails a live loop needs:
//!
//! - **Dual signal.** On a healthy cluster the p99 sits far below the
//!   bound regardless of n, so delay alone cannot drive scale-*down*
//!   sizing. The policy therefore sizes n from measured load
//!   (utilization per active server) inside a hysteresis band, while
//!   the paper's delay set points act as the hard guard: p99 over the
//!   bound forces growth no matter what utilization says, and any p99
//!   above the reference vetoes shrinking. The set points are
//!   [`SetPoints::paper_defaults`].
//! - **Hysteresis.** Scale up when per-server utilization exceeds 75%;
//!   scale down only when the load would still sit at or below 55% on
//!   the *smaller* cluster. The dead band between the thresholds
//!   absorbs workload noise without flapping; both sit under the
//!   paper's 80% headroom fraction.
//! - **Ramp limit.** At most [`PolicyConfig::max_step`] servers per
//!   decision, in either direction — each transition has a digest
//!   broadcast and a drain window, and the controller must observe the
//!   result of one before committing to the next.
//! - **Cooldown.** After a transition window closes, hold for
//!   [`PolicyConfig::cooldown`] so the post-transition metrics (cold
//!   misses, migration traffic) settle before the next decision.

use std::time::{Duration, Instant};

use proteus_core::{DelaySignal, SetPoints};

/// Scale up when measured per-server utilization exceeds this.
const SCALE_UP_UTIL: f64 = 0.75;
/// Scale down only while utilization *after* the shrink would stay at
/// or below this.
const SCALE_DOWN_UTIL: f64 = 0.55;
// An inverted band would grow and shrink on the same load: a build
// error, not a runtime check.
const _: () = assert!(SCALE_DOWN_UTIL < SCALE_UP_UTIL, "the dead band");

/// Tunables for a [`WallPolicy`].
#[derive(Debug, Clone, Copy)]
pub struct PolicyConfig {
    /// Provisioned cluster size (the ceiling for n).
    pub total_servers: usize,
    /// Smallest n the policy will ever choose (the paper keeps at
    /// least one server on to hold the hot set).
    pub min_servers: usize,
    /// One server's serving capacity in ops/s — the utilization
    /// denominator, matching
    /// [`ObserverConfig::server_capacity_ops`](proteus_agg::ObserverConfig).
    pub server_capacity_ops: f64,
    /// Largest |Δn| one decision may request.
    pub max_step: usize,
    /// Hold time after a transition window closes.
    pub cooldown: Duration,
}

impl PolicyConfig {
    /// Paper-style defaults for a cluster of `total_servers`: one
    /// server at least, two per decision, a minute's cooldown.
    ///
    /// # Panics
    ///
    /// Panics if `total_servers == 0`.
    #[must_use]
    pub fn for_cluster(total_servers: usize, server_capacity_ops: f64) -> Self {
        assert!(total_servers > 0, "cluster must have at least one server");
        PolicyConfig {
            total_servers,
            min_servers: 1,
            server_capacity_ops,
            max_step: 2,
            cooldown: Duration::from_secs(60),
        }
    }

    fn validate(&self) {
        assert!(
            (1..=self.total_servers).contains(&self.min_servers),
            "min_servers must be within 1..=total_servers"
        );
        assert!(
            self.server_capacity_ops > 0.0,
            "server capacity must be positive"
        );
        assert!(self.max_step >= 1, "max_step must allow some movement");
    }
}

/// What the policy measured this tick.
#[derive(Debug, Clone, Copy)]
pub struct PolicyInput {
    /// Servers currently active (serving the ring).
    pub active: usize,
    /// Aggregate cluster request rate, ops/s.
    pub ops_per_sec: f64,
    /// Windowed cluster p99 command latency; `None` when no commands
    /// landed this window (an idle cluster has no delay to violate).
    pub p99: Option<Duration>,
}

/// Why the policy held n where it is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HoldReason {
    /// Load sits inside the hysteresis dead band (or delay vetoed a
    /// shrink that utilization alone would have allowed).
    Steady,
    /// A transition window closed less than a cooldown ago.
    Cooldown,
    /// Growth is needed but every provisioned server is already on.
    AtCeiling,
    /// Shrink is possible but n is already at the floor.
    AtFloor,
    /// The policy would shrink, but not every powered-on server
    /// answered this tick's scrape: a server that did not answer reads
    /// as idle. Set by the controller's lifecycle, never by
    /// [`WallPolicy::decide`], which sees no coverage.
    Blind,
}

/// One provisioning decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Keep the current n.
    Hold(HoldReason),
    /// Move the active set from `from` to `to` servers.
    Scale {
        /// Current active count.
        from: usize,
        /// Chosen active count (`to != from`).
        to: usize,
    },
}

/// The wall-clock feedback policy. Pure decision logic: no sockets, no
/// clocks of its own — the caller supplies `now` and the measurements,
/// which is what makes the hysteresis/cooldown/ramp properties unit-
/// testable.
#[derive(Debug, Clone)]
pub struct WallPolicy {
    config: PolicyConfig,
    last_window_closed: Option<Instant>,
}

impl WallPolicy {
    /// A policy with no transition history (first decision is never in
    /// cooldown).
    ///
    /// # Panics
    ///
    /// Panics on an inconsistent [`PolicyConfig`] (zero capacity or
    /// step, `min_servers` outside the cluster).
    #[must_use]
    pub fn new(config: PolicyConfig) -> Self {
        config.validate();
        WallPolicy {
            config,
            last_window_closed: None,
        }
    }

    /// The configuration this policy runs with.
    #[must_use]
    pub fn config(&self) -> &PolicyConfig {
        &self.config
    }

    /// Tells the policy a transition window just closed; decisions
    /// within [`PolicyConfig::cooldown`] of this instant hold.
    pub fn record_window_closed(&mut self, now: Instant) {
        self.last_window_closed = Some(now);
    }

    /// Whether `now` still falls inside the post-transition cooldown.
    fn in_cooldown(&self, now: Instant) -> bool {
        self.last_window_closed
            .is_some_and(|closed| now.saturating_duration_since(closed) < self.config.cooldown)
    }

    /// Decides what n should be, given this tick's measurements.
    pub fn decide(&self, now: Instant, input: &PolicyInput) -> Decision {
        let cfg = &self.config;
        let n = input.active.clamp(cfg.min_servers, cfg.total_servers);
        if self.in_cooldown(now) {
            return Decision::Hold(HoldReason::Cooldown);
        }
        let points = SetPoints::paper_defaults();
        let delay = match input.p99 {
            // No samples ⇒ no delay pressure: classify as the deepest
            // headroom so an idle cluster is free to shrink.
            None => DelaySignal::Headroom,
            Some(p99) => points.classify(duration_ns(p99)),
        };

        // Hard guard first: a violated delay bound forces growth with a
        // step proportional to the overshoot, regardless of what the
        // utilization band says (the paper's Fig. 9 delay spikes come
        // exactly from under-provisioning that load metrics lag on).
        if matches!(delay, DelaySignal::Overload) {
            let ratio = input
                .p99
                .map_or(1.0, |p99| points.overshoot(duration_ns(p99)));
            let step = (((ratio - 1.0) * n as f64).ceil() as usize).clamp(1, cfg.max_step);
            let to = (n + step).min(cfg.total_servers);
            return if to == n {
                Decision::Hold(HoldReason::AtCeiling)
            } else {
                Decision::Scale { from: n, to }
            };
        }

        let util = |servers: usize| input.ops_per_sec / (servers as f64 * cfg.server_capacity_ops);
        if util(n) > SCALE_UP_UTIL {
            // Grow until utilization re-enters the band, ramp-limited.
            let mut to = n;
            while to < cfg.total_servers && to - n < cfg.max_step && util(to) > SCALE_UP_UTIL {
                to += 1;
            }
            return if to == n {
                Decision::Hold(HoldReason::AtCeiling)
            } else {
                Decision::Scale { from: n, to }
            };
        }

        // Shrink wants both signals green: the smaller cluster must
        // stay under the low-water mark *and* the measured delay must
        // sit below the reference (InBand means "fine where we are,
        // not fine with less").
        if matches!(delay, DelaySignal::Headroom) {
            let mut to = n;
            while to > cfg.min_servers && n - to < cfg.max_step && util(to - 1) <= SCALE_DOWN_UTIL {
                to -= 1;
            }
            if to != n {
                return Decision::Scale { from: n, to };
            }
            if n == cfg.min_servers && util(n) <= SCALE_DOWN_UTIL {
                return Decision::Hold(HoldReason::AtFloor);
            }
        }
        Decision::Hold(HoldReason::Steady)
    }
}

fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> PolicyConfig {
        PolicyConfig {
            cooldown: Duration::from_secs(5),
            ..PolicyConfig::for_cluster(8, 100.0)
        }
    }

    fn input(active: usize, ops: f64, p99_ms: Option<u64>) -> PolicyInput {
        PolicyInput {
            active,
            ops_per_sec: ops,
            p99: p99_ms.map(Duration::from_millis),
        }
    }

    #[test]
    fn hysteresis_holds_n_under_load_noise() {
        // Mid-band: util 0.65 on n=4. ±10% noise keeps util within
        // [0.585, 0.715] — above the 0.55·(3/4)=0.41 down-trigger seen
        // from n=4, below the 0.75 up-trigger — so every sample holds.
        let policy = WallPolicy::new(config());
        let now = Instant::now();
        for i in 0..100 {
            let noise = 1.0 + 0.1 * f64::from(i - 50) / 50.0;
            let decision = policy.decide(now, &input(4, 260.0 * noise, Some(1)));
            assert_eq!(
                decision,
                Decision::Hold(HoldReason::Steady),
                "±10% load noise must not move n (sample {i})"
            );
        }
    }

    #[test]
    fn cooldown_prevents_back_to_back_transitions() {
        let mut policy = WallPolicy::new(config());
        let now = Instant::now();
        let overload = input(4, 260.0, Some(800));
        assert!(matches!(
            policy.decide(now, &overload),
            Decision::Scale { .. }
        ));
        policy.record_window_closed(now);
        assert_eq!(
            policy.decide(now + Duration::from_secs(1), &overload),
            Decision::Hold(HoldReason::Cooldown),
            "decisions inside the cooldown must hold"
        );
        assert!(
            matches!(
                policy.decide(now + Duration::from_secs(6), &overload),
                Decision::Scale { .. }
            ),
            "the cooldown must expire"
        );
    }

    #[test]
    fn ramp_limit_caps_movement_per_decision() {
        let policy = WallPolicy::new(config());
        let now = Instant::now();
        // Load collapses to near zero from n=8: want 1, allowed -2.
        match policy.decide(now, &input(8, 5.0, Some(1))) {
            Decision::Scale { from: 8, to } => assert_eq!(to, 6, "shrink capped at max_step"),
            other => panic!("expected capped shrink, got {other:?}"),
        }
        // Massive overload from n=2: overshoot says more, allowed +2.
        match policy.decide(now, &input(2, 700.0, Some(5_000))) {
            Decision::Scale { from: 2, to } => assert_eq!(to, 4, "growth capped at max_step"),
            other => panic!("expected capped growth, got {other:?}"),
        }
        // Utilization-driven growth is capped too.
        match policy.decide(now, &input(2, 790.0, Some(1))) {
            Decision::Scale { from: 2, to } => assert_eq!(to, 4),
            other => panic!("expected capped growth, got {other:?}"),
        }
    }

    #[test]
    fn decisions_are_monotone_in_measured_delay() {
        // Fixed light load that *permits* a shrink; sweep the p99 from
        // microseconds to seconds. The requested Δn must never decrease
        // as delay rises: shrink → hold → grow.
        let policy = WallPolicy::new(config());
        let now = Instant::now();
        let mut last_delta = i64::MIN;
        let mut seen = std::collections::BTreeSet::new();
        for p99_us in (0..2_000_000u64).step_by(9_973) {
            let decision = policy.decide(
                now,
                &PolicyInput {
                    active: 4,
                    ops_per_sec: 100.0,
                    p99: Some(Duration::from_micros(p99_us)),
                },
            );
            let delta = match decision {
                Decision::Hold(_) => 0,
                Decision::Scale { from, to } => to as i64 - from as i64,
            };
            assert!(
                delta >= last_delta,
                "delay {p99_us}µs produced Δ{delta} after Δ{last_delta}"
            );
            last_delta = delta;
            seen.insert(delta);
        }
        assert!(seen.contains(&-2), "headroom delay must allow the shrink");
        assert!(seen.iter().any(|&d| d > 0), "overload delay must grow");
    }

    #[test]
    fn idle_window_reads_as_headroom_and_floor_is_respected() {
        let policy = WallPolicy::new(config());
        let now = Instant::now();
        match policy.decide(now, &input(2, 10.0, None)) {
            Decision::Scale { from: 2, to: 1 } => {}
            other => panic!("idle cluster should shrink, got {other:?}"),
        }
        assert_eq!(
            policy.decide(now, &input(1, 10.0, None)),
            Decision::Hold(HoldReason::AtFloor)
        );
    }

    #[test]
    fn in_band_delay_vetoes_a_utilization_shrink() {
        let policy = WallPolicy::new(config());
        let now = Instant::now();
        // Utilization alone would shrink (util(3)=0.33 ≤ 0.55), but a
        // p99 between reference and bound says capacity is not spare.
        assert_eq!(
            policy.decide(now, &input(4, 100.0, Some(450))),
            Decision::Hold(HoldReason::Steady)
        );
    }
}
