//! Provisioning planning: the feedback loop and the load-proportional
//! planner.
//!
//! The paper runs a feedback control loop (delay bound 0.5 s, reference
//! 0.4 s, 30-minute updates) once, on Proteus, to obtain the `n(t)`
//! curve of Fig. 4 — then applies that same curve to all four
//! scenarios so routing is the only difference. [`ProvisioningPlan`]
//! is that reusable curve; [`FeedbackController`] is the loop;
//! [`ProvisioningPlan::load_proportional`] is a deterministic planner
//! that derives a Fig. 4-like curve directly from trace volume.

use proteus_sim::SimDuration;

/// Where a measured high-percentile delay sits relative to the loop's
/// set points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DelaySignal {
    /// Above the hard bound: the loop must add capacity.
    Overload,
    /// Inside the hysteresis band `[headroom · reference, bound]`:
    /// hold.
    InBand,
    /// Below the headroom fraction of the reference: capacity can be
    /// shed.
    Headroom,
}

/// The loop's set points, clock-agnostic: the reference delay, the
/// hard bound, and the hysteresis headroom fraction, all compared in
/// integer nanoseconds so the DES controller and the wall-clock
/// controller (`proteus-ctl`) share one classification.
///
/// # Example
///
/// ```
/// use proteus_core::{DelaySignal, SetPoints};
/// let sp = SetPoints::paper_defaults(); // 0.4 s reference, 0.5 s bound
/// assert_eq!(sp.classify(600_000_000), DelaySignal::Overload);
/// assert_eq!(sp.classify(450_000_000), DelaySignal::InBand);
/// assert_eq!(sp.classify(100_000_000), DelaySignal::Headroom);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SetPoints {
    reference_ns: u64,
    bound_ns: u64,
    headroom_fraction_percent: u32,
}

impl SetPoints {
    /// Set points from explicit nanosecond values.
    ///
    /// # Panics
    ///
    /// Panics unless `reference_ns <= bound_ns` and the headroom
    /// fraction is within `1..=100`.
    #[must_use]
    pub fn new(reference_ns: u64, bound_ns: u64, headroom_fraction_percent: u32) -> Self {
        assert!(
            reference_ns <= bound_ns,
            "reference must not exceed the bound"
        );
        assert!(
            (1..=100).contains(&headroom_fraction_percent),
            "headroom fraction must be within 1..=100 percent"
        );
        SetPoints {
            reference_ns,
            bound_ns,
            headroom_fraction_percent,
        }
    }

    /// The paper's configuration: 0.4 s reference, 0.5 s bound, scale
    /// down only below 80% of the reference.
    #[must_use]
    pub fn paper_defaults() -> Self {
        SetPoints::new(400_000_000, 500_000_000, 80)
    }

    /// The hard delay bound in nanoseconds.
    #[must_use]
    pub fn bound_ns(&self) -> u64 {
        self.bound_ns
    }

    /// Classifies a measured delay against the set points. Monotone:
    /// a larger delay never classifies *less* urgently.
    #[must_use]
    pub fn classify(&self, measured_ns: u64) -> DelaySignal {
        if measured_ns > self.bound_ns {
            DelaySignal::Overload
        } else if u128::from(measured_ns) * 100
            < u128::from(self.reference_ns) * u128::from(self.headroom_fraction_percent)
        {
            DelaySignal::Headroom
        } else {
            DelaySignal::InBand
        }
    }

    /// How far above the bound a measured delay sits, as a ratio
    /// (`measured / bound`); `1.0` at the bound, larger when overloaded.
    /// The wall-clock controller scales its ramp step by this overshoot.
    #[must_use]
    pub fn overshoot(&self, measured_ns: u64) -> f64 {
        if self.bound_ns == 0 {
            return 1.0;
        }
        measured_ns as f64 / self.bound_ns as f64
    }
}

/// A per-slot active-server plan, shared by all scenarios of one
/// experiment.
///
/// # Example
///
/// ```
/// use proteus_core::ProvisioningPlan;
/// let plan = ProvisioningPlan::load_proportional(&[100, 200, 150, 50], 10, 3);
/// assert_eq!(plan.slots(), 4);
/// assert_eq!(plan.active_at(1), 10); // peak slot uses everything
/// assert!(plan.active_at(3) >= 3);   // floor respected
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProvisioningPlan {
    per_slot: Vec<usize>,
    total_servers: usize,
}

impl ProvisioningPlan {
    /// Builds a plan from explicit per-slot counts.
    ///
    /// # Panics
    ///
    /// Panics if the plan is empty, any entry is zero, or any entry
    /// exceeds `total_servers`.
    #[must_use]
    pub fn from_counts(per_slot: Vec<usize>, total_servers: usize) -> Self {
        assert!(!per_slot.is_empty(), "plan needs at least one slot");
        assert!(
            per_slot.iter().all(|&n| n >= 1 && n <= total_servers),
            "per-slot counts must be within 1..={total_servers}"
        );
        ProvisioningPlan {
            per_slot,
            total_servers,
        }
    }

    /// A plan pinning all servers on in every slot (the Static
    /// scenario).
    #[must_use]
    pub fn all_on(slots: usize, total_servers: usize) -> Self {
        ProvisioningPlan::from_counts(vec![total_servers; slots], total_servers)
    }

    /// Derives a plan proportional to per-slot request volume:
    /// `n = clamp(ceil(N · volume / peak_volume), min_servers, N)`.
    ///
    /// # Panics
    ///
    /// Panics if inputs are empty/zero or `min_servers` exceeds
    /// `total_servers`.
    #[must_use]
    pub fn load_proportional(
        requests_per_slot: &[u64],
        total_servers: usize,
        min_servers: usize,
    ) -> Self {
        assert!(!requests_per_slot.is_empty(), "need per-slot volumes");
        assert!(total_servers >= 1, "need at least one server");
        assert!(
            (1..=total_servers).contains(&min_servers),
            "min_servers must be within 1..={total_servers}"
        );
        let peak = requests_per_slot.iter().copied().max().unwrap_or(1).max(1);
        let per_slot = requests_per_slot
            .iter()
            .map(|&v| {
                let n = (total_servers as f64 * v as f64 / peak as f64).ceil() as usize;
                n.clamp(min_servers, total_servers)
            })
            .collect();
        ProvisioningPlan {
            per_slot,
            total_servers,
        }
    }

    /// Number of slots.
    #[must_use]
    pub fn slots(&self) -> usize {
        self.per_slot.len()
    }

    /// Total servers available.
    #[must_use]
    pub fn total_servers(&self) -> usize {
        self.total_servers
    }

    /// Active servers in slot `i` (clamped to the last slot).
    #[must_use]
    pub fn active_at(&self, i: usize) -> usize {
        self.per_slot[i.min(self.per_slot.len() - 1)]
    }

    /// All per-slot counts.
    #[must_use]
    pub fn counts(&self) -> &[usize] {
        &self.per_slot
    }

    /// Mean active-server count over the plan.
    #[must_use]
    pub fn mean_active(&self) -> f64 {
        self.per_slot.iter().sum::<usize>() as f64 / self.per_slot.len() as f64
    }

    /// Number of slot boundaries at which the count changes — each one
    /// is a provisioning transition the actuator must smooth.
    #[must_use]
    pub fn transitions(&self) -> usize {
        self.per_slot.windows(2).filter(|w| w[0] != w[1]).count()
    }
}

/// The per-slot feedback loop of Section VI: hold the measured
/// 99.9th-percentile delay near the reference by adding servers when
/// delay is high and removing them when there is headroom.
///
/// # Example
///
/// ```
/// use proteus_core::FeedbackController;
/// use proteus_sim::SimDuration;
///
/// let mut fc = FeedbackController::paper_defaults(10);
/// // Delay above the 0.5 s bound: scale up.
/// let n = fc.decide(5, SimDuration::from_millis(700));
/// assert_eq!(n, 6);
/// // Comfortably below the reference: scale down.
/// let n = fc.decide(6, SimDuration::from_millis(80));
/// assert_eq!(n, 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeedbackController {
    total_servers: usize,
    min_servers: usize,
    /// Reference, bound, and hysteresis headroom (shared with the
    /// wall-clock controller).
    points: SetPoints,
}

impl FeedbackController {
    /// The paper's configuration: 0.4 s reference, 0.5 s bound.
    #[must_use]
    pub fn paper_defaults(total_servers: usize) -> Self {
        FeedbackController {
            total_servers,
            min_servers: 1,
            points: SetPoints::paper_defaults(),
        }
    }

    /// Sets the minimum server count (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `min` is zero or exceeds the total.
    #[must_use]
    pub fn min_servers(mut self, min: usize) -> Self {
        assert!((1..=self.total_servers).contains(&min), "invalid minimum");
        self.min_servers = min;
        self
    }

    /// Sets the reference and bound (builder style).
    ///
    /// # Panics
    ///
    /// Panics unless `reference <= bound`.
    #[must_use]
    pub fn set_points(mut self, reference: SimDuration, bound: SimDuration) -> Self {
        self.points = SetPoints::new(
            reference.as_nanos(),
            bound.as_nanos(),
            self.points.headroom_fraction_percent,
        );
        self
    }

    /// One control decision: given the current active count and the
    /// slot's measured high-percentile delay, return the next count.
    #[must_use]
    pub fn decide(&mut self, current: usize, measured_delay: SimDuration) -> usize {
        let current = current.clamp(self.min_servers, self.total_servers);
        match self.points.classify(measured_delay.as_nanos()) {
            // Overshoot: add capacity immediately.
            DelaySignal::Overload => (current + 1).min(self.total_servers),
            // Ample headroom: shed one server.
            DelaySignal::Headroom => current.saturating_sub(1).max(self.min_servers),
            DelaySignal::InBand => current,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_proportional_tracks_volume_shape() {
        let volumes = [500u64, 1000, 900, 600, 400, 450];
        let plan = ProvisioningPlan::load_proportional(&volumes, 10, 4);
        assert_eq!(plan.counts(), &[5, 10, 9, 6, 4, 5]);
        assert_eq!(plan.transitions(), 5);
        assert!((plan.mean_active() - 39.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn load_proportional_respects_floor_and_ceiling() {
        let plan = ProvisioningPlan::load_proportional(&[1, 1_000_000], 8, 3);
        assert_eq!(plan.active_at(0), 3);
        assert_eq!(plan.active_at(1), 8);
    }

    #[test]
    fn all_on_is_flat() {
        let plan = ProvisioningPlan::all_on(5, 10);
        assert!(plan.counts().iter().all(|&n| n == 10));
        assert_eq!(plan.transitions(), 0);
    }

    #[test]
    fn active_at_clamps_past_the_end() {
        let plan = ProvisioningPlan::from_counts(vec![2, 3], 4);
        assert_eq!(plan.active_at(99), 3);
    }

    #[test]
    #[should_panic(expected = "within 1..=4")]
    fn from_counts_validates_range() {
        let _ = ProvisioningPlan::from_counts(vec![5], 4);
    }

    #[test]
    fn feedback_loop_converges_to_a_band() {
        // Simulated plant: delay inversely proportional to capacity.
        let mut fc = FeedbackController::paper_defaults(10).min_servers(2);
        let mut n = 10usize;
        let load = 6.0; // needs ~6 servers for 0.4 s
        let mut history = vec![];
        for _ in 0..30 {
            let delay = SimDuration::from_secs_f64(0.4 * load / n as f64);
            n = fc.decide(n, delay);
            history.push(n);
        }
        let settled = &history[10..];
        assert!(
            settled.iter().all(|&x| (5..=9).contains(&x)),
            "history {history:?}"
        );
    }

    #[test]
    fn feedback_never_leaves_bounds() {
        let mut fc = FeedbackController::paper_defaults(4).min_servers(2);
        assert_eq!(
            fc.decide(4, SimDuration::from_secs(10)),
            4,
            "capped at total"
        );
        assert_eq!(fc.decide(2, SimDuration::ZERO), 2, "floored at min");
    }

    #[test]
    fn set_points_classification_is_monotone() {
        let sp = SetPoints::paper_defaults();
        let mut last = DelaySignal::Headroom;
        let rank = |s: DelaySignal| match s {
            DelaySignal::Headroom => 0,
            DelaySignal::InBand => 1,
            DelaySignal::Overload => 2,
        };
        for ns in (0..1_000_000_000u64).step_by(1_000_000) {
            let signal = sp.classify(ns);
            assert!(
                rank(signal) >= rank(last),
                "classification regressed at {ns} ns"
            );
            last = signal;
        }
        assert_eq!(sp.classify(319_999_999), DelaySignal::Headroom);
        assert_eq!(sp.classify(320_000_000), DelaySignal::InBand);
        assert_eq!(sp.classify(500_000_000), DelaySignal::InBand);
        assert_eq!(sp.classify(500_000_001), DelaySignal::Overload);
    }

    #[test]
    fn set_points_overshoot_ratio() {
        let sp = SetPoints::new(100, 200, 80);
        assert!((sp.overshoot(200) - 1.0).abs() < 1e-12);
        assert!((sp.overshoot(500) - 2.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "reference must not exceed")]
    fn set_points_reject_inverted_band() {
        let _ = SetPoints::new(200, 100, 80);
    }

    #[test]
    fn set_points_builder() {
        let mut fc = FeedbackController::paper_defaults(10)
            .set_points(SimDuration::from_millis(100), SimDuration::from_millis(200));
        assert_eq!(fc.decide(5, SimDuration::from_millis(250)), 6);
        assert_eq!(fc.decide(5, SimDuration::from_millis(150)), 5);
        assert_eq!(fc.decide(5, SimDuration::from_millis(10)), 4);
    }
}
