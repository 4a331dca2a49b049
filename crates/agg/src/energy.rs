//! Wall-clock energy accounting for a live cluster.
//!
//! [`proteus_core::EnergyMeter`] integrates power over simulated time;
//! this module ports the same left-Riemann PDU-style accounting to
//! `std::time::Instant` so the aggregator can meter a real running
//! cluster. Alongside the measured draw it integrates an *oracle*
//! cluster — the fewest servers that could carry the observed demand,
//! perfectly balanced, everything else powered off — giving the
//! power-proportionality ratio the paper normalizes against.

use std::time::{Duration, Instant};

use proteus_core::{PowerModel, PowerState};

/// One integration step's worth of per-server observations.
#[derive(Debug, Clone, Copy)]
struct Reading {
    at: Instant,
    cluster_w: f64,
    oracle_w: f64,
    active: usize,
}

/// Integrates modeled per-server watts into cluster joules over wall
/// time, with a parallel oracle integral for proportionality.
///
/// # Example
///
/// ```
/// use std::time::{Duration, Instant};
/// use proteus_agg::WallEnergyMeter;
/// use proteus_core::{PowerModel, PowerState};
///
/// let mut meter = WallEnergyMeter::new(PowerModel::default(), 2, 10_000.0);
/// let t0 = Instant::now();
/// meter.sample_at(t0, &[0.5, 0.5]);
/// meter.sample_at(t0 + Duration::from_secs(10), &[0.5, 0.5]);
/// // Two servers at 50%: 2 × (60 + 35·0.5) W for 10 s.
/// assert!((meter.joules() - 1550.0).abs() < 1e-6);
/// assert!(meter.proportionality().unwrap() > 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct WallEnergyMeter {
    model: PowerModel,
    capacity_ops: f64,
    states: Vec<PowerState>,
    joules: f64,
    oracle_joules: f64,
    server_seconds: f64,
    start: Option<Instant>,
    last: Option<Reading>,
}

impl WallEnergyMeter {
    /// A meter over `servers` servers (all initially [`PowerState::On`])
    /// whose individual serving capacity is `capacity_ops` ops/s — the
    /// denominator the oracle uses to decide how few servers the
    /// observed demand actually needs.
    #[must_use]
    pub fn new(model: PowerModel, servers: usize, capacity_ops: f64) -> Self {
        WallEnergyMeter {
            model,
            capacity_ops: capacity_ops.max(f64::MIN_POSITIVE),
            states: vec![PowerState::On; servers],
            joules: 0.0,
            oracle_joules: 0.0,
            server_seconds: 0.0,
            start: None,
            last: None,
        }
    }

    /// Adds a server in `state` to the metered set. Like
    /// [`set_state`](Self::set_state), it participates from the next
    /// sample; the in-flight interval keeps the draw it started with.
    pub fn push_server(&mut self, state: PowerState) {
        self.states.push(state);
    }

    /// Sets server `idx`'s power state. Takes effect from the *next*
    /// sample: the in-flight interval still integrates at the draw
    /// observed when it began (left Riemann), exactly like the
    /// sim-time meter.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn set_state(&mut self, idx: usize, state: PowerState) {
        self.states[idx] = state;
    }

    /// Current power state of server `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[must_use]
    pub fn state(&self, idx: usize) -> PowerState {
        self.states[idx]
    }

    /// Records a sample at `now`. `utilizations[i]` is server `i`'s
    /// observed utilization in `[0, 1]`; missing entries read as idle.
    /// The explicit instant makes energy tests deterministic
    /// (`t0 + Duration::from_secs(n)` arithmetic instead of real
    /// sleeps). Out-of-order instants are
    /// treated as zero-length intervals rather than panicking, since
    /// `Instant` is monotonic in production and only tests synthesize
    /// timelines.
    pub fn sample_at(&mut self, now: Instant, utilizations: &[f64]) {
        if let Some(prev) = self.last {
            let dt = now
                .checked_duration_since(prev.at)
                .unwrap_or(Duration::ZERO)
                .as_secs_f64();
            self.joules += prev.cluster_w * dt;
            self.oracle_joules += prev.oracle_w * dt;
            self.server_seconds += prev.active as f64 * dt;
        }
        self.start.get_or_insert(now);

        let mut cluster_w = 0.0;
        let mut demand_ops = 0.0;
        let mut active = 0;
        for (i, &state) in self.states.iter().enumerate() {
            let u = utilizations.get(i).copied().unwrap_or(0.0);
            cluster_w += self.model.draw(state, u);
            if state != PowerState::Off {
                active += 1;
            }
            if matches!(state, PowerState::On | PowerState::Draining) {
                demand_ops += u.clamp(0.0, 1.0) * self.capacity_ops;
            }
        }
        self.last = Some(Reading {
            at: now,
            cluster_w,
            oracle_w: self.oracle_watts(demand_ops),
            active,
        });
    }

    /// The oracle cluster's draw for `demand_ops` total ops/s: the
    /// fewest servers that can carry it, each at the balanced
    /// utilization, every other server off.
    fn oracle_watts(&self, demand_ops: f64) -> f64 {
        let n = self.states.len();
        if n == 0 {
            return 0.0;
        }
        let needed = if demand_ops <= 0.0 {
            0
        } else {
            ((demand_ops / self.capacity_ops).ceil() as usize).clamp(1, n)
        };
        let balanced_u = if needed == 0 {
            0.0
        } else {
            demand_ops / (needed as f64 * self.capacity_ops)
        };
        needed as f64 * self.model.draw(PowerState::On, balanced_u)
            + (n - needed) as f64 * self.model.draw(PowerState::Off, 0.0)
    }

    /// Accumulated measured energy in joules.
    #[must_use]
    pub fn joules(&self) -> f64 {
        self.joules
    }

    /// Accumulated oracle (ideal power-proportional) energy in joules.
    #[must_use]
    pub fn oracle_joules(&self) -> f64 {
        self.oracle_joules
    }

    /// Power-proportionality ratio: measured joules ÷ oracle joules.
    /// `1.0` is perfect proportionality; commodity clusters with big
    /// idle floors land well above it. `None` before any energy has
    /// accumulated.
    #[must_use]
    pub fn proportionality(&self) -> Option<f64> {
        (self.oracle_joules > 0.0).then(|| self.joules / self.oracle_joules)
    }

    /// Accumulated non-off server-seconds (the paper's provisioning
    /// cost unit: how much machine-time the cluster actually burned).
    #[must_use]
    pub fn server_seconds(&self) -> f64 {
        self.server_seconds
    }

    /// The most recent instantaneous cluster draw in watts, or `None`
    /// before the first sample.
    #[must_use]
    pub fn watts(&self) -> Option<f64> {
        self.last.map(|r| r.cluster_w)
    }

    /// Wall time between the first and latest sample.
    #[must_use]
    pub fn elapsed(&self) -> Option<Duration> {
        let start = self.start?;
        self.last?.at.checked_duration_since(start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> PowerModel {
        PowerModel::default()
    }

    #[test]
    fn integrates_left_riemann_over_wall_time() {
        let mut m = WallEnergyMeter::new(model(), 1, 1000.0);
        let t0 = Instant::now();
        m.sample_at(t0, &[1.0]); // 95 W
        m.sample_at(t0 + Duration::from_secs(10), &[0.0]); // was 95 W for 10 s
        m.sample_at(t0 + Duration::from_secs(30), &[0.0]); // was 60 W for 20 s
        assert!((m.joules() - (950.0 + 1200.0)).abs() < 1e-6);
        assert_eq!(m.elapsed(), Some(Duration::from_secs(30)));
        assert!((m.server_seconds() - 30.0).abs() < 1e-6);
    }

    #[test]
    fn powering_a_server_off_cuts_energy_versus_all_on() {
        let run = |power_down: bool| {
            let mut m = WallEnergyMeter::new(model(), 4, 1000.0);
            let t0 = Instant::now();
            m.sample_at(t0, &[0.2; 4]);
            m.sample_at(t0 + Duration::from_secs(60), &[0.2; 4]);
            if power_down {
                m.set_state(3, PowerState::Off);
            }
            m.sample_at(t0 + Duration::from_secs(61), &[0.25, 0.25, 0.25, 0.0]);
            m.sample_at(t0 + Duration::from_secs(121), &[0.25, 0.25, 0.25, 0.0]);
            m
        };
        let baseline = run(false);
        let scaled = run(true);
        assert!(
            scaled.joules() < baseline.joules(),
            "n-1 window must cost less: {} vs {}",
            scaled.joules(),
            baseline.joules()
        );
        assert!(scaled.server_seconds() < baseline.server_seconds());
    }

    #[test]
    fn oracle_uses_fewest_balanced_servers() {
        // 4 servers at 30% of 1000 ops each → 1200 ops demand → the
        // oracle needs 2 servers at 60%, the other two off.
        let mut m = WallEnergyMeter::new(model(), 4, 1000.0);
        let t0 = Instant::now();
        m.sample_at(t0, &[0.3; 4]);
        m.sample_at(t0 + Duration::from_secs(10), &[0.3; 4]);
        let expected_oracle_w =
            2.0 * model().draw(PowerState::On, 0.6) + 2.0 * model().draw(PowerState::Off, 0.0);
        assert!((m.oracle_joules() - expected_oracle_w * 10.0).abs() < 1e-6);
        let ratio = m.proportionality().unwrap();
        let measured_w = 4.0 * model().draw(PowerState::On, 0.3);
        assert!((ratio - measured_w / expected_oracle_w).abs() < 1e-9);
        assert!(
            ratio > 1.0,
            "idle floors make real clusters non-proportional"
        );
    }

    #[test]
    fn zero_demand_oracle_is_all_off() {
        let mut m = WallEnergyMeter::new(model(), 3, 1000.0);
        let t0 = Instant::now();
        m.sample_at(t0, &[0.0; 3]);
        m.sample_at(t0 + Duration::from_secs(5), &[0.0; 3]);
        assert!(
            (m.oracle_joules() - 3.0 * 5.0 * 5.0).abs() < 1e-6,
            "3 × off_w × 5 s"
        );
    }

    #[test]
    fn booting_draws_boot_watts_and_counts_as_active() {
        let mut m = WallEnergyMeter::new(model(), 2, 1000.0);
        m.set_state(0, PowerState::Booting);
        m.set_state(1, PowerState::Off);
        let t0 = Instant::now();
        m.sample_at(t0, &[1.0, 1.0]); // boot ignores utilization
        m.sample_at(t0 + Duration::from_secs(10), &[0.0, 0.0]);
        assert!((m.joules() - (80.0 + 5.0) * 10.0).abs() < 1e-6);
        assert!(
            (m.server_seconds() - 10.0).abs() < 1e-6,
            "only the booting one"
        );
    }

    #[test]
    fn out_of_order_instants_do_not_panic_or_subtract() {
        let mut m = WallEnergyMeter::new(model(), 1, 1000.0);
        let t0 = Instant::now();
        m.sample_at(t0 + Duration::from_secs(10), &[0.0]);
        m.sample_at(t0, &[0.0]); // earlier: zero-length interval
        assert_eq!(m.joules(), 0.0);
    }

    #[test]
    fn empty_meter_reports_none() {
        let m = WallEnergyMeter::new(model(), 0, 1000.0);
        assert_eq!(m.watts(), None);
        assert_eq!(m.proportionality(), None);
        assert_eq!(m.elapsed(), None);
    }
}
