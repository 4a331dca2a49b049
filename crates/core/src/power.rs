//! Power modelling and energy accounting (Figs. 10 and 11).
//!
//! The paper measures real PDU readings of its 40-server cluster every
//! 15 seconds. We substitute a per-server power model with the usual
//! commodity-server shape — a large idle floor plus a roughly linear
//! load-dependent component — and integrate samples over simulated
//! time.

use proteus_sim::SimTime;

/// A cache server's power state in the provisioning state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PowerState {
    /// Powered off (the low-power state dynamic provisioning buys).
    Off,
    /// Booting: drawing power but not yet serving.
    Booting,
    /// Serving traffic.
    #[default]
    On,
    /// In the TTL drain window: still serving (migration reads) but
    /// scheduled to power off.
    Draining,
}

/// Per-server power draw by state and utilization.
///
/// Defaults approximate the paper's Dell PowerEdge R210s: ~5 W "off"
/// (management controller), ~60 W idle, ~95 W at full load.
///
/// # Example
///
/// ```
/// use proteus_core::{PowerModel, PowerState};
/// let m = PowerModel::default();
/// assert!(m.draw(PowerState::Off, 0.0) < m.draw(PowerState::On, 0.0));
/// assert!(m.draw(PowerState::On, 1.0) > m.draw(PowerState::On, 0.1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    /// Watts when powered off (standby management hardware).
    pub off_w: f64,
    /// Watts when idle.
    pub idle_w: f64,
    /// Watts at 100% utilization.
    pub peak_w: f64,
    /// Watts while booting.
    pub boot_w: f64,
}

impl Default for PowerModel {
    fn default() -> Self {
        PowerModel {
            off_w: 5.0,
            idle_w: 60.0,
            peak_w: 95.0,
            boot_w: 80.0,
        }
    }
}

impl PowerModel {
    /// Instantaneous draw for a server in `state` at `utilization`
    /// (clamped to `[0, 1]`).
    #[must_use]
    pub fn draw(&self, state: PowerState, utilization: f64) -> f64 {
        let u = utilization.clamp(0.0, 1.0);
        match state {
            PowerState::Off => self.off_w,
            PowerState::Booting => self.boot_w,
            PowerState::On | PowerState::Draining => self.idle_w + (self.peak_w - self.idle_w) * u,
        }
    }
}

/// Power of an always-on tier (web servers, database shards) with a
/// small load-dependent term: the paper's Static curve "actually
/// decreases slightly as the workload decreases".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TierPowerModel {
    /// Number of servers in the tier.
    pub servers: usize,
    /// Idle watts per server.
    pub idle_w: f64,
    /// Additional watts per server at the tier's peak request rate.
    pub load_w: f64,
}

impl TierPowerModel {
    /// Tier draw at `load_fraction` of its peak throughput.
    #[must_use]
    pub fn draw(&self, load_fraction: f64) -> f64 {
        let u = load_fraction.clamp(0.0, 1.0);
        self.servers as f64 * (self.idle_w + self.load_w * u)
    }
}

/// Integrates sampled power into energy, PDU-style.
///
/// # Example
///
/// ```
/// use proteus_core::EnergyMeter;
/// use proteus_sim::SimTime;
///
/// let mut meter = EnergyMeter::new();
/// meter.sample(SimTime::from_secs(0), 100.0);
/// meter.sample(SimTime::from_secs(10), 100.0);
/// assert!((meter.joules() - 1000.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyMeter {
    joules: f64,
    last: Option<(SimTime, f64)>,
}

impl EnergyMeter {
    /// A meter with no samples.
    #[must_use]
    pub fn new() -> Self {
        EnergyMeter::default()
    }

    /// Records a power reading of `watts` at time `t`; energy is
    /// accumulated with the previous reading held constant over the
    /// interval (left Riemann sum, like a PDU's periodic sampling).
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes the previous sample.
    pub fn sample(&mut self, t: SimTime, watts: f64) {
        if let Some((prev_t, prev_w)) = self.last {
            let dt = t
                .checked_since(prev_t)
                .expect("power samples must be time-ordered");
            self.joules += prev_w * dt.as_secs_f64();
        }
        self.last = Some((t, watts));
    }

    /// Accumulated energy in joules.
    #[must_use]
    pub fn joules(&self) -> f64 {
        self.joules
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_states_order_sensibly() {
        let m = PowerModel::default();
        let off = m.draw(PowerState::Off, 0.0);
        let idle = m.draw(PowerState::On, 0.0);
        let busy = m.draw(PowerState::On, 1.0);
        let boot = m.draw(PowerState::Booting, 0.0);
        assert!(off < idle && idle < busy);
        assert!(boot > idle - 1.0);
        assert_eq!(
            m.draw(PowerState::Draining, 0.5),
            m.draw(PowerState::On, 0.5)
        );
    }

    #[test]
    fn utilization_is_clamped() {
        let m = PowerModel::default();
        assert_eq!(m.draw(PowerState::On, -3.0), m.draw(PowerState::On, 0.0));
        assert_eq!(m.draw(PowerState::On, 9.0), m.draw(PowerState::On, 1.0));
    }

    #[test]
    fn meter_integrates_step_function() {
        let mut meter = EnergyMeter::new();
        meter.sample(SimTime::from_secs(0), 50.0);
        meter.sample(SimTime::from_secs(10), 150.0);
        meter.sample(SimTime::from_secs(20), 0.0);
        // 50 W for 10 s + 150 W for 10 s.
        assert!((meter.joules() - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn meter_with_one_sample_has_no_energy() {
        let mut meter = EnergyMeter::new();
        meter.sample(SimTime::from_secs(5), 100.0);
        assert_eq!(meter.joules(), 0.0);
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn meter_rejects_time_travel() {
        let mut meter = EnergyMeter::new();
        meter.sample(SimTime::from_secs(10), 1.0);
        meter.sample(SimTime::from_secs(5), 1.0);
    }

    #[test]
    fn tier_power_scales_with_load() {
        let tier = TierPowerModel {
            servers: 7,
            idle_w: 55.0,
            load_w: 25.0,
        };
        assert!((tier.draw(0.0) - 385.0).abs() < 1e-9);
        assert!(tier.draw(1.0) > tier.draw(0.2));
        assert!((tier.draw(2.0) - tier.draw(1.0)).abs() < 1e-9, "clamped");
    }
}
