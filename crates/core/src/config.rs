//! Cluster configuration and the latency model.

use proteus_bloom::BloomConfig;
use proteus_sim::{Distribution, SimDuration};
use proteus_workload::{SessionConfig, TraceConfig};

use crate::power::{PowerModel, TierPowerModel};

/// Service and network latency distributions for each hop of the
/// RBE → web → cache → database pipeline.
///
/// The defaults reflect the paper's testbed proportions: sub-millisecond
/// cache access, database fetches three orders of magnitude slower
/// (three sequential index lookups against InnoDB), gigabit-LAN round
/// trips.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyModel {
    /// Servlet-side processing per request.
    pub web_processing: Distribution,
    /// Web ↔ cache round trip.
    pub cache_rtt: Distribution,
    /// Cache-server service time per operation.
    pub cache_service: Distribution,
    /// Web ↔ database round trip.
    pub db_rtt: Distribution,
    /// Database service time for one full 3-stage fetch.
    pub db_service: Distribution,
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel {
            web_processing: Distribution::constant(0.0002),
            cache_rtt: Distribution::constant(0.0003),
            cache_service: Distribution::constant(0.0001),
            db_rtt: Distribution::constant(0.0005),
            db_service: Distribution::log_normal(0.040, 0.025),
        }
    }
}

/// Full configuration of one simulated cluster experiment.
///
/// The defaults ([`ClusterConfig::paper_scale`]) reproduce the paper's
/// deployment at 60:1 time compression: 10 cache servers, 7 database
/// shards, 10 web servers; 48 provisioning slots of 30 s stand in for
/// the 24-hour day of 30-minute slots; the 10 s hot-data TTL stands in
/// for a 10-minute window.
///
/// # Example
///
/// ```
/// use proteus_core::ClusterConfig;
/// let cfg = ClusterConfig::paper_scale();
/// assert_eq!(cfg.cache_servers, 10);
/// assert_eq!(cfg.db_shards, 7);
/// assert_eq!(cfg.slots, 48);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Number of cache servers (`N`).
    pub cache_servers: usize,
    /// Number of database shards.
    pub db_shards: usize,
    /// Number of web servers (power accounting only — web capacity is
    /// not a bottleneck in the paper's setup).
    pub web_servers: usize,
    /// Provisioning slot length.
    pub slot: SimDuration,
    /// Number of slots (total duration = `slot × slots`).
    pub slots: usize,
    /// The hot-data TTL: the transition window's length (`DrainEnd`
    /// fires this long after a transition begins).
    pub hot_ttl: SimDuration,
    /// Per-server cache capacity in bytes.
    pub cache_capacity_bytes: u64,
    /// Fixed object size (the paper's 4 KB page unit).
    pub object_size: usize,
    /// Page catalog size.
    pub pages: u64,
    /// Zipf popularity exponent.
    pub zipf_exponent: f64,
    /// Database connections per shard (the queueing bottleneck).
    pub db_pool_per_shard: usize,
    /// Concurrent operations per cache server.
    pub cache_concurrency: usize,
    /// Concurrent requests per web server (servlet thread pool).
    pub web_concurrency: usize,
    /// Time for digest snapshots to reach the web tier at a transition
    /// start; until it elapses, Algorithm 2 line 6 cannot fire and
    /// misses go straight to the database ("at the beginning of the
    /// transition stage, digests will be broadcasted to all web
    /// servers" — a few KB per digest, so tens of milliseconds).
    pub digest_broadcast_delay: SimDuration,
    /// Hop latencies.
    pub latency: LatencyModel,
    /// Cache-server power model (uniform fleet).
    pub power: PowerModel,
    /// Heterogeneous fleet: per-server power models, indexed by
    /// provisioning order. Overrides `power` when set. Section III-A:
    /// "the decreasing order of server efficiency should be better
    /// than a random order" — order efficient servers first so the
    /// always-on prefix is the cheap one.
    pub per_server_power: Option<Vec<PowerModel>>,
    /// Web-tier power model.
    pub web_tier_power: TierPowerModel,
    /// Database-tier power model.
    pub db_tier_power: TierPowerModel,
    /// PDU sampling interval.
    pub power_sample: SimDuration,
    /// Number of response-time buckets across the run (Fig. 9 groups
    /// into 480).
    pub response_buckets: usize,
    /// Pre-warm caches with the most popular pages before the run.
    pub prewarm: bool,
    /// Coalesce concurrent misses for one key into a single database
    /// fetch (the web tier's dog-pile countermeasure; see DESIGN.md).
    /// Disable only for the `ablation_coalescing` experiment.
    pub coalesce_db_fetches: bool,
    /// Override the per-server digest configuration (`None` sizes the
    /// digest automatically from the cache capacity). Used by the
    /// digest-size ablation.
    pub digest_override: Option<BloomConfig>,
    /// Fault injection: at each `(time, server)` the server's cache is
    /// wiped (a crash-and-fast-restart). Section III-A's argument —
    /// "if some server crashes, we have already lost the data in
    /// cache" — applies to every scenario equally; this knob measures
    /// how each recovers.
    pub cache_wipe_failures: Vec<(proteus_sim::SimTime, usize)>,
}

impl ClusterConfig {
    /// The paper-scale configuration (60:1 time compression).
    #[must_use]
    pub fn paper_scale() -> Self {
        ClusterConfig {
            cache_servers: 10,
            db_shards: 7,
            web_servers: 10,
            slot: SimDuration::from_secs(30),
            slots: 48,
            hot_ttl: SimDuration::from_secs(10),
            cache_capacity_bytes: 32 << 20,
            object_size: 4096,
            pages: 200_000,
            zipf_exponent: 0.8,
            db_pool_per_shard: 5,
            cache_concurrency: 16,
            web_concurrency: 64,
            digest_broadcast_delay: SimDuration::from_millis(50),
            latency: LatencyModel::default(),
            power: PowerModel::default(),
            per_server_power: None,
            web_tier_power: TierPowerModel {
                servers: 10,
                idle_w: 60.0,
                load_w: 25.0,
            },
            db_tier_power: TierPowerModel {
                servers: 7,
                idle_w: 65.0,
                load_w: 30.0,
            },
            power_sample: SimDuration::from_millis(500),
            response_buckets: 480,
            prewarm: true,
            coalesce_db_fetches: true,
            digest_override: None,
            cache_wipe_failures: Vec::new(),
        }
    }

    /// A small, fast configuration for tests and examples: 4 cache
    /// servers, 2 shards, short slots, a small catalog.
    #[must_use]
    pub fn small() -> Self {
        ClusterConfig {
            cache_servers: 4,
            db_shards: 2,
            web_servers: 2,
            slot: SimDuration::from_secs(10),
            slots: 6,
            hot_ttl: SimDuration::from_secs(6),
            cache_capacity_bytes: 2 << 20,
            object_size: 1024,
            pages: 20_000,
            zipf_exponent: 0.8,
            db_pool_per_shard: 3,
            cache_concurrency: 8,
            web_concurrency: 32,
            digest_broadcast_delay: SimDuration::from_millis(20),
            latency: LatencyModel::default(),
            power: PowerModel::default(),
            per_server_power: None,
            web_tier_power: TierPowerModel {
                servers: 2,
                idle_w: 60.0,
                load_w: 25.0,
            },
            db_tier_power: TierPowerModel {
                servers: 2,
                idle_w: 65.0,
                load_w: 30.0,
            },
            power_sample: SimDuration::from_millis(500),
            response_buckets: 60,
            prewarm: true,
            coalesce_db_fetches: true,
            digest_override: None,
            cache_wipe_failures: Vec::new(),
        }
    }

    /// Total simulated duration.
    #[must_use]
    pub fn duration(&self) -> SimDuration {
        self.slot * self.slots as u64
    }

    /// A matching trace configuration with the given mean request rate.
    #[must_use]
    pub fn trace_config(&self, mean_rate: f64) -> TraceConfig {
        TraceConfig {
            duration: self.duration(),
            mean_rate,
            peak_to_nadir: 2.0,
            pages: self.pages,
            zipf_exponent: self.zipf_exponent,
            session: SessionConfig {
                pages_per_user: 50,
                think_time: SimDuration::from_millis(500),
                mean_session: SimDuration::from_secs(20),
                catalog_pages: self.pages,
                zipf_exponent: self.zipf_exponent,
            },
        }
    }

    /// The power model of cache server `i` (the heterogeneous entry if
    /// configured, the uniform model otherwise).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range for a heterogeneous fleet.
    #[must_use]
    pub fn server_power(&self, i: usize) -> PowerModel {
        match &self.per_server_power {
            Some(models) => models[i],
            None => self.power,
        }
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on degenerate settings (zero servers/shards/slots, TTL
    /// not shorter than a slot, etc.). Called by
    /// [`ClusterSim::new`](crate::ClusterSim::new).
    pub fn validate(&self) {
        assert!(self.cache_servers >= 1, "need at least one cache server");
        assert!(self.db_shards >= 1, "need at least one database shard");
        assert!(self.slots >= 1, "need at least one slot");
        assert!(self.slot > SimDuration::ZERO, "slot must be positive");
        assert!(
            self.hot_ttl < self.slot,
            "hot TTL must be shorter than a slot so transitions complete \
             before the next provisioning decision"
        );
        assert!(self.db_pool_per_shard >= 1, "shards need connections");
        assert!(self.cache_concurrency >= 1, "caches need workers");
        assert!(self.web_concurrency >= 1, "web servers need threads");
        assert!(self.web_servers >= 1, "need at least one web server");
        assert!(
            self.digest_broadcast_delay < self.hot_ttl,
            "digest broadcast must complete within the transition window"
        );
        assert!(self.response_buckets >= 1, "need response buckets");
        assert!(self.pages >= 1, "need a page catalog");
        assert!(
            self.cache_wipe_failures
                .iter()
                .all(|&(_, server)| server < self.cache_servers),
            "failure injection names an unknown server"
        );
        if let Some(models) = &self.per_server_power {
            assert_eq!(
                models.len(),
                self.cache_servers,
                "per-server power models must cover the whole fleet"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power::PowerModel;

    #[test]
    fn paper_scale_validates() {
        let cfg = ClusterConfig::paper_scale();
        cfg.validate();
        assert_eq!(cfg.duration(), SimDuration::from_secs(1440));
    }

    #[test]
    fn small_validates() {
        ClusterConfig::small().validate();
    }

    #[test]
    fn trace_config_matches_duration_and_catalog() {
        let cfg = ClusterConfig::small();
        let tc = cfg.trace_config(100.0);
        assert_eq!(tc.duration, cfg.duration());
        assert_eq!(tc.pages, cfg.pages);
        assert_eq!(tc.mean_rate, 100.0);
    }

    #[test]
    fn server_power_uniform_and_heterogeneous() {
        let mut cfg = ClusterConfig::small();
        assert_eq!(cfg.server_power(0), cfg.power);
        assert_eq!(cfg.server_power(3), cfg.power);
        let models: Vec<PowerModel> = (0..cfg.cache_servers)
            .map(|i| PowerModel {
                idle_w: 40.0 + i as f64,
                ..PowerModel::default()
            })
            .collect();
        cfg.per_server_power = Some(models.clone());
        cfg.validate();
        assert_eq!(cfg.server_power(2), models[2]);
    }

    #[test]
    #[should_panic(expected = "cover the whole fleet")]
    fn short_power_fleet_rejected() {
        let mut cfg = ClusterConfig::small();
        cfg.per_server_power = Some(vec![PowerModel::default()]);
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "hot TTL must be shorter")]
    fn ttl_longer_than_slot_rejected() {
        let mut cfg = ClusterConfig::small();
        cfg.hot_ttl = cfg.slot;
        cfg.validate();
    }
}
