//! Experiment metrics: fetch classification, counters, and the
//! end-of-run report.

use proteus_sim::{Histogram, SimDuration, SimTime};

/// How one request was ultimately served (Algorithm 2's branches).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FetchClass {
    /// Served from the key's (new-mapping) cache server.
    NewHit,
    /// Served from the old server during a transition window and
    /// migrated on demand — the amortized-migration path.
    Migrated,
    /// Fetched from the database because the data was cold.
    Database,
    /// Fetched from the database after the old server's digest answered
    /// "yes" but the lookup missed — a Bloom false positive.
    DatabaseFalsePositive,
    /// Fetched from the database because a cache server could not be
    /// reached. Only drivers with real sockets produce it; the
    /// simulator's servers always answer.
    Degraded,
}

/// Counters over all completed requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FetchCounters {
    /// New-server cache hits.
    pub new_hits: u64,
    /// On-demand migrations (old-server hits during transitions).
    pub migrated: u64,
    /// Cold fetches from the database (and degraded ones, where a
    /// driver can observe an unreachable server).
    pub database: u64,
    /// Database fetches caused by digest false positives.
    pub database_false_positive: u64,
}

impl FetchCounters {
    /// Records one classified completion.
    pub fn record(&mut self, class: FetchClass) {
        match class {
            FetchClass::NewHit => self.new_hits += 1,
            FetchClass::Migrated => self.migrated += 1,
            FetchClass::Database | FetchClass::Degraded => self.database += 1,
            FetchClass::DatabaseFalsePositive => self.database_false_positive += 1,
        }
    }

    /// Total completions.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.new_hits + self.migrated + self.database + self.database_false_positive
    }

    /// Fraction of requests served by the cache tier (new hits plus
    /// migrations).
    #[must_use]
    pub fn cache_hit_ratio(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            (self.new_hits + self.migrated) as f64 / total as f64
        }
    }

    /// Total database fetches.
    #[must_use]
    pub fn database_total(&self) -> u64 {
        self.database + self.database_false_positive
    }
}

/// Everything a [`ClusterSim`](crate::ClusterSim) run measures.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Active cache servers in each slot (the applied plan).
    pub active_per_slot: Vec<usize>,
    /// Requests handled by each cache server per slot
    /// (`[slot][server]`) — the Fig. 5 load data.
    pub per_server_per_slot: Vec<Vec<u64>>,
    /// Response-time histogram per time bucket — the Fig. 9 data.
    pub latency_buckets: Vec<Histogram>,
    /// Fetch-path counters.
    pub counters: FetchCounters,
    /// `(time, total watts, cache-tier watts)` power samples — the
    /// Fig. 10 data.
    pub power_samples: Vec<(SimTime, f64, f64)>,
    /// Whole-cluster energy in joules — the Fig. 11 data.
    pub total_energy_j: f64,
    /// Cache-tier energy in joules.
    pub cache_energy_j: f64,
}

impl ClusterReport {
    /// Total completed requests.
    #[must_use]
    pub fn completed_requests(&self) -> u64 {
        self.counters.total()
    }

    /// Fig. 5's metric per slot: `min / max` requests over the servers
    /// active in that slot (`None` when a slot saw no traffic).
    #[must_use]
    pub fn balance_ratio_per_slot(&self) -> Vec<Option<f64>> {
        self.per_server_per_slot
            .iter()
            .zip(&self.active_per_slot)
            .map(|(counts, &n)| {
                let active = &counts[..n.min(counts.len())];
                let max = active.iter().copied().max().unwrap_or(0);
                if max == 0 {
                    None
                } else {
                    let min = active.iter().copied().min().unwrap_or(0);
                    Some(min as f64 / max as f64)
                }
            })
            .collect()
    }

    /// The `q`-quantile response time per bucket (Fig. 9 uses
    /// `q = 0.999`).
    #[must_use]
    pub fn quantile_per_bucket(&self, q: f64) -> Vec<Option<SimDuration>> {
        self.latency_buckets.iter().map(|h| h.quantile(q)).collect()
    }

    /// The worst `q`-quantile across all buckets.
    #[must_use]
    pub fn worst_bucket_quantile(&self, q: f64) -> Option<SimDuration> {
        self.quantile_per_bucket(q).into_iter().flatten().max()
    }

    /// The median of the per-bucket `q`-quantiles: the "steady-state"
    /// level against which Fig. 9's spikes stand out.
    #[must_use]
    pub fn typical_bucket_quantile(&self, q: f64) -> Option<SimDuration> {
        let mut values: Vec<SimDuration> =
            self.quantile_per_bucket(q).into_iter().flatten().collect();
        if values.is_empty() {
            return None;
        }
        values.sort_unstable();
        Some(values[values.len() / 2])
    }

    /// Whole-cluster energy in watt-hours.
    #[must_use]
    pub fn total_energy_wh(&self) -> f64 {
        self.total_energy_j / 3600.0
    }

    /// Cache-tier energy in watt-hours.
    #[must_use]
    pub fn cache_energy_wh(&self) -> f64 {
        self.cache_energy_j / 3600.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> ClusterReport {
        let mut h0 = Histogram::new();
        h0.record(SimDuration::from_millis(2));
        let mut h1 = Histogram::new();
        h1.record(SimDuration::from_millis(100));
        h1.record(SimDuration::from_millis(200));
        let mut counters = FetchCounters::default();
        counters.record(FetchClass::NewHit);
        counters.record(FetchClass::NewHit);
        counters.record(FetchClass::Migrated);
        counters.record(FetchClass::Database);
        ClusterReport {
            active_per_slot: vec![2, 1],
            per_server_per_slot: vec![vec![2, 1, 0], vec![1, 0, 0]],
            latency_buckets: vec![h0, h1],
            counters,
            power_samples: vec![],
            total_energy_j: 7200.0,
            cache_energy_j: 3600.0,
        }
    }

    #[test]
    fn counters_classify_and_total() {
        let r = sample_report();
        assert_eq!(r.completed_requests(), 4);
        assert_eq!(r.counters.new_hits, 2);
        assert!((r.counters.cache_hit_ratio() - 0.75).abs() < 1e-12);
        assert_eq!(r.counters.database_total(), 1);
    }

    #[test]
    fn balance_ratio_uses_only_active_servers() {
        let r = sample_report();
        let ratios = r.balance_ratio_per_slot();
        // Slot 0: active 2 servers with counts [2, 1] → 0.5.
        assert_eq!(ratios[0], Some(0.5));
        // Slot 1: single active server → 1.0.
        assert_eq!(ratios[1], Some(1.0));
    }

    #[test]
    fn quantiles_per_bucket() {
        let r = sample_report();
        let p999 = r.quantile_per_bucket(0.999);
        assert!(p999[0].unwrap() < SimDuration::from_millis(3));
        assert!(p999[1].unwrap() > SimDuration::from_millis(150));
        assert!(r.worst_bucket_quantile(0.999).unwrap() > SimDuration::from_millis(150));
        assert!(r.typical_bucket_quantile(0.999).unwrap() > SimDuration::ZERO);
    }

    #[test]
    fn energy_conversions() {
        let r = sample_report();
        assert!((r.total_energy_wh() - 2.0).abs() < 1e-12);
        assert!((r.cache_energy_wh() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_slot_has_no_ratio() {
        let mut r = sample_report();
        r.per_server_per_slot = vec![vec![0, 0, 0]];
        r.active_per_slot = vec![2];
        assert_eq!(r.balance_ratio_per_slot(), vec![None]);
    }
}
