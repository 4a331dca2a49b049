//! The discrete-event simulation of the full cluster.
//!
//! Replays a request trace through web → cache → database with
//! queueing, executing one Table II scenario against a provisioning
//! plan, and collecting the Fig. 4/5/9/10/11 measurements. The
//! database shards' finite connection pools are the load-dependent
//! element: when a provisioning transition remaps keys and the cache
//! tier goes cold, the resulting miss storm queues up at the shards and
//! surfaces as the Naive/Consistent response-time spikes of Fig. 9 —
//! while Proteus's digest-guided migration keeps the storm away from
//! the database entirely.

use proteus_cache::{CacheConfig, CacheEngine};
use proteus_ring::ServerId;
use proteus_sim::{EventQueue, Histogram, Resource, SimDuration, SimRng, SimTime, TimeSeries};
use proteus_store::{ShardedStore, StoreConfig};
use proteus_workload::{Trace, TraceRecord};

use std::collections::HashMap;

use crate::config::ClusterConfig;
use crate::controller::{FeedbackController, ProvisioningPlan};
use crate::metrics::{ClusterReport, FetchClass, FetchCounters};
use crate::power::{EnergyMeter, PowerState};
use crate::router::Router;
use crate::scenario::Scenario;
use crate::transition::{fetch_class, Probe, TransitionManager};

/// Per-request context threaded through the event chain.
#[derive(Debug)]
struct Ctx {
    arrival: SimTime,
    key: Vec<u8>,
    new_server: usize,
    /// The old-mapping server whose digest matched, pinned at
    /// digest-check time so a slot boundary between the check and the
    /// old-server lookup cannot misroute the migration probe.
    old_server: Option<usize>,
    /// What that server answered, once asked.
    old: Option<Probe>,
}

#[derive(Debug)]
enum Event {
    /// The trace record at this index arrives at the web tier.
    Arrival(usize),
    /// The request reaches its new-mapping cache server.
    CacheLookup(Ctx),
    /// The request reaches the old-mapping cache server (migration
    /// attempt during a transition window).
    OldLookup(Ctx),
    /// The database shard finished the fetch.
    DbDone(Ctx),
    /// A provisioning slot begins.
    SlotStart(usize),
    /// A transition drain window ends.
    DrainEnd,
    /// Fault injection: wipe one server's cache (crash + fast restart).
    CacheWipe(usize),
    /// PDU power sample.
    PowerSample,
}

/// One cache server in the simulation.
struct CacheNode {
    engine: CacheEngine,
    service: Resource,
    /// Busy time at the previous power sample, for utilization deltas.
    sampled_busy: SimDuration,
}

/// The cluster simulator. Construct with a scenario, a trace, and a
/// provisioning plan; [`run`](Self::run) consumes it and returns the
/// [`ClusterReport`].
///
/// # Example
///
/// See the crate-level example.
pub struct ClusterSim {
    config: ClusterConfig,
    scenario: Scenario,
    router: Router,
    records: Vec<TraceRecord>,
    plan: ProvisioningPlan,
    feedback: Option<FeedbackController>,
    rng: SimRng,

    nodes: Vec<CacheNode>,
    web_pools: Vec<Resource>,
    web_sampled_busy: Vec<SimDuration>,
    db: ShardedStore,
    db_pools: Vec<Resource>,
    transition: TransitionManager,
    /// Digests become consultable once the transition broadcast lands.
    digests_ready_at: SimTime,
    /// Keys with a database fetch in flight, and the requests waiting
    /// on it. The web tier coalesces concurrent misses for one key
    /// into a single fetch — the standard dog-pile countermeasure the
    /// paper cites ("Strategy: Break up the memcache dog pile"); an
    /// open-loop replay without it collapses unrecoverably where the
    /// paper's closed-loop RBE load self-throttled.
    inflight: HashMap<Vec<u8>, Vec<Ctx>>,

    queue: EventQueue<Event>,
    now: SimTime,
    current_slot: usize,

    // Metrics.
    active_per_slot: Vec<usize>,
    per_server_per_slot: Vec<Vec<u64>>,
    latency_buckets: Vec<Histogram>,
    counters: FetchCounters,
    power_samples: Vec<(SimTime, f64, f64)>,
    total_meter: EnergyMeter,
    cache_meter: EnergyMeter,
    arrivals_series: TimeSeries,
    peak_rate: f64,
}

impl ClusterSim {
    /// Builds a simulator for `scenario` over `trace`, applying `plan`
    /// (ignored by `Static`, which pins all servers on). `seed` drives
    /// all stochastic latencies.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid ([`ClusterConfig::validate`])
    /// or the plan's slot count differs from the configuration's.
    #[must_use]
    pub fn new(
        config: ClusterConfig,
        scenario: Scenario,
        trace: &Trace,
        plan: &ProvisioningPlan,
        seed: u64,
    ) -> Self {
        config.validate();
        assert_eq!(
            plan.slots(),
            config.slots,
            "plan has {} slots, configuration expects {}",
            plan.slots(),
            config.slots
        );
        assert_eq!(
            plan.total_servers(),
            config.cache_servers,
            "plan sized for a different cluster"
        );
        let router = Router::new(scenario.strategy(config.cache_servers, 0));
        let mut cache_cfg = CacheConfig::with_capacity(config.cache_capacity_bytes);
        if let Some(digest) = config.digest_override {
            cache_cfg = cache_cfg.digest(digest);
        }
        let nodes = (0..config.cache_servers)
            .map(|_| CacheNode {
                engine: CacheEngine::new(cache_cfg),
                service: Resource::new(config.cache_concurrency),
                sampled_busy: SimDuration::ZERO,
            })
            .collect();
        let db = ShardedStore::new(StoreConfig {
            shards: config.db_shards,
            object_size: config.object_size,
            placement_seed: 0x570_12e5,
        });
        let db_pools = (0..config.db_shards)
            .map(|_| Resource::new(config.db_pool_per_shard))
            .collect();
        let web_pools = (0..config.web_servers)
            .map(|_| Resource::new(config.web_concurrency))
            .collect();
        let initial_active = if scenario.is_dynamic() {
            plan.active_at(0)
        } else {
            config.cache_servers
        };
        let transition = TransitionManager::new(config.cache_servers, initial_active);
        let slots = config.slots;
        let buckets = config.response_buckets;
        let arrivals_series = TimeSeries::new(config.power_sample, {
            let n = (config.duration().as_nanos() / config.power_sample.as_nanos()) as usize;
            n.max(1)
        });
        let peak_rate = estimate_peak_rate(trace.records(), config.slot);
        ClusterSim {
            rng: SimRng::seed_from_u64(seed),
            router,
            records: trace.records().to_vec(),
            plan: plan.clone(),
            feedback: None,
            nodes,
            web_pools,
            web_sampled_busy: vec![SimDuration::ZERO; config.web_servers],
            db,
            db_pools,
            transition,
            digests_ready_at: SimTime::ZERO,
            inflight: HashMap::new(),
            queue: EventQueue::with_capacity(1024),
            now: SimTime::ZERO,
            current_slot: 0,
            active_per_slot: vec![0; slots],
            per_server_per_slot: vec![vec![0; config.cache_servers]; slots],
            latency_buckets: vec![Histogram::new(); buckets],
            counters: FetchCounters::default(),
            power_samples: Vec::new(),
            total_meter: EnergyMeter::new(),
            cache_meter: EnergyMeter::new(),
            arrivals_series,
            peak_rate,
            scenario,
            config,
        }
    }

    /// Replaces the fixed plan with a live feedback controller (used to
    /// derive the Fig. 4 `n(t)` curve): at each slot boundary the
    /// controller observes the previous slot's 99.9th-percentile
    /// response time and decides the next count.
    #[must_use]
    pub fn with_feedback(mut self, controller: FeedbackController) -> Self {
        self.feedback = Some(controller);
        self
    }

    fn bucket_of(&self, t: SimTime) -> usize {
        let total = self.config.duration().as_nanos();
        let idx = (t.as_nanos().min(total.saturating_sub(1)) as u128
            * self.config.response_buckets as u128
            / total as u128) as usize;
        idx.min(self.config.response_buckets - 1)
    }

    fn slot_of(&self, t: SimTime) -> usize {
        ((t.as_nanos() / self.config.slot.as_nanos()) as usize).min(self.config.slots - 1)
    }

    fn prewarm(&mut self) {
        if !self.config.prewarm {
            return;
        }
        let n0 = self.transition.active();
        let per_object = self.config.object_size as u64 + 64;
        let budget_per_node = self.config.cache_capacity_bytes;
        let max_objects = (budget_per_node / per_object) * n0 as u64;
        for page in 1..=self.config.pages.min(max_objects.saturating_mul(2)) {
            let key = page_key(page);
            let server = self.router.server_for(&key, n0).index();
            let node = &mut self.nodes[server];
            let cost = key.len() as u64 + self.config.object_size as u64 + 48;
            if node.engine.bytes_used() + cost <= budget_per_node {
                let value = vec![0u8; self.config.object_size];
                node.engine.put(&key, value, SimTime::ZERO);
            }
        }
    }

    fn record_completion(&mut self, arrival: SimTime, done: SimTime, class: FetchClass) {
        let latency = done.saturating_since(arrival);
        let bucket = self.bucket_of(done);
        self.latency_buckets[bucket].record(latency);
        self.counters.record(class);
    }

    fn count_server_request(&mut self, server: usize) {
        let slot = self.current_slot;
        self.per_server_per_slot[slot][server] += 1;
    }

    fn cache_round_trip(&mut self, server: usize) -> SimDuration {
        let svc = self.config.latency.cache_service.sample(&mut self.rng);
        let grant = self.nodes[server].service.acquire(self.now, svc);
        let rtt = self.config.latency.cache_rtt.sample(&mut self.rng);
        grant.end.saturating_since(self.now) + rtt
    }

    fn go_to_database(&mut self, ctx: Ctx) {
        if self.config.coalesce_db_fetches {
            // Coalesce with an in-flight fetch for the same key.
            if let Some(waiters) = self.inflight.get_mut(&ctx.key) {
                waiters.push(ctx);
                return;
            }
            self.inflight.insert(ctx.key.clone(), Vec::new());
        }
        let shard = self.db.shard_of(&ctx.key).index();
        let rtt = self.config.latency.db_rtt.sample(&mut self.rng);
        let svc = self.config.latency.db_service.sample(&mut self.rng);
        let arrive_at_shard = self.now + rtt;
        let grant = self.db_pools[shard].acquire(arrive_at_shard, svc);
        let rtt_back = self.config.latency.db_rtt.sample(&mut self.rng);
        self.queue
            .schedule(grant.end + rtt_back, Event::DbDone(ctx));
    }

    fn handle_arrival(&mut self, idx: usize) {
        // Chain the next arrival.
        if idx + 1 < self.records.len() {
            self.queue
                .schedule(self.records[idx + 1].at, Event::Arrival(idx + 1));
        }
        let rec = self.records[idx];
        self.arrivals_series.add(self.now, 1.0);
        let key = page_key(rec.page);
        let new_server = self
            .router
            .server_for(&key, self.transition.active())
            .index();
        // "The user requests will be uniformly randomly directed to all
        // web servers" (Section VI-C); each has a finite servlet pool.
        let web_server = self.rng.index(self.config.web_servers);
        let web = self.config.latency.web_processing.sample(&mut self.rng);
        let grant = self.web_pools[web_server].acquire(self.now, web);
        let travel = self.config.latency.cache_rtt.sample(&mut self.rng);
        let ctx = Ctx {
            arrival: rec.at,
            key,
            new_server,
            old_server: None,
            old: None,
        };
        self.queue
            .schedule(grant.end + travel, Event::CacheLookup(ctx));
    }

    fn handle_cache_lookup(&mut self, mut ctx: Ctx) {
        let server = ctx.new_server;
        self.count_server_request(server);
        let hit = self.nodes[server].engine.get(&ctx.key, self.now).is_some();
        if hit {
            let dt = self.cache_round_trip(server);
            let class = fetch_class(Probe::Hit, None);
            self.record_completion(ctx.arrival, self.now + dt, class);
            return;
        }
        // Miss at the new server: Algorithm 2 line 6 — but digests are
        // consultable only in a digest scenario, and only once the
        // broadcast has reached the web tier.
        if self.scenario.uses_digests() && self.now >= self.digests_ready_at {
            ctx.old_server = self
                .transition
                .probe_target(&self.router, &ctx.key, ServerId::new(server as u32))
                .map(ServerId::index);
        }
        if ctx.old_server.is_some() {
            let travel = self.config.latency.cache_rtt.sample(&mut self.rng);
            self.queue
                .schedule(self.now + travel, Event::OldLookup(ctx));
        } else {
            self.go_to_database(ctx);
        }
    }

    fn handle_old_lookup(&mut self, mut ctx: Ctx) {
        let old = ctx
            .old_server
            .expect("OldLookup is only scheduled after a digest match");
        self.count_server_request(old);
        let value = self.nodes[old]
            .engine
            .get(&ctx.key, self.now)
            .map(<[u8]>::to_vec);
        ctx.old = Some(Probe::answered(value.is_some()));
        match value {
            Some(value) => {
                // Migrate on demand: install at the new server, then
                // answer. Costs: old server service + travel + the put
                // at the new server.
                let dt_old = self.cache_round_trip(old);
                self.nodes[ctx.new_server]
                    .engine
                    .put(&ctx.key, value, self.now);
                let dt_put = self.cache_round_trip(ctx.new_server);
                self.record_completion(
                    ctx.arrival,
                    self.now + dt_old + dt_put,
                    fetch_class(Probe::Miss, ctx.old),
                );
            }
            // Digest false positive (Algorithm 2 line 9).
            None => self.go_to_database(ctx),
        }
    }

    fn handle_db_done(&mut self, ctx: Ctx) {
        let value = self.db.fetch(&ctx.key);
        // Only running servers can accept the fill; a server that was
        // abruptly powered off mid-flight drops it (and must not be
        // charged service time).
        let state = self.transition.state(ctx.new_server);
        let dt_put = if matches!(state, PowerState::On | PowerState::Draining) {
            self.nodes[ctx.new_server]
                .engine
                .put(&ctx.key, value, self.now);
            self.cache_round_trip(ctx.new_server)
        } else {
            self.config.latency.cache_rtt.sample(&mut self.rng)
        };
        let class = fetch_class(Probe::Miss, ctx.old);
        self.record_completion(ctx.arrival, self.now + dt_put, class);
        // Release every request that coalesced onto this fetch.
        if let Some(waiters) = self.inflight.remove(&ctx.key) {
            for waiter in waiters {
                let dt = self.cache_round_trip(waiter.new_server);
                let class = fetch_class(Probe::Miss, waiter.old);
                self.record_completion(waiter.arrival, self.now + dt, class);
            }
        }
    }

    fn handle_slot_start(&mut self, slot: usize) {
        self.current_slot = slot;
        let target = if !self.scenario.is_dynamic() {
            self.config.cache_servers
        } else if let Some(fc) = &mut self.feedback {
            if slot == 0 {
                self.transition.active()
            } else {
                let prev_p999 = previous_slot_delay(
                    &self.latency_buckets,
                    self.config.response_buckets,
                    self.config.slots,
                    slot,
                );
                fc.decide(self.transition.active(), prev_p999)
            }
        } else {
            self.plan.active_at(slot)
        };
        self.active_per_slot[slot] = target;
        if target != self.transition.active() {
            if self.scenario.uses_digests() {
                // `validate` keeps `hot_ttl < slot`, so the previous
                // window's `DrainEnd` fired before this slot began.
                self.transition
                    .begin(
                        target,
                        self.nodes.iter().map(|n| Some(n.engine.digest_snapshot())),
                    )
                    .expect("the previous drain window has closed");
                self.digests_ready_at = self.now + self.config.digest_broadcast_delay;
                self.queue
                    .schedule(self.now + self.config.hot_ttl, Event::DrainEnd);
            } else {
                // Naive/Consistent: abrupt switch, contents lost.
                for server in self.transition.switch_abrupt(target) {
                    self.nodes[server].engine.clear();
                }
            }
        }
        if slot + 1 < self.config.slots {
            self.queue.schedule(
                SimTime::ZERO + self.config.slot * (slot as u64 + 1),
                Event::SlotStart(slot + 1),
            );
        }
    }

    fn handle_drain_end(&mut self) {
        for server in self.transition.finalize() {
            self.nodes[server].engine.clear();
        }
    }

    fn handle_power_sample(&mut self) {
        let interval = self.config.power_sample;
        // Cache tier: state-dependent draw with measured utilization.
        let mut cache_w = 0.0;
        for (i, node) in self.nodes.iter_mut().enumerate() {
            let busy = node.service.busy_time();
            let delta = busy.saturating_sub(node.sampled_busy);
            node.sampled_busy = busy;
            let util = delta.as_secs_f64()
                / (interval.as_secs_f64() * self.config.cache_concurrency as f64);
            cache_w += self
                .config
                .server_power(i)
                .draw(self.transition.state(i), util);
        }
        // Web tier: measured thread-pool utilization, amplified to a
        // realistic dynamic range (servlet work underestimates the real
        // web server's per-request cost; calibrate against arrival load).
        let window_slot = self.arrivals_series.slot_of(self.now).saturating_sub(1);
        let window_arrivals = self.arrivals_series.sum(window_slot);
        let load_fraction = if self.peak_rate > 0.0 {
            (window_arrivals / interval.as_secs_f64()) / self.peak_rate
        } else {
            0.0
        };
        let mut web_busy = SimDuration::ZERO;
        for (pool, sampled) in self.web_pools.iter().zip(&mut self.web_sampled_busy) {
            let busy = pool.busy_time();
            web_busy += busy.saturating_sub(*sampled);
            *sampled = busy;
        }
        let measured_web_util = web_busy.as_secs_f64()
            / (interval.as_secs_f64()
                * (self.config.web_servers * self.config.web_concurrency) as f64);
        let web_w = self
            .config
            .web_tier_power
            .draw(load_fraction.max(measured_web_util));
        let db_util: f64 = self
            .db_pools
            .iter()
            .map(|p| p.in_service(self.now) as f64)
            .sum::<f64>()
            / (self.config.db_shards * self.config.db_pool_per_shard) as f64;
        let db_w = self.config.db_tier_power.draw(db_util);
        let total = cache_w + web_w + db_w;
        self.total_meter.sample(self.now, total);
        self.cache_meter.sample(self.now, cache_w);
        self.power_samples.push((self.now, total, cache_w));
        let next = self.now + interval;
        if next < SimTime::ZERO + self.config.duration() {
            self.queue.schedule(next, Event::PowerSample);
        }
    }

    /// Runs the simulation to completion and returns the report.
    #[must_use]
    pub fn run(mut self) -> ClusterReport {
        self.prewarm();
        self.queue.schedule(SimTime::ZERO, Event::SlotStart(0));
        self.queue.schedule(SimTime::ZERO, Event::PowerSample);
        for &(at, server) in &self.config.cache_wipe_failures {
            self.queue.schedule(at, Event::CacheWipe(server));
        }
        if !self.records.is_empty() {
            self.queue.schedule(self.records[0].at, Event::Arrival(0));
        }
        while let Some((t, event)) = self.queue.pop() {
            self.now = t;
            // Keep the slot index in step even between SlotStart events.
            self.current_slot = self.slot_of(t);
            match event {
                Event::Arrival(idx) => self.handle_arrival(idx),
                Event::CacheLookup(ctx) => self.handle_cache_lookup(ctx),
                Event::OldLookup(ctx) => self.handle_old_lookup(ctx),
                Event::DbDone(ctx) => self.handle_db_done(ctx),
                Event::SlotStart(slot) => self.handle_slot_start(slot),
                Event::DrainEnd => self.handle_drain_end(),
                Event::CacheWipe(server) => self.nodes[server].engine.clear(),
                Event::PowerSample => self.handle_power_sample(),
            }
        }
        // Close the books: a final power sample at the horizon.
        let end = SimTime::ZERO + self.config.duration();
        self.now = end;
        let last_total = self.power_samples.last().map_or(0.0, |s| s.1);
        let last_cache = self.power_samples.last().map_or(0.0, |s| s.2);
        self.total_meter.sample(end, last_total);
        self.cache_meter.sample(end, last_cache);
        ClusterReport {
            active_per_slot: self.active_per_slot,
            per_server_per_slot: self.per_server_per_slot,
            latency_buckets: self.latency_buckets,
            counters: self.counters,
            power_samples: self.power_samples,
            total_energy_j: self.total_meter.joules(),
            cache_energy_j: self.cache_meter.joules(),
        }
    }
}

/// Builds the canonical key bytes for a page.
#[must_use]
pub fn page_key(page: u64) -> Vec<u8> {
    let mut key = Vec::with_capacity(16);
    key.extend_from_slice(b"page:");
    key.extend_from_slice(page.to_string().as_bytes());
    key
}

fn previous_slot_delay(
    buckets: &[Histogram],
    total_buckets: usize,
    total_slots: usize,
    slot: usize,
) -> SimDuration {
    // Buckets covering the previous slot.
    let per_slot = (total_buckets / total_slots).max(1);
    let start = (slot - 1) * per_slot;
    let end = (start + per_slot).min(buckets.len());
    let mut merged = Histogram::new();
    for h in &buckets[start..end] {
        merged.merge(h);
    }
    merged.quantile(0.999).unwrap_or(SimDuration::ZERO)
}

fn estimate_peak_rate(records: &[TraceRecord], slot: SimDuration) -> f64 {
    if records.is_empty() {
        return 0.0;
    }
    let mut counts = std::collections::HashMap::new();
    for r in records {
        *counts
            .entry(r.at.as_nanos() / slot.as_nanos())
            .or_insert(0u64) += 1;
    }
    let peak = counts.values().copied().max().unwrap_or(0);
    peak as f64 / slot.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proteus_workload::TraceConfig;

    fn small_run(scenario: Scenario, seed: u64) -> ClusterReport {
        let config = ClusterConfig::small();
        let trace = Trace::synthesize(&config.trace_config(150.0), 11);
        let plan = ProvisioningPlan::load_proportional(
            &trace.requests_per_slot(config.slot, config.slots),
            config.cache_servers,
            2,
        );
        ClusterSim::new(config, scenario, &trace, &plan, seed).run()
    }

    /// A run with forced down/up transitions at higher load — the
    /// stress case where hot-data loss and miss storms matter.
    fn stress_run(scenario: Scenario, seed: u64) -> ClusterReport {
        let config = ClusterConfig::small();
        let trace = Trace::synthesize(&config.trace_config(400.0), 13);
        let plan = ProvisioningPlan::from_counts(vec![4, 2, 4, 2, 3, 4], config.cache_servers);
        ClusterSim::new(config, scenario, &trace, &plan, seed).run()
    }

    #[test]
    fn all_scenarios_complete_every_request() {
        let config = ClusterConfig::small();
        let trace = Trace::synthesize(&config.trace_config(150.0), 11);
        for scenario in Scenario::all() {
            let report = small_run(scenario, 5);
            assert_eq!(
                report.completed_requests(),
                trace.len() as u64,
                "{scenario} lost requests"
            );
        }
    }

    #[test]
    fn static_scenario_keeps_all_servers_on() {
        let report = small_run(Scenario::Static, 5);
        assert!(report.active_per_slot.iter().all(|&n| n == 4));
    }

    #[test]
    fn dynamic_scenarios_follow_the_plan() {
        let config = ClusterConfig::small();
        let trace = Trace::synthesize(&config.trace_config(150.0), 11);
        let plan = ProvisioningPlan::load_proportional(
            &trace.requests_per_slot(config.slot, config.slots),
            config.cache_servers,
            2,
        );
        let report = ClusterSim::new(config, Scenario::Proteus, &trace, &plan, 5).run();
        assert_eq!(report.active_per_slot, plan.counts());
        assert!(
            report.active_per_slot.iter().any(|&n| n < 4),
            "plan must scale down"
        );
    }

    #[test]
    fn proteus_migrates_and_barely_touches_db_during_transitions() {
        let proteus = stress_run(Scenario::Proteus, 5);
        let naive = stress_run(Scenario::Naive, 5);
        assert!(proteus.counters.migrated > 0, "transitions must migrate");
        assert!(
            proteus.counters.database_total() < naive.counters.database_total(),
            "proteus {} vs naive {} database fetches",
            proteus.counters.database_total(),
            naive.counters.database_total()
        );
    }

    #[test]
    fn naive_spikes_exceed_proteus_spikes() {
        let proteus = stress_run(Scenario::Proteus, 5);
        let naive = stress_run(Scenario::Naive, 5);
        let p_worst = proteus.worst_bucket_quantile(0.999).unwrap();
        let n_worst = naive.worst_bucket_quantile(0.999).unwrap();
        assert!(
            n_worst.as_secs_f64() > 1.5 * p_worst.as_secs_f64(),
            "naive worst {n_worst} should clearly exceed proteus worst {p_worst}"
        );
    }

    #[test]
    fn dynamic_provisioning_saves_energy() {
        let static_run = small_run(Scenario::Static, 5);
        let proteus = small_run(Scenario::Proteus, 5);
        assert!(
            proteus.cache_energy_j < static_run.cache_energy_j,
            "proteus cache {} J vs static {} J",
            proteus.cache_energy_j,
            static_run.cache_energy_j
        );
        assert!(proteus.total_energy_j < static_run.total_energy_j);
    }

    #[test]
    fn hit_ratio_is_reasonable_after_prewarm() {
        let report = small_run(Scenario::Static, 5);
        assert!(
            report.counters.cache_hit_ratio() > 0.5,
            "hit ratio {}",
            report.counters.cache_hit_ratio()
        );
    }

    #[test]
    fn feedback_mode_produces_a_plan_shape() {
        let config = ClusterConfig::small();
        let trace = Trace::synthesize(&config.trace_config(150.0), 11);
        let plan = ProvisioningPlan::all_on(config.slots, config.cache_servers);
        let fc = FeedbackController::paper_defaults(config.cache_servers).min_servers(2);
        let report = ClusterSim::new(config, Scenario::Proteus, &trace, &plan, 5)
            .with_feedback(fc)
            .run();
        assert_eq!(report.active_per_slot.len(), 6);
        assert!(report.active_per_slot.iter().all(|&n| (2..=4).contains(&n)));
    }

    #[test]
    fn same_seed_is_deterministic() {
        let a = small_run(Scenario::Proteus, 9);
        let b = small_run(Scenario::Proteus, 9);
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.per_server_per_slot, b.per_server_per_slot);
        assert_eq!(a.total_energy_j, b.total_energy_j);
    }

    #[test]
    fn page_key_formats() {
        assert_eq!(page_key(42), b"page:42".to_vec());
    }

    #[test]
    fn empty_trace_still_runs() {
        let config = ClusterConfig::small();
        let trace = Trace::from_records(vec![]);
        let plan = ProvisioningPlan::all_on(config.slots, config.cache_servers);
        let report = ClusterSim::new(config, Scenario::Static, &trace, &plan, 1).run();
        assert_eq!(report.completed_requests(), 0);
        assert!(report.total_energy_j > 0.0, "idle power still accrues");
    }

    #[test]
    #[should_panic(expected = "plan has")]
    fn mismatched_plan_rejected() {
        let config = ClusterConfig::small();
        let trace = Trace::synthesize(&TraceConfig::default(), 1);
        let plan = ProvisioningPlan::all_on(3, config.cache_servers);
        let _ = ClusterSim::new(config, Scenario::Static, &trace, &plan, 1);
    }
}
