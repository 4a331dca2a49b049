//! End-to-end acceptance of the closed power-control loop: four live
//! TCP cache servers, a controller steering them, and one compressed
//! diurnal day replayed through the cluster client. The paper's whole
//! story (Figs. 10–11) in one test:
//!
//! 1. Every replayed request completes — transitions open and close
//!    mid-stream without a single client error.
//! 2. n(t) follows the curve both ways: the night sheds servers, the
//!    morning ramp grows them back.
//! 3. The energy account lands within 1.5× the proportional oracle,
//!    and strictly below an all-on cluster's machine-time.
//! 4. The worst windowed cluster p99 stays under the 0.5 s bound.
//! 5. `/trace.jsonl` replays every controller decision and the
//!    transition it actuated with contiguous seqs.

use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};
use proteus::agg::{http_get, json, ClusterObserver, ObserverConfig};
use proteus::cache::CacheConfig;
use proteus::core::{Scenario, SetPoints};
use proteus::ctl::{ActuationConfig, ClusterController, PolicyConfig, StepAction, WallPolicy};
use proteus::net::{CacheServer, ClusterClient};
use proteus::obs::MetricsServer;
use proteus::sim::SimDuration;
use proteus::store::{ShardedStore, StoreConfig};
use proteus::workload::{CompressedDay, DiurnalCurve, ReplayPacer};

const N: usize = 4;
const CAPACITY_OPS: f64 = 100.0;

#[test]
fn controller_replays_a_compressed_day_within_the_energy_and_delay_gates() {
    // One simulated day in 8 s of wall time; load levels are replayed
    // verbatim (110..330 ops/s against 4 × 100 ops/s of capacity).
    let day = CompressedDay::new(
        DiurnalCurve::new(200.0, 3.0, SimDuration::from_secs(86_400)),
        10_800.0,
    );
    let wall_day = day.wall_day();

    let servers: Vec<CacheServer> = (0..N)
        .map(|_| CacheServer::spawn("127.0.0.1:0", CacheConfig::with_capacity(8 << 20)).unwrap())
        .collect();
    let addrs: Vec<std::net::SocketAddr> = servers.iter().map(CacheServer::addr).collect();
    let endpoints: Vec<MetricsServer> = servers
        .iter()
        .map(|s| MetricsServer::spawn("127.0.0.1:0", s.metric_source()).unwrap())
        .collect();
    let client = Arc::new(RwLock::new(
        ClusterClient::connect(&addrs, Scenario::Proteus.strategy(N, 0)).unwrap(),
    ));
    let tracer = Arc::clone(client.read().tracer());
    let source = client.read().metric_source();
    let exposition = MetricsServer::spawn_traced("127.0.0.1:0", source, tracer).unwrap();

    let observer = Arc::new(ClusterObserver::new(ObserverConfig {
        connect_timeout: Duration::from_millis(500),
        read_timeout: Duration::from_secs(2),
        server_capacity_ops: CAPACITY_OPS,
        ..ObserverConfig::default()
    }));
    for e in &endpoints {
        observer.add_server(e.local_addr());
    }
    let policy = WallPolicy::new(PolicyConfig {
        min_servers: 1,
        max_step: 2,
        cooldown: Duration::from_millis(500),
        ..PolicyConfig::for_cluster(N, CAPACITY_OPS)
    });
    let bound = Duration::from_nanos(SetPoints::paper_defaults().bound_ns());
    let mut controller = ClusterController::new(
        Arc::clone(&observer),
        Arc::clone(&client),
        endpoints.iter().map(MetricsServer::local_addr).collect(),
        policy,
        ActuationConfig {
            boot_delay: Duration::from_millis(100),
            drain: Duration::from_millis(100),
        },
    );

    let db = Mutex::new(ShardedStore::new(StoreConfig {
        object_size: 128,
        ..StoreConfig::default()
    }));
    let keys: Vec<Vec<u8>> = (0..400u32)
        .map(|i| format!("page:{i}").into_bytes())
        .collect();
    for k in &keys {
        client.read().fetch(k, &db).unwrap();
    }

    // --- Replay the day with the controller online.
    let tick = Duration::from_millis(150);
    let mut pacer = ReplayPacer::new(day);
    let mut errors = 0u64;
    let mut cursor = 0usize;
    let mut shrinks = 0u32;
    let mut grows = 0u32;
    let mut worst_p99 = Duration::ZERO;
    let start = Instant::now();
    let mut next_tick = Duration::ZERO;
    loop {
        let elapsed = start.elapsed();
        if elapsed >= wall_day {
            break;
        }
        for _ in 0..pacer.due(elapsed) {
            let key = &keys[cursor % keys.len()];
            cursor += 1;
            if client.read().fetch(key, &db).is_err() {
                errors += 1;
            }
        }
        if elapsed >= next_tick {
            next_tick += tick;
            let report = controller.step();
            match report.action {
                StepAction::WindowClosed { from, to } if to < from => shrinks += 1,
                StepAction::WindowClosed { .. } => grows += 1,
                _ => {}
            }
            if let Some(p99) = report.signal.p99 {
                worst_p99 = worst_p99.max(p99);
            }
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    observer.tick();

    // --- Gate 1: zero client errors.
    assert_eq!(errors, 0, "replayed requests must never error");
    assert!(pacer.issued() > 500, "the day must have carried real load");

    // --- Gate 2: n(t) moved in both directions.
    assert!(shrinks > 0, "the night must shed servers");
    assert!(grows > 0, "the morning ramp must grow them back");
    assert!(controller.decisions() >= 2);

    // --- Gate 3: energy within 1.5x the proportional oracle, with
    // machine-time meaningfully below all-on.
    let meter = observer.energy();
    let proportionality = meter.proportionality().expect("energy accumulated");
    assert!(
        proportionality <= 1.5,
        "measured energy must stay within 1.5x the oracle: {proportionality:.3}"
    );
    let elapsed = meter.elapsed().expect("sampled").as_secs_f64();
    let all_on_fraction = meter.server_seconds() / (N as f64 * elapsed);
    assert!(
        all_on_fraction < 0.95,
        "the cluster never meaningfully powered down: {all_on_fraction:.3}"
    );

    // --- Gate 4: the delay bound held all day.
    assert!(
        worst_p99 < bound,
        "worst windowed p99 {worst_p99:?} must stay under {bound:?}"
    );

    // --- Gate 5: gap-free decision + transition trace over HTTP.
    let body = http_get(
        exposition.local_addr(),
        "/trace.jsonl",
        Duration::from_millis(500),
        Duration::from_secs(2),
    )
    .unwrap();
    let lines: Vec<&str> = body.lines().filter(|l| !l.is_empty()).collect();
    assert!(!lines.is_empty());
    let mut events = Vec::with_capacity(lines.len());
    let mut prev_seq: Option<u64> = None;
    for line in &lines {
        let event = json::parse(line).expect("every trace line parses alone");
        let seq = event.get("seq").unwrap().as_u64().unwrap();
        if let Some(prev) = prev_seq {
            assert_eq!(seq, prev + 1, "zero sequence gaps in the replay");
        }
        prev_seq = Some(seq);
        events.push(event);
    }
    let kind = |e: &json::Json| e.get("kind").unwrap().as_str().unwrap().to_string();
    let decisions: Vec<usize> = events
        .iter()
        .enumerate()
        .filter(|&(_, e)| kind(e) == "controller_decision")
        .map(|(i, _)| i)
        .collect();
    assert_eq!(
        decisions.len() as u64,
        controller.decisions(),
        "every actuated decision reached the trace"
    );
    for &i in &decisions {
        let begin = events[i + 1..]
            .iter()
            .find(|&e| kind(e) == "transition_begin")
            .expect("every decision is followed by its transition");
        assert_eq!(
            (events[i].get("from"), events[i].get("to")),
            (begin.get("from"), begin.get("to")),
            "decision must match the transition it actuated"
        );
    }

    drop(exposition);
    drop(endpoints);
    for s in servers {
        s.stop();
    }
}
