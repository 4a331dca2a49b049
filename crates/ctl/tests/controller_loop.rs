//! Live actuation: the controller drives a real 4-server TCP cluster
//! through a shrink and a grow, with the decision trace preceding the
//! transitions it causes and the observer's power accounting following
//! along.

use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};
use proteus_agg::{ClusterObserver, ObserverConfig};
use proteus_cache::CacheConfig;
use proteus_core::{PowerState, Scenario};
use proteus_ctl::{
    ActuationConfig, ClusterController, HoldReason, PolicyConfig, StepAction, WallPolicy,
};
use proteus_net::{CacheServer, ClusterClient};
use proteus_obs::{MetricsServer, TraceKind};
use proteus_store::{ShardedStore, StoreConfig};

const N: usize = 4;

struct Harness {
    servers: Vec<CacheServer>,
    endpoints: Vec<MetricsServer>,
    client: Arc<RwLock<ClusterClient>>,
    observer: Arc<ClusterObserver>,
}

fn harness(capacity_ops: f64) -> Harness {
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
    let observer = Arc::new(ClusterObserver::new(ObserverConfig {
        connect_timeout: Duration::from_millis(500),
        read_timeout: Duration::from_secs(2),
        server_capacity_ops: capacity_ops,
        ..ObserverConfig::default()
    }));
    for endpoint in &endpoints {
        observer.add_server(endpoint.local_addr());
    }
    Harness {
        servers,
        endpoints,
        client,
        observer,
    }
}

#[test]
fn controller_shrinks_and_grows_a_live_cluster() {
    let h = harness(100.0);
    let db = Mutex::new(ShardedStore::new(StoreConfig {
        object_size: 128,
        ..StoreConfig::default()
    }));
    let keys: Vec<Vec<u8>> = (0..200u32)
        .map(|i| format!("page:{i}").into_bytes())
        .collect();
    for k in &keys {
        h.client.read().fetch(k, &db).unwrap();
    }

    let policy = WallPolicy::new(PolicyConfig {
        min_servers: 1,
        max_step: 2,
        cooldown: Duration::from_millis(300),
        ..PolicyConfig::for_cluster(N, 100.0)
    });
    let actuation = ActuationConfig {
        boot_delay: Duration::from_millis(100),
        drain: Duration::from_millis(100),
    };
    let mut controller = ClusterController::new(
        Arc::clone(&h.observer),
        Arc::clone(&h.client),
        h.endpoints.iter().map(MetricsServer::local_addr).collect(),
        policy,
        actuation,
    );

    // Step 1: idle cluster (no rate deltas yet, sub-ms p99) — the
    // policy shrinks, ramp-capped at 2, and the window opens at once.
    let t0 = Instant::now();
    let report = controller.step_at(t0);
    assert_eq!(
        report.action,
        StepAction::WindowOpened { from: N, to: N - 2 },
        "idle cluster must shed max_step servers"
    );
    assert!(controller.transition_pending());

    // Step 2, past the drain deadline: the window closes, the departed
    // servers power off, the cooldown starts.
    let report = controller.step_at(t0 + Duration::from_millis(150));
    assert_eq!(
        report.action,
        StepAction::WindowClosed { from: N, to: N - 2 }
    );
    // The step's own snapshot predates the close; take a fresh tick to
    // see the power-off land.
    let snap = h.observer.tick();
    assert_eq!(snap.active_servers, N - 2);
    assert_eq!(snap.servers[N - 1].power_state, PowerState::Off);
    assert_eq!(snap.servers[N - 2].power_state, PowerState::Off);
    assert_eq!(h.client.read().active(), N - 2);

    // Step 3, inside the cooldown: held no matter what.
    let report = controller.step_at(t0 + Duration::from_millis(250));
    assert_eq!(report.action, StepAction::Held(HoldReason::Cooldown));

    // Burst of load on the shrunken cluster: utilization on 2 servers
    // of capacity 100 ops/s blows past the up-trigger.
    for _ in 0..5 {
        for k in &keys {
            h.client.read().fetch(k, &db).unwrap();
        }
    }

    // Step 4, past the cooldown: scale-up decided; joining servers
    // boot first.
    let report = controller.step_at(t0 + Duration::from_millis(700));
    assert_eq!(
        report.action,
        StepAction::BootScheduled { from: N - 2, to: N },
        "overloaded cluster must grow (signal: {:?})",
        report.signal
    );
    assert!(report.signal.ops_per_sec > 100.0);
    let snap = h.observer.tick();
    assert_eq!(snap.servers[N - 1].power_state, PowerState::Booting);

    // Step 5, mid-boot: still waiting.
    let report = controller.step_at(t0 + Duration::from_millis(750));
    assert_eq!(report.action, StepAction::BootWait);

    // Step 6, boot done: the window opens; step 7 closes it.
    let report = controller.step_at(t0 + Duration::from_millis(900));
    assert_eq!(
        report.action,
        StepAction::WindowOpened { from: N - 2, to: N }
    );
    let report = controller.step_at(t0 + Duration::from_millis(1100));
    assert_eq!(
        report.action,
        StepAction::WindowClosed { from: N - 2, to: N }
    );
    assert_eq!(controller.decisions(), 2);
    assert_eq!(controller.backoffs(), 0);
    let snap = h.observer.tick();
    assert_eq!(snap.active_servers, N);
    assert!(snap.servers.iter().all(|s| s.power_state == PowerState::On));

    // The decision events precede the transitions they actuated, on
    // one seq-ordered ring.
    let client = h.client.read();
    let events = client.tracer().events();
    let decisions: Vec<_> = events
        .iter()
        .filter(|e| matches!(e.kind, TraceKind::ControllerDecision { .. }))
        .collect();
    assert_eq!(decisions.len(), 2, "one decision event per actuation");
    for event in &decisions {
        let next_begin = events
            .iter()
            .find(|e| e.seq > event.seq && matches!(e.kind, TraceKind::TransitionBegin { .. }))
            .expect("every decision is followed by its transition");
        if let (
            TraceKind::ControllerDecision { from, to, .. },
            TraceKind::TransitionBegin {
                from: t_from,
                to: t_to,
            },
        ) = (&event.kind, &next_begin.kind)
        {
            assert_eq!((from, to), (t_from, t_to), "decision matches actuation");
        }
    }
    drop(client);

    drop(h.endpoints);
    for s in h.servers {
        s.stop();
    }
}

#[test]
fn controller_backs_off_from_a_foreign_transition_window() {
    let h = harness(100.0);
    // Someone else (an operator, another controller) opens a window on
    // the shared client.
    h.client.write().begin_transition(N - 1).unwrap();

    let policy = WallPolicy::new(PolicyConfig {
        cooldown: Duration::from_millis(100),
        ..PolicyConfig::for_cluster(N, 100.0)
    });
    let mut controller = ClusterController::new(
        Arc::clone(&h.observer),
        Arc::clone(&h.client),
        h.endpoints.iter().map(MetricsServer::local_addr).collect(),
        policy,
        ActuationConfig::default(),
    );
    let report = controller.step_at(Instant::now());
    assert_eq!(report.action, StepAction::BackedOff);
    assert_eq!(controller.backoffs(), 1);
    assert_eq!(controller.decisions(), 0);
    assert!(!controller.transition_pending());

    // Once the foreign window closes, the controller is free again.
    h.client.write().end_transition();
    let report = controller.step_at(Instant::now() + Duration::from_secs(1));
    assert!(
        !matches!(report.action, StepAction::BackedOff),
        "freed client must not read as busy: {:?}",
        report.action
    );

    drop(h.endpoints);
    for s in h.servers {
        s.stop();
    }
}

/// `--capacity-ops` that is not a finite positive number is refused at
/// start-up: exit 1, with a message naming the flag. NaN passed the old
/// `<= 0.0` check and panicked once the cache servers answered.
#[test]
fn the_controller_binary_refuses_a_capacity_that_is_not_finite() {
    use std::io::Read;
    use std::process::{Command, Stdio};
    let servers: Vec<CacheServer> = (0..2)
        .map(|_| CacheServer::spawn("127.0.0.1:0", CacheConfig::with_capacity(1 << 20)).unwrap())
        .collect();
    let cache = (servers.iter())
        .map(|s| s.addr().to_string())
        .collect::<Vec<_>>()
        .join(",");
    for capacity in ["nan", "inf"] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_proteus-controller"))
            .args(["--cache", cache.as_str(), "--metrics", cache.as_str()])
            .args(["--bind", "127.0.0.1:0"])
            .args(["--capacity-ops", capacity])
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        let status = loop {
            if let Some(status) = child.try_wait().unwrap() {
                break status;
            }
            if Instant::now() > deadline {
                child.kill().unwrap();
                child.wait().unwrap();
                panic!("--capacity-ops {capacity} started the controller");
            }
            std::thread::sleep(Duration::from_millis(10));
        };
        let mut stderr = String::new();
        let mut pipe = child.stderr.take().unwrap();
        pipe.read_to_string(&mut stderr).unwrap();
        assert_eq!(
            status.code(),
            Some(1),
            "--capacity-ops {capacity}: {stderr}"
        );
        assert!(stderr.contains("--capacity-ops"), "{stderr}");
    }
    for s in servers {
        s.stop();
    }
}

/// Power-off loses DRAM. A key homed on the last server is read, the
/// controller shrinks past that server, the key is rewritten, and the
/// controller grows back: the read after the grow is the rewrite. A
/// departed server that kept its cache would come back holding the
/// first value, and the grow's pull, finding that copy there, would
/// delete the rewrite at the key's interim home.
#[test]
fn a_write_made_while_a_server_was_off_is_what_its_return_serves() {
    use proteus_net::PullState;

    let h = harness(100.0);
    let db = Mutex::new(ShardedStore::new(StoreConfig {
        object_size: 128,
        ..StoreConfig::default()
    }));
    let key = (0u32..)
        .map(|i| format!("stale:{i}").into_bytes())
        .find(|k| h.client.read().server_for(k).index() == N - 1)
        .unwrap();
    let (v1, _) = h.client.read().fetch(&key, &db).unwrap();

    let policy = WallPolicy::new(PolicyConfig {
        min_servers: N - 1,
        max_step: 1,
        cooldown: Duration::from_millis(300),
        ..PolicyConfig::for_cluster(N, 100.0)
    });
    let actuation = ActuationConfig {
        boot_delay: Duration::from_millis(100),
        drain: Duration::from_millis(100),
    };
    let mut controller = ClusterController::new(
        Arc::clone(&h.observer),
        Arc::clone(&h.client),
        h.endpoints.iter().map(MetricsServer::local_addr).collect(),
        policy,
        actuation,
    );
    let t0 = Instant::now();
    let ms = |n| t0 + Duration::from_millis(n);
    assert_eq!(
        controller.step_at(t0).action,
        StepAction::WindowOpened { from: N, to: N - 1 }
    );
    assert_eq!(
        controller.step_at(ms(150)).action,
        StepAction::WindowClosed { from: N, to: N - 1 }
    );

    let v2 = b"written while the key's old home was off".to_vec();
    assert_ne!(v1[..], v2[..]);
    h.client.read().put(&key, &v2).unwrap();

    // Load on the three servers left, past the policy's up-trigger.
    for i in 0..1_000u32 {
        let k = format!("page:{}", i % 200).into_bytes();
        h.client.read().fetch(&k, &db).unwrap();
    }
    let report = controller.step_at(ms(700));
    assert_eq!(
        report.action,
        StepAction::BootScheduled { from: N - 1, to: N },
        "the loaded cluster must grow (signal: {:?})",
        report.signal
    );
    assert_eq!(
        controller.step_at(ms(900)).action,
        StepAction::WindowOpened { from: N - 1, to: N }
    );
    // The window closes on a finished pull, so the key has moved home.
    let deadline = Instant::now() + Duration::from_secs(30);
    while (h.client.read().pull_progress()).is_some_and(|p| p.state == PullState::Running) {
        assert!(Instant::now() < deadline, "the grow's pull never finished");
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(
        controller.step_at(ms(1_100)).action,
        StepAction::WindowClosed { from: N - 1, to: N }
    );

    let (value, _) = h.client.read().fetch(&key, &db).unwrap();
    assert_eq!(
        String::from_utf8_lossy(&value),
        String::from_utf8_lossy(&v2),
        "the returning server served the value it held before it was powered off"
    );

    drop(h.endpoints);
    for s in h.servers {
        s.stop();
    }
}

/// A blind controller holds. While one server's metrics endpoint is
/// dark, that server reads as idle and the idle cluster as idler still;
/// the controller must not shrink on that view. Once every server
/// answers again, the shrink goes ahead.
#[test]
fn a_controller_that_cannot_see_every_server_does_not_shrink() {
    use proteus_net::{FaultMode, FaultProxy};

    let h = harness(100.0);
    let proxy = FaultProxy::spawn(h.endpoints[0].local_addr()).unwrap();
    let mut metrics_addrs: Vec<_> = h.endpoints.iter().map(MetricsServer::local_addr).collect();
    metrics_addrs[0] = proxy.addr();
    let observer = Arc::new(ClusterObserver::new(ObserverConfig {
        connect_timeout: Duration::from_millis(100),
        read_timeout: Duration::from_millis(200),
        server_capacity_ops: 100.0,
        ..ObserverConfig::default()
    }));
    for addr in &metrics_addrs {
        observer.add_server(*addr);
    }
    let policy = WallPolicy::new(PolicyConfig {
        cooldown: Duration::from_millis(100),
        ..PolicyConfig::for_cluster(N, 100.0)
    });
    let mut controller = ClusterController::new(
        observer,
        Arc::clone(&h.client),
        metrics_addrs,
        policy,
        ActuationConfig::default(),
    );

    proxy.set_mode(FaultMode::Blackhole);
    let t0 = Instant::now();
    for tick in 0..4u64 {
        let report = controller.step_at(t0 + Duration::from_millis(250 * tick));
        assert_eq!(
            report.action,
            StepAction::Held(HoldReason::Blind),
            "tick {tick} with one endpoint dark (signal: {:?})",
            report.signal
        );
        assert_eq!(report.signal.answered_servers, N - 1);
    }
    assert_eq!(controller.decisions(), 0);
    assert_eq!(h.client.read().active(), N);

    proxy.set_mode(FaultMode::Forward);
    let report = controller.step_at(t0 + Duration::from_secs(1));
    assert_eq!(report.signal.answered_servers, N);
    assert_eq!(
        report.action,
        StepAction::WindowOpened { from: N, to: N - 2 }
    );
    assert_eq!(controller.decisions(), 1);

    proxy.stop();
    drop(h.endpoints);
    for s in h.servers {
        s.stop();
    }
}

/// A joiner that cannot be emptied is not admitted: the grow backs off
/// as for a refused window, and the joiner goes back to `Off`.
#[test]
fn a_joiner_that_cannot_be_emptied_is_not_admitted() {
    let mut h = harness(100.0);
    let db = Mutex::new(ShardedStore::new(StoreConfig {
        object_size: 128,
        ..StoreConfig::default()
    }));
    let policy = WallPolicy::new(PolicyConfig {
        min_servers: N - 1,
        max_step: 1,
        cooldown: Duration::from_millis(300),
        ..PolicyConfig::for_cluster(N, 100.0)
    });
    let actuation = ActuationConfig {
        boot_delay: Duration::from_millis(100),
        drain: Duration::from_millis(100),
    };
    let mut controller = ClusterController::new(
        Arc::clone(&h.observer),
        Arc::clone(&h.client),
        h.endpoints.iter().map(MetricsServer::local_addr).collect(),
        policy,
        actuation,
    );
    let t0 = Instant::now();
    let ms = |n| t0 + Duration::from_millis(n);
    assert_eq!(
        controller.step_at(t0).action,
        StepAction::WindowOpened { from: N, to: N - 1 }
    );
    assert_eq!(
        controller.step_at(ms(150)).action,
        StepAction::WindowClosed { from: N, to: N - 1 }
    );
    // The powered-off server's process is gone; its metrics endpoint
    // still answers, so the view stays whole.
    h.servers.pop().unwrap().stop();

    for i in 0..1_000u32 {
        let k = format!("page:{}", i % 200).into_bytes();
        h.client.read().fetch(&k, &db).unwrap();
    }
    let report = controller.step_at(ms(700));
    assert_eq!(
        report.action,
        StepAction::BootScheduled { from: N - 1, to: N },
        "the loaded cluster must grow (signal: {:?})",
        report.signal
    );
    assert_eq!(controller.step_at(ms(900)).action, StepAction::BackedOff);
    assert_eq!(controller.backoffs(), 1);
    assert!(!controller.transition_pending());
    assert!(!h.client.read().transition_active());
    assert_eq!(h.client.read().active(), N - 1);
    let snap = h.observer.tick();
    assert_eq!(snap.servers[N - 1].power_state, PowerState::Off);
    assert_eq!(snap.active_servers, N - 1);

    drop(h.endpoints);
    for s in h.servers {
        s.stop();
    }
}
