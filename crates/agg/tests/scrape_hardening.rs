//! Scrape-client hardening under injected network faults: a blackholed
//! server must cost one bounded timeout per tick — never a stalled
//! aggregator — and must re-enter the merged view when it heals.

use std::sync::Arc;
use std::time::{Duration, Instant};

use proteus_agg::{ClusterObserver, ObserverConfig};
use proteus_net::{FaultMode, FaultProxy};
use proteus_obs::{Metric, MetricSource, MetricValue, MetricsServer};

fn metrics_endpoint(hits: u64) -> MetricsServer {
    let source: MetricSource = Arc::new(move || {
        vec![
            Metric::counter("proteus_get_hits_total", hits),
            Metric::counter("proteus_get_misses_total", 1),
        ]
    });
    MetricsServer::spawn("127.0.0.1:0", source).expect("bind metrics endpoint")
}

#[test]
fn blackholed_server_fails_bounded_and_recovers() {
    let mut healthy_a = metrics_endpoint(100);
    let mut healthy_b = metrics_endpoint(200);
    let mut flaky = metrics_endpoint(300);
    let proxy = FaultProxy::spawn(flaky.local_addr()).expect("spawn fault proxy");

    let config = ObserverConfig {
        connect_timeout: Duration::from_millis(400),
        read_timeout: Duration::from_millis(400),
        stale_after: 1,
        ..ObserverConfig::default()
    };
    let observer = ClusterObserver::new(config);
    observer.add_server(healthy_a.local_addr());
    observer.add_server(healthy_b.local_addr());
    observer.add_server(proxy.addr());

    // Healthy round first: everyone is fresh through the proxy too.
    let snap = observer.tick();
    assert_eq!(snap.servers.iter().filter(|s| s.fresh).count(), 3);

    // Blackhole the proxied server: accepts, then silence. Two ticks
    // must each complete within the scrape deadline budget (scrapes
    // run concurrently, so the bound is per-tick, not per-server) and
    // count consecutive failures without disturbing the healthy pair.
    proxy.set_mode(FaultMode::Blackhole);
    for expected_failures in 1..=2 {
        let started = Instant::now();
        let snap = observer.tick();
        assert!(
            started.elapsed() < Duration::from_secs(3),
            "tick must be deadline-bounded, took {:?}",
            started.elapsed()
        );
        let flaky_status = snap
            .servers
            .iter()
            .find(|s| s.addr == proxy.addr())
            .expect("flaky server stays registered");
        assert_eq!(flaky_status.consecutive_failures, expected_failures);
        assert!(!flaky_status.fresh, "stale_after=1 drops it immediately");
        assert_eq!(
            snap.servers.iter().filter(|s| s.fresh).count(),
            2,
            "healthy servers keep reporting"
        );
        // The stale server's last-known counters must not leak into
        // the merged view: 100 + 200 hits, not 600.
        let merged_hits = snap
            .merged
            .iter()
            .find(|m| m.name == "proteus_get_hits_total")
            .map(|m| match m.value {
                MetricValue::Counter(v) => v,
                _ => panic!("hits must stay a counter"),
            })
            .expect("healthy servers expose hits");
        assert_eq!(merged_hits, 300);
    }
    let (scrapes, failures) = observer.scrape_totals();
    assert_eq!(scrapes, 9, "three ticks over three servers");
    assert_eq!(failures, 2, "one per blackholed tick");

    // Heal the link: the very next tick readmits the server.
    proxy.set_mode(FaultMode::Forward);
    let snap = observer.tick();
    let flaky_status = snap
        .servers
        .iter()
        .find(|s| s.addr == proxy.addr())
        .expect("flaky server still registered");
    assert_eq!(flaky_status.consecutive_failures, 0);
    assert!(flaky_status.fresh);
    assert_eq!(snap.servers.iter().filter(|s| s.fresh).count(), 3);

    proxy.stop();
    healthy_a.stop();
    healthy_b.stop();
    flaky.stop();
}

/// `--capacity-ops` that is not a finite positive number is refused at
/// start-up: exit 1, with a message naming the flag. NaN passed the old
/// `<= 0.0` check and made every server's utilisation, and with it the
/// energy account, NaN.
#[test]
fn the_aggregator_binary_refuses_a_capacity_that_is_not_finite() {
    use std::io::Read;
    use std::process::{Command, Stdio};
    for capacity in ["nan", "inf"] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_proteus-cluster-obs"))
            .args(["--servers", "127.0.0.1:1", "--bind", "127.0.0.1:0"])
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
                panic!("--capacity-ops {capacity} started the aggregator");
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
}
