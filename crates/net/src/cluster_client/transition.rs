//! Opening and closing the client's transition window: the parallel
//! digest broadcast over sockets, and the trace of the lifecycle. The
//! window itself lives in `proteus_core::TransitionManager`.

use std::sync::atomic::Ordering;

use proteus_bloom::BloomFilter;
use proteus_obs::TraceKind;

use super::ClusterClient;
use crate::error::NetError;

/// The shape of an open (or just-closed) transition window: the
/// mapping it moved from/to.
///
/// Returned by [`ClusterClient::transition_status`] while a window is
/// open and by [`ClusterClient::end_transition`] for the window it
/// closed, so a control loop can log and act on the from→to pair it
/// actually actuated. The window carries no clock; whoever drives it
/// times the drain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransitionStatus {
    /// Active-server count under the old mapping.
    pub from: usize,
    /// Active-server count under the new mapping.
    pub to: usize,
}

impl ClusterClient {
    /// Begins a provisioning transition to `new_active` servers:
    /// [`open_window`](Self::open_window), which is all of Algorithm 2
    /// there is to it, and then — new here, not in the paper — starts
    /// the window's **puller**, a background thread that moves the keys
    /// whose owner changes to their new servers, hottest first, while
    /// requests go on migrating the ones they touch. The call returns
    /// as soon as the thread is started; [`pull_progress`] says how far
    /// it has got and [`end_transition`](Self::end_transition) stops
    /// it. Nothing the puller meets — a dead server, no thread to be
    /// had — reaches the caller.
    ///
    /// [`pull_progress`]: Self::pull_progress
    ///
    /// # Errors
    ///
    /// Returns [`NetError::TransitionInProgress`] if a transition
    /// window is already open, and nothing else.
    ///
    /// # Panics
    ///
    /// Panics if `new_active` is outside `1..=total`.
    pub fn begin_transition(&mut self, new_active: usize) -> Result<(), NetError> {
        let old_active = self.window.active();
        self.open_window(new_active)?;
        if new_active != old_active {
            self.puller.start(
                &self.router,
                &self.stats,
                &self.tracer,
                old_active,
                new_active,
            );
        }
        Ok(())
    }

    /// Opens a transition window to `new_active` servers and does
    /// nothing else — Algorithm 2 as the paper has it, where a key
    /// moves only when a request touches it. Fetches a fresh digest
    /// snapshot from every server active under the old mapping (the
    /// broadcast, issued to all servers **in parallel**, so the wall
    /// time is one server's round trips, not the sum), then switches
    /// the mapping. Call [`end_transition`](Self::end_transition)
    /// after the hot-TTL window elapses and the departing servers have
    /// powered off.
    ///
    /// Overlapping transitions are **rejected**: Algorithm 2 assumes a
    /// single old/new mapping pair (see
    /// [`proteus_core::TransitionOverlap`]); finish the first window,
    /// then start the next.
    ///
    /// A server whose digest cannot be obtained — powered off early,
    /// crashed, answering with a miss or with bytes that do not decode
    /// — does not fail the transition: its digest is recorded as
    /// missing, and keys that only lived there fall through to the
    /// database. A dead cache reads as a miss.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::TransitionInProgress`] if a transition
    /// window is already open, and nothing else.
    ///
    /// # Panics
    ///
    /// Panics if `new_active` is outside `1..=total`.
    pub fn open_window(&mut self, new_active: usize) -> Result<(), NetError> {
        assert!(
            (1..=self.clients.len()).contains(&new_active),
            "active count {new_active} outside 1..={}",
            self.clients.len()
        );
        let old_active = self.window.active();
        if new_active == old_active {
            return Ok(());
        }
        if self.window.is_open() {
            return Err(NetError::TransitionInProgress);
        }
        self.tracer.record(TraceKind::TransitionBegin {
            from: old_active as u32,
            to: new_active as u32,
        });
        // Broadcast in parallel: every server snapshots and uploads its
        // digest concurrently (scoped threads borrowing the clients),
        // so the wall time of the broadcast is the *slowest* server's
        // round trips, not the sum over servers — at paper scale the
        // difference between a transition that starts in milliseconds
        // and one that takes seconds. Results are joined in server
        // order, so the trace stream stays deterministic.
        // Why a digest is missing — unreachable, no snapshot, bytes
        // that do not decode — does not matter to routing.
        let digests: Vec<Option<BloomFilter>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self.clients[..old_active]
                .iter()
                .map(|client| scope.spawn(move || client.snapshot_digest().ok().flatten()))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("digest broadcast thread panicked"))
                .collect()
        });
        for (i, digest) in digests.iter().enumerate() {
            self.tracer.record(TraceKind::DigestBroadcast {
                server: i as u32,
                ok: digest.is_some(),
            });
            if digest.is_none() {
                self.stats.missing_digests.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.window
            .begin(new_active, digests)
            .map_err(|_overlap| NetError::TransitionInProgress)
    }

    /// Whether a transition window is currently open. A control loop
    /// polls this before [`begin_transition`](Self::begin_transition)
    /// and backs off instead of eating a
    /// [`NetError::TransitionInProgress`] rejection.
    #[must_use]
    pub fn transition_active(&self) -> bool {
        self.window.is_open()
    }

    /// The open transition window's shape, or `None` when no window is
    /// open.
    #[must_use]
    pub fn transition_status(&self) -> Option<TransitionStatus> {
        self.window.is_open().then(|| TransitionStatus {
            from: self.window.previous_active(),
            to: self.window.active(),
        })
    }

    /// Ends the transition window: its puller, if still running, is
    /// stopped (the call waits out the one batch it may have in
    /// flight), digests are dropped and the old mapping is retired. On
    /// a scale-down this is the point the
    /// departing servers can power off, so the tracer records a
    /// [`TraceKind::PowerOff`] per departing server after the drain.
    ///
    /// Returns the window it closed — the drain-completion signal a
    /// controller forwards to its power actuator — or `None` if no
    /// window was open (the call is then a no-op).
    pub fn end_transition(&mut self) -> Option<TransitionStatus> {
        let closed = self.transition_status()?;
        self.puller.stop();
        self.tracer.record(TraceKind::TransitionDrain {
            from: closed.from as u32,
            to: closed.to as u32,
        });
        for server in self.window.finalize() {
            self.tracer.record(TraceKind::PowerOff {
                server: server as u32,
            });
        }
        Some(closed)
    }
}

#[cfg(test)]
mod tests {
    use std::io::{Read, Write};
    use std::net::{SocketAddr, TcpListener, TcpStream};
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    use std::thread::JoinHandle;

    use super::super::testing::{cluster, page_keys, stop};
    use super::super::ClusterFetch;
    use super::*;
    use crate::protocol::{parse_command, RawCommand, DIGEST_KEY};

    /// A cache server that stores nothing — every `get` misses, every
    /// `set` is acknowledged and dropped — and answers the digest keys
    /// with three bytes that do not decode.
    struct GarbageDigestServer {
        addr: SocketAddr,
        stopping: Arc<AtomicBool>,
        acceptor: JoinHandle<()>,
    }

    impl GarbageDigestServer {
        fn spawn() -> Self {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let stopping = Arc::new(AtomicBool::new(false));
            let acceptor = {
                let stopping = Arc::clone(&stopping);
                std::thread::spawn(move || {
                    let mut connections = Vec::new();
                    for stream in listener.incoming() {
                        if stopping.load(Ordering::SeqCst) {
                            break;
                        }
                        let stream = stream.unwrap();
                        connections.push(std::thread::spawn(move || Self::serve(stream)));
                    }
                    for connection in connections {
                        connection.join().unwrap();
                    }
                })
            };
            GarbageDigestServer {
                addr,
                stopping,
                acceptor,
            }
        }

        fn serve(mut stream: TcpStream) {
            let (mut input, mut chunk) = (Vec::new(), [0; 4096]);
            while let Ok(n @ 1..) = stream.read(&mut chunk) {
                input.extend_from_slice(&chunk[..n]);
                while let Some((command, used)) = parse_command(&input).unwrap() {
                    let reply: &[u8] = match command {
                        RawCommand::MultiGet { keys } if keys.contains(&DIGEST_KEY) => {
                            b"VALUE SET_BLOOM_FILTER 0 1\r\n1\r\nVALUE BLOOM_FILTER 0 3\r\nxyz\r\nEND\r\n"
                        }
                        RawCommand::Get { .. } | RawCommand::MultiGet { .. } => b"END\r\n",
                        RawCommand::Set { .. } | RawCommand::Add { .. } => b"STORED\r\n",
                        other => panic!("stub server got {other:?}"),
                    };
                    stream.write_all(reply).unwrap();
                    input.drain(..used);
                }
            }
        }

        /// Call once every client of the stub has been dropped.
        fn stop(self) {
            self.stopping.store(true, Ordering::SeqCst);
            let _ = TcpStream::connect(self.addr);
            self.acceptor.join().unwrap();
        }
    }

    #[test]
    fn undecodable_digest_costs_migrations_not_the_window() {
        use crate::client::ClientConfig;
        use crate::server::CacheServer;
        use proteus_cache::CacheConfig;
        use proteus_ring::ProteusPlacement;
        use proteus_store::{ShardedStore, StoreConfig};

        // Three real servers; the fourth — the one a 4 -> 3 step
        // retires — cannot produce a digest that decodes.
        let servers: Vec<CacheServer> = (0..3)
            .map(|_| {
                CacheServer::spawn("127.0.0.1:0", CacheConfig::with_capacity(4 << 20)).unwrap()
            })
            .collect();
        let stub = GarbageDigestServer::spawn();
        let mut addrs: Vec<_> = servers.iter().map(CacheServer::addr).collect();
        addrs.push(stub.addr);
        let mut client = ClusterClient::connect_with(
            &addrs,
            Box::new(ProteusPlacement::generate(4)),
            ClientConfig::fast_failover(),
        )
        .unwrap();
        let db = parking_lot::Mutex::new(ShardedStore::new(StoreConfig::default()));
        let keys = page_keys(80);
        for k in &keys {
            client.fetch(k, &db).unwrap();
        }
        let moving: Vec<&Vec<u8>> = keys
            .iter()
            .filter(|k| client.server_for(k).index() == 3)
            .collect();
        assert!(!moving.is_empty(), "some keys live on the retiring server");

        client.open_window(3).unwrap();
        assert!(client.transition_active());
        assert_eq!(client.fault_stats().missing_digests, 1);
        // Without the old server's digest its keys are ordinary misses.
        for k in moving {
            let (_, how) = client.fetch(k, &db).unwrap();
            assert_eq!(how, ClusterFetch::Database);
        }
        client.end_transition().expect("the window was open");

        // The trace is a whole lifecycle, not an orphan begin.
        let trace: Vec<TraceKind> = client.tracer().events().iter().map(|e| e.kind).collect();
        let broadcast = |server, ok| TraceKind::DigestBroadcast { server, ok };
        assert_eq!(
            trace,
            [
                TraceKind::TransitionBegin { from: 4, to: 3 },
                broadcast(0, true),
                broadcast(1, true),
                broadcast(2, true),
                broadcast(3, false),
                TraceKind::TransitionDrain { from: 4, to: 3 },
                TraceKind::PowerOff { server: 3 },
            ]
        );
        drop(client);
        stub.stop();
        stop(servers);
    }

    #[test]
    fn begin_transition_noop_for_same_count() {
        let (servers, mut client, _db) = cluster(2);
        client.open_window(2).unwrap();
        assert_eq!(client.active(), 2);
        stop(servers);
    }

    #[test]
    fn after_end_transition_cold_keys_go_to_db() {
        let (servers, mut client, db) = cluster(3);
        client.fetch(b"page:7", &db).unwrap();
        client.open_window(2).unwrap();
        client.end_transition();
        // A key that moved but was never migrated now comes from the DB.
        let moved: Vec<u8> = (0..1000u32)
            .map(|i| format!("cold:{i}").into_bytes())
            .find(|k| client.server_for(k).index() < 2)
            .unwrap();
        let (_, how) = client.fetch(&moved, &db).unwrap();
        assert_eq!(how, ClusterFetch::Database);
        stop(servers);
    }

    #[test]
    fn overlapping_transitions_are_rejected_then_chain_cleanly() {
        let (servers, mut client, db) = cluster(4);
        let keys = page_keys(60);
        for k in &keys {
            client.fetch(k, &db).unwrap();
        }
        // 4 -> 3 opens a window; 3 -> 2 inside it must be rejected (it
        // would overwrite previous_active and the digest broadcast,
        // stranding keys that only live on the original old server).
        client.open_window(3).unwrap();
        assert!(matches!(
            client.open_window(2),
            Err(NetError::TransitionInProgress)
        ));
        assert_eq!(client.active(), 3, "rejected call must not move state");
        // Driven one window at a time, the 4 -> 3 -> 2 double step keeps
        // every hot key out of the database.
        let db_before = db.lock().total_fetches();
        for k in &keys {
            let (_, how) = client.fetch(k, &db).unwrap();
            assert_ne!(how, ClusterFetch::Database);
        }
        client.end_transition();
        client.open_window(2).unwrap();
        for k in &keys {
            let (_, how) = client.fetch(k, &db).unwrap();
            assert_ne!(how, ClusterFetch::Database);
        }
        client.end_transition();
        assert_eq!(db.lock().total_fetches(), db_before);
        stop(servers);
    }

    #[test]
    fn transition_status_reports_the_open_window_and_its_close() {
        let (servers, mut client, _db) = cluster(4);
        assert!(!client.transition_active());
        assert_eq!(client.transition_status(), None);
        assert_eq!(
            client.end_transition(),
            None,
            "closing a window that never opened is a no-op"
        );

        client.open_window(3).unwrap();
        // The status accessor is the controller's back-off signal: it
        // must read true exactly while begin_transition would reject.
        assert!(client.transition_active());
        let open = client.transition_status().expect("window is open");
        assert_eq!((open.from, open.to), (4, 3));
        assert!(matches!(
            client.open_window(2),
            Err(NetError::TransitionInProgress)
        ));

        assert_eq!(client.end_transition(), Some(open));
        assert!(!client.transition_active());
        assert_eq!(client.transition_status(), None);

        // A same-count begin is a no-op and must not open a window.
        client.open_window(3).unwrap();
        assert!(!client.transition_active());
        stop(servers);
    }
}
