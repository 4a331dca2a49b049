//! Server-side counts read through public accessors
//! (`ShardedEngine::stats()/slab_stats()`, `ServerMetrics::ops()/
//! plane_syscalls()`), summed over the servers of a workload and
//! differenced over the measured window.

use proteus_cache::CacheStats;
use proteus_net::CacheServer;
use proteus_obs::{HistogramSnapshot, OpClass};

pub struct ServerCounters {
    pub stats: CacheStats,
    pub pages_reassigned: u64,
    pub heap_fallbacks: u64,
    /// Live key+value bytes inside slab chunks.
    pub slab_live_bytes: u64,
    /// Bytes of every slab page allocated.
    pub slab_page_bytes: u64,
    /// Key+value bytes of resident items, whichever backend holds them.
    pub user_bytes: u64,
    /// Commands served, in `OpClass::ALL` order.
    pub served: [u64; OpClass::ALL.len()],
    /// The servers' own per-command latency, all classes merged.
    pub serve: HistogramSnapshot,
    pub syscalls: u64,
}

impl ServerCounters {
    pub fn read(servers: &[CacheServer]) -> ServerCounters {
        let mut out = ServerCounters {
            stats: CacheStats::default(),
            pages_reassigned: 0,
            heap_fallbacks: 0,
            slab_live_bytes: 0,
            slab_page_bytes: 0,
            user_bytes: 0,
            served: [0; OpClass::ALL.len()],
            serve: HistogramSnapshot::empty(),
            syscalls: 0,
        };
        for server in servers {
            server.with_engine(|engine| {
                let s = engine.stats();
                out.stats.hits += s.hits;
                out.stats.misses += s.misses;
                out.stats.sets += s.sets;
                out.stats.deletes += s.deletes;
                out.stats.evictions += s.evictions;
                out.stats.expired += s.expired;
                out.stats.rejected += s.rejected;
                if let Some(slab) = engine.slab_stats() {
                    out.pages_reassigned += slab.pages_reassigned;
                    out.heap_fallbacks += slab.heap_fallbacks;
                    out.slab_live_bytes += slab.live_bytes();
                    out.slab_page_bytes += slab.page_bytes_total();
                }
                let overhead = u64::from(engine.config().item_overhead);
                out.user_bytes += engine.bytes_used() - engine.len() as u64 * overhead;
            });
            for (i, (_, snap)) in server.metrics().ops().snapshot_all().iter().enumerate() {
                out.served[i] += snap.count();
                out.serve.merge(snap);
            }
            out.syscalls += server.metrics().plane_syscalls();
        }
        out
    }

    pub fn served_total(&self) -> u64 {
        self.served.iter().sum()
    }

    pub fn served_of(&self, class: OpClass) -> u64 {
        self.served[OpClass::ALL
            .iter()
            .position(|&c| c == class)
            .expect("class listed")]
    }
}
