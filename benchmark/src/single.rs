//! `single_read` and `single_churn`: one server, closed loop, two
//! connections each pipelining a batch of commands.

use std::io;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use proteus_cache::{CacheConfig, StorageKind};
use proteus_net::{CacheServer, ServerConfig};
use proteus_sim::SimRng;
use proteus_workload::ZipfSampler;

use crate::alloc_count::{self, AllocCounts};
use crate::counters::ServerCounters;
use crate::measure::{self, Sample, WindowFacts, TRACED, WARM_UP};
use crate::values::{key_bytes, Sizes, ValueSpace, KEY_LEN};
use crate::wire::{Reply, WireClient};
use crate::{procfs, spans, Measured, RunArgs};

/// What `proteus-cache-server` runs with when given no flags.
pub const SERVER_CAPACITY_BYTES: u64 = 64 << 20;
/// Generator threads, one data connection each.
const CONNECTIONS: usize = 2;
/// Keys in a multi-key `get`.
const MULTI_KEYS: usize = 8;
/// `set`s per round trip while preloading: enough that set-up time is
/// the server storing values, not two threads waking each other.
const PRELOAD_CHUNK: usize = 512;
/// Recording flips every this many batches in the traced pass.
const TRACE_BLOCK: u64 = 64;
/// Samples a generator can record without growing its buffer.
const SAMPLE_CAPACITY: usize = 1 << 20;
const FILLER: Sample = Sample {
    at_us: u32::MAX,
    latency_ns: 0,
    ops: 0,
    gets: 0,
    hits: 0,
    failed: 0,
    flags: 0,
};

pub struct Spec {
    pub name: &'static str,
    keys: usize,
    sizes: Sizes,
    /// Commands per pipelined batch.
    batch: usize,
    /// Per cent of commands; the remainder are `delete`s.
    get: u64,
    multi_get: u64,
    set: u64,
    /// Zipf exponent of the key choice; `None` is uniform.
    zipf: Option<f64>,
    /// Stop preloading after this many user bytes; `None` loads every key.
    preload_bytes: Option<u64>,
}

pub const READ: Spec = Spec {
    name: "single_read",
    // ~30 MiB of user bytes: fits the 64 MiB cache.
    keys: 100_000,
    sizes: Sizes::Uniform(64, 512),
    batch: 32,
    get: 90,
    multi_get: 5,
    set: 5,
    zipf: Some(0.99),
    preload_bytes: None,
};

pub const CHURN: Spec = Spec {
    name: "single_churn",
    // Log-uniform 256 B..4 KiB averages ~1.4 KiB: ~256 MiB of user
    // bytes, four times the cache.
    keys: 190_000,
    sizes: Sizes::LogUniform(256, 4 << 10),
    batch: 16,
    get: 45,
    multi_get: 0,
    set: 50,
    zipf: None,
    // Enough to fill the cache and start evicting before the window.
    preload_bytes: Some(SERVER_CAPACITY_BYTES * 3 / 2),
};

pub fn default_server() -> Result<CacheServer, String> {
    CacheServer::spawn_with(
        "127.0.0.1:0",
        CacheConfig::with_capacity(SERVER_CAPACITY_BYTES).storage(StorageKind::Slab),
        ServerConfig::default(),
    )
    .map_err(|e| format!("cannot start a cache server: {e}"))
}

struct Rig {
    server: CacheServer,
    conns: Vec<WireClient>,
}

/// Spawn, connect, preload. Everything `setup_s` times.
fn set_up(spec: &Spec, values: &ValueSpace) -> Result<Rig, String> {
    let io = |e: io::Error| format!("{}: set-up failed: {e}", spec.name);
    let server = default_server()?;
    let mut conns = (0..CONNECTIONS)
        .map(|_| WireClient::connect(server.addr()))
        .collect::<io::Result<Vec<_>>>()
        .map_err(io)?;
    let loader = &mut conns[0];
    let mut loaded = 0u64;
    let mut index = 0;
    while index < values.keys() && spec.preload_bytes.is_none_or(|limit| loaded < limit) {
        let chunk = index..(index + PRELOAD_CHUNK).min(values.keys());
        for i in chunk.clone() {
            loader.queue_set(&key_bytes(i), values.value(i));
            loaded += values.user_bytes(i);
        }
        loader.send().map_err(io)?;
        for _ in chunk.clone() {
            match loader.next().map_err(io)? {
                Reply::Line(line) if loader.bytes(line.clone()) == b"STORED" => {}
                _ => return Err(format!("{}: preload set was not stored", spec.name)),
            }
        }
        index = chunk.end;
    }
    Ok(Rig { server, conns })
}

enum Planned {
    /// `n` keys starting at `first` in the batch's key list.
    Get {
        first: usize,
        n: usize,
    },
    Set,
    Delete,
}

struct Generator<'a> {
    spec: &'a Spec,
    values: &'a ValueSpace,
    zipf: Option<&'a ZipfSampler>,
    rng: SimRng,
    conn: WireClient,
    samples: Vec<Sample>,
}

impl Generator<'_> {
    fn pick(&mut self) -> usize {
        match self.zipf {
            Some(z) => (z.sample(&mut self.rng) - 1) as usize,
            None => self.rng.index(self.values.keys()),
        }
    }

    /// Runs batches from `WARM_UP` before `start` until `deadline`;
    /// returns one sample per batch sent at or after `start`.
    fn run(mut self, start: Instant, deadline: Instant, trace: bool) -> io::Result<Vec<Sample>> {
        let mut plan: Vec<Planned> = Vec::with_capacity(self.spec.batch);
        let mut keys: Vec<(usize, [u8; KEY_LEN])> =
            Vec::with_capacity(self.spec.batch * MULTI_KEYS);
        measure::sleep_until(start - WARM_UP);
        let mut batch_no = 0u64;
        loop {
            let trace = trace && Instant::now() >= start;
            let traced = trace && (batch_no / TRACE_BLOCK).is_multiple_of(2);
            if trace && batch_no.is_multiple_of(TRACE_BLOCK) {
                spans::set_recording(traced);
            }
            batch_no += 1;
            plan.clear();
            keys.clear();
            for _ in 0..self.spec.batch {
                let roll = self.rng.below(100);
                let first = keys.len();
                if roll < self.spec.get + self.spec.multi_get {
                    let n = if roll < self.spec.get { 1 } else { MULTI_KEYS };
                    while keys.len() < first + n {
                        let i = self.pick();
                        // Distinct keys, so every requested key has
                        // exactly one VALUE block to match.
                        if !keys[first..].iter().any(|k| k.0 == i) {
                            keys.push((i, key_bytes(i)));
                        }
                    }
                    self.conn.queue_get(keys[first..].iter().map(|k| &k.1[..]));
                    plan.push(Planned::Get { first, n });
                } else {
                    let i = self.pick();
                    keys.push((i, key_bytes(i)));
                    if roll < self.spec.get + self.spec.multi_get + self.spec.set {
                        self.conn.queue_set(&keys[first].1, self.values.value(i));
                        plan.push(Planned::Set);
                    } else {
                        self.conn.queue_delete(&keys[first].1);
                        plan.push(Planned::Delete);
                    }
                }
            }

            let begin = Instant::now();
            let mut sample = Sample {
                ops: plan.len() as u16,
                ..FILLER
            };
            {
                let _batch = spans::enter("batch");
                {
                    let _send = spans::enter("wire.send");
                    self.conn.send()?;
                }
                let _recv = spans::enter("wire.recv");
                for planned in &plan {
                    match *planned {
                        Planned::Get { first, n } => {
                            sample.gets += n as u16;
                            let wanted = &keys[first..first + n];
                            let (hits, ok) = self.check_get(wanted)?;
                            sample.hits += hits;
                            sample.failed += u8::from(!ok);
                        }
                        Planned::Set => sample.failed += u8::from(!self.line_is(&[b"STORED"])?),
                        Planned::Delete => {
                            sample.failed += u8::from(!self.line_is(&[b"DELETED", b"NOT_FOUND"])?);
                        }
                    }
                }
            }
            let done = Instant::now();
            if done >= deadline {
                // A batch that straddles the end belongs to no slice.
                return Ok(self.samples);
            }
            if begin < start {
                continue;
            }
            sample.at_us = (done - start).as_micros() as u32;
            sample.latency_ns = (done - begin).as_nanos().min(u128::from(u32::MAX)) as u32;
            sample.flags = if traced { TRACED } else { 0 };
            self.samples.push(sample);
        }
    }

    /// Reads one `get` reply: every VALUE must be for a requested key,
    /// in request order, and carry that key's one correct value.
    fn check_get(&mut self, wanted: &[(usize, [u8; KEY_LEN])]) -> io::Result<(u16, bool)> {
        let mut hits = 0;
        let mut ok = true;
        let mut cursor = 0;
        loop {
            match self.conn.next()? {
                Reply::End => return Ok((hits, ok)),
                Reply::Value { key, data } => {
                    let key = self.conn.bytes(key);
                    match wanted[cursor..].iter().position(|w| w.1 == key) {
                        Some(at) => {
                            ok &= self.conn.bytes(data) == self.values.value(wanted[cursor + at].0);
                            cursor += at + 1;
                            hits += 1;
                        }
                        None => ok = false,
                    }
                }
                // An error line ends the reply; there is no END after it.
                Reply::Line(_) => return Ok((hits, false)),
            }
        }
    }

    fn line_is(&mut self, accepted: &[&[u8]]) -> io::Result<bool> {
        Ok(match self.conn.next()? {
            Reply::Line(line) => accepted.contains(&self.conn.bytes(line)),
            _ => false,
        })
    }
}

pub fn run(spec: &Spec, args: &RunArgs) -> Result<Measured, String> {
    let io = |e: io::Error| format!("{}: {e}", spec.name);
    let values = Arc::new(ValueSpace::new(args.seed, spec.keys, spec.sizes));
    let zipf = spec.zipf.map(|s| ZipfSampler::new(spec.keys as u64, s));
    let mut seeds = SimRng::seed_from_u64(args.seed);

    // Sample buffers are written once before the baseline, so recording
    // into them never grows the resident set the memory metric reads.
    let mut buffers: Vec<Vec<Sample>> = (0..CONNECTIONS)
        .map(|_| vec![FILLER; SAMPLE_CAPACITY])
        .collect();
    buffers.iter_mut().for_each(Vec::clear);

    let rss_before = procfs::rss_bytes().map_err(io)?;
    let begin = Instant::now();
    let Rig { server, conns } = set_up(spec, &values)?;
    let first_set_up_s = begin.elapsed().as_secs_f64();

    // --- warm-up, then the measured window ------------------------
    let window = Duration::from_secs_f64(args.seconds);
    let start = Instant::now() + Duration::from_millis(150) + WARM_UP;
    let (tid_tx, tid_rx) = mpsc::channel();
    let servers = std::slice::from_ref(&server);
    let (samples, cpu, before, after, allocs, rss_after) = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .zip(buffers)
            .enumerate()
            .map(|(n, (conn, samples))| {
                let generator = Generator {
                    spec,
                    values: &values,
                    zipf: zipf.as_ref(),
                    rng: seeds.fork(n as u64),
                    conn,
                    samples,
                };
                let tid_tx = tid_tx.clone();
                scope.spawn(move || {
                    alloc_count::set_generator(true);
                    tid_tx
                        .send(procfs::thread_tid())
                        .expect("coordinator waits for tids");
                    let out = generator.run(start, start + window, args.trace);
                    spans::set_recording(false);
                    spans::flush_thread();
                    out
                })
            })
            .collect();
        alloc_count::set_generator(true);
        let mut generators = vec![procfs::thread_tid().map_err(io)?];
        for _ in 0..CONNECTIONS {
            generators.push(
                tid_rx
                    .recv()
                    .expect("generator reports its tid")
                    .map_err(io)?,
            );
        }
        measure::sleep_until(start);
        let before = ServerCounters::read(servers);
        let allocs = AllocCounts::now();
        let cpu = measure::watch_cpu(start, window, &generators).map_err(io)?;
        let rss_after = procfs::rss_bytes().map_err(io)?;
        let mut samples = Vec::new();
        for h in handles {
            samples.extend(h.join().expect("generator thread panicked").map_err(io)?);
        }
        let allocs = AllocCounts::now().since(allocs);
        let after = ServerCounters::read(servers);
        Ok::<_, String>((samples, cpu, before, after, allocs, rss_after))
    })?;

    let threads = procfs::task_cpu_ns().map_err(io)?.len() as u64 - 1;
    server.with_engine(|engine| engine.assert_storage_consistent());
    let plane = server.engine_kind().name();
    server.stop();

    let setups_s = measure::set_up_times(
        first_set_up_s,
        || set_up(spec, &values),
        |rig| {
            drop(rig.conns);
            rig.server.stop();
        },
    )?;

    let facts = WindowFacts {
        window,
        cpu,
        setups_s,
        mem_bytes_per_user_byte: measure::mem_ratio(rss_before, rss_after, after.user_bytes),
        energy: None,
    };
    Ok(Measured {
        samples,
        facts,
        before,
        after,
        allocs,
        threads,
        plane,
        extra: Vec::new(),
        gates: Vec::new(),
    })
}
