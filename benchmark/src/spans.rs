//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded by the benchmark around its own calls into the
//! program's public functions; nothing under `crates/` knows about
//! them. Each thread appends to its own log (no lock on the measured
//! path), a guard closes its span when dropped, and the span open on
//! the thread at `enter` time is the parent — so a `db.fetch` made by
//! the program from inside `ClusterClient::fetch` lands under the
//! `cluster.fetch` span that caused it. Logs are handed to one sink
//! when a thread finishes and written out when the run ends.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    pub name: &'static str,
    /// Outcome class set before the span closed (a `ClusterFetch`
    /// class, a step action); empty when there is none.
    pub tag: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

struct Log {
    on: bool,
    thread: u64,
    next: u64,
    open: Vec<u64>,
    spans: Vec<Span>,
}

static EPOCH: OnceLock<Instant> = OnceLock::new();
static THREADS: AtomicU64 = AtomicU64::new(1);
static SINK: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static LOG: RefCell<Log> = const {
        RefCell::new(Log { on: false, thread: 0, next: 1, open: Vec::new(), spans: Vec::new() })
    };
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turns recording on or off for the calling thread. The generators
/// flip this per block of requests so one traced run carries its own
/// untraced control arm.
pub fn set_recording(on: bool) {
    LOG.with(|l| {
        let mut l = l.borrow_mut();
        if on && l.thread == 0 {
            l.thread = THREADS.fetch_add(1, Ordering::Relaxed);
        }
        l.on = on;
    });
}

/// Closes its span on drop.
pub struct Guard {
    open: Option<(u64, u64, &'static str, u64)>,
    tag: &'static str,
}

/// Opens a span named `name` under whatever span is open on this
/// thread. Costs one thread-local read when recording is off.
pub fn enter(name: &'static str) -> Guard {
    let open = LOG.with(|l| {
        let mut l = l.borrow_mut();
        if !l.on {
            return None;
        }
        // Thread number in the high bits keeps ids unique without
        // sharing a counter between threads.
        let id = (l.thread << 40) | l.next;
        l.next += 1;
        let parent = l.open.last().copied().unwrap_or(0);
        l.open.push(id);
        Some((id, parent, name, now_ns()))
    });
    Guard { open, tag: "" }
}

impl Guard {
    pub fn tag(&mut self, tag: &'static str) {
        self.tag = tag;
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some((id, parent, name, start_ns)) = self.open else {
            return;
        };
        let end_ns = now_ns();
        LOG.with(|l| {
            let mut l = l.borrow_mut();
            // Guards drop innermost first, so the closing span is on top.
            l.open.pop();
            l.spans.push(Span {
                id,
                parent,
                name,
                tag: self.tag,
                start_ns,
                end_ns,
            });
        });
    }
}

/// Moves the calling thread's spans to the shared sink; a thread calls
/// this once, after its measured work.
pub fn flush_thread() {
    let spans = LOG.with(|l| std::mem::take(&mut l.borrow_mut().spans));
    if !spans.is_empty() {
        SINK.lock().expect("span sink poisoned").extend(spans);
    }
}

/// Everything flushed so far, ordered by start time.
pub fn drain() -> Vec<Span> {
    let mut spans = std::mem::take(&mut *SINK.lock().expect("span sink poisoned"));
    spans.sort_by_key(|s| (s.start_ns, s.id));
    spans
}

/// Writes one JSON object per span.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    let mut line = String::new();
    for s in spans {
        line.clear();
        let _ = write!(
            line,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"tag\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.name, s.tag, s.start_ns, s.end_ns
        );
        line.push('\n');
        out.write_all(line.as_bytes())?;
    }
    out.flush()
}

/// Totals for one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the part covered by child spans.
    pub self_ns: u64,
}

/// Per-name count, total time and self time.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        let dur = s.end_ns - s.start_ns;
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
    }
    out
}
