//! Spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start and end on one monotonic clock, the span
//! that caused it and the transfer it belongs to. Counters returned by
//! a layer are recorded against the span that returned them. Nothing is
//! recorded unless [`enable`] ran; spans stay in memory until [`take`].

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub xfer: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Count {
    pub span: u64,
    pub name: &'static str,
    pub value: f64,
}

struct Recorder {
    t0: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
    counts: Mutex<Vec<Count>>,
}

static REC: OnceLock<Recorder> = OnceLock::new();

pub fn enable() {
    let _ = REC.set(Recorder {
        t0: Instant::now(),
        next: AtomicU64::new(0),
        spans: Mutex::new(Vec::with_capacity(1 << 16)),
        counts: Mutex::new(Vec::with_capacity(1 << 16)),
    });
}

/// Run `f` inside a span; `f` gets the span's id (0 with tracing off) to
/// parent its children and counters.
pub fn span<T>(name: &'static str, parent: u64, xfer: u64, f: impl FnOnce(u64) -> T) -> T {
    let Some(r) = REC.get() else {
        return f(0);
    };
    // Relaxed: the id only has to be unique; it publishes nothing.
    let id = r.next.fetch_add(1, Ordering::Relaxed) + 1;
    let start_ns = r.t0.elapsed().as_nanos() as u64;
    let out = f(id);
    let end_ns = r.t0.elapsed().as_nanos() as u64;
    r.spans.lock().expect("span recorder poisoned").push(Span {
        id,
        parent,
        xfer,
        name,
        start_ns,
        end_ns,
    });
    out
}

/// Record a counter a layer returned, at the span that returned it.
pub fn count(span: u64, name: &'static str, value: f64) {
    if let Some(r) = REC.get() {
        r.counts
            .lock()
            .expect("counter recorder poisoned")
            .push(Count { span, name, value });
    }
}

/// Everything recorded so far, emptied out of the recorder.
pub fn take() -> (Vec<Span>, Vec<Count>) {
    match REC.get() {
        None => (Vec::new(), Vec::new()),
        Some(r) => (
            std::mem::take(&mut *r.spans.lock().expect("span recorder poisoned")),
            std::mem::take(&mut *r.counts.lock().expect("counter recorder poisoned")),
        ),
    }
}

/// Wall cost of recording one span, ns: timed over a batch of empty
/// spans, which are then discarded.
pub fn span_cost_ns() -> f64 {
    const N: u32 = 20_000;
    let t = Instant::now();
    for _ in 0..N {
        span("trace.calibrate", 0, 0, |_| ());
    }
    let cost = t.elapsed().as_nanos() as f64 / N as f64;
    if let Some(r) = REC.get() {
        let mut spans = r.spans.lock().expect("span recorder poisoned");
        spans.retain(|s| s.name != "trace.calibrate");
    }
    cost
}

/// Per span name: (count, total ns, self ns). A span's self time is its
/// duration minus the part of it its children cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        let covered = children.get_mut(&s.id).map_or(0, |c| {
            c.sort_unstable();
            let (mut covered, mut reach) = (0, s.start_ns);
            for &(a, b) in c.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            covered
        });
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += dur;
        e.2 += dur - covered;
    }
    out
}

/// Write spans and counters as JSON lines.
pub fn write(path: &std::path::Path, spans: &[Span], counts: &[Count]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            r#"{{"span":{},"parent":{},"xfer":{},"name":"{}","start_ns":{},"end_ns":{}}}"#,
            s.id, s.parent, s.xfer, s.name, s.start_ns, s.end_ns
        )?;
    }
    for c in counts {
        writeln!(
            w,
            r#"{{"count":"{}","span":{},"value":{}}}"#,
            c.name, c.span, c.value
        )?;
    }
    w.flush()
}
