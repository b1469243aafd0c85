//! Spans around the benchmark's calls into each layer.
//!
//! A span covers one call the benchmark makes into a crate's public
//! API: it has a layer, a name, a start, an end and the span that was
//! open when it began (its parent). Spans are recorded only while
//! recording is switched on (traced passes of a `--trace 1` run),
//! stay in memory, and are written out once at the end. Everything
//! here runs on the benchmark's own thread: the layers are timed from
//! outside, never instrumented.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded call into a layer.
pub struct Span {
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        epoch: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
    });
}

/// Switch span recording on or off for the following calls.
pub fn set_recording(on: bool) {
    ACTIVE.with(|a| a.set(on));
}

fn now_ns(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Run `f` as one call into `layer`, recording a span if recording is on.
pub fn span<R>(layer: &'static str, name: &'static str, f: impl FnOnce() -> R) -> R {
    if !ACTIVE.with(Cell::get) {
        return f();
    }
    let idx = REC.with(|r| {
        let mut r = r.borrow_mut();
        let span = Span {
            layer,
            name,
            start_ns: now_ns(r.epoch),
            end_ns: 0,
            parent: r.open.last().copied(),
        };
        r.spans.push(span);
        let idx = r.spans.len() - 1;
        r.open.push(idx);
        idx
    });
    let out = f();
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.open.pop();
        r.spans[idx].end_ns = now_ns(r.epoch);
    });
    out
}

/// Take every span recorded so far.
pub fn take() -> Vec<Span> {
    REC.with(|r| std::mem::take(&mut r.borrow_mut().spans))
}

/// Self time per layer in milliseconds: each span's duration minus
/// the time its child spans cover.
pub fn self_ms(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let dur = |s: &Span| s.end_ns.saturating_sub(s.start_ns) as f64;
    let mut own: Vec<f64> = spans.iter().map(dur).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= dur(s);
        }
    }
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(own) {
        *out.entry(s.layer).or_insert(0.0) += t / 1e6;
    }
    out
}

/// Write the spans as JSON lines (one span per line, parents by index).
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"id\": {i}, \"layer\": \"{}\", \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
            s.layer, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}
