//! What every workload shares: the run context, the correctness
//! tally, the timed pass loop and the result each workload returns.

use crate::span::{self, span};
use crate::stats::median;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Pool workers or PEs every native run uses (the reference host has
/// two cores; the generator or simulator thread is the third thread).
pub const WORKERS: usize = 2;

/// Command-line settings of one run.
pub struct Ctx {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// Operations attempted and failed. An operation fails on a wrong
/// value, an error from the layer, a rejected submit, an unexpected
/// cancel or panic, or a simulator result that differs from the
/// first pass.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Count one operation; `ok` says whether every check on it held.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// One side of a workload: the shared-heap/work-stealing runtime, or
/// Eden. Every workload measures both on the same inputs.
pub struct Side {
    /// Median time of the side's unit of work (a simulator pass, a
    /// native run, a server job), in ms.
    pub ms: f64,
    /// Operations completed per second on this side.
    pub ops_per_s: f64,
}

/// What a workload reports back to `main`.
pub struct Outcome {
    pub setup_s: f64,
    pub steal: Side,
    pub eden: Side,
    /// Per-layer metrics this workload measured (the rest read 0).
    pub layer: BTreeMap<String, f64>,
    /// Wall time of each pass, with whether spans were recorded in it.
    pub passes: Vec<(bool, f64)>,
    pub checks: Checks,
    /// Human-readable report lines.
    pub lines: Vec<String>,
}

/// Run `reps` set-ups and return the median time with the last
/// set-up's result. Set-up is deterministic, so repeating it costs
/// time but changes nothing.
pub fn setup<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        last = Some(f());
        times.push(t0.elapsed().as_secs_f64());
    }
    (median(&times), last.expect("at least one set-up rep"))
}

/// Run `pass` until `ctx.seconds` have elapsed (and at least
/// `min_passes` times). In a traced run every second pass records
/// spans, so the untraced passes give the tracing overhead.
pub fn passes(ctx: &Ctx, min_passes: usize, mut pass: impl FnMut(usize)) -> Vec<(bool, f64)> {
    let deadline = Instant::now() + Duration::from_secs(ctx.seconds);
    let mut out = Vec::new();
    while out.len() < min_passes || Instant::now() < deadline {
        let i = out.len();
        let traced = ctx.trace && i % 2 == 1;
        span::set_recording(traced);
        let t0 = Instant::now();
        span("bench", "pass", || pass(i));
        out.push((traced, t0.elapsed().as_secs_f64() * 1e3));
        span::set_recording(false);
    }
    out
}

/// Seconds since `t0` — the one timing primitive of the workloads.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}
