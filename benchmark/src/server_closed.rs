//! `server_closed`: one generator thread keeps a fixed window of jobs
//! outstanding against the `rph-server` job server (closed loop: the
//! next job is submitted only when the oldest one resolves). The job
//! mix is `bench_server_json`'s — mostly tiny spin and sumEuler jobs
//! from two tenants weighted 9:1 — drawn from the workload seed, with
//! one poison job at a fixed position of every segment.
//!
//! Jobs are tiny, so admission, deficit round robin, batching and
//! per-batch dispatch dominate while the kernels do little. Each pass
//! runs the same segment of the job sequence on a fresh steal server,
//! then on a fresh Eden server. Closed rather than open loop: open-loop
//! p99 did not repeat from run to run on a 2-core host.

use crate::harness::{passes, secs, setup, Checks, Ctx, Outcome, Side, WORKERS};
use crate::span::span;
use crate::stats::{describe, median, percentile};
use rph_native::{BackendKind, NativeConfig};
use rph_server::{JobClass, JobHandle, JobOutcome, JobStatus, Server, ServerConfig};
use rph_sim::DetRng;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Jobs outstanding at any time.
const WINDOW: usize = 16;
/// Jobs per segment (one server instance per backend per pass).
const SEGMENT: usize = 10_000;
/// Segments of job sequence generated in set-up; passes wrap around.
const SEGMENTS: usize = 64;
/// Index of the poison job within each segment.
const POISON_AT: usize = SEGMENT / 2;
const POISON: JobClass = JobClass::Poison {
    units: 4,
    iters: 100,
    bad: 1,
};
const TENANT_WEIGHTS: [u32; 2] = [9, 1];

/// `bench_server_json`'s mix: mostly tiny jobs with a medium tail.
fn class_mix(rng: &mut DetRng) -> JobClass {
    match rng.gen_range(10) {
        0..=5 => JobClass::Spin {
            units: 1 + rng.gen_range(3) as u32,
            iters: 2_000,
        },
        6..=8 => JobClass::SumEuler {
            n: 60 + rng.gen_range(60) as u32,
            chunk: 10,
        },
        _ => JobClass::SumEuler { n: 400, chunk: 25 },
    }
}

fn class_key(c: &JobClass) -> (u8, u32, u32) {
    match *c {
        JobClass::SumEuler { n, chunk } => (0, n, chunk),
        JobClass::Spin { units, iters } => (1, units, iters),
        JobClass::Poison { units, iters, .. } => (2, units, iters),
    }
}

/// A job of the sequence: tenant, class and the value it must produce.
type Request = (usize, JobClass, i64);

fn build(seed: u64) -> Vec<Request> {
    let mut rng = DetRng::new(seed);
    let mut oracle: BTreeMap<(u8, u32, u32), i64> = BTreeMap::new();
    (0..SEGMENT * SEGMENTS)
        .map(|_| {
            // 9:1 tenant skew, matching the 9:1 scheduling weights.
            let tenant = usize::from(rng.gen_range(10) == 9);
            let class = class_mix(&mut rng);
            let value = *oracle.entry(class_key(&class)).or_insert_with(|| {
                span("kernels", "JobClass::expected", || {
                    class.expected().expect("mix classes complete")
                })
            });
            (tenant, class, value)
        })
        .collect()
}

/// Everything measured on one server instance.
#[derive(Default)]
struct Segment {
    jobs_per_s: f64,
    latency_ms: Vec<f64>,
    queue_wait_ms: Vec<f64>,
    service_ms: Vec<f64>,
    dispatch_ms: Vec<f64>,
    submit_us: Vec<f64>,
    batches: u64,
    rejected: u64,
}

/// Check one resolved job and record its timings.
fn settle(
    seg: &mut Segment,
    checks: &mut Checks,
    backend: BackendKind,
    jobs: &[Request],
    i: usize,
    out: JobOutcome,
) {
    let ok = if i == POISON_AT {
        out.status == JobStatus::Panicked
    } else {
        out.status == JobStatus::Done && out.value == jobs[i].2
    };
    checks.op(ok, || {
        format!("{backend:?} server job {i}: {out:?}, oracle {}", jobs[i].2)
    });
    if i != POISON_AT && ok {
        let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
        seg.latency_ms.push(ms(out.latency));
        seg.queue_wait_ms.push(ms(out.queue_wait));
        seg.service_ms.push(ms(out.service));
        seg.dispatch_ms
            .push(ms(out.latency) - ms(out.queue_wait) - ms(out.service));
    }
}

fn run_segment(backend: BackendKind, jobs: &[Request], checks: &mut Checks) -> Segment {
    let cfg = ServerConfig::new(NativeConfig::new(WORKERS).with_backend(backend))
        .with_tenants(&TENANT_WEIGHTS)
        .with_queue_cap(8_192)
        .with_batch_max(256);
    let mut seg = Segment::default();
    let server = span("server", "start", || Server::start(cfg));
    let t0 = Instant::now();
    let mut window: VecDeque<(usize, JobHandle)> = VecDeque::with_capacity(WINDOW);
    for (i, &(tenant, class, _)) in jobs.iter().enumerate() {
        if window.len() == WINDOW {
            let (j, h) = window.pop_front().expect("window is full");
            let out = span("server", "wait", || h.wait());
            settle(&mut seg, checks, backend, jobs, j, out);
        }
        let class = if i == POISON_AT { POISON } else { class };
        let ts = Instant::now();
        let r = span("server", "submit", || server.submit(tenant, class));
        seg.submit_us.push(secs(ts) * 1e6);
        match r {
            Ok(h) => window.push_back((i, h)),
            Err(err) => {
                seg.rejected += 1;
                checks.op(false, || {
                    format!("{backend:?} server job {i} rejected: {err}")
                });
            }
        }
    }
    for (j, h) in window {
        let out = span("server", "wait", || h.wait());
        settle(&mut seg, checks, backend, jobs, j, out);
    }
    seg.jobs_per_s = jobs.len() as f64 / secs(t0);
    let report = span("server", "shutdown", || server.shutdown());
    let s = report.stats;
    checks.op(
        s.accepted == s.done + s.cancelled + s.panicked && s.panicked == 1 && s.queued_units == 0,
        || format!("{backend:?} server accounting: {s:?}"),
    );
    seg.batches = s.batches;
    seg
}

/// Count the injected poison panics instead of printing them: each
/// is expected, and the default hook's stderr write would sit inside
/// the timed batch. Any other panic still reaches the default hook.
fn count_poison_panics() -> Arc<AtomicU64> {
    let count = Arc::new(AtomicU64::new(0));
    let seen = Arc::clone(&count);
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info.payload_as_str().unwrap_or("");
        if msg.starts_with("poison job unit") {
            seen.fetch_add(1, Ordering::Relaxed);
        } else {
            default(info);
        }
    }));
    count
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut checks = Checks::default();
    let poison_panics = count_poison_panics();
    let (setup_s, jobs) = setup(5, || build(ctx.seed));
    let backends = [BackendKind::Steal, BackendKind::Eden];
    let mut segs: [Vec<Segment>; 2] = Default::default();
    let passes = passes(ctx, 2, |pass| {
        let start = (pass % SEGMENTS) * SEGMENT;
        let slice = &jobs[start..start + SEGMENT];
        for (b, out) in backends.iter().zip(segs.iter_mut()) {
            out.push(run_segment(*b, slice, &mut checks));
        }
    });

    // Back to the default hook.
    let _ = std::panic::take_hook();
    let segments = segs.iter().map(Vec::len).sum::<usize>() as u64;
    let panics = poison_panics.load(Ordering::Relaxed);
    checks.op(panics == segments, || {
        format!("{panics} poison panics in {segments} segments: the poison job must panic exactly once per segment")
    });

    let mut layer = BTreeMap::new();
    let mut lines = vec![format!(
        "server_closed: {WINDOW} jobs outstanding, {SEGMENT}-job segments, {WORKERS} workers/PEs, seed {}",
        ctx.seed
    )];
    let mut sides = Vec::new();
    for (b, segs) in ["steal", "eden"].into_iter().zip(&segs) {
        let pooled =
            |f: fn(&Segment) -> &Vec<f64>| segs.iter().flat_map(f).copied().collect::<Vec<f64>>();
        let latency = pooled(|s| &s.latency_ms);
        let queue_wait = pooled(|s| &s.queue_wait_ms);
        let service = pooled(|s| &s.service_ms);
        let jobs_per_s = median(&segs.iter().map(|s| s.jobs_per_s).collect::<Vec<_>>());
        let batches: u64 = segs.iter().map(|s| s.batches).sum();
        let jobs_done = (segs.len() * SEGMENT) as f64;
        let p50 = median(&latency);
        let values = [
            ("jobs_per_s", jobs_per_s),
            ("p50_ms", p50),
            ("p99_ms", percentile(&latency, 99.0)),
            ("submit_us", median(&pooled(|s| &s.submit_us))),
            ("queue_wait_p50_ms", median(&queue_wait)),
            ("queue_wait_p99_ms", percentile(&queue_wait, 99.0)),
            ("service_p50_ms", median(&service)),
            ("service_p99_ms", percentile(&service, 99.0)),
            ("dispatch_ms", median(&pooled(|s| &s.dispatch_ms))),
            (
                "batches",
                median(&segs.iter().map(|s| s.batches as f64).collect::<Vec<_>>()),
            ),
            ("jobs_per_batch", jobs_done / batches.max(1) as f64),
            ("rejected", segs.iter().map(|s| s.rejected as f64).sum()),
        ];
        for (k, v) in values {
            // The three headline numbers are named like end-to-end
            // numbers (`server_steal_jobs_per_s`); the rest sit under
            // `server.<backend>.`.
            let name = match k {
                "jobs_per_s" | "p50_ms" | "p99_ms" => format!("server_{b}_{k}"),
                _ => format!("server.{b}.{k}"),
            };
            layer.insert(name, v);
        }
        lines.push(format!(
            "  server_{b}_jobs_per_s {jobs_per_s:.0} (median of {} segments), server_{b}_p50_ms {p50:.4}, server_{b}_p99_ms {:.4}; latency {}",
            segs.len(),
            percentile(&latency, 99.0),
            describe(&latency, "ms")
        ));
        sides.push(Side {
            ms: p50,
            ops_per_s: jobs_per_s,
        });
    }
    let eden = sides.pop().expect("two sides");
    let steal = sides.pop().expect("two sides");
    Outcome {
        setup_s,
        steal,
        eden,
        layer,
        passes,
        checks,
        lines,
    }
}
