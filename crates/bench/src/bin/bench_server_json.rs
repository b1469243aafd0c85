//! Service-mode latency benchmark: open-loop arrivals against the
//! `rph-server` job server, emitted as `BENCH_server.json` under
//! `target/paper-figures/` (schema `rph-bench-server/v3` — v2 added
//! `cpu_features` and `kernel_variant`, since the sumEuler unit kernel
//! is served by the SIMD-dispatched sieve and a scalar-fallback run
//! would otherwise be indistinguishable in the artifact; v3 runs the
//! schedule on both backends, one `steal` and one `eden` section, and
//! adds `fixed_cost_us`).
//!
//! ```text
//! cargo run -p rph-bench --release --bin bench_server_json [--smoke]
//! ```
//!
//! Unlike the closed-loop workload benches (run, wait, repeat), this
//! drives **open-loop** traffic: job arrival times are drawn up front
//! from an exponential inter-arrival distribution at a configured
//! rate and submitted on that absolute schedule whether or not the
//! server has kept up — the arrival process does not slow down to
//! match the service process, so queueing delay is measured rather
//! than hidden. Two tenants submit a mixed bag of job classes at a
//! 9:1 skew; one poison job is injected mid-run to prove a panicking
//! job leaves the pool serving the rest of the schedule. The same
//! schedule is replayed on a steal server, then on an Eden server.
//!
//! Assertions before anything is written, per backend: every accepted
//! job resolves exactly once, every `Done` value matches its class oracle (zero
//! lost or duplicated results), the poison job resolves `Panicked`
//! alone, and accepted == done + cancelled + panicked. The emitted
//! JSON records p50/p99/p999 end-to-end latency, queue-wait and
//! service-time quantiles, sustained throughput, and
//! rejected/cancelled counts per backend, then the steady-state fixed
//! cost of a one-task run on a persistent steal `Pool` and on a
//! persistent `EdenPool`.
//!
//! On a 1-core host the latency distribution is still meaningful —
//! queueing delay, batching and admission control don't need spare
//! cores to show up — even though speedup numbers would be vacuous.

use rph_bench::write_artifact;
use rph_native::{BackendKind, EdenPool, Job, NativeConfig, Pool};
use rph_server::{
    JobClass, JobHandle, JobStatus, LatencyHistogram, Server, ServerConfig, SubmitError,
};
use rph_sim::DetRng;
use std::time::{Duration, Instant};

/// Benchmark shape: `--smoke` keeps the schedule CI-sized (but still
/// ≥ 1k mixed jobs, the acceptance floor); the default run is longer.
struct Shape {
    jobs: usize,
    rate_per_sec: f64,
    workers: usize,
    queue_cap_units: usize,
    batch_max_units: usize,
}

fn shape(smoke: bool) -> Shape {
    if smoke {
        Shape {
            jobs: 1_200,
            rate_per_sec: 3_000.0,
            workers: 2,
            queue_cap_units: 8_192,
            batch_max_units: 256,
        }
    } else {
        Shape {
            jobs: 8_000,
            rate_per_sec: 2_000.0,
            workers: 4,
            queue_cap_units: 16_384,
            batch_max_units: 512,
        }
    }
}

/// The mixed workload: mostly tiny jobs with a medium tail, echoing a
/// front end multiplexing small requests over the pool.
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

/// Exponential inter-arrival gap at `rate` jobs/sec.
fn exp_gap(rng: &mut DetRng, rate: f64) -> Duration {
    let u = rng.gen_f64().max(1e-12);
    Duration::from_secs_f64((-u.ln()) / rate)
}

struct Quantiles {
    p50: u64,
    p99: u64,
    p999: u64,
    max: u64,
}

fn quantiles(h: &LatencyHistogram) -> Quantiles {
    let ns = |d: Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
    Quantiles {
        p50: ns(h.quantile(0.5)),
        p99: ns(h.quantile(0.99)),
        p999: ns(h.quantile(0.999)),
        max: ns(h.max()),
    }
}

fn quantile_json(label: &str, q: &Quantiles) -> String {
    format!(
        "  \"{label}\": {{\"p50_ns\": {}, \"p99_ns\": {}, \"p999_ns\": {}, \"max_ns\": {}}}",
        q.p50, q.p99, q.p999, q.max
    )
}

/// One backend's run of the schedule, after its assertions passed.
struct BackendRun {
    accepted: u64,
    rejected: u64,
    done: u64,
    cancelled: u64,
    batches: u64,
    wall: Duration,
    latency: Quantiles,
    queue_wait: Quantiles,
    service: Quantiles,
}

/// Replay `arrivals` open-loop against a fresh server over `native`,
/// with the poison job at index `poison_at`, and check the service
/// invariants.
fn run_schedule(
    native: NativeConfig,
    s: &Shape,
    arrivals: &[(Duration, usize, JobClass)],
    poison_at: usize,
) -> BackendRun {
    let backend = native.backend;
    let cfg = ServerConfig::new(native)
        .with_tenants(&[9, 1])
        .with_queue_cap(s.queue_cap_units)
        .with_batch_max(s.batch_max_units);
    let server = Server::start(cfg);

    let t0 = Instant::now();
    let mut accepted: Vec<(JobClass, JobHandle)> = Vec::with_capacity(s.jobs);
    let mut rejected = 0u64;
    let mut poison_handle = None;
    for (i, (due, tenant, class)) in arrivals.iter().enumerate() {
        if let Some(gap) = due.checked_sub(t0.elapsed()) {
            std::thread::sleep(gap);
        }
        if i == poison_at {
            // Fault injection: one poisoned job mid-schedule.
            let p = JobClass::Poison {
                units: 4,
                iters: 100,
                bad: 1,
            };
            poison_handle = Some(server.submit(*tenant, p).expect("poison accepted"));
            continue;
        }
        match server.submit(*tenant, *class) {
            Ok(h) => accepted.push((*class, h)),
            Err(SubmitError::Backpressure { .. }) => rejected += 1,
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }

    // Wait for every accepted handle: each resolves exactly once, and
    // each Done value must match its class oracle — zero lost or
    // duplicated results.
    let mut latency = LatencyHistogram::new();
    let mut queue_wait = LatencyHistogram::new();
    let mut service = LatencyHistogram::new();
    let mut done = 0u64;
    let mut cancelled = 0u64;
    let mut after_poison_done = 0u64;
    for (i, (class, h)) in accepted.iter().enumerate() {
        let out = h.wait();
        match out.status {
            JobStatus::Done => {
                assert_eq!(
                    Some(out.value),
                    class.expected(),
                    "{backend:?} job {i} ({class:?}): lost or duplicated unit results"
                );
                done += 1;
                if i >= poison_at {
                    after_poison_done += 1;
                }
                latency.record(out.latency);
                queue_wait.record(out.queue_wait);
                service.record(out.service);
            }
            JobStatus::Cancelled => cancelled += 1,
            JobStatus::Panicked => {
                panic!("{backend:?} job {i} ({class:?}) panicked — containment failed")
            }
        }
    }
    let wall = t0.elapsed();
    let poison_out = poison_handle.expect("poison was submitted").wait();
    assert_eq!(
        poison_out.status,
        JobStatus::Panicked,
        "{backend:?}: poison job must resolve Panicked"
    );
    assert!(
        after_poison_done > 0,
        "{backend:?}: no job completed after the poison job: the pool stopped serving"
    );

    let report = server.shutdown();
    assert_eq!(
        report.stats.accepted,
        report.stats.done + report.stats.cancelled + report.stats.panicked,
        "{backend:?}: accepted jobs must all resolve"
    );
    assert_eq!(
        report.stats.queued_units, 0,
        "{backend:?}: leaked queue slots"
    );
    assert_eq!(
        report.stats.panicked, 1,
        "{backend:?}: exactly the poison job panicked"
    );
    assert!(
        done >= 1_000,
        "{backend:?}: smoke floor: at least 1k completed jobs"
    );
    BackendRun {
        accepted: report.stats.accepted,
        rejected,
        done,
        cancelled,
        batches: report.stats.batches,
        wall,
        latency: quantiles(&latency),
        queue_wait: quantiles(&queue_wait),
        service: quantiles(&service),
    }
}

impl BackendRun {
    fn throughput(&self) -> f64 {
        self.done as f64 / self.wall.as_secs_f64()
    }

    fn print(&self, label: &str) {
        let ms = |ns: u64| ns as f64 / 1e6;
        println!(
            "{label}: done={} cancelled={} rejected={} panicked=1 \
             batches={} in {:.2}s → {:.0} jobs/s sustained",
            self.done,
            self.cancelled,
            self.rejected,
            self.batches,
            self.wall.as_secs_f64(),
            self.throughput()
        );
        let (l, w, sv) = (&self.latency, &self.queue_wait, &self.service);
        println!(
            "  latency p50={:.2}ms p99={:.2}ms p999={:.2}ms max={:.2}ms",
            ms(l.p50),
            ms(l.p99),
            ms(l.p999),
            ms(l.max)
        );
        println!(
            "  queue-wait p50={:.2}ms p99={:.2}ms | service p50={:.2}ms p99={:.2}ms",
            ms(w.p50),
            ms(w.p99),
            ms(sv.p50),
            ms(sv.p99)
        );
    }

    fn json(&self, label: &str) -> String {
        format!(
            "  \"{label}\": {{\n    \"totals\": {{\"accepted\": {}, \"rejected\": {}, \"done\": {}, \
             \"cancelled\": {}, \"panicked\": 1, \"batches\": {}}},\n    \
             \"sustained_jobs_per_sec\": {:.1},\n    \"wall_seconds\": {:.3},\n  {},\n  {},\n  {}\n  }}",
            self.accepted,
            self.rejected,
            self.done,
            self.cancelled,
            self.batches,
            self.throughput(),
            self.wall.as_secs_f64(),
            quantile_json("latency", &self.latency),
            quantile_json("queue_wait", &self.queue_wait),
            quantile_json("service", &self.service),
        )
    }
}

/// A trivial one-task job: what a run costs with no work in it.
struct OneTask;

impl Job for OneTask {
    type Out = i64;
    fn len(&self) -> usize {
        1
    }
    fn run(&self, _: usize) -> i64 {
        1
    }
}

/// Median over `reps` of one timed call of `f`, in microseconds.
fn median_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut us: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    us.sort_by(f64::total_cmp);
    us[reps / 2]
}

/// Steady-state fixed cost per run, the floor under every server
/// batch: a one-task job on a persistent steal [`Pool`] against a
/// one-task `par_map` on a persistent [`EdenPool`], both warmed up.
fn fixed_cost(workers: usize, reps: usize) -> (f64, f64) {
    let cfg = NativeConfig::steal(workers);
    let mut pool = Pool::new(&cfg);
    let mut pes = EdenPool::new(&cfg);
    let mut steal = || assert_eq!(pool.try_execute(&OneTask).unwrap().values, [1]);
    let mut eden = || assert_eq!(pes.try_par_map(&OneTask).unwrap().values, [1]);
    for _ in 0..reps / 10 {
        steal();
        eden();
    }
    (median_us(reps, steal), median_us(reps, eden))
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let s = shape(smoke);
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "Server latency benchmark: {} jobs open-loop at {:.0}/s, {} workers ({host_cores} core host), steal then Eden\n",
        s.jobs, s.rate_per_sec, s.workers
    );

    // Draw the whole arrival schedule up front (deterministic given
    // the seed), then replay it against the wall clock, once per
    // backend.
    let mut rng = DetRng::new(0xB0B5);
    let mut arrivals: Vec<(Duration, usize, JobClass)> = Vec::with_capacity(s.jobs);
    let mut t = Duration::ZERO;
    for _ in 0..s.jobs {
        t += exp_gap(&mut rng, s.rate_per_sec);
        // 9:1 tenant skew, matching the 9:1 scheduling weights.
        let tenant = usize::from(rng.gen_range(10) == 9);
        arrivals.push((t, tenant, class_mix(&mut rng)));
    }
    let poison_at = s.jobs / 2;
    let steal = run_schedule(NativeConfig::steal(s.workers), &s, &arrivals, poison_at);
    steal.print("steal");
    let eden = run_schedule(
        NativeConfig::steal(s.workers).with_backend(BackendKind::Eden),
        &s,
        &arrivals,
        poison_at,
    );
    eden.print("eden");

    let reps = if smoke { 2_000 } else { 20_000 };
    let (steal_us, eden_us) = fixed_cost(s.workers, reps);
    println!(
        "fixed cost per 1-task run (median of {reps}): persistent Pool::try_execute {steal_us:.1} us, \
         persistent EdenPool par_map {eden_us:.1} us ({:.2}x)",
        eden_us / steal_us
    );

    let mut j = String::new();
    j.push_str("{\n");
    j.push_str("  \"schema\": \"rph-bench-server/v3\",\n");
    j.push_str(&format!("  \"host_cores\": {host_cores},\n"));
    let features = rph_workloads::simd::cpu_features()
        .iter()
        .map(|f| format!("\"{f}\""))
        .collect::<Vec<_>>()
        .join(", ");
    j.push_str(&format!("  \"cpu_features\": [{features}],\n"));
    j.push_str(&format!(
        "  \"kernel_variant\": \"{}\",\n",
        rph_workloads::simd::active().name()
    ));
    j.push_str(&format!("  \"smoke\": {smoke},\n"));
    j.push_str(&format!(
        "  \"config\": {{\"jobs\": {}, \"rate_jobs_per_sec\": {:.1}, \"workers\": {}, \
         \"queue_cap_units\": {}, \"batch_max_units\": {}, \"tenant_weights\": [9, 1]}},\n",
        s.jobs, s.rate_per_sec, s.workers, s.queue_cap_units, s.batch_max_units
    ));
    j.push_str(&steal.json("steal"));
    j.push_str(",\n");
    j.push_str(&eden.json("eden"));
    j.push_str(",\n");
    j.push_str(&format!(
        "  \"fixed_cost_us\": {{\"reps\": {reps}, \"steal_pool_try_execute\": {steal_us:.2}, \
         \"eden_pool_par_map\": {eden_us:.2}, \"eden_over_steal\": {:.3}}},\n",
        eden_us / steal_us
    ));
    j.push_str("  \"value_ok\": true\n");
    j.push_str("}\n");
    write_artifact("BENCH_server.json", &j);
}
