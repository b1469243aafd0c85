//! The repository benchmark. See `benchmark/README.md`.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <sim_ladder|native_suite|server_closed|all> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Prints a human-readable report, then one JSON line: `correct`,
//! `attempted`, `failed`, and the end-to-end metrics (`--trace 0`) or
//! the per-layer metrics (`--trace 1`). Exits 1 if any check failed,
//! 2 on a bad command line.

mod harness;
mod native_suite;
mod server_closed;
mod sim_ladder;
mod span;
mod stats;

use harness::{Ctx, Outcome};
use stats::median;
use std::process::ExitCode;

/// The default `--seed`; it reproduces the registry's episim instance.
const DEFAULT_SEED: u64 = 0x5EED;
const WORKLOADS: [&str; 3] = ["sim_ladder", "native_suite", "server_closed"];

/// End-to-end metrics, reported by every workload with `--trace 0`.
/// Each workload measures a work-stealing (GpH) side and an Eden side.
const E2E_METRICS: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("steal_ms", "ms"),
    ("eden_ms", "ms"),
    ("steal_ops_per_s", "1/s"),
    ("eden_ops_per_s", "1/s"),
];

/// Layers the spans are attributed to, by the crate API called.
const SPAN_LAYERS: [&str; 8] = [
    "bench", "kernels", "machine", "gph", "eden_sim", "pool", "eden", "server",
];

/// Per-layer metrics, reported by every workload with `--trace 1`
/// (a layer the workload does not call reads 0): name, unit, and
/// whether higher or lower is better.
const LAYER_METRICS: &[(&str, &str, &str)] = &[
    ("failed_frac", "ratio", "lower"),
    ("rss_peak_mb", "MB", "lower"),
    ("trace.overhead_ms", "ms", "lower"),
    ("trace.spans", "count", "lower"),
    ("self_ms.bench", "ms", "lower"),
    ("self_ms.kernels", "ms", "lower"),
    ("self_ms.machine", "ms", "lower"),
    ("self_ms.gph", "ms", "lower"),
    ("self_ms.eden_sim", "ms", "lower"),
    ("self_ms.pool", "ms", "lower"),
    ("self_ms.eden", "ms", "lower"),
    ("self_ms.server", "ms", "lower"),
    // sim_ladder
    ("sim_gph_s", "s", "lower"),
    ("sim_eden_s", "s", "lower"),
    ("kernels.phi_fill_s", "s", "lower"),
    ("machine.seq_s", "s", "lower"),
    ("machine.vunits_per_us", "vunits/us", "higher"),
    ("gph.rung_s.plain", "s", "lower"),
    ("gph.rung_s.bigarea", "s", "lower"),
    ("gph.rung_s.gcsync", "s", "lower"),
    ("gph.rung_s.steal", "s", "lower"),
    ("gph.overhead_s", "s", "lower"),
    ("gph.gcs", "count", "lower"),
    ("gph.collected_words", "count", "lower"),
    ("gph.sparks_created", "count", "lower"),
    ("gph.sparks_stolen", "count", "lower"),
    ("gph.ctx_switches", "count", "lower"),
    ("gph.blackhole_blocks", "count", "lower"),
    ("gph.duplicate_evals", "count", "lower"),
    ("eden_sim.s", "s", "lower"),
    ("eden_sim.messages", "count", "lower"),
    ("eden_sim.message_words", "count", "lower"),
    ("eden_sim.local_gcs", "count", "lower"),
    ("sim.virtual_s", "s", "lower"),
    // native_suite
    ("native_steal_ms", "ms", "lower"),
    ("native_eden_ms", "ms", "lower"),
    ("kernels.seq_ms.sum_euler", "ms", "lower"),
    ("kernels.seq_ms.matmul", "ms", "lower"),
    ("kernels.seq_ms.apsp", "ms", "lower"),
    ("kernels.seq_ms.nqueens", "ms", "lower"),
    ("kernels.seq_ms.episim", "ms", "lower"),
    ("native.efficiency.steal", "ratio", "higher"),
    ("native.efficiency.eden", "ratio", "higher"),
    ("native.spawn_ms.steal", "ms", "lower"),
    ("native.spawn_ms.eden", "ms", "lower"),
    ("pool.spawn_us", "us", "lower"),
    ("pool.dispatch_us", "us", "lower"),
    ("eden.fixed_us", "us", "lower"),
    ("steal.probes", "count", "lower"),
    ("steal.ops", "count", "higher"),
    ("steal.retries", "count", "lower"),
    ("steal.parks", "count", "lower"),
    ("steal.splits", "count", "lower"),
    ("steal.useful_ratio", "ratio", "higher"),
    ("chan.msgs_sent", "count", "lower"),
    ("chan.words_sent", "count", "lower"),
    ("chan.send_blocks", "count", "lower"),
    ("chan.recv_blocks", "count", "lower"),
    // server_closed
    ("server_steal_jobs_per_s", "1/s", "higher"),
    ("server_steal_p50_ms", "ms", "lower"),
    ("server_steal_p99_ms", "ms", "lower"),
    ("server_eden_jobs_per_s", "1/s", "higher"),
    ("server_eden_p50_ms", "ms", "lower"),
    ("server_eden_p99_ms", "ms", "lower"),
    ("server.steal.submit_us", "us", "lower"),
    ("server.steal.queue_wait_p50_ms", "ms", "lower"),
    ("server.steal.queue_wait_p99_ms", "ms", "lower"),
    ("server.steal.service_p50_ms", "ms", "lower"),
    ("server.steal.service_p99_ms", "ms", "lower"),
    ("server.steal.dispatch_ms", "ms", "lower"),
    ("server.steal.batches", "count", "lower"),
    ("server.steal.jobs_per_batch", "count", "higher"),
    ("server.steal.rejected", "count", "lower"),
    ("server.eden.submit_us", "us", "lower"),
    ("server.eden.queue_wait_p50_ms", "ms", "lower"),
    ("server.eden.queue_wait_p99_ms", "ms", "lower"),
    ("server.eden.service_p50_ms", "ms", "lower"),
    ("server.eden.service_p99_ms", "ms", "lower"),
    ("server.eden.dispatch_ms", "ms", "lower"),
    ("server.eden.batches", "count", "lower"),
    ("server.eden.jobs_per_batch", "count", "higher"),
    ("server.eden.rejected", "count", "lower"),
];

struct Args {
    workload: String,
    ctx: Ctx,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut ctx = Ctx {
        seed: DEFAULT_SEED,
        seconds: 30,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" if value == "all" || WORKLOADS.contains(&value.as_str()) => {
                workload = Some(value)
            }
            "--workload" => {
                return Err(format!(
                    "unknown workload {value}; one of {WORKLOADS:?} or all"
                ))
            }
            "--seed" => ctx.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                ctx.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(1..=600).contains(&ctx.seconds) {
                    return Err(format!("--seconds {value}: must be 1..=600"));
                }
            }
            "--trace" => {
                ctx.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        ctx,
    })
}

/// Fix the environment variables the program reads, so ambient
/// settings cannot change the numbers: `RUST_BACKTRACE` (the panic
/// hook's cost) and every `RPH_*` switch (kernel dispatch). Returns
/// what was pinned, for the report.
fn pin_environment() -> String {
    let ambient = std::env::var("RUST_BACKTRACE").unwrap_or_else(|_| "unset".into());
    std::env::set_var("RUST_BACKTRACE", "0");
    let mut notes = vec![format!("RUST_BACKTRACE=0 (ambient {ambient})")];
    let rph: Vec<_> = std::env::vars_os()
        .filter(|(k, _)| k.to_string_lossy().starts_with("RPH_"))
        .collect();
    for (k, v) in rph {
        std::env::remove_var(&k);
        notes.push(format!(
            "{} unset (ambient {})",
            k.to_string_lossy(),
            v.to_string_lossy()
        ));
    }
    notes.join(", ")
}

/// Peak resident set size of this process in MB (Linux `VmHWM`).
fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn run_workload(name: &str, ctx: &Ctx) -> Outcome {
    match name {
        "sim_ladder" => sim_ladder::run(ctx),
        "native_suite" => native_suite::run(ctx),
        _ => server_closed::run(ctx),
    }
}

/// The metrics object for one workload's outcome.
fn metrics(out: &Outcome, ctx: &Ctx, spans: &[span::Span]) -> Vec<(String, f64, &'static str)> {
    if !ctx.trace {
        let values = [
            out.setup_s,
            out.steal.ms,
            out.eden.ms,
            out.steal.ops_per_s,
            out.eden.ops_per_s,
        ];
        return E2E_METRICS
            .iter()
            .zip(values)
            .map(|((name, unit), v)| (name.to_string(), v, *unit))
            .collect();
    }
    let mut layer = out.layer.clone();
    let pass_ms = |traced: bool| {
        let xs: Vec<f64> = out
            .passes
            .iter()
            .filter(|p| p.0 == traced)
            .map(|p| p.1)
            .collect();
        median(&xs)
    };
    let traced_passes = out.passes.iter().filter(|p| p.0).count().max(1) as f64;
    layer.insert("failed_frac".into(), out.checks.failed_frac());
    layer.insert("rss_peak_mb".into(), rss_peak_mb());
    layer.insert("trace.overhead_ms".into(), pass_ms(true) - pass_ms(false));
    layer.insert("trace.spans".into(), spans.len() as f64);
    let self_ms = span::self_ms(spans);
    for l in SPAN_LAYERS {
        let ms = self_ms.get(l).copied().unwrap_or(0.0);
        layer.insert(format!("self_ms.{l}"), ms / traced_passes);
    }
    for k in layer.keys() {
        assert!(
            LAYER_METRICS.iter().any(|m| m.0 == k),
            "metric {k} missing from LAYER_METRICS"
        );
    }
    LAYER_METRICS
        .iter()
        .map(|(name, unit, _)| {
            (
                name.to_string(),
                layer.get(*name).copied().unwrap_or(0.0),
                *unit,
            )
        })
        .collect()
}

fn json_metrics(ms: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = ms
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let pinned = pin_environment();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <{}|all> --seed <n> --seconds <n> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let ctx = &args.ctx;
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "env: nproc={host_cores} cpu_features={:?} kernel_variant={} {pinned}",
        rph_workloads::simd::cpu_features(),
        rph_workloads::simd::active().name()
    );
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let (mut attempted, mut failed) = (0, 0);
    let mut all = Vec::new();
    for name in &names {
        let out = run_workload(name, ctx);
        let spans = span::take();
        if ctx.trace {
            let path = std::path::Path::new("benchmark/out")
                .join(format!("spans-{name}-{}.jsonl", ctx.seed));
            match span::write_jsonl(&path, &spans) {
                Ok(()) => println!("[{} spans written to {}]", spans.len(), path.display()),
                Err(e) => eprintln!("could not write {}: {e}", path.display()),
            }
        }
        for l in &out.lines {
            println!("{l}");
        }
        let ms = metrics(&out, ctx, &spans);
        for (n, v, u) in &ms {
            println!("  {name}.{n} = {v:.6} {u}");
        }
        println!(
            "  failed_frac {} ({} of {} operations failed)",
            out.checks.failed_frac(),
            out.checks.failed,
            out.checks.attempted
        );
        attempted += out.checks.attempted;
        failed += out.checks.failed;
        if names.len() == 1 {
            all = ms;
        } else {
            all.extend(
                ms.into_iter()
                    .map(|(n, v, u)| (format!("{name}.{n}"), v, u)),
            );
        }
    }
    let finite = all.iter().all(|m| m.1.is_finite());
    let correct = failed == 0 && attempted > 0 && finite;
    if !finite {
        eprintln!("a metric is not a finite number");
        all.iter_mut()
            .filter(|m| !m.1.is_finite())
            .for_each(|m| m.1 = 0.0);
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        json_metrics(&all)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
