//! `native_suite`: every `registry(Scale::Full)` program on both native
//! backends, in a closed loop. Each run is timed around `run_on`, so
//! pool or PE spawn is inside the time on both backends. Each round
//! runs every (program, backend) cell a fixed number of times,
//! backends interleaved per program.
//!
//! Exercises `workloads::kernels`/`simd`, the steal `Pool`, and the
//! Eden skeletons and channels (ring for APSP, exchange for episim,
//! master–worker for nqueens). The simulators and the server are not
//! used. The episim instance is drawn from the workload seed; the
//! default seed reproduces the registry's instance.

use crate::harness::{passes, secs, setup, Checks, Ctx, Outcome, Side, WORKERS};
use crate::span::span;
use crate::stats::{describe, geomean, median};
use rph_native::{try_par_map, BackendKind, Job, NativeConfig, NativeStats, Pool};
use rph_workloads::{
    registry, Apsp, Episim, FlatNative, IterNative, MatMul, NQueens, NativeWorkload, Scale,
    SumEuler, VisitDist,
};
use std::collections::BTreeMap;
use std::time::Instant;

const BACKENDS: [(BackendKind, &str); 2] =
    [(BackendKind::Steal, "steal"), (BackendKind::Eden, "eden")];

/// Runs of each cell per round: enough that a round spends a similar
/// order of time on each program (nqueens runs ~0.5 s, sumEuler ~1 ms).
fn reps_per_round(name: &str) -> usize {
    match name {
        "sum_euler" => 16,
        "nqueens" => 1,
        _ => 4,
    }
}

enum Program {
    SumEuler(SumEuler),
    MatMul(MatMul),
    Apsp(Apsp),
    NQueens(NQueens),
    Episim(Episim),
}

impl Program {
    fn workload(&self) -> &dyn NativeWorkload {
        match self {
            Program::SumEuler(w) => w,
            Program::MatMul(w) => w,
            Program::Apsp(w) => w,
            Program::NQueens(w) => w,
            Program::Episim(w) => w,
        }
    }

    /// The checksum from `Job::run` over every task, in order, on the
    /// calling thread — the kernels' sequential cost.
    fn run_sequential(&self) -> i64 {
        match self {
            Program::SumEuler(w) => flat(w),
            Program::MatMul(w) => flat(w),
            Program::Apsp(w) => iterated(w),
            Program::NQueens(w) => flat(w),
            Program::Episim(w) => iterated(w),
        }
    }
}

fn flat<W: FlatNative>(w: &W) -> i64 {
    let job = w.job();
    w.combine((0..job.len()).map(|i| job.run(i)).collect())
}

fn iterated<W: IterNative>(w: &W) -> i64 {
    let mut state = w.init_state();
    for round in 0..w.rounds() {
        let values = {
            let job = w.round_job(round, &state);
            (0..job.len()).map(|i| job.run(i)).collect()
        };
        w.absorb(round, &mut state, values);
    }
    w.finish(state)
}

/// The registry's `Scale::Full` programs, with the episim instance
/// drawn from `seed`. Any drift from the registry is a failed check.
fn build(seed: u64, checks: &mut Checks) -> Vec<(Program, i64)> {
    let programs = vec![
        Program::SumEuler(SumEuler::new(6_000)),
        Program::MatMul(MatMul::new(480, 8)),
        Program::Apsp(Apsp::new(256)),
        Program::NQueens(NQueens::new(13).with_spawn_depth(4)),
        Program::Episim(Episim::new(20_000, 512, 16, seed, VisitDist::Skewed)),
    ];
    let reg = registry(Scale::Full);
    let same = reg.len() == programs.len()
        && reg.iter().zip(&programs).all(|(r, p)| {
            let w = p.workload();
            r.name() == w.name()
                && (r.name() == "episim" || r.default_params() == w.default_params())
        });
    checks.op(same, || {
        "native programs differ from registry(Scale::Full)".into()
    });
    programs
        .into_iter()
        .map(|p| {
            let oracle = span("kernels", "expected_value", || {
                p.workload().expected_value()
            });
            (p, oracle)
        })
        .collect()
}

/// One timed run: end-to-end ms, the executor's own `wall` ms, and
/// its counters.
struct Run {
    e2e_ms: f64,
    wall_ms: f64,
    stats: NativeStats,
}

/// A one-task job for the fixed-cost probes.
struct OneTask;

impl Job for OneTask {
    type Out = i64;
    fn len(&self) -> usize {
        1
    }
    fn run(&self, idx: usize) -> i64 {
        std::hint::black_box(idx as i64)
    }
}

/// Median µs of `reps` calls of `f`.
fn probe_us(reps: usize, checks: &mut Checks, mut f: impl FnMut() -> bool) -> f64 {
    let mut us = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        let ok = f();
        us.push(secs(t0) * 1e6);
        checks.op(ok, || "fixed-cost probe returned a wrong value".into());
    }
    median(&us)
}

/// Per-counter median over a cell's runs, summed over cells.
fn counter(cells: &[Vec<Run>], f: impl Fn(&NativeStats) -> u64) -> f64 {
    cells
        .iter()
        .map(|runs| median(&runs.iter().map(|r| f(&r.stats) as f64).collect::<Vec<_>>()))
        .sum()
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut checks = Checks::default();
    let (setup_s, programs) = setup(3, || build(ctx.seed, &mut checks));
    let cfgs = BACKENDS.map(|(b, _)| NativeConfig::new(WORKERS).with_backend(b));
    // cells[backend][program]
    let mut cells: [Vec<Vec<Run>>; 2] = Default::default();
    for c in &mut cells {
        c.resize_with(programs.len(), Vec::new);
    }

    // Seconds each backend spent in each round.
    let mut round_s: [Vec<f64>; 2] = Default::default();
    let passes = passes(ctx, 3, |_| {
        let mut round = [0.0; 2];
        for (pi, (p, oracle)) in programs.iter().enumerate() {
            let w = p.workload();
            for (bi, cfg) in cfgs.iter().enumerate() {
                let layer = if bi == 0 { "pool" } else { "eden" };
                for _ in 0..reps_per_round(w.name()) {
                    let t0 = Instant::now();
                    let r = span(layer, "run_on", || w.run_on(cfg));
                    let e2e_ms = secs(t0) * 1e3;
                    round[bi] += e2e_ms / 1e3;
                    match r {
                        Ok(m) => {
                            checks.op(m.value == *oracle, || {
                                format!(
                                    "{} on {}: {} != oracle {oracle}",
                                    w.name(),
                                    BACKENDS[bi].1,
                                    m.value
                                )
                            });
                            cells[bi][pi].push(Run {
                                e2e_ms,
                                wall_ms: m.wall.as_secs_f64() * 1e3,
                                stats: m.stats,
                            });
                        }
                        Err(err) => checks.op(false, || {
                            format!("{} on {}: {err}", w.name(), BACKENDS[bi].1)
                        }),
                    }
                }
            }
        }
        for (acc, s) in round_s.iter_mut().zip(round) {
            acc.push(s);
        }
    });

    let runs_per_round: usize = programs
        .iter()
        .map(|(p, _)| reps_per_round(p.workload().name()))
        .sum();
    let cell_ms = |runs: &Vec<Run>| median(&runs.iter().map(|r| r.e2e_ms).collect::<Vec<_>>());
    let side = |bi: usize| Side {
        ms: geomean(&cells[bi].iter().map(cell_ms).collect::<Vec<_>>()),
        ops_per_s: runs_per_round as f64 / median(&round_s[bi]),
    };
    let steal = side(0);
    let eden = side(1);

    let mut layer: BTreeMap<String, f64> = [
        ("native_steal_ms", steal.ms),
        ("native_eden_ms", eden.ms),
        ("steal.probes", counter(&cells[0], |s| s.steal_probes)),
        ("steal.ops", counter(&cells[0], |s| s.steal_ops)),
        ("steal.retries", counter(&cells[0], |s| s.steal_retries)),
        ("steal.parks", counter(&cells[0], |s| s.parks)),
        ("steal.splits", counter(&cells[0], |s| s.splits)),
        ("chan.msgs_sent", counter(&cells[1], |s| s.msgs_sent)),
        ("chan.words_sent", counter(&cells[1], |s| s.words_sent)),
        ("chan.send_blocks", counter(&cells[1], |s| s.send_blocks)),
        ("chan.recv_blocks", counter(&cells[1], |s| s.recv_blocks)),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect();
    let useful = layer["steal.ops"] / layer["steal.probes"].max(1.0);
    layer.insert("steal.useful_ratio".into(), useful);
    for ((_, b), runs) in BACKENDS.iter().zip(&cells) {
        let spawn: Vec<f64> = runs
            .iter()
            .flatten()
            .map(|r| r.e2e_ms - r.wall_ms)
            .collect();
        layer.insert(format!("native.spawn_ms.{b}"), median(&spawn));
    }

    let mut lines = vec![format!(
        "native_suite: registry(Scale::Full) on {WORKERS} workers/PEs, episim seed {}",
        ctx.seed
    )];
    for (pi, (p, _)) in programs.iter().enumerate() {
        for (bi, (_, b)) in BACKENDS.iter().enumerate() {
            let e2e: Vec<f64> = cells[bi][pi].iter().map(|r| r.e2e_ms).collect();
            lines.push(format!(
                "  {:<10} {b:<5} e2e {}",
                p.workload().name(),
                describe(&e2e, "ms")
            ));
        }
    }
    lines.push(format!(
        "  native_steal_ms {:.4} ms, native_eden_ms {:.4} ms (geometric means of the cell medians)",
        steal.ms, eden.ms
    ));

    if ctx.trace {
        // Per-layer probes, outside the timed passes.
        let mut seq_ms = Vec::new();
        for (p, oracle) in &programs {
            let name = p.workload().name();
            let t0 = Instant::now();
            let v = span("kernels", "job.run sequential", || p.run_sequential());
            let ms = secs(t0) * 1e3;
            checks.op(v == *oracle, || {
                format!("{name} sequential: {v} != oracle {oracle}")
            });
            seq_ms.push(ms);
            layer.insert(format!("kernels.seq_ms.{name}"), ms);
        }
        for ((_, b), runs) in BACKENDS.iter().zip(&cells) {
            let eff: Vec<f64> = seq_ms
                .iter()
                .zip(runs)
                .map(|(seq, runs)| seq / (WORKERS as f64 * cell_ms(runs)))
                .collect();
            layer.insert(format!("native.efficiency.{b}"), geomean(&eff));
        }
        let cfg = &cfgs[0];
        let spawn = probe_us(200, &mut checks, || {
            span("pool", "Pool::new+execute+drop", || {
                let mut pool = Pool::new(cfg);
                pool.try_execute(&OneTask).is_ok_and(|o| o.values == [0])
            })
        });
        let mut pool = Pool::new(cfg);
        let dispatch = probe_us(1000, &mut checks, || {
            span("pool", "Pool::try_execute", || {
                pool.try_execute(&OneTask).is_ok_and(|o| o.values == [0])
            })
        });
        drop(pool);
        let eden_fixed = probe_us(500, &mut checks, || {
            span("eden", "try_par_map", || {
                try_par_map(&OneTask, &cfgs[1]).is_ok_and(|o| o.values == [0])
            })
        });
        layer.insert("pool.spawn_us".into(), spawn);
        layer.insert("pool.dispatch_us".into(), dispatch);
        layer.insert("eden.fixed_us".into(), eden_fixed);
        lines.push(format!(
            "  fixed cost (1-task job): fresh Pool {spawn:.1} us, persistent Pool::try_execute {dispatch:.1} us, Eden try_par_map {eden_fixed:.1} us"
        ));
    }

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
