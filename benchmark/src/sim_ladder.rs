//! `sim_ladder`: the paper's five versions on the deterministic
//! simulators at 8 virtual capabilities — the four Fig. 1 GpH rungs
//! and Eden — over sumEuler, episim and APSP (APSP with eager
//! black-holing, as in Fig. 5), plus sumEuler's and APSP's sequential
//! `run_seq` on the abstract machine.
//!
//! Exercises `machine`, `heap`, `sim`, `gph` and `eden`, and nothing
//! native. The `phi_cached` cost-oracle memo is filled in set-up:
//! cold, it costs sumEuler n=6000 about 1 s per run; warm, one GpH
//! rung takes about 0.03 s.

use crate::harness::{passes, secs, setup, Checks, Ctx, Outcome, Side};
use crate::span::span;
use crate::stats::{describe, median};
use rph_eden::EdenConfig;
use rph_gph::{GphConfig, GphStats};
use rph_workloads::episim::Placement;
use rph_workloads::{kernels, Apsp, Episim, Measured, SumEuler, VisitDist};
use std::collections::BTreeMap;
use std::time::Instant;

/// Virtual capabilities / PEs (the paper's 8-core Intel machine).
const CAPS: usize = 8;
const SUM_EULER_N: i64 = 6_000;
const EPISIM_AGENTS: usize = 4_000;
const APSP_N: usize = 200;
/// Short names of the four Fig. 1 rungs, in ladder order.
const RUNGS: [&str; 4] = ["plain", "bigarea", "gcsync", "steal"];

enum Program {
    SumEuler(SumEuler),
    Episim(Episim),
    Apsp(Apsp),
}

impl Program {
    fn name(&self) -> &'static str {
        match self {
            Program::SumEuler(_) => "sum_euler",
            Program::Episim(_) => "episim",
            Program::Apsp(_) => "apsp",
        }
    }

    fn run_gph(&self, cfg: GphConfig) -> Result<Measured, String> {
        match self {
            Program::SumEuler(w) => w.run_gph(cfg),
            Program::Episim(w) => w.run_gph(cfg),
            Program::Apsp(w) => w.run_gph(cfg.with_eager_blackholing()),
        }
    }

    fn run_eden(&self, cfg: EdenConfig) -> Result<Measured, String> {
        match self {
            Program::SumEuler(w) => w.run_eden(cfg),
            Program::Episim(w) => w.run_eden(cfg, Placement::Contiguous),
            Program::Apsp(w) => w.run_eden(cfg),
        }
    }

    fn run_seq(&self) -> Option<Measured> {
        match self {
            Program::SumEuler(w) => Some(w.run_seq()),
            Program::Episim(_) => None,
            Program::Apsp(w) => Some(w.run_seq()),
        }
    }
}

/// Inputs with their oracle values. The sumEuler oracle is the
/// segmented sieve, an algorithm independent of the simulated gcd
/// totient.
fn build(seed: u64) -> Vec<(Program, i64)> {
    let se = SumEuler::new(SUM_EULER_N);
    let ep = Episim::new(EPISIM_AGENTS, 256, 8, seed, VisitDist::Skewed);
    let ap = Apsp::new(APSP_N);
    let se_oracle = span("kernels", "sum_phi_range_sieve", || {
        kernels::sum_phi_range_sieve(1, SUM_EULER_N)
    });
    let ep_oracle = span("kernels", "episim.expected", || ep.expected());
    let ap_oracle = span("kernels", "apsp.expected", || ap.expected());
    vec![
        (Program::SumEuler(se), se_oracle),
        (Program::Episim(ep), ep_oracle),
        (Program::Apsp(ap), ap_oracle),
    ]
}

/// What must repeat exactly across passes: value, virtual makespan
/// and the runtime counters.
type Signature = (i64, u64, String);

fn signature(m: &Measured) -> Signature {
    let stats = format!("{:?} {:?}", m.gph_stats, m.eden_stats);
    (m.value, m.elapsed, stats)
}

#[derive(Default)]
struct Gph {
    gcs: u64,
    collected_words: u64,
    sparks_created: u64,
    sparks_stolen: u64,
    ctx_switches: u64,
    blackhole_blocks: u64,
    duplicate_evals: u64,
}

impl Gph {
    fn add(&mut self, s: &GphStats) {
        self.gcs += s.gcs;
        self.collected_words += s.collected_words;
        self.sparks_created += s.sparks_created;
        self.sparks_stolen += s.sparks_stolen;
        self.ctx_switches += s.ctx_switches;
        self.blackhole_blocks += s.blackhole_blocks;
        self.duplicate_evals += s.duplicate_evals;
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut checks = Checks::default();
    let t0 = Instant::now();
    span("kernels", "phi_cached.fill", || {
        kernels::sum_phi_range(1, SUM_EULER_N)
    });
    let phi_fill_s = secs(t0);
    let (build_s, programs) = setup(3, || build(ctx.seed));
    let setup_s = phi_fill_s + build_s;

    let ladder = GphConfig::fig1_ladder(CAPS).map(|(_, cfg)| cfg.without_trace());
    let eden_cfg = EdenConfig::new(CAPS).without_trace();
    // (program, version) → signature of the first pass; version 4 is
    // Eden and 5 the sequential machine run.
    let mut first: BTreeMap<(usize, usize), Signature> = BTreeMap::new();
    let mut check = |checks: &mut Checks, key: (usize, usize), m: &Measured, oracle: i64| {
        let sig = signature(m);
        let same = first.entry(key).or_insert_with(|| sig.clone()) == &sig;
        checks.op(m.value == oracle && same, || {
            format!(
                "sim program {} version {}: value {} (oracle {oracle}), repeats first pass: {same}",
                key.0, key.1, m.value
            )
        });
    };

    let mut gph_s = Vec::new();
    let mut eden_s = Vec::new();
    let mut rung_s: [Vec<f64>; 4] = Default::default();
    let mut seq_s = Vec::new();
    let mut apsp_overhead_s = Vec::new();
    let mut gph = Gph::default();
    let mut eden = rph_eden::EdenStats::default();
    let mut seq_vunits = 0u64;
    let mut virtual_units = 0u64;

    let passes = passes(ctx, 3, |pass| {
        let (mut g, mut e, mut s) = (0.0, 0.0, 0.0);
        let mut apsp_seq = 0.0;
        let mut rungs = [0.0; 4];
        for (pi, (p, oracle)) in programs.iter().enumerate() {
            let t0 = Instant::now();
            if let Some(m) = span("machine", "run_seq", || p.run_seq()) {
                let dt = secs(t0);
                s += dt;
                if matches!(p, Program::Apsp(_)) {
                    apsp_seq = dt;
                }
                check(&mut checks, (pi, 5), &m, *oracle);
                if pass == 0 {
                    seq_vunits += m.elapsed;
                }
            }
            for (ri, cfg) in ladder.iter().enumerate() {
                let t0 = Instant::now();
                let r = span("gph", "run_gph", || p.run_gph(cfg.clone()));
                let dt = secs(t0);
                g += dt;
                rungs[ri] += dt;
                match r {
                    Ok(m) => {
                        check(&mut checks, (pi, ri), &m, *oracle);
                        if pass == 0 {
                            gph.add(m.gph_stats.as_ref().expect("GpH run has GpH stats"));
                            virtual_units += m.elapsed;
                        }
                        if ri == 3 && matches!(p, Program::Apsp(_)) {
                            apsp_overhead_s.push(dt - apsp_seq);
                        }
                    }
                    Err(err) => checks.op(false, || format!("{} run_gph: {err}", p.name())),
                }
            }
            let t0 = Instant::now();
            let r = span("eden_sim", "run_eden", || p.run_eden(eden_cfg.clone()));
            e += secs(t0);
            match r {
                Ok(m) => {
                    check(&mut checks, (pi, 4), &m, *oracle);
                    if pass == 0 {
                        let st = m.eden_stats.as_ref().expect("Eden run has Eden stats");
                        eden.messages += st.messages;
                        eden.message_words += st.message_words;
                        eden.local_gcs += st.local_gcs;
                        virtual_units += m.elapsed;
                    }
                }
                Err(err) => checks.op(false, || format!("{} run_eden: {err}", p.name())),
            }
        }
        gph_s.push(g);
        eden_s.push(e);
        seq_s.push(s);
        for (acc, r) in rung_s.iter_mut().zip(rungs) {
            acc.push(r);
        }
    });

    let sim_gph_s = median(&gph_s);
    let sim_eden_s = median(&eden_s);
    let machine_seq_s = median(&seq_s);
    let mut layer: BTreeMap<String, f64> = [
        ("kernels.phi_fill_s", phi_fill_s),
        ("machine.seq_s", machine_seq_s),
        (
            "machine.vunits_per_us",
            seq_vunits as f64 / (machine_seq_s * 1e6),
        ),
        ("gph.overhead_s", median(&apsp_overhead_s)),
        ("gph.gcs", gph.gcs as f64),
        ("gph.collected_words", gph.collected_words as f64),
        ("gph.sparks_created", gph.sparks_created as f64),
        ("gph.sparks_stolen", gph.sparks_stolen as f64),
        ("gph.ctx_switches", gph.ctx_switches as f64),
        ("gph.blackhole_blocks", gph.blackhole_blocks as f64),
        ("gph.duplicate_evals", gph.duplicate_evals as f64),
        ("eden_sim.s", sim_eden_s),
        ("eden_sim.messages", eden.messages as f64),
        ("eden_sim.message_words", eden.message_words as f64),
        ("eden_sim.local_gcs", eden.local_gcs as f64),
        ("sim.virtual_s", virtual_units as f64 / 1e9),
        ("sim_gph_s", sim_gph_s),
        ("sim_eden_s", sim_eden_s),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect();
    for (rung, samples) in RUNGS.iter().zip(&rung_s) {
        layer.insert(format!("gph.rung_s.{rung}"), median(samples));
    }

    let ms = |xs: &[f64]| xs.iter().map(|x| x * 1e3).collect::<Vec<_>>();
    let mut lines = vec![
        format!(
            "sim_ladder: sumEuler n={SUM_EULER_N}, episim {EPISIM_AGENTS} agents (seed {}), APSP n={APSP_N} eager BH; {CAPS} virtual caps",
            ctx.seed
        ),
        format!("  sim_gph_s  (4 GpH rungs x 3 programs per pass): {}", describe(&ms(&gph_s), "ms")),
        format!("  sim_eden_s (Eden x 3 programs per pass):        {}", describe(&ms(&eden_s), "ms")),
        format!("  machine.seq_s (run_seq sumEuler + APSP):        {}", describe(&ms(&seq_s), "ms")),
    ];
    for (r, samples) in RUNGS.iter().zip(&rung_s) {
        lines.push(format!(
            "  gph rung {r:<8} {}",
            describe(&ms(samples), "ms")
        ));
    }
    lines.push(format!(
        "  phi_cached memo fill {phi_fill_s:.3} s (set-up; this is most of fig1_sumeuler_table's host time)"
    ));

    Outcome {
        setup_s,
        steal: Side {
            ms: sim_gph_s * 1e3,
            ops_per_s: (programs.len() * RUNGS.len()) as f64 / sim_gph_s,
        },
        eden: Side {
            ms: sim_eden_s * 1e3,
            ops_per_s: programs.len() as f64 / sim_eden_s,
        },
        layer,
        passes,
        checks,
        lines,
    }
}
