//! # rph-workloads — the paper's three benchmark applications
//!
//! Section V of the paper measures three programs "which represent
//! typical parallelisation problems":
//!
//! * [`sum_euler`] — *transformation and reduction*: `sumEuler n =
//!   sum (map phi [1..n])` with a naïve totient. GpH splits the input
//!   into sublists and sparks chunk sums (`parList rnf`); Eden uses the
//!   `parMapReduce` skeleton. (Fig. 1 table, Fig. 2 traces, Fig. 3
//!   left.)
//! * [`matmul`] — *a regular problem*: dense matrix multiplication.
//!   GpH sparks regular blocks of the result (block size tunable);
//!   Eden implements Cannon's algorithm on a `torus` skeleton with
//!   blocks exchanged stepwise. (Fig. 3 right, Fig. 4 traces.)
//! * [`apsp`] — *a genuinely parallel algorithm*: all-pairs shortest
//!   paths, pipelined Floyd–Warshall on a process `ring` (adapted from
//!   Plasmeijer & van Eekelen). The GpH version builds the n² row-step
//!   thunk graph up front and "sparks an evaluation for each row in
//!   advance", relying on runtime synchronisation of the heavily
//!   shared row thunks — the workload that makes eager black-holing
//!   essential (Fig. 5).
//!
//! Every workload really computes its answer (totients via real gcd,
//! matrix products via real floating-point arithmetic, shortest paths
//! via real min-plus relaxation) and checks it against a plain-Rust
//! oracle; kernel costs are charged from the actual operation counts.

pub mod apsp;
pub mod episim;
pub mod kernels;
pub mod matmul;
pub mod native;
pub mod nqueens;
pub mod registry;
pub mod simd;
pub mod sum_euler;

pub use apsp::Apsp;
pub use episim::{Episim, VisitDist};
pub use matmul::MatMul;
pub use native::{run_flat, run_iter_on, FlatNative, IterNative, NativeMeasured, NativeWorkload};
pub use nqueens::NQueens;
pub use registry::{registry, Scale};
pub use sum_euler::SumEuler;

/// Common result of one simulated run.
#[derive(Debug)]
pub struct Measured {
    /// The workload's checksum value (validated against the oracle by
    /// the harnesses).
    pub value: i64,
    /// Virtual makespan in work units (≈ ns).
    pub elapsed: rph_trace::Time,
    /// The event trace (empty if tracing was off).
    pub tracer: rph_trace::Tracer,
    /// GpH runtime counters, when run on the shared-heap runtime.
    pub gph_stats: Option<rph_gph::GphStats>,
    /// Eden runtime counters, when run on the distributed-heap runtime.
    pub eden_stats: Option<rph_eden::EdenStats>,
}

impl Measured {
    /// Elapsed virtual time in seconds.
    pub fn seconds(&self) -> f64 {
        self.elapsed as f64 / 1e9
    }
}
