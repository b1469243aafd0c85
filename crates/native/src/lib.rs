//! # rph-native — real-thread work-stealing execution
//!
//! Everything else in this repository measures the paper's effects in
//! *virtual* time on the deterministic simulator. This crate is the
//! second backend: the same workload decompositions on **real OS
//! threads**, scheduled through the lock-free Chase–Lev deque of
//! [`rph_deque::chase_lev`] — the data structure §IV.A.2 of the paper
//! credits for eliminating "any hand-shaking when sharing work".
//!
//! Design (v2, persistent pool + adaptive granularity):
//!
//! * A workload is decomposed into a flat set of **pure tasks**
//!   ([`Job`]): `run(i)` reads only the job description and produces a
//!   fully-evaluated result. There is no shared mutable graph heap —
//!   like Eden processes, workers "communicate only WHNF data", here
//!   by writing each task's result into its slot of a shared
//!   [`ResultHeap`] exactly once.
//! * A [`Pool`] spawns one worker per requested core **once** and
//!   accepts repeated [`Pool::try_execute`] calls — wave-structured
//!   workloads (APSP's n pivot waves) reuse the same threads instead
//!   of paying n spawn/join barriers. [`try_execute`] is the one-shot
//!   form (a pool that lives for a single run).
//! * Each worker owns a `chase_lev::Worker` deque of packed
//!   `(lo, hi)` index ranges (`rph_deque::Range32`); every other
//!   worker holds a `Stealer` handle onto it.
//! * Two distribution policies mirror the paper's push-vs-steal
//!   comparison ([`Distribution`]); two granularity policies
//!   ([`Granularity`]) put PR 1's fixed per-task dealing and the
//!   adaptive **lazy range splitting** side by side: ranges execute
//!   sequentially at the owner end and fission only under observed
//!   thief demand.
//! * Thieves take up to half a victim's deque per probe
//!   (`steal_batch_and_pop`), visiting victims in a **randomized
//!   order** by default ([`StealPolicy`]: a per-worker xorshift
//!   permutation per sweep, seeded from `NativeConfig::seed` so runs
//!   replay identically; fixed round-robin kept as the ablation);
//!   idle workers spin briefly, then **park** on a Condvar-backed
//!   eventcount instead of busy-waiting, woken by new pushes or run
//!   completion. Hot shared words (deque `top`/`bottom`, park flags,
//!   per-worker stats slots, run state) are cache-line padded
//!   (`rph_deque::CachePadded`) against false sharing.
//! * With [`NativeConfig::trace`] set, every worker records
//!   wall-clock events (run start/end, executed ranges, steal
//!   successes/retries/empties, batch transfers, lazy splits,
//!   park/unpark) into a pre-allocated lock-free buffer, drained by
//!   `Pool::try_execute` into an [`rph_trace::Tracer`] — so native runs
//!   render the same per-core activity timelines, CSVs and occupancy
//!   fractions as the simulators (the paper's Fig. 2/4 view), with
//!   time in nanoseconds.
//!
//! The deterministic simulator remains the correctness oracle: the
//! differential tests (in `rph-workloads` and the top-level
//! integration suite) assert that native results are bit-identical to
//! `GphRuntime` results for every workload at 1, 2, 3, 4, 5 and 8
//! workers, under both policies and both granularities.

//! ## The second native backend: Eden-style message passing
//!
//! Since PR 5 this crate hosts *both* sides of the paper's comparison
//! on real threads, selected by [`NativeConfig::backend`]:
//!
//! * [`BackendKind::Steal`] — the shared-heap work-stealing executor
//!   above ([`Pool`], [`try_execute`]).
//! * [`BackendKind::Eden`] — one OS thread per PE with **private
//!   working memory**, communicating only fully-evaluated [`Packet`]s
//!   over bounded SPSC [`channel`]s, through the five [`skeletons`]
//!   the workloads need: [`try_par_map`] (static farm),
//!   [`try_master_worker`] (demand-driven farm), [`try_ring`]
//!   (wavefronts), [`try_par_map_reduce`] (folding farm) and
//!   [`try_exchange`] (bulk-synchronous all-to-all). All five are
//!   compositions over one run harness that spawns the PEs, collects
//!   their result packets on the calling thread and turns a dead PE
//!   into a typed [`EdenIncomplete`]. Channel sends, receives and
//!   blocks land in the same wall-clock trace machinery, so Eden runs
//!   render the same per-core timelines — now with message events.
//!
//! Every entry point is typed: a panicking task comes back as
//! [`JobPanicked`] (steal) or [`EdenIncomplete`] (Eden), never as an
//! unwind into the caller.

mod cancel;
pub mod channel;
mod eden;
mod error;
mod executor;
mod park;
mod pool;
pub mod skeletons;
mod trace;
mod victim;

pub use cancel::CancelToken;
pub use channel::{bounded, Packet, Receiver, Sender, TrySendError, Wordsize};
pub use error::{EdenIncomplete, JobPanicked, RunError};
pub use executor::{
    try_execute, BackendKind, Distribution, Granularity, Job, NativeConfig, NativeOutcome,
    NativeStats, ResultHeap, StealPolicy, DEFAULT_CHAN_CAP, DEFAULT_TRACE_CAP,
};
pub use pool::Pool;
pub use skeletons::{
    try_exchange, try_master_worker, try_par_map, try_par_map_reduce, try_ring, ExchangeJob,
    RingJob, Skeleton,
};
