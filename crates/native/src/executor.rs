//! Public types of the native executor, and the one-shot
//! [`try_execute`] entry point (a [`crate::Pool`] that lives for a
//! single run).

use crate::pool::Pool;
use std::sync::OnceLock;
use std::time::Duration;

/// How tasks reach the workers (the paper's push-vs-steal axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Distribution {
    /// Static work-pushing: every worker is dealt its share of the
    /// tasks before the run and workers never steal. This is the GHC
    /// 6.8 `schedulePushWork` shape without its scheduler-delay
    /// pathology — and it inherits static distribution's load
    /// imbalance on irregular tasks.
    Push,
    /// Work-pulling: all tasks start on worker 0's deque; idle workers
    /// pull through the Chase–Lev steal path (batched), with
    /// exponential backoff on contention and parking when idle.
    Steal,
}

/// Which native execution model runs the tasks (the paper's central
/// GpH-vs-Eden axis, on real threads).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// Shared-heap work stealing (GpH-style): one [`crate::Pool`] of
    /// workers over Chase–Lev deques publishing into a shared
    /// [`ResultHeap`]. Honours [`NativeConfig::mode`],
    /// [`NativeConfig::granularity`] and [`NativeConfig::steal_policy`].
    Steal,
    /// Message passing (Eden-style): one thread per PE with private
    /// working memory, exchanging fully-evaluated [`crate::Packet`]s
    /// over bounded channels via the skeletons in [`crate::skeletons`].
    /// Honours [`NativeConfig::chan_cap`]; the steal-side knobs are
    /// ignored (there are no deques to configure).
    Eden,
}

/// How an idle worker orders its victims when probing for work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StealPolicy {
    /// Deterministic round-robin: thief `me` probes `me+1, me+2, …`
    /// (mod workers). Kept as the ablation baseline — with many idle
    /// thieves it *convoys* steal traffic: every thief's sweep reaches
    /// the one loaded deque in the same order, so they arrive together
    /// and all but one pay a CAS retry per probe wave.
    RoundRobin,
    /// Randomized probing (the default, and what GHC's work-stealing
    /// does): each thief visits the other deques in an order drawn
    /// from its own xorshift generator, seeded from
    /// [`NativeConfig::seed`] + worker id — so two runs of the same
    /// config take byte-identical probe sequences, while distinct
    /// thieves spread their probes across distinct victims instead of
    /// convoying.
    Randomized,
}

/// How the task index space is carved into deque elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Granularity {
    /// One deque element per task index, dealt up front — the PR 1
    /// executor's shape, kept as the ablation baseline. Scheduling
    /// cost is paid once per task no matter the load.
    Fixed,
    /// Tasks travel as packed `(lo, hi)` ranges executed sequentially
    /// from the low end; a worker splits the upper half off as a new
    /// stealable range whenever its own deque runs dry. Scheduling
    /// cost adapts to observed thief demand: O(log n) actions for a
    /// lone worker, finer fission only under contention.
    LazySplit,
}

/// Executor configuration.
#[derive(Debug, Clone)]
pub struct NativeConfig {
    /// Number of OS worker threads (PEs, on the Eden backend).
    pub workers: usize,
    /// Which execution model runs the tasks.
    pub backend: BackendKind,
    /// Task distribution policy (steal backend only).
    pub mode: Distribution,
    /// Initial deque capacity per worker (grows as needed).
    pub deque_cap: usize,
    /// Task granularity policy.
    pub granularity: Granularity,
    /// Victim-selection policy for idle thieves.
    pub steal_policy: StealPolicy,
    /// Seed for the per-worker victim-selection generators (worker
    /// `i` draws from a stream seeded with `seed` + `i`, re-seeded at
    /// every run start, so identical configs probe identically).
    pub seed: u64,
    /// Collect wall-clock event traces. Off by default: when off the
    /// per-event record call is a single branch and
    /// [`NativeOutcome::trace`] is `None`.
    pub trace: bool,
    /// Per-worker trace buffer capacity, in events. The buffer is
    /// pre-allocated once per worker; events beyond the capacity are
    /// dropped (and counted in [`NativeOutcome::trace_dropped`])
    /// rather than grown into a hot-path allocation.
    pub trace_cap: usize,
    /// Bounded channel capacity, in packets (Eden backend only). A
    /// producer that runs this far ahead of its consumer blocks — the
    /// back-pressure that keeps PE memory bounded.
    pub chan_cap: usize,
    /// Number of shards the workers are grouped into (pools-of-pools).
    /// Must divide `workers`; worker `w` lives in shard
    /// `w / (workers / shards)`. 1 = the flat pool, byte-identical to
    /// the pre-topology executor. With more shards, idle thieves probe
    /// every shard-mate before any remote shard, and cross-shard
    /// steals are counted (and traced) separately — see
    /// [`Self::with_topology`].
    pub shards: usize,
}

/// Default per-worker trace buffer capacity (events). At 24 bytes per
/// record this is well under 1 MiB per worker, yet holds every event
/// of the repo's test and smoke workloads with room to spare.
pub const DEFAULT_TRACE_CAP: usize = 32 * 1024;

/// Default bounded-channel capacity for the Eden backend, in packets.
/// Deep enough that a worker streaming results rarely stalls on the
/// master, shallow enough that back-pressure engages within a handful
/// of messages (the stress tests force it to 1).
pub const DEFAULT_CHAN_CAP: usize = 8;

impl NativeConfig {
    /// The canonical constructor: `workers` threads on the default
    /// backend (shared-heap work stealing, the paper's preferred GpH
    /// policy §IV.A.2) with adaptive lazy-split granularity. Pick a
    /// different model with [`Self::with_backend`] /
    /// [`Self::with_distribution`].
    pub fn new(workers: usize) -> Self {
        NativeConfig {
            workers: workers.max(1),
            backend: BackendKind::Steal,
            mode: Distribution::Steal,
            deque_cap: 256,
            granularity: Granularity::LazySplit,
            steal_policy: StealPolicy::Randomized,
            seed: 0x5eed0fa11,
            trace: false,
            trace_cap: DEFAULT_TRACE_CAP,
            chan_cap: DEFAULT_CHAN_CAP,
            shards: 1,
        }
    }

    /// Alias for [`Self::new`], kept for callers that want the
    /// distribution policy in the constructor name: work-pulling on
    /// `workers` threads.
    pub fn steal(workers: usize) -> Self {
        Self::new(workers)
    }

    /// Alias for `new(workers).with_distribution(Distribution::Push)`:
    /// static pushing on `workers` threads.
    pub fn push(workers: usize) -> Self {
        Self::new(workers).with_distribution(Distribution::Push)
    }

    /// Same config, different task distribution policy (steal backend).
    pub fn with_distribution(mut self, mode: Distribution) -> Self {
        self.mode = mode;
        self
    }

    /// Same config, different execution model.
    pub fn with_backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// Same config, different bounded-channel capacity (Eden backend).
    pub fn with_chan_cap(mut self, cap: usize) -> Self {
        self.chan_cap = cap.max(1);
        self
    }

    /// Same policy, different granularity.
    pub fn with_granularity(mut self, g: Granularity) -> Self {
        self.granularity = g;
        self
    }

    /// Same policy, different victim selection.
    pub fn with_steal_policy(mut self, p: StealPolicy) -> Self {
        self.steal_policy = p;
        self
    }

    /// Same policy, different victim-selection seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Same policy, with wall-clock event tracing on.
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Same policy, with a specific per-worker trace buffer capacity.
    pub fn with_trace_cap(mut self, cap: usize) -> Self {
        self.trace_cap = cap;
        self
    }

    /// A sharded pool-of-pools: `shards` shards of `per_shard` workers
    /// each (`workers = shards × per_shard`). Victim selection becomes
    /// hierarchical — a seeded permutation over the thief's own shard
    /// first, then remote shards, with cross-shard steals batch-only
    /// (`steal_batch_and_pop`) and counted separately
    /// ([`NativeStats::steal_remote`], [`NativeStats::remote_words`]).
    /// `with_topology(1, n)` is exactly the flat `new(n)` pool. On the
    /// Eden backend the shard map drives skeleton placement instead:
    /// tasks are dealt round-robin across shards, then within a shard.
    pub fn with_topology(mut self, shards: usize, per_shard: usize) -> Self {
        assert!(shards >= 1 && per_shard >= 1, "topology must be non-empty");
        self.workers = shards * per_shard;
        self.shards = shards;
        self
    }

    /// Workers per shard.
    pub fn per_shard(&self) -> usize {
        debug_assert!(self.workers.is_multiple_of(self.shards));
        self.workers / self.shards
    }

    /// Which shard worker `w` lives in.
    pub fn shard_of(&self, w: usize) -> usize {
        w / self.per_shard()
    }
}

/// A flat set of pure, independent tasks.
///
/// `run` must be a pure function of `(self, task index)`: the executor
/// calls it exactly once per index from an arbitrary thread, in an
/// arbitrary order.
pub trait Job: Sync {
    /// Fully-evaluated task result ("WHNF data"): plain values shared
    /// read-only once published, hence `Send + Sync`.
    type Out: Send + Sync;

    /// Number of tasks.
    fn len(&self) -> usize;

    /// True when there is nothing to run.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Execute task `idx` to a fully-evaluated result.
    fn run(&self, idx: usize) -> Self::Out;
}

/// The shared result store: one write-once slot per task (the
/// "communicate only WHNF data" heap — workers publish finished
/// values, never thunks, so no cross-thread graph locking exists).
pub struct ResultHeap<T> {
    slots: Vec<OnceLock<T>>,
}

impl<T> ResultHeap<T> {
    pub(crate) fn new(n: usize) -> Self {
        ResultHeap {
            slots: (0..n).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Publish the result of task `idx`. Panics on double write — that
    /// would mean a task ran twice, i.e. a lost race in the deque.
    pub(crate) fn publish(&self, idx: usize, value: T) {
        if self.slots[idx].set(value).is_err() {
            panic!("task {idx} completed twice");
        }
    }

    /// Drain all results in task order. Panics if any slot is empty.
    pub(crate) fn into_values(self) -> Vec<T> {
        self.slots
            .into_iter()
            .enumerate()
            .map(|(i, s)| {
                s.into_inner()
                    .unwrap_or_else(|| panic!("task {i} never completed"))
            })
            .collect()
    }
}

/// Counters describing how a run actually scheduled.
///
/// `tasks_local` and `tasks_stolen` are counted *directly* at each
/// worker, attributed by how the containing range was acquired (own
/// pop / seed vs. steal), so `tasks_local + tasks_stolen == tasks_run`
/// is a measured invariant, not a derived identity.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NativeStats {
    /// Tasks executed, total (== job.len()).
    pub tasks_run: u64,
    /// Tasks executed out of a range the worker acquired from its own
    /// deque (seeded, popped back, or batch-transferred in).
    pub tasks_local: u64,
    /// Tasks executed out of a range acquired directly by a steal.
    pub tasks_stolen: u64,
    /// Victim deques probed by idle thieves (every probe lands in
    /// exactly one of `steal_ops`, `steal_retries` or `steal_empties`;
    /// the split shows whether a victim-selection policy wastes its
    /// probes on empty or contended deques).
    pub steal_probes: u64,
    /// `Steal::Retry` outcomes (lost CAS races).
    pub steal_retries: u64,
    /// Steal attempts that found the victim empty.
    pub steal_empties: u64,
    /// Successful steal operations (each may move a whole batch;
    /// `steal_local + steal_remote == steal_ops`).
    pub steal_ops: u64,
    /// The subset of `steal_ops` whose victim shared the thief's
    /// shard. On a flat (single-shard) pool every steal is local.
    pub steal_local: u64,
    /// The subset of `steal_ops` that crossed a shard boundary
    /// (hierarchical victim selection probed the whole local shard
    /// first).
    pub steal_remote: u64,
    /// Deque words moved across shard boundaries: one packed
    /// `(lo, hi)` range word per element a cross-shard steal
    /// transferred (the stolen element plus its batch). On the Eden
    /// backend: payload words of packets whose sender and receiver
    /// PEs live in different shards.
    pub remote_words: u64,
    /// Extra deque elements transferred into thief deques by batch
    /// steals, beyond the one element each steal returns. See
    /// [`Self::mean_batch`] for the mean batch size — the naive
    /// formula `(steal_ops + batch_moved) / steal_ops` divides by
    /// zero on steal-free runs.
    pub batch_moved: u64,
    /// Lazy range splits performed (each exposes one new range).
    pub splits: u64,
    /// Times an idle worker parked on the eventcount instead of
    /// busy-waiting.
    pub parks: u64,
    /// Packets sent over channels (Eden backend; 0 on steal runs).
    pub msgs_sent: u64,
    /// Packets received over channels (Eden backend). On a completed
    /// run every packet sent is received: `msgs_recv == msgs_sent`.
    pub msgs_recv: u64,
    /// Total simulated heap words moved by sent packets (Eden
    /// backend) — the [`crate::Packet::words`] framing, so native
    /// message volume is comparable to the simulator's.
    pub words_sent: u64,
    /// Blocking waits entered by senders on a full channel (Eden
    /// backend): back-pressure engagements.
    pub send_blocks: u64,
    /// Blocking waits entered by receivers on an empty channel (Eden
    /// backend), including the master's multiplexed result waits.
    pub recv_blocks: u64,
    /// Tasks run by each worker (index = worker id).
    pub per_worker: Vec<u64>,
}

impl NativeStats {
    /// Mean number of deque elements a successful steal moved
    /// (including the one it returned to run), or `None` for runs with
    /// no successful steals — where a mean batch size is meaningless
    /// and the naive formula would divide by zero. Display code
    /// typically renders `None` as `-`; callers that need a neutral
    /// numeric default can use `mean_batch().unwrap_or(1.0)`.
    pub fn mean_batch(&self) -> Option<f64> {
        if self.steal_ops == 0 {
            None
        } else {
            Some((self.steal_ops + self.batch_moved) as f64 / self.steal_ops as f64)
        }
    }

    /// Accumulate `other`'s counters into `self` (used for chunked
    /// runs and by wave-structured workloads that issue one run per
    /// wave).
    pub fn merge(&mut self, other: &NativeStats) {
        self.tasks_run += other.tasks_run;
        self.tasks_local += other.tasks_local;
        self.tasks_stolen += other.tasks_stolen;
        self.steal_probes += other.steal_probes;
        self.steal_retries += other.steal_retries;
        self.steal_empties += other.steal_empties;
        self.steal_ops += other.steal_ops;
        self.steal_local += other.steal_local;
        self.steal_remote += other.steal_remote;
        self.remote_words += other.remote_words;
        self.batch_moved += other.batch_moved;
        self.splits += other.splits;
        self.parks += other.parks;
        self.msgs_sent += other.msgs_sent;
        self.msgs_recv += other.msgs_recv;
        self.words_sent += other.words_sent;
        self.send_blocks += other.send_blocks;
        self.recv_blocks += other.recv_blocks;
        if self.per_worker.len() < other.per_worker.len() {
            self.per_worker.resize(other.per_worker.len(), 0);
        }
        for (acc, x) in self.per_worker.iter_mut().zip(&other.per_worker) {
            *acc += *x;
        }
    }
}

/// A completed native run.
#[derive(Debug)]
pub struct NativeOutcome<T> {
    /// Per-task results, in task order.
    pub values: Vec<T>,
    /// Wall-clock time of the parallel phase.
    pub wall: Duration,
    /// Scheduling counters.
    pub stats: NativeStats,
    /// Per-worker wall-clock event trace (`Some` iff
    /// [`NativeConfig::trace`] was set): one [`rph_trace::Tracer`] row
    /// per worker, timestamps in nanoseconds since the run started.
    pub trace: Option<rph_trace::Tracer>,
    /// Events that did not fit the per-worker trace buffers. Always 0
    /// for untraced runs; traced consumers should check this before
    /// treating event totals as exhaustive.
    pub trace_dropped: u64,
}

/// Run every task of `job` on the **steal backend** and return the
/// results in task order, spinning up a single-run [`Pool`]. A
/// panicking task surfaces as `Err(JobPanicked)` instead of unwinding
/// into the caller.
///
/// This entry point ignores [`NativeConfig::backend`]: a [`Job`]'s
/// output carries no [`crate::Wordsize`] framing, so it cannot travel
/// over Eden channels. Jobs whose output implements `Wordsize` run on
/// the Eden backend through [`crate::skeletons::try_par_map`] (or via
/// `rph_workloads`' `NativeWorkload::run_on`, which dispatches on the
/// configured backend).
///
/// Results are deterministic (each task's value depends only on the
/// job), regardless of worker count, distribution policy or
/// granularity; only the schedule — and the wall-clock time — varies.
/// Wave-structured and long-running callers should hold a [`Pool`]
/// and call [`Pool::try_execute`] repeatedly instead of paying a
/// thread spawn/join per run here.
pub fn try_execute<J: Job>(
    job: &J,
    cfg: &NativeConfig,
) -> Result<NativeOutcome<J::Out>, crate::error::JobPanicked> {
    let mut cfg = cfg.clone();
    if cfg.granularity == Granularity::Fixed {
        // Fixed granularity seeds one deque element per task: size the
        // initial buffer from the job instead of growing in the seed
        // loop. (`chase_lev::new` rounds up to a power of two.)
        cfg.deque_cap = cfg.deque_cap.max(job.len());
    }
    Pool::new(&cfg).try_execute(job)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Instant;

    struct Squares(usize);

    impl Job for Squares {
        type Out = u64;
        fn len(&self) -> usize {
            self.0
        }
        fn run(&self, idx: usize) -> u64 {
            (idx as u64) * (idx as u64)
        }
    }

    fn expected(n: usize) -> Vec<u64> {
        (0..n as u64).map(|i| i * i).collect()
    }

    /// Both policies × both granularities for each worker count.
    fn all_configs(workers: &[usize]) -> Vec<NativeConfig> {
        workers
            .iter()
            .flat_map(|&w| {
                [
                    NativeConfig::steal(w),
                    NativeConfig::push(w),
                    NativeConfig::steal(w).with_granularity(Granularity::Fixed),
                    NativeConfig::push(w).with_granularity(Granularity::Fixed),
                ]
            })
            .collect()
    }

    fn assert_invariants(stats: &NativeStats, n: u64, cfg: &NativeConfig) {
        assert_eq!(stats.tasks_run, n, "{cfg:?}");
        assert_eq!(
            stats.tasks_local + stats.tasks_stolen,
            stats.tasks_run,
            "directly-counted local/stolen must partition tasks_run: {cfg:?} {stats:?}"
        );
        assert_eq!(stats.per_worker.iter().sum::<u64>(), n, "{cfg:?}");
        assert_eq!(stats.per_worker.len(), cfg.workers.max(1), "{cfg:?}");
        if stats.steal_ops == 0 {
            assert_eq!(stats.batch_moved, 0, "{cfg:?}");
            assert_eq!(stats.tasks_stolen, 0, "{cfg:?}");
        }
        assert_eq!(
            stats.steal_local + stats.steal_remote,
            stats.steal_ops,
            "local/remote must partition steal_ops: {cfg:?} {stats:?}"
        );
        if cfg.shards <= 1 {
            assert_eq!(stats.steal_remote, 0, "flat pool has no shards: {cfg:?}");
            assert_eq!(stats.remote_words, 0, "flat pool has no shards: {cfg:?}");
        }
    }

    #[test]
    fn runs_every_task_once_in_order() {
        for cfg in all_configs(&[1, 2, 3, 4, 5, 8]) {
            let out = try_execute(&Squares(257), &cfg).unwrap();
            assert_eq!(out.values, expected(257), "{cfg:?}");
            assert_invariants(&out.stats, 257, &cfg);
        }
    }

    #[test]
    fn degenerate_shapes_fewer_tasks_than_workers() {
        // Single-range jobs and `job.len() < workers` under every
        // policy/granularity, including odd worker counts.
        for n in [1usize, 2, 3, 7] {
            for cfg in all_configs(&[3, 5, 8]) {
                let out = try_execute(&Squares(n), &cfg).unwrap();
                assert_eq!(out.values, expected(n), "n={n} {cfg:?}");
                assert_invariants(&out.stats, n as u64, &cfg);
            }
        }
    }

    #[test]
    fn empty_job_is_fine() {
        let out = try_execute(&Squares(0), &NativeConfig::steal(4)).unwrap();
        assert!(out.values.is_empty());
        assert_eq!(out.stats.tasks_run, 0);
        assert_eq!(out.stats.per_worker, vec![0; 4]);
    }

    #[test]
    fn single_task_many_workers() {
        let out = try_execute(&Squares(1), &NativeConfig::steal(8)).unwrap();
        assert_eq!(out.values, vec![0]);
    }

    #[test]
    fn push_mode_stays_static() {
        for g in [Granularity::Fixed, Granularity::LazySplit] {
            let out =
                try_execute(&Squares(100), &NativeConfig::push(4).with_granularity(g)).unwrap();
            assert_eq!(out.values, expected(100), "{g:?}");
            // Static deal: exactly 25 tasks per worker, none stolen.
            assert_eq!(out.stats.per_worker, vec![25, 25, 25, 25], "{g:?}");
            assert_eq!(out.stats.tasks_stolen, 0, "{g:?}");
            assert_eq!(out.stats.tasks_local, 100, "{g:?}");
            assert_eq!(out.stats.steal_ops, 0, "{g:?}");
        }
    }

    /// The sharded pool-of-pools is a victim-*ordering* change, not a
    /// semantics change: results, task conservation and the
    /// local/remote steal partition all hold, and every steal is
    /// classified by the shard map.
    #[test]
    fn sharded_pool_matches_flat_results() {
        let flat = try_execute(&Squares(257), &NativeConfig::steal(4)).unwrap();
        for (shards, per_shard) in [(2, 2), (4, 1)] {
            let cfg = NativeConfig::steal(4).with_topology(shards, per_shard);
            assert_eq!(cfg.workers, 4);
            assert_eq!(cfg.per_shard(), per_shard);
            let out = try_execute(&Squares(257), &cfg).unwrap();
            assert_eq!(out.values, flat.values, "{cfg:?}");
            assert_invariants(&out.stats, 257, &cfg);
            // A cross-shard steal always carries at least the popped
            // range (1 packed word) plus its batched extras.
            assert!(out.stats.remote_words >= out.stats.steal_remote, "{cfg:?}");
        }
    }

    /// The paper's oversubscription axis on the steal pool: far more
    /// workers than the (single-core CI) host has cores. The pool must
    /// neither deadlock nor corrupt results, and idle workers must
    /// park by episode rather than spin-looping the counters into the
    /// sky.
    #[test]
    fn oversubscribed_steal_pool_completes_and_matches() {
        let one = try_execute(&Squares(400), &NativeConfig::steal(1)).unwrap();
        for workers in [16usize, 32, 64] {
            let cfg = NativeConfig::steal(workers);
            let out = try_execute(&Squares(400), &cfg).unwrap();
            assert_eq!(out.values, one.values, "workers={workers}");
            assert_invariants(&out.stats, 400, &cfg);
            // Parks are counted per contiguous idle episode, so even a
            // heavily oversubscribed run stays within a small multiple
            // of the worker count — not wall-time / park-timeout.
            assert!(
                out.stats.parks <= 100 * workers as u64,
                "workers={workers}: parks exploded: {:?}",
                out.stats
            );
        }
    }

    /// Tasks heavy enough that workers 1.. have time to steal before
    /// worker 0 drains its own deque.
    struct Heavy;
    impl Job for Heavy {
        type Out = u64;
        fn len(&self) -> usize {
            64
        }
        fn run(&self, idx: usize) -> u64 {
            let mut acc = idx as u64;
            for i in 0..50_000u64 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            std::hint::black_box(acc);
            idx as u64
        }
    }

    #[test]
    fn steal_mode_moves_work_off_worker_zero() {
        for g in [Granularity::Fixed, Granularity::LazySplit] {
            let out = try_execute(&Heavy, &NativeConfig::steal(4).with_granularity(g)).unwrap();
            assert_eq!(out.values, (0..64).collect::<Vec<u64>>(), "{g:?}");
            assert_invariants(&out.stats, 64, &NativeConfig::steal(4).with_granularity(g));
            // All work starts on worker 0, so any other worker's first
            // range necessarily arrived through a steal. (On a
            // single-core host preemption may still let worker 0 run
            // everything; only assert consistency there.)
            let others: u64 = out.stats.per_worker[1..].iter().sum();
            if others > 0 {
                assert!(out.stats.tasks_stolen > 0, "{g:?}: {:?}", out.stats);
                assert!(out.stats.steal_ops > 0, "{g:?}: {:?}", out.stats);
            }
        }
    }

    #[test]
    fn lazy_split_records_splits() {
        // With >1 worker the seed range is popped into an empty deque,
        // so the very first demand check must split — deterministically.
        let out = try_execute(&Squares(100), &NativeConfig::steal(2)).unwrap();
        assert_eq!(out.values, expected(100));
        assert!(out.stats.splits >= 1, "{:?}", out.stats);
    }

    #[test]
    fn pool_reuse_runs_many_jobs_on_the_same_threads() {
        let mut pool = Pool::new(&NativeConfig::steal(4));
        for wave in 0..10usize {
            let out = pool.try_execute(&Squares(40 + wave)).unwrap();
            assert_eq!(out.values, expected(40 + wave), "wave {wave}");
            assert_eq!(out.stats.tasks_run, 40 + wave as u64);
            assert_eq!(out.stats.per_worker.len(), 4);
        }
        // The same pool serves jobs of a different output type.
        struct Halves(usize);
        impl Job for Halves {
            type Out = usize;
            fn len(&self) -> usize {
                self.0
            }
            fn run(&self, idx: usize) -> usize {
                idx / 2
            }
        }
        let out = pool.try_execute(&Halves(33)).unwrap();
        assert_eq!(out.values, (0..33).map(|i| i / 2).collect::<Vec<_>>());
    }

    /// One task blocks the run open until the cheap tasks are done;
    /// the workers left with nothing to do must park (not busy-wait),
    /// and completion must still wake everyone promptly.
    struct OneLong {
        others_done: AtomicU64,
    }
    impl Job for OneLong {
        type Out = u64;
        fn len(&self) -> usize {
            4
        }
        fn run(&self, idx: usize) -> u64 {
            if idx == 0 {
                // Wait for the stealable tasks (at least 2 of the
                // other 3 are outside any range this worker holds),
                // then hold the run open long enough for the now-idle
                // workers to exhaust their spin budget and park.
                let deadline = Instant::now() + Duration::from_secs(10);
                while self.others_done.load(Ordering::Acquire) < 2 {
                    assert!(Instant::now() < deadline, "helpers never ran");
                    std::hint::spin_loop();
                }
                let hold = Instant::now() + Duration::from_millis(100);
                while Instant::now() < hold {
                    std::hint::spin_loop();
                }
            } else {
                self.others_done.fetch_add(1, Ordering::Release);
            }
            idx as u64
        }
    }

    #[test]
    fn starved_workers_park_and_wake_on_completion() {
        let job = OneLong {
            others_done: AtomicU64::new(0),
        };
        let start = Instant::now();
        let out = try_execute(&job, &NativeConfig::steal(4)).unwrap();
        let elapsed = start.elapsed();
        assert_eq!(out.values, vec![0, 1, 2, 3]);
        assert!(
            out.stats.parks > 0,
            "idle workers should park while the long task runs: {:?}",
            out.stats
        );
        // Completion must not wait out park timeouts one by one.
        assert!(elapsed < Duration::from_secs(5), "took {elapsed:?}");
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives_process() {
        struct Exploding;
        impl Job for Exploding {
            type Out = u64;
            fn len(&self) -> usize {
                8
            }
            fn run(&self, idx: usize) -> u64 {
                assert!(idx != 5, "boom");
                idx as u64
            }
        }
        // The panic comes back as a typed error on the caller, not as
        // an unwind.
        let out = try_execute(&Exploding, &NativeConfig::steal(4));
        assert_eq!(out.err(), Some(crate::JobPanicked));
    }
}
