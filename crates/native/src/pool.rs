//! The persistent worker pool with adaptive-granularity scheduling.
//!
//! [`Pool`] spawns its OS workers **once** and accepts repeated
//! [`Pool::try_execute`] calls: wave-structured workloads (APSP issues one
//! run per pivot) reuse the same threads and deques instead of paying a
//! full spawn/join barrier per wave. Within a run:
//!
//! * Tasks travel as packed `(lo, hi)` index ranges
//!   ([`rph_deque::Range32`] — two `u32`s in the deque's `u64` slot).
//! * **Lazy range splitting** ([`Granularity::LazySplit`]): a worker
//!   executes its range sequentially from the low end, but before each
//!   index checks whether its own deque has gone empty — the signal
//!   that thieves are hungry — and if so pushes the upper half off as a
//!   new stealable range. Granularity thus adapts to observed demand:
//!   a lone worker runs the whole job with O(log n) scheduling actions,
//!   while under contention ranges fission until every core is fed.
//! * Thieves use [`Stealer::steal_batch_and_pop`], landing up to half
//!   the victim's elements in their own deque per probe.
//! * Idle workers spin for a bounded number of fruitless sweeps, then
//!   park on the [`EventCount`] until a push or run completion wakes
//!   them (see `park.rs` for the lost-wakeup argument).

use crate::cancel::CancelToken;
use crate::error::{JobPanicked, RunError};
use crate::executor::{
    Distribution, Granularity, Job, NativeConfig, NativeOutcome, NativeStats, ResultHeap,
    StealPolicy,
};
use crate::park::EventCount;
use crate::trace::{map_events, NEvent, NEventKind, TraceBuf};
use crate::victim::VictimPicker;
use rph_deque::chase_lev::{self, BatchSteal, Stealer, Worker};
use rph_deque::{CachePadded, Range32};
use rph_trace::{CapId, Tracer, WallClock};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Fruitless full sweeps over every victim before a worker parks.
const SPIN_SWEEPS: usize = 64;

/// Most tasks a single run hands to the workers: range bounds must fit
/// the packed `(lo, hi)` u32 halves of a deque element. Longer jobs
/// are executed as consecutive chunks of at most this many tasks (see
/// [`Pool::try_execute`]) instead of silently truncating indices.
const MAX_RUN_TASKS: usize = u32::MAX as usize;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// One run, as published to the workers. The runner reference is
/// lifetime-erased; see the safety comment in [`Pool::try_execute`].
#[derive(Clone)]
struct RunCmd {
    runner: &'static (dyn Fn(u64) + Sync),
    n: u64,
    mode: Distribution,
    granularity: Granularity,
    /// The run's shared time zero, so every worker's trace events and
    /// the coordinator's wall measurement agree.
    clock: WallClock,
    /// Cooperative cancel flag for this run, polled at range
    /// boundaries. `None` for uncancellable runs.
    cancel: Option<CancelToken>,
}

/// Per-worker, per-run counters, accumulated without synchronisation
/// and merged under the control lock at run end.
#[derive(Debug, Clone, Default)]
struct WorkerStats {
    ran: u64,
    local: u64,
    stolen: u64,
    probes: u64,
    retries: u64,
    empties: u64,
    steal_ops: u64,
    steal_local: u64,
    steal_remote: u64,
    remote_words: u64,
    batch_moved: u64,
    splits: u64,
    parks: u64,
}

/// State guarded by the control mutex: run hand-off and completion.
struct Ctrl {
    run_seq: u64,
    cmd: Option<RunCmd>,
    done: usize,
    /// Per-worker stats slots, one cache line each: every worker
    /// writes its own slot at run end while siblings are writing
    /// theirs (the mutex serialises the *writes*, not the line
    /// ping-pong of unrelated slots packed together).
    worker_stats: Vec<CachePadded<WorkerStats>>,
    /// Per-worker trace events of the finished run (empty when tracing
    /// is off), flushed here by each worker alongside its stats.
    worker_events: Vec<Vec<NEvent>>,
    /// Per-worker count of events that overflowed the trace buffer.
    worker_dropped: Vec<u64>,
    shutdown: bool,
}

/// State shared between the pool handle and its workers.
///
/// `remaining` is the run's shared hot word — decremented by every
/// worker per task, polled by every idle worker per probe loop — and
/// `panicked` sits on the same polling paths; each gets its own cache
/// line so a task completion does not invalidate the line an idle
/// worker is spinning on for an unrelated field (the eventcount pads
/// its own internals the same way).
struct Shared {
    ctrl: Mutex<Ctrl>,
    start_cv: Condvar,
    done_cv: Condvar,
    /// Tasks not yet executed in the current run.
    remaining: CachePadded<AtomicU64>,
    /// Set when any worker's task panicked; aborts the run.
    panicked: CachePadded<AtomicBool>,
    ec: EventCount,
    stealers: Vec<Stealer<Range32>>,
    workers: usize,
    /// Workers per shard (pools-of-pools); `workers` when the pool is
    /// flat. Worker `w` lives in shard `w / per_shard`; thieves probe
    /// every shard-mate before any remote shard, and cross-shard
    /// steals are counted separately.
    per_shard: usize,
    /// Victim-selection policy and seed, fixed at pool construction.
    steal_policy: StealPolicy,
    seed: u64,
    /// Wall-clock event tracing on/off and per-worker buffer size,
    /// fixed at pool construction.
    trace_on: bool,
    trace_cap: usize,
}

/// A persistent pool of worker threads executing [`Job`]s.
///
/// Workers are spawned by [`Pool::new`] and joined on drop; every
/// [`Pool::try_execute`] in between reuses them. `execute` takes `&mut
/// self` — runs are strictly sequential per pool.
pub struct Pool {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
    mode: Distribution,
    granularity: Granularity,
    /// Most tasks per run; `MAX_RUN_TASKS` except in tests, which
    /// shrink it to exercise the chunking path at sane job sizes.
    run_cap: usize,
}

impl Pool {
    /// Spawn `cfg.workers` threads, each owning a Chase–Lev deque of
    /// `cfg.deque_cap` initial slots (deques grow on demand).
    pub fn new(cfg: &NativeConfig) -> Pool {
        let workers = cfg.workers.max(1);
        let shards = cfg.shards.max(1);
        assert!(
            workers.is_multiple_of(shards),
            "shards ({shards}) must divide workers ({workers}) — use with_topology"
        );
        let mut owners: Vec<Worker<Range32>> = Vec::with_capacity(workers);
        let mut stealers: Vec<Stealer<Range32>> = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (w, s) = chase_lev::new::<Range32>(cfg.deque_cap);
            owners.push(w);
            stealers.push(s);
        }
        let shared = Arc::new(Shared {
            ctrl: Mutex::new(Ctrl {
                run_seq: 0,
                cmd: None,
                done: 0,
                worker_stats: vec![CachePadded::new(WorkerStats::default()); workers],
                worker_events: vec![Vec::new(); workers],
                worker_dropped: vec![0; workers],
                shutdown: false,
            }),
            start_cv: Condvar::new(),
            done_cv: Condvar::new(),
            remaining: CachePadded::new(AtomicU64::new(0)),
            panicked: CachePadded::new(AtomicBool::new(false)),
            ec: EventCount::new(),
            stealers,
            workers,
            per_shard: workers / shards,
            steal_policy: cfg.steal_policy,
            seed: cfg.seed,
            trace_on: cfg.trace,
            trace_cap: cfg.trace_cap,
        });
        let handles = owners
            .into_iter()
            .enumerate()
            .map(|(me, local)| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("rph-native-{me}"))
                    .spawn(move || worker_main(me, local, shared))
                    .expect("spawn pool worker")
            })
            .collect();
        Pool {
            shared,
            handles,
            mode: cfg.mode,
            granularity: cfg.granularity,
            run_cap: MAX_RUN_TASKS,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.shared.workers
    }

    /// Shrink the per-run task cap so tests can drive the chunking
    /// path without a four-billion-task job.
    #[cfg(test)]
    pub(crate) fn set_run_cap_for_tests(&mut self, cap: usize) {
        assert!(cap > 0 && cap <= MAX_RUN_TASKS);
        self.run_cap = cap;
    }

    /// Run every task of `job` on the pool's workers and return the
    /// results in task order. Semantics are identical to
    /// [`crate::try_execute`]; only the thread lifecycle differs.
    ///
    /// Jobs longer than the packed-range index space (`u32::MAX`
    /// tasks) are executed as consecutive chunks — every task still
    /// runs exactly once and results stay in task order; indices are
    /// never truncated.
    ///
    /// A panicking task aborts the run (remaining tasks are
    /// discarded) and surfaces here as `Err(JobPanicked)`; the pool's
    /// workers survive and keep serving subsequent runs.
    pub fn try_execute<J: Job>(&mut self, job: &J) -> Result<NativeOutcome<J::Out>, JobPanicked> {
        self.execute_inner(job, None).map_err(|e| match e {
            RunError::Panicked(p) => p,
            // No token was supplied and the pool raises nothing else.
            e => unreachable!("uncancellable pool run failed with {e}"),
        })
    }

    /// [`Self::try_execute`] with a cooperative [`CancelToken`]:
    /// workers poll the token at every range boundary (and parked
    /// workers within the 10 ms park safety timeout), so a cancelled
    /// run winds down after at most one in-flight range per worker and
    /// returns `Err(RunError::Cancelled)`, discarding partial results.
    pub fn try_execute_cancellable<J: Job>(
        &mut self,
        job: &J,
        cancel: &CancelToken,
    ) -> Result<NativeOutcome<J::Out>, RunError> {
        self.execute_inner(job, Some(cancel))
    }

    fn execute_inner<J: Job>(
        &mut self,
        job: &J,
        cancel: Option<&CancelToken>,
    ) -> Result<NativeOutcome<J::Out>, RunError> {
        let n = job.len();
        let workers = self.shared.workers;
        let mut trace = self.shared.trace_on.then(|| Tracer::new(workers));
        if n == 0 {
            return Ok(NativeOutcome {
                values: Vec::new(),
                wall: Duration::ZERO,
                stats: NativeStats {
                    per_worker: vec![0; workers],
                    ..NativeStats::default()
                },
                trace,
                trace_dropped: 0,
            });
        }

        let clock = WallClock::start();
        let mut values: Vec<J::Out> = Vec::with_capacity(n);
        let mut stats = NativeStats {
            per_worker: vec![0; workers],
            ..NativeStats::default()
        };
        let mut trace_dropped = 0u64;
        let mut wall = Duration::ZERO;
        let mut base = 0usize;
        while base < n {
            if cancel.is_some_and(|t| t.is_cancelled()) {
                return Err(RunError::Cancelled);
            }
            let count = (n - base).min(self.run_cap);
            let heap = ResultHeap::new(count);
            let runner = |i: u64| heap.publish(i as usize, job.run(base + i as usize));
            let runner_ref: &(dyn Fn(u64) + Sync) = &runner;
            // SAFETY: workers call `runner` only between observing the
            // new `run_seq` and incrementing `done`; this chunk's loop
            // body blocks until `done == workers` before moving on, so
            // the erased borrow of `heap`/`job` strictly outlives every
            // use. `cmd` is cleared below before the borrow expires.
            let runner_static: &'static (dyn Fn(u64) + Sync) =
                unsafe { std::mem::transmute::<&(dyn Fn(u64) + Sync), _>(runner_ref) };

            self.shared.panicked.store(false, Ordering::SeqCst);
            self.shared.remaining.store(count as u64, Ordering::SeqCst);
            let start = Instant::now();
            let chunk_stats = {
                let mut ctrl = lock(&self.shared.ctrl);
                ctrl.cmd = Some(RunCmd {
                    runner: runner_static,
                    n: count as u64,
                    mode: self.mode,
                    granularity: self.granularity,
                    clock,
                    cancel: cancel.cloned(),
                });
                ctrl.run_seq += 1;
                ctrl.done = 0;
                for s in ctrl.worker_stats.iter_mut() {
                    **s = WorkerStats::default();
                }
                self.shared.start_cv.notify_all();
                while ctrl.done < workers {
                    ctrl = self
                        .shared
                        .done_cv
                        .wait(ctrl)
                        .unwrap_or_else(|e| e.into_inner());
                }
                ctrl.cmd = None;
                if let Some(tracer) = trace.as_mut() {
                    for (c, events) in ctrl.worker_events.iter_mut().enumerate() {
                        map_events(tracer, CapId(c as u32), events);
                        events.clear();
                    }
                    for d in ctrl.worker_dropped.iter_mut() {
                        trace_dropped += std::mem::take(d);
                    }
                }
                collect_stats(&ctrl.worker_stats)
            };
            wall += start.elapsed();

            // Abort checks, in precedence order: a panic trumps a
            // cancel that raced in during the same chunk. On either,
            // `heap` is dropped part-filled — the asserts below only
            // hold for completed chunks.
            if self.shared.panicked.load(Ordering::SeqCst) {
                return Err(RunError::Panicked(JobPanicked));
            }
            if cancel.is_some_and(|t| t.is_cancelled()) {
                return Err(RunError::Cancelled);
            }
            debug_assert_eq!(self.shared.remaining.load(Ordering::SeqCst), 0);
            assert_eq!(chunk_stats.tasks_run, count as u64, "tasks left behind");
            values.extend(heap.into_values());
            stats.merge(&chunk_stats);
            base += count;
        }
        assert_eq!(stats.tasks_run, n as u64, "tasks left behind");
        Ok(NativeOutcome {
            values,
            wall,
            stats,
            trace,
            trace_dropped,
        })
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut ctrl = lock(&self.shared.ctrl);
            ctrl.shutdown = true;
            self.shared.start_cv.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn collect_stats(per_worker: &[CachePadded<WorkerStats>]) -> NativeStats {
    let mut out = NativeStats {
        per_worker: per_worker.iter().map(|s| s.ran).collect(),
        ..NativeStats::default()
    };
    for s in per_worker.iter() {
        out.tasks_run += s.ran;
        out.tasks_local += s.local;
        out.tasks_stolen += s.stolen;
        out.steal_probes += s.probes;
        out.steal_retries += s.retries;
        out.steal_empties += s.empties;
        out.steal_ops += s.steal_ops;
        out.steal_local += s.steal_local;
        out.steal_remote += s.steal_remote;
        out.remote_words += s.remote_words;
        out.batch_moved += s.batch_moved;
        out.splits += s.splits;
        out.parks += s.parks;
    }
    out
}

/// `worker`'s contiguous share of `[0, n)` under static block
/// partitioning. Shared with the Eden backend's ring skeleton, which
/// uses the same partition for row ownership.
pub(crate) fn block_share(n: u64, workers: usize, worker: usize) -> (u32, u32) {
    let w = workers as u64;
    let lo = (n * worker as u64 / w) as u32;
    let hi = (n * (worker as u64 + 1) / w) as u32;
    (lo, hi)
}

fn worker_main(me: usize, local: Worker<Range32>, shared: Arc<Shared>) {
    let mut seen_seq = 0u64;
    // The worker's trace buffer and victim-order buffer are allocated
    // once, here, and reused across every run the pool ever executes.
    let mut tbuf = TraceBuf::new(shared.trace_on, shared.trace_cap);
    let mut picker = VictimPicker::new(shared.steal_policy, me, shared.workers, shared.per_shard);
    loop {
        // Wait for the next run (or shutdown).
        let cmd = {
            let mut ctrl = lock(&shared.ctrl);
            loop {
                if ctrl.shutdown {
                    return;
                }
                if ctrl.run_seq != seen_seq {
                    seen_seq = ctrl.run_seq;
                    break ctrl.cmd.clone().expect("run_seq bumped without a command");
                }
                ctrl = shared
                    .start_cv
                    .wait(ctrl)
                    .unwrap_or_else(|e| e.into_inner());
            }
        };

        tbuf.begin_run(cmd.clock);
        // Re-seed per run, so identical configs replay byte-identical
        // probe sequences no matter how many runs preceded them.
        picker.begin_run(shared.seed);
        let mut stats = WorkerStats::default();
        let run = RunCtx {
            me,
            local: &local,
            shared: &shared,
            cmd,
        };
        if catch_unwind(AssertUnwindSafe(|| {
            run.run(&mut stats, &mut tbuf, &mut picker)
        }))
        .is_err()
        {
            shared.panicked.store(true, Ordering::SeqCst);
            shared.ec.notify_all();
        }
        if shared.panicked.load(Ordering::SeqCst) || run.cancelled() {
            // Abandoned run (panic or cancellation): clear leftovers so
            // they cannot leak into the next run's index space.
            while local.pop().is_some() {}
        }

        let mut ctrl = lock(&shared.ctrl);
        *ctrl.worker_stats[me] = stats;
        ctrl.worker_dropped[me] = tbuf.flush_into(&mut ctrl.worker_events[me]);
        ctrl.done += 1;
        if ctrl.done == shared.workers {
            shared.done_cv.notify_all();
        }
    }
}

/// Everything one worker needs for one run.
struct RunCtx<'a> {
    me: usize,
    local: &'a Worker<Range32>,
    shared: &'a Shared,
    cmd: RunCmd,
}

impl RunCtx<'_> {
    fn run(&self, stats: &mut WorkerStats, tbuf: &mut TraceBuf, picker: &mut VictimPicker) {
        let workers = self.shared.workers;
        let n = self.cmd.n;
        tbuf.record(NEventKind::RunStart { tasks: n });
        self.seed();
        // Wake anyone who parked before our seed landed (a fast
        // sibling can reach the idle path before worker 0 seeds).
        self.shared.ec.notify_all();

        // Splitting only pays when someone can steal the exposed half.
        let split = self.cmd.granularity == Granularity::LazySplit
            && self.cmd.mode == Distribution::Steal
            && workers > 1;

        'run: loop {
            // Drain the local pool (owner end, LIFO). The cancel poll
            // sits here, at the range boundary: a popped range runs to
            // completion, the *next* pop observes the token.
            while let Some(r) = self.local.pop() {
                if self.cancelled() {
                    break 'run;
                }
                self.process(r, false, split, stats, tbuf);
            }
            if self.cmd.mode == Distribution::Push {
                // Static distribution: an empty local deque means this
                // worker is done.
                break;
            }
            debug_assert!(n > 0);
            // Work-pulling: probe the other deques until a steal lands
            // or the run finishes. Lost CAS races back off; fruitless
            // sweeps first spin, then park. `parked_episode` tracks
            // whether THIS contiguous idle episode already counted a
            // park: `park_if`'s 10 ms safety timeout (and any spurious
            // condvar return) drops the worker back into the sweep
            // loop, and re-parking after another fruitless sweep is
            // still the same idle episode — counting it again would
            // inflate `parks` by wall time / 10 ms instead of by
            // episode. The episode ends only when work arrives.
            let mut backoff = 1u32;
            let mut fruitless = 0usize;
            let mut parked_episode = false;
            loop {
                if self.finished() {
                    break 'run;
                }
                let mut contended = false;
                let mut got = None;
                // One sweep probes every other deque once; the *order*
                // is the steal policy's choice (fixed round-robin, or
                // a per-sweep random permutation — see `victim.rs`).
                for &victim in picker.sweep() {
                    let victim = victim as usize;
                    stats.probes += 1;
                    match self.shared.stealers[victim].steal_batch_and_pop(self.local) {
                        BatchSteal::Success { first, moved } => {
                            stats.steal_ops += 1;
                            stats.batch_moved += moved as u64;
                            let per_shard = self.shared.per_shard;
                            if victim / per_shard == self.me / per_shard {
                                stats.steal_local += 1;
                                tbuf.record(NEventKind::StealOk {
                                    victim: victim as u32,
                                    moved: moved as u32,
                                });
                            } else {
                                // Cross-shard transfer: the popped range
                                // plus the batched extras, one packed
                                // (lo, hi) word each.
                                stats.steal_remote += 1;
                                stats.remote_words += 1 + moved as u64;
                                tbuf.record(NEventKind::StealOkRemote {
                                    victim: victim as u32,
                                    moved: moved as u32,
                                });
                            }
                            if moved > 0 {
                                // The transferred tail is stealable
                                // from our deque now — tell sleepers.
                                self.shared.ec.notify_all();
                            }
                            got = Some(first);
                            break;
                        }
                        BatchSteal::Retry => {
                            stats.retries += 1;
                            tbuf.record(NEventKind::StealRetry {
                                victim: victim as u32,
                            });
                            contended = true;
                        }
                        BatchSteal::Empty => {
                            stats.empties += 1;
                            tbuf.record(NEventKind::StealEmpty {
                                victim: victim as u32,
                            });
                        }
                    }
                }
                if let Some(r) = got {
                    if parked_episode {
                        tbuf.record(NEventKind::Unpark);
                    }
                    self.process(r, true, split, stats, tbuf);
                    continue 'run;
                }
                if contended {
                    for _ in 0..backoff {
                        std::hint::spin_loop();
                    }
                    backoff = (backoff * 2).min(1 << 10);
                    fruitless = 0;
                } else {
                    backoff = 1;
                    fruitless += 1;
                    if fruitless < SPIN_SWEEPS {
                        std::thread::yield_now();
                    } else {
                        fruitless = 0;
                        let parked = self.shared.ec.park_if(|| {
                            !self.finished() && self.shared.stealers.iter().all(|s| s.is_empty())
                        });
                        if parked && !parked_episode {
                            parked_episode = true;
                            stats.parks += 1;
                            tbuf.record(NEventKind::Park);
                        }
                    }
                }
            }
        }
        tbuf.record(NEventKind::RunEnd);
    }

    /// True when the run is over (all tasks done, aborted by a
    /// sibling's panic, or cancelled).
    fn finished(&self) -> bool {
        self.shared.remaining.load(Ordering::Acquire) == 0
            || self.shared.panicked.load(Ordering::Relaxed)
            || self.cancelled()
    }

    /// Has this run's cancel token (if any) been set?
    fn cancelled(&self) -> bool {
        self.cmd.cancel.as_ref().is_some_and(|t| t.is_cancelled())
    }

    /// Seed this worker's own deque for the run. Every worker seeds
    /// only itself, so no cross-thread deque hand-off exists; a worker
    /// that races ahead simply finds deques empty and sweeps again.
    fn seed(&self) {
        let n = self.cmd.n;
        let workers = self.shared.workers;
        match (self.cmd.mode, self.cmd.granularity) {
            // Work-pulling: everything starts on worker 0, as one
            // range (split on demand) or as per-index unit ranges.
            (Distribution::Steal, Granularity::LazySplit) => {
                if self.me == 0 {
                    self.local.push(Range32::new(0, n as u32));
                }
            }
            (Distribution::Steal, Granularity::Fixed) => {
                if self.me == 0 {
                    self.local
                        .push_iter((0..n as u32).map(|i| Range32::new(i, i + 1)));
                }
            }
            // Static pushing: each worker takes its share up front and
            // never steals.
            (Distribution::Push, Granularity::LazySplit) => {
                let (lo, hi) = block_share(n, workers, self.me);
                if lo < hi {
                    self.local.push(Range32::new(lo, hi));
                }
            }
            (Distribution::Push, Granularity::Fixed) => {
                self.local.push_iter(
                    (self.me..n as usize)
                        .step_by(workers)
                        .map(|i| Range32::new(i as u32, i as u32 + 1)),
                );
            }
        }
    }

    /// Execute a range: sequentially from the low end, splitting the
    /// upper half off whenever the local deque runs dry (thief demand).
    /// `stolen` records how the range was acquired, for the directly
    /// counted `tasks_local`/`tasks_stolen` stats.
    fn process(
        &self,
        range: Range32,
        stolen: bool,
        split: bool,
        stats: &mut WorkerStats,
        tbuf: &mut TraceBuf,
    ) {
        let mut lo = range.lo;
        let mut hi = range.hi;
        debug_assert!(lo < hi);
        tbuf.record(NEventKind::ExecStart);
        let first = lo;
        while lo < hi {
            if split && hi - lo > 1 && self.local.is_empty() {
                let mid = lo + (hi - lo) / 2;
                self.local.push(Range32::new(mid, hi));
                stats.splits += 1;
                tbuf.record(NEventKind::Split { exposed: hi - mid });
                self.shared.ec.notify_all();
                hi = mid;
            }
            (self.cmd.runner)(lo as u64);
            stats.ran += 1;
            if stolen {
                stats.stolen += 1;
            } else {
                stats.local += 1;
            }
            lo += 1;
            if self.shared.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Last task of the run: release every parked worker.
                self.shared.ec.notify_all();
            }
        }
        // The whole executed span is contiguous: splits only ever push
        // the *upper* half away, so this call ran exactly `first..lo`.
        tbuf.record(NEventKind::ExecEnd {
            count: lo - first,
            stolen,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// Jobs longer than the per-run cap (u32::MAX in production,
    /// shrunk here) run as consecutive chunks: every task exactly
    /// once, results in order, counters summed — never a silent
    /// index truncation.
    #[test]
    fn long_jobs_run_in_chunks_without_truncation() {
        for cfg in [NativeConfig::steal(3), NativeConfig::push(3)] {
            let mut pool = Pool::new(&cfg);
            pool.set_run_cap_for_tests(10);
            let out = pool.try_execute(&Squares(25)).unwrap();
            let expect: Vec<u64> = (0..25u64).map(|i| i * i).collect();
            assert_eq!(out.values, expect, "{cfg:?}");
            assert_eq!(out.stats.tasks_run, 25, "{cfg:?}");
            assert_eq!(out.stats.per_worker.iter().sum::<u64>(), 25, "{cfg:?}");
            assert_eq!(out.stats.per_worker.len(), 3, "{cfg:?}");
        }
    }

    /// Chunked runs trace like any other: one RunStart per worker per
    /// chunk, task events reconciling with the merged counters, and a
    /// single monotone time axis across chunks (they share the run's
    /// WallClock epoch).
    #[test]
    fn chunked_runs_trace_and_reconcile() {
        let mut pool = Pool::new(&NativeConfig::steal(2).with_trace());
        pool.set_run_cap_for_tests(10);
        let out = pool.try_execute(&Squares(25)).unwrap();
        assert_eq!(out.stats.tasks_run, 25);
        assert_eq!(out.trace_dropped, 0);
        let trace = out.trace.as_ref().expect("traced run returns a tracer");
        let c = rph_trace::Counters::from_tracer(trace);
        assert_eq!(c.native_tasks, 25);
        // 25 tasks / cap 10 = 3 chunks × 2 workers.
        assert_eq!(c.native_runs, 6);
        for cap in 0..2 {
            let pc = rph_trace::Counters::for_cap(trace, CapId(cap));
            assert_eq!(pc.native_tasks, out.stats.per_worker[cap as usize]);
        }
        // merged() would panic in debug if per-cap times regressed
        // across chunk boundaries; assert order explicitly anyway.
        let merged = trace.merged();
        assert!(merged.windows(2).all(|w| w[0].time <= w[1].time));
    }

    /// The PR 6 bugfix contract: a panicking job surfaces as an error
    /// on the calling thread and the *same* pool keeps serving
    /// subsequent runs on its surviving workers.
    #[test]
    fn pool_survives_a_panicking_job_and_keeps_serving() {
        struct Exploding;
        impl Job for Exploding {
            type Out = u64;
            fn len(&self) -> usize {
                16
            }
            fn run(&self, idx: usize) -> u64 {
                assert!(idx != 7, "boom");
                idx as u64
            }
        }
        let mut pool = Pool::new(&NativeConfig::steal(3));
        for round in 0..3 {
            let err = pool.try_execute(&Exploding);
            assert!(err.is_err(), "round {round}: panic must surface as Err");
            let out = pool.try_execute(&Squares(30)).unwrap();
            let expect: Vec<u64> = (0..30u64).map(|i| i * i).collect();
            assert_eq!(out.values, expect, "round {round}: pool must keep serving");
            assert_eq!(out.stats.tasks_run, 30, "round {round}");
        }
    }

    #[test]
    fn pre_cancelled_run_does_no_work() {
        let mut pool = Pool::new(&NativeConfig::steal(2));
        let token = CancelToken::new();
        token.cancel();
        let err = pool.try_execute_cancellable(&Squares(1000), &token);
        assert_eq!(err.unwrap_err(), RunError::Cancelled);
        // The pool is unaffected: a fresh token runs normally.
        let out = pool.try_execute_cancellable(&Squares(10), &CancelToken::new());
        assert_eq!(out.unwrap().stats.tasks_run, 10);
    }

    /// Cancellation is observed at range boundaries: with fixed
    /// granularity every task is its own range, so once a task sets
    /// the token, each worker finishes at most its in-flight range and
    /// stops — far short of the full job.
    #[test]
    fn cancel_mid_run_is_observed_within_a_range() {
        struct SelfCancelling {
            token: CancelToken,
            ran: AtomicU64,
        }
        impl Job for SelfCancelling {
            type Out = u64;
            fn len(&self) -> usize {
                4096
            }
            fn run(&self, idx: usize) -> u64 {
                self.ran.fetch_add(1, Ordering::Relaxed);
                // The owner pops the *top* index first (LIFO), a thief
                // steals the *bottom* index first (FIFO end) — so the
                // first task either thread executes sets the token.
                if idx == 0 || idx == 4095 {
                    self.token.cancel();
                }
                idx as u64
            }
        }
        let mut pool = Pool::new(&NativeConfig::steal(2).with_granularity(Granularity::Fixed));
        let job = SelfCancelling {
            token: CancelToken::new(),
            ran: AtomicU64::new(0),
        };
        let err = pool.try_execute_cancellable(&job, &job.token);
        assert_eq!(err.unwrap_err(), RunError::Cancelled);
        let ran = job.ran.load(Ordering::Relaxed);
        // The first executed task set the token; each worker then
        // finishes at most the range already in flight before its next
        // pop observes it. Unit ranges → a handful of tasks, tops.
        assert!(
            ran < 64,
            "cancellation not observed at range boundaries ({ran} tasks ran)"
        );
        // And the pool still serves the next run.
        let out = pool.try_execute(&Squares(12)).unwrap();
        assert_eq!(out.stats.tasks_run, 12);
    }
}
