//! Differential and reconciliation tests for the native executor's
//! wall-clock tracing layer.
//!
//! Two bookkeepings exist for every traced run: the `NativeStats`
//! counters the workers maintain directly, and the event stream each
//! worker records into its trace buffer. They are written at the same
//! program points, so they must agree *exactly* — any divergence means
//! an event was dropped, double-recorded, or mapped to the wrong
//! capability. The tests here also pin that tracing is an observer:
//! traced and untraced runs produce identical results, and identical
//! schedules wherever the schedule is deterministic.

use rph_native::{try_execute, Granularity, Job, NativeConfig};
use rph_trace::{CapId, Counters, State, Timeline};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

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

/// Tasks heavy enough (~tens of µs) that thieves land real steals,
/// splits and parks while other workers still hold work.
struct Crunch {
    tasks: usize,
    iters: u64,
}

impl Job for Crunch {
    type Out = u64;
    fn len(&self) -> usize {
        self.tasks
    }
    fn run(&self, idx: usize) -> u64 {
        let mut acc = idx as u64;
        for i in 0..self.iters {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(acc);
        idx as u64
    }
}

/// Configs whose schedule is fully deterministic: static pushing never
/// steals or parks, and a lone stealer has no victims.
fn deterministic_configs() -> Vec<NativeConfig> {
    let mut cfgs = Vec::new();
    for g in [Granularity::Fixed, Granularity::LazySplit] {
        for w in [1, 2, 4] {
            cfgs.push(NativeConfig::push(w).with_granularity(g));
        }
        cfgs.push(NativeConfig::steal(1).with_granularity(g));
    }
    cfgs
}

#[test]
fn tracing_is_a_pure_observer_results_identical() {
    let job = Squares(500);
    for base in deterministic_configs() {
        let plain = try_execute(&job, &base).unwrap();
        let traced = try_execute(&job, &base.clone().with_trace()).unwrap();
        assert_eq!(plain.values, traced.values, "{base:?}");
        // Deterministic schedule: the full counter set must match too.
        assert_eq!(plain.stats, traced.stats, "{base:?}");
        assert!(plain.trace.is_none());
        assert!(traced.trace.is_some());
        assert_eq!(traced.trace_dropped, 0, "{base:?}");
    }
    // Multi-worker stealing schedules are nondeterministic; results
    // and structural invariants must still be untouched by tracing.
    for w in [2, 4] {
        let base = NativeConfig::steal(w);
        let plain = try_execute(&job, &base).unwrap();
        let traced = try_execute(&job, &base.clone().with_trace()).unwrap();
        assert_eq!(plain.values, traced.values, "{base:?}");
        for out in [&plain, &traced] {
            assert_eq!(out.stats.tasks_run, 500);
            assert_eq!(
                out.stats.tasks_local + out.stats.tasks_stolen,
                out.stats.tasks_run
            );
            assert_eq!(out.stats.per_worker.iter().sum::<u64>(), 500);
        }
    }
}

/// Event-stream totals must equal the directly-maintained counters,
/// globally and per worker, under multi-thief stress.
#[test]
fn events_reconcile_with_counters_under_steal_stress() {
    for workers in [4usize, 8] {
        for g in [Granularity::Fixed, Granularity::LazySplit] {
            let cfg = NativeConfig::steal(workers)
                .with_granularity(g)
                .with_trace();
            let job = Crunch {
                tasks: 512,
                iters: 20_000,
            };
            let out = try_execute(&job, &cfg).unwrap();
            assert_eq!(out.values, (0..512).collect::<Vec<u64>>(), "{cfg:?}");
            assert_eq!(
                out.trace_dropped, 0,
                "{cfg:?}: buffer overflow would make totals non-exhaustive"
            );
            let trace = out.trace.as_ref().expect("traced run returns a tracer");
            assert_eq!(trace.caps(), workers);

            let c = Counters::from_tracer(trace);
            let s = &out.stats;
            assert_eq!(c.native_tasks, s.tasks_run, "{cfg:?}");
            assert_eq!(c.native_tasks_stolen, s.tasks_stolen, "{cfg:?}");
            assert_eq!(c.native_steals, s.steal_ops, "{cfg:?}");
            assert_eq!(c.native_batch_moved, s.batch_moved, "{cfg:?}");
            assert_eq!(c.native_steal_retries, s.steal_retries, "{cfg:?}");
            assert_eq!(c.native_steal_empties, s.steal_empties, "{cfg:?}");
            assert_eq!(c.native_splits, s.splits, "{cfg:?}");
            assert_eq!(c.native_parks, s.parks, "{cfg:?}");
            assert_eq!(c.native_runs, workers as u64, "{cfg:?}");

            // Per-worker attribution: each capability's executed-task
            // events must sum to that worker's per_worker count.
            for w in 0..workers {
                let pc = Counters::for_cap(trace, CapId(w as u32));
                assert_eq!(
                    pc.native_tasks, s.per_worker[w],
                    "{cfg:?}: worker {w} event total != counter"
                );
            }

            // The trace renders as a well-formed timeline with real
            // running time on it.
            let tl = Timeline::from_tracer(trace);
            assert!(tl.end_time > 0, "{cfg:?}");
            assert!(
                tl.mean_fraction(State::Running) > 0.0,
                "{cfg:?}: no running intervals in the timeline"
            );
        }
    }
}

/// One task blocks the run open; the other workers go idle for much
/// longer than the 10 ms park timeout. Each contiguous idle episode
/// must count ONE park, however many timeout wakeups it spans — the
/// pre-fix counting inflated `parks` by roughly hold-time / 10 ms.
struct OneLong {
    others_done: AtomicU64,
    hold: Duration,
}

impl Job for OneLong {
    type Out = u64;
    fn len(&self) -> usize {
        4
    }
    fn run(&self, idx: usize) -> u64 {
        if idx == 0 {
            let deadline = Instant::now() + Duration::from_secs(10);
            while self.others_done.load(Ordering::Acquire) < 2 {
                assert!(Instant::now() < deadline, "helpers never ran");
                std::hint::spin_loop();
            }
            let until = Instant::now() + self.hold;
            while Instant::now() < until {
                std::hint::spin_loop();
            }
        } else {
            self.others_done.fetch_add(1, Ordering::Release);
        }
        idx as u64
    }
}

#[test]
fn parks_count_idle_episodes_not_timeout_wakeups() {
    let workers = 4;
    let hold = Duration::from_millis(150);
    let job = OneLong {
        others_done: AtomicU64::new(0),
        hold,
    };
    let out = try_execute(&job, &NativeConfig::steal(workers).with_trace()).unwrap();
    assert_eq!(out.values, vec![0, 1, 2, 3]);
    assert!(
        out.stats.parks >= 1,
        "idle workers should park during the hold: {:?}",
        out.stats
    );
    // Three workers idle through one ~150 ms episode each; a handful
    // of extra episodes can occur around run start/steal hand-offs,
    // but timeout-recounting would push this to ~15 per idle worker.
    assert!(
        out.stats.parks <= 2 * workers as u64,
        "parks look timeout-counted, not episode-counted: {:?}",
        out.stats
    );
    // And the trace agrees with the (correct) counter.
    let trace = out.trace.as_ref().unwrap();
    let c = Counters::from_tracer(trace);
    assert_eq!(c.native_parks, out.stats.parks);
    assert!(
        c.native_unparks <= c.native_parks,
        "a worker can only unpark out of an episode it parked in: {c:?}"
    );
    assert_eq!(out.trace_dropped, 0);
}

/// A tiny trace buffer must drop (and count) events instead of
/// allocating or corrupting the stream.
#[test]
fn overflowing_trace_buffer_reports_drops() {
    let cfg = NativeConfig::steal(2).with_trace().with_trace_cap(8);
    let out = try_execute(&Squares(500), &cfg).unwrap();
    assert_eq!(out.values.len(), 500);
    assert!(
        out.trace_dropped > 0,
        "an 8-event buffer cannot hold a 500-task run's events"
    );
    // What *was* recorded still maps into a valid tracer.
    let trace = out.trace.as_ref().unwrap();
    assert!(trace.caps() == 2);
}
