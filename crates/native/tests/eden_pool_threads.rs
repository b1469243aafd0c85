//! An [`EdenPool`] owns exactly its PE threads: its first run spawns
//! them, later runs reuse them, they survive panicking PE programs,
//! and they are all gone once the pool is dropped. One-shot skeleton
//! calls leave no thread behind either, and an empty run spawns none.
//!
//! The check counts the entries of `/proc/self/task`, so this file
//! holds a single test: no other test may start or stop threads in
//! the same process while it counts.

#![cfg(target_os = "linux")]

use rph_native::{try_par_map, EdenPool, Job, NativeConfig, Skeleton};
use std::time::{Duration, Instant};

struct Squares(usize);

impl Job for Squares {
    type Out = i64;
    fn len(&self) -> usize {
        self.0
    }
    fn run(&self, idx: usize) -> i64 {
        (idx as i64) * (idx as i64)
    }
}

/// Task 5 panics, killing the PE that runs it.
struct Exploding;

impl Job for Exploding {
    type Out = i64;
    fn len(&self) -> usize {
        8
    }
    fn run(&self, idx: usize) -> i64 {
        assert!(idx != 5, "boom");
        idx as i64
    }
}

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        .count()
}

/// Wait until the thread count is `want`. A joined thread can linger
/// in `/proc` for a moment after its join returns, so allow a short
/// grace period before failing.
fn settle_at(want: usize, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while threads() != want {
        assert!(
            Instant::now() < deadline,
            "{what}: {} threads, expected {want}",
            threads()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn eden_pool_threads_are_spawned_once_and_joined_on_drop() {
    let start = threads();
    let expected: Vec<i64> = (0..200).map(|i| i * i).collect();
    let cfg = NativeConfig::new(4);

    let mut pool = EdenPool::new(&cfg);
    assert!(pool.try_par_map(&Squares(0)).unwrap().values.is_empty());
    assert_eq!(threads(), start, "an empty run reaches no PE");
    assert_eq!(pool.try_par_map(&Squares(200)).unwrap().values, expected);
    assert_eq!(
        threads(),
        start + 4,
        "the first run spawns one thread per PE"
    );
    for round in 0..20 {
        let out = pool.try_par_map(&Squares(200)).unwrap();
        assert_eq!(out.values, expected, "round {round}");
        let out = Skeleton::MasterWorker { prefetch: 2 }
            .try_run_on(&mut pool, &Squares(200))
            .unwrap();
        assert_eq!(out.values, expected, "round {round}");
        let err = pool.try_par_map(&Exploding).unwrap_err();
        assert_eq!(err.dead_pes, vec![1], "round {round}");
        assert_eq!(threads(), start + 4, "round {round}: no spawn per run");
    }
    drop(pool);
    settle_at(start, "after dropping the pool");

    assert!(try_par_map(&Squares(0), &cfg).unwrap().values.is_empty());
    assert_eq!(threads(), start, "an empty one-shot run spawns nothing");
    for _ in 0..20 {
        let out = try_par_map(&Squares(200), &cfg).unwrap();
        assert_eq!(out.values, expected);
    }
    settle_at(start, "after one-shot runs");
}
