//! The Eden backend spawns its PEs once per server, not once per
//! batch: while a 2k-job closed-loop run goes through an Eden server,
//! a sampler thread records every thread id that appears in
//! `/proc/self/task`. Only the dispatcher and the `workers` PEs may
//! ever be new; spawning PEs per batch would show hundreds.
//!
//! The check reads the process's thread list, so this file holds a
//! single test: no other test may start threads in the same process.

#![cfg(target_os = "linux")]

use rph_native::{BackendKind, NativeConfig};
use rph_server::{JobClass, JobStatus, Server, ServerConfig};
use std::collections::{BTreeSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const WORKERS: usize = 2;
const JOBS: usize = 2_000;
/// Jobs kept outstanding, so batches stay small and many.
const WINDOW: usize = 8;

fn tids() -> BTreeSet<u64> {
    std::fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        .filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
        .collect()
}

#[test]
fn eden_server_spawns_its_pes_once() {
    let stop = Arc::new(AtomicBool::new(false));
    let seen = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut seen = BTreeSet::new();
            while !stop.load(Ordering::Relaxed) {
                seen.extend(tids());
            }
            seen
        })
    };
    // Taken after the sampler started, so its own id is in the
    // baseline.
    let before = tids();

    let native = NativeConfig::new(WORKERS).with_backend(BackendKind::Eden);
    let server = Server::start(ServerConfig::new(native));
    let class = JobClass::Spin {
        units: 3,
        iters: 200,
    };
    let want = class.expected();
    let mut window = VecDeque::new();
    for _ in 0..JOBS {
        if window.len() == WINDOW {
            let h: rph_server::JobHandle = window.pop_front().unwrap();
            let out = h.wait();
            assert_eq!(out.status, JobStatus::Done);
            assert_eq!(Some(out.value), want);
        }
        window.push_back(server.submit(0, class).expect("accepted"));
    }
    for h in window {
        assert_eq!(h.wait().status, JobStatus::Done);
    }
    let report = server.shutdown();
    assert_eq!(report.stats.done, JOBS as u64);
    assert!(
        report.stats.batches >= 100,
        "too few batches ({}) to tell per-batch spawning apart",
        report.stats.batches
    );

    stop.store(true, Ordering::Relaxed);
    let seen = seen.join().expect("sampler");
    let new: Vec<u64> = seen.difference(&before).copied().collect();
    assert!(
        new.len() <= WORKERS + 1,
        "{} new threads over {} batches; expected at most the dispatcher and {WORKERS} PEs: {new:?}",
        new.len(),
        report.stats.batches
    );
}
