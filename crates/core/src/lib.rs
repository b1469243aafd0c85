//! # rph-core — parallel Haskell runtimes in Rust, unified
//!
//! The facade crate of the reproduction of Berthold, Marlow, Hammond &
//! Al Zain, *Comparing and Optimising Parallel Haskell Implementations
//! for Multicore Machines* (ICPP 2009). It re-exports the layered
//! system under stable names and adds the comparison utilities the
//! benchmark harness is built on.
//!
//! ## The stack
//!
//! | layer | crate | contents |
//! |---|---|---|
//! | tracing | [`trace`] | events, activity timelines, ASCII "EdenTV" rendering |
//! | data structures | [`deque`] | Chase–Lev lock-free deque + deterministic variant |
//! | heap | [`heap`] | arena graph heap, black holes, mark–sweep GC, allocation areas |
//! | evaluator | [`machine`] | lazy core language + explicit-state abstract machine |
//! | simulation | [`sim`] | virtual clocks, cost model, OS/core model, deterministic RNG |
//! | shared heap | [`gph`] | GpH runtime: capabilities, sparks, stop-the-world GC barrier |
//! | distributed heap | [`eden`] | Eden runtime: PEs, channels, streams, skeletons |
//! | real threads | [`native`] | wall-clock executors: Chase–Lev work stealing *and* Eden-style message passing |
//!
//! ## Simulated vs native Eden
//!
//! Both model the paper's distributed heap — PEs with private memory,
//! communicating fully-evaluated data over channels — one in virtual
//! time, one on OS threads. The APIs correspond piecewise:
//!
//! | concept | simulator ([`eden`]) | native ([`native`]) |
//! |---|---|---|
//! | configuration | `EdenConfig::new(pes)` | `NativeConfig::new(workers).with_backend(BackendKind::Eden)` |
//! | run entry | `EdenRuntime::run*` / `rph_workloads::*::run_eden` | `rph_workloads::NativeWorkload::run_on` |
//! | static farm | `parMap` process instantiation | [`native::try_par_map`] |
//! | demand-driven farm | `run_eden_master_worker` | [`native::try_master_worker`] (`Skeleton::MasterWorker`) |
//! | wavefront ring | `ring` skeleton (APSP) | [`native::try_ring`] + [`native::RingJob`] |
//! | message framing | `Packet` (virtual words) | [`native::Packet`] + [`native::Wordsize`] |
//! | channel capacity | stream/buffer model | `NativeConfig::with_chan_cap` |
//! | counters | `EdenStats` (messages, words) | `NativeStats` (`msgs_sent`, `words_sent`, block counts) |
//! | timeline | virtual-time `Tracer` | wall-clock `Tracer` (+ master row `CapId(workers)`) |
//!
//! ## Quick start
//!
//! ```
//! use rph_core::machine::prelude;
//! use rph_core::machine::{ir::*, ProgramBuilder};
//! use rph_core::gph::{GphConfig, GphRuntime};
//!
//! // sum (map inc [1..100]), sparking every element.
//! let mut b = ProgramBuilder::new();
//! let pre = prelude::install(&mut b);
//! let main = b.def(
//!     "main",
//!     1,
//!     let_(
//!         vec![
//!             pap(pre.inc, vec![]),
//!             thunk(pre.enum_from_to, vec![int(1), v(0)]),
//!             thunk(pre.map, vec![v(1), v(2)]),
//!             thunk(pre.spark_list, vec![v(3)]),
//!         ],
//!         seq(atom(v(4)), app(pre.sum, vec![v(3)])),
//!     ),
//! );
//! let program = b.build();
//!
//! let mut rt = GphRuntime::new(program, GphConfig::ghc69_plain(4).with_work_stealing());
//! let out = rt
//!     .run(|heap| {
//!         let n = heap.int(100);
//!         heap.alloc_thunk(main, vec![n])
//!     })
//!     .unwrap();
//! assert_eq!(rt.heap().expect_value(out.result).expect_int(), 5150);
//! ```

pub use rph_deque as deque;
pub use rph_eden as eden;
pub use rph_gph as gph;
pub use rph_heap as heap;
pub use rph_machine as machine;
pub use rph_native as native;
pub use rph_sim as sim;
pub use rph_trace as trace;

pub mod compare;
pub mod table;

/// Convenient single import for applications.
pub mod prelude {
    pub use crate::compare::{relative_speedup, SpeedupSeries};
    pub use crate::table::TextTable;
    pub use rph_eden::{EdenConfig, EdenRuntime};
    pub use rph_gph::{BlackHoling, GphConfig, GphRuntime, SparkExec, SparkPolicy};
    pub use rph_heap::{Heap, NodeRef, ScId, Value};
    pub use rph_machine::{ir, prelude as hs_prelude, Program, ProgramBuilder};
    pub use rph_native::{
        try_execute, try_master_worker, try_par_map, try_ring, BackendKind, Distribution,
        Granularity, NativeConfig, Packet, Pool, RingJob, Skeleton, StealPolicy, Wordsize,
    };
    pub use rph_trace::{render_timeline, RenderOptions, Timeline, TraceStats, Tracer};
}
