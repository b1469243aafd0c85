//! The native Eden backend's run harness: per-PE endpoints, channel
//! bookkeeping, the one PE spawn site ([`run_pes`]) and outcome
//! assembly. Every skeleton in [`crate::skeletons`] is a composition
//! over [`run_pes`]: its own channel wiring, its PE program and (for
//! the demand-driven farm alone) a master program.
//!
//! The execution model is Eden's §II picture on real threads:
//!
//! * One OS thread per PE. Each PE's working memory — its task
//!   results, its ring rows — lives in locals **owned by that
//!   thread**; there is no shared result heap during compute. The
//!   only cross-thread traffic is fully-evaluated [`Packet`]s over
//!   the bounded channels of [`crate::channel`], so the paper's
//!   "communicate only WHNF data" invariant holds *by construction*:
//!   a value must be finished before it can be framed and sent.
//! * The calling thread acts as the **master** PE: it instantiates
//!   the ring/farm, feeds tasks (master–worker), and collects result
//!   packets into task order. On trace renders it appears as the last
//!   row (`CapId(workers)`), so a timeline shows `workers + 1` rows.
//! * Every thread owns an [`Endpoint`]: the same pre-allocated
//!   [`TraceBuf`] the pool workers use, plus message counters. A
//!   channel operation that cannot complete immediately records a
//!   block event *before* sleeping and an unblock after — so the
//!   timeline shows red (Blocked) exactly while a PE sat in
//!   back-pressure or starved for input, mirroring what EdenTV shows
//!   for `waitForSpace`/`waitForData` in the paper's Fig. 4.

use crate::channel::{bounded_with_notify, Packet, Receiver, Sender, TrySendError};
use crate::error::EdenIncomplete;
use crate::executor::{NativeConfig, NativeOutcome, NativeStats};
use crate::park::EventCount;
use crate::trace::{map_events, NEvent, NEventKind, TraceBuf};
use rph_trace::{CapId, Tracer, WallClock};
use std::sync::Arc;
use std::time::Duration;

/// Message counters one endpoint (PE or master) maintains about
/// itself; summed into [`NativeStats`] at assembly.
#[derive(Debug, Default, Clone)]
pub(crate) struct PeStats {
    /// Tasks (or row updates) this PE executed.
    pub ran: u64,
    pub msgs_sent: u64,
    pub msgs_recv: u64,
    pub words_sent: u64,
    /// The subset of `words_sent` whose packets crossed a shard
    /// boundary (the master counts as shard 0 — it runs on the
    /// caller's thread). Zero on a flat (single-shard) run.
    pub remote_words: u64,
    pub send_blocks: u64,
    pub recv_blocks: u64,
}

/// One thread's recording context: trace buffer plus counters, with
/// channel helpers that keep the two consistent.
pub(crate) struct Endpoint {
    pub tbuf: TraceBuf,
    pub stats: PeStats,
    /// This endpoint's PE id (`workers` for the master).
    me: u32,
    /// PEs per shard under the configured topology; `workers` when
    /// the run is flat, so every packet is shard-local.
    per_shard: u32,
    workers: u32,
}

impl Endpoint {
    pub fn new(cfg: &NativeConfig, clock: WallClock, me: u32) -> Self {
        let mut tbuf = TraceBuf::new(cfg.trace, cfg.trace_cap);
        tbuf.begin_run(clock);
        let workers = cfg.workers.max(1);
        Endpoint {
            tbuf,
            stats: PeStats::default(),
            me,
            per_shard: (workers / cfg.shards.max(1)) as u32,
            workers: workers as u32,
        }
    }

    /// Which shard `id` lives in. The master (`id == workers`) runs on
    /// the caller's thread and counts as shard 0, so farm traffic to
    /// and from PEs outside shard 0 is inter-shard.
    fn shard_of(&self, id: u32) -> u32 {
        if id >= self.workers {
            0
        } else {
            id / self.per_shard
        }
    }

    /// The master's PE id (it sits after the last worker PE).
    pub fn master(&self) -> u32 {
        self.workers
    }

    /// Run `work` as one execution episode of `count` tasks, recorded
    /// as an `ExecStart`/`ExecEnd` pair.
    pub fn exec<R>(&mut self, count: usize, work: impl FnOnce() -> R) -> R {
        self.tbuf.record(NEventKind::ExecStart);
        let out = work();
        self.stats.ran += count as u64;
        self.tbuf.record(NEventKind::ExecEnd {
            count: count as u32,
            stolen: false,
        });
        out
    }

    /// Book-keep a packet that was (already) delivered to PE `to`.
    pub fn note_sent(&mut self, to: u32, words: u64, tag: &'static str) {
        self.stats.msgs_sent += 1;
        self.stats.words_sent += words;
        if self.shard_of(to) != self.shard_of(self.me) {
            self.stats.remote_words += words;
        }
        self.tbuf.record(NEventKind::MsgSend { to, words, tag });
    }

    /// Book-keep a packet received from PE `from`.
    pub fn note_recv(&mut self, from: u32, words: u64, tag: &'static str) {
        self.stats.msgs_recv += 1;
        self.tbuf.record(NEventKind::MsgRecv { from, words, tag });
    }

    /// Send `pkt` to PE `to`, blocking under back-pressure (recorded
    /// as a `BlockSend` episode). Returns false if the receiving end
    /// is gone — which means the peer panicked; callers stop sending
    /// and let the join report the dead PE.
    pub fn send<T>(
        &mut self,
        tx: &Sender<Packet<T>>,
        to: u32,
        tag: &'static str,
        pkt: Packet<T>,
    ) -> bool {
        let words = pkt.words;
        let pkt = match tx.try_send(pkt) {
            Ok(()) => {
                self.note_sent(to, words, tag);
                return true;
            }
            Err(TrySendError::Disconnected(_)) => return false,
            Err(TrySendError::Full(p)) => p,
        };
        self.stats.send_blocks += 1;
        self.tbuf.record(NEventKind::BlockSend { to });
        let ok = tx.send(pkt).is_ok();
        self.tbuf.record(NEventKind::Unblock);
        if ok {
            self.note_sent(to, words, tag);
        }
        ok
    }

    /// Receive the next packet from PE `from`, blocking on an empty
    /// channel (recorded as a `BlockRecv` episode). `None` is end of
    /// stream.
    pub fn recv<T>(
        &mut self,
        rx: &Receiver<Packet<T>>,
        from: u32,
        tag: &'static str,
    ) -> Option<Packet<T>> {
        let pkt = match rx.try_recv() {
            Some(p) => p,
            None => {
                // Empty. If the stream also ended this recv returns
                // immediately — only count a block when we will
                // actually wait for a producer.
                let ended = rx.poll_ready();
                if !ended {
                    self.stats.recv_blocks += 1;
                    self.tbuf.record(NEventKind::BlockRecv { from });
                }
                let p = rx.recv();
                if !ended {
                    self.tbuf.record(NEventKind::Unblock);
                }
                p?
            }
        };
        self.note_recv(from, pkt.words, tag);
        Some(pkt)
    }

    /// Flush this endpoint's records for assembly.
    pub fn finish(mut self) -> PeReport {
        let mut events = Vec::new();
        let dropped = self.tbuf.flush_into(&mut events);
        PeReport {
            stats: self.stats,
            events,
            dropped,
        }
    }
}

/// What one endpoint contributes to the run outcome.
#[derive(Default)]
pub(crate) struct PeReport {
    pub stats: PeStats,
    pub events: Vec<NEvent>,
    pub dropped: u64,
}

/// Fold per-PE reports (+ the master's) into the same
/// [`NativeOutcome`] shape the steal backend produces. Tracer rows
/// `0..workers` are the PEs, row `workers` is the master; `per_worker`
/// covers the PEs only (the master runs no tasks). All tasks are
/// "local" — there is no stealing to attribute against.
fn assemble<T>(
    cfg: &NativeConfig,
    values: Vec<T>,
    wall: Duration,
    pe_reports: Vec<PeReport>,
    master: PeReport,
) -> NativeOutcome<T> {
    let workers = pe_reports.len();
    let mut stats = NativeStats {
        per_worker: pe_reports.iter().map(|r| r.stats.ran).collect(),
        ..NativeStats::default()
    };
    stats.tasks_run = stats.per_worker.iter().sum();
    stats.tasks_local = stats.tasks_run;
    let mut trace_dropped = 0;
    for rep in pe_reports.iter().chain(std::iter::once(&master)) {
        stats.msgs_sent += rep.stats.msgs_sent;
        stats.msgs_recv += rep.stats.msgs_recv;
        stats.words_sent += rep.stats.words_sent;
        stats.remote_words += rep.stats.remote_words;
        stats.send_blocks += rep.stats.send_blocks;
        stats.recv_blocks += rep.stats.recv_blocks;
        trace_dropped += rep.dropped;
    }
    let trace = if cfg.trace {
        let mut tracer = Tracer::new(workers + 1);
        for (w, rep) in pe_reports.iter().enumerate() {
            map_events(&mut tracer, CapId(w as u32), &rep.events);
        }
        map_events(&mut tracer, CapId(workers as u32), &master.events);
        Some(tracer)
    } else {
        None
    };
    NativeOutcome {
        values,
        wall,
        stats,
        trace,
        trace_dropped,
    }
}

/// An Eden run with nothing to do: `workers` idle PEs, zero messages.
fn empty_outcome<T>(cfg: &NativeConfig) -> NativeOutcome<T> {
    let workers = cfg.workers.max(1);
    NativeOutcome {
        values: Vec::new(),
        wall: Duration::ZERO,
        stats: NativeStats {
            per_worker: vec![0; workers],
            ..NativeStats::default()
        },
        trace: cfg.trace.then(|| Tracer::new(workers + 1)),
        trace_dropped: 0,
    }
}

/// The master's collection loop, multiplexed over every PE's result
/// channel (all built with `ec` as their notify hook): drain whatever
/// is ready, invoke `on_packet` per packet, and park on the
/// eventcount — recorded as a `BlockRecvAny` episode — while nothing
/// is ready. Returns when every channel has closed and drained, i.e.
/// when every PE has shut down its producing end.
///
/// Draining round-robin instead of channel-by-channel matters: a
/// master that sat on PE 0's stream until it closed would leave every
/// other PE parked in back-pressure once its buffer filled,
/// serialising the farm.
fn drain_results<T>(
    master: &mut Endpoint,
    ec: &EventCount,
    rxs: &[Receiver<Packet<T>>],
    mut on_packet: impl FnMut(&mut Endpoint, usize, Packet<T>),
) {
    let mut open = vec![true; rxs.len()];
    loop {
        let mut progress = false;
        for (w, rx) in rxs.iter().enumerate() {
            if !open[w] {
                continue;
            }
            // Read the close flag *before* draining: a true reading
            // means the drain below is exhaustive.
            let closed = rx.is_closed();
            while let Some(pkt) = rx.try_recv() {
                progress = true;
                on_packet(master, w, pkt);
            }
            if closed {
                open[w] = false;
                progress = true;
            }
        }
        if open.iter().all(|o| !o) {
            return;
        }
        if !progress {
            master.stats.recv_blocks += 1;
            master.tbuf.record(NEventKind::BlockRecvAny);
            ec.park_if(|| !rxs.iter().zip(&open).any(|(rx, o)| *o && rx.poll_ready()));
            master.tbuf.record(NEventKind::Unblock);
        }
    }
}

/// Final assembly step of [`run_pes`]: a clean run (no dead PEs, no
/// result holes) becomes a [`NativeOutcome`]; any loss becomes the
/// typed [`EdenIncomplete`] error naming the dead PEs and the indices
/// of every hole — a hole means a PE died before producing that
/// result packet.
fn finish_run<T>(
    cfg: &NativeConfig,
    slots: Vec<Option<T>>,
    wall: Duration,
    pe_reports: Vec<PeReport>,
    dead_pes: Vec<u32>,
    master: PeReport,
) -> Result<NativeOutcome<T>, EdenIncomplete> {
    let missing: Vec<u32> = (0..slots.len() as u32)
        .filter(|&i| slots[i as usize].is_none())
        .collect();
    // A PE that died after delivering all its results still fails the
    // run: the death was a task panic and callers must see it.
    if !missing.is_empty() || !dead_pes.is_empty() {
        return Err(EdenIncomplete { dead_pes, missing });
    }
    let values = slots.into_iter().flatten().collect();
    Ok(assemble(cfg, values, wall, pe_reports, master))
}

/// Join the PE threads, swallowing (already-hooked) panics: a dead
/// PE contributes an empty report and its id to the returned list,
/// so the caller can surface a typed error instead of unwinding.
fn try_join_all(
    handles: Vec<std::thread::ScopedJoinHandle<'_, PeReport>>,
) -> (Vec<PeReport>, Vec<u32>) {
    let mut dead = Vec::new();
    let reports = handles
        .into_iter()
        .enumerate()
        .map(|(w, h)| {
            h.join().unwrap_or_else(|_| {
                dead.push(w as u32);
                PeReport::default()
            })
        })
        .collect();
    (reports, dead)
}

/// The master program of a skeleton whose master only collects.
pub(crate) fn collect_only(_: &mut Endpoint) -> impl FnMut(&mut Endpoint, usize) {
    |_, _| {}
}

/// Run one Eden skeleton: the one place native PE threads are spawned.
///
/// One scoped thread per element of `ctxs` runs `pe(endpoint, w,
/// ctx, results)`, where `ctx` holds PE `w`'s private channel ends
/// and `results` is its stream to the master; the harness records
/// the PE's `RunEnd` after `pe` returns (the PE records its own
/// `RunStart`). Meanwhile the caller's thread is the master: it
/// records `RunStart { tasks }`, calls `master` once to prime the run
/// and gets back a hook invoked with `(endpoint, w)` after each
/// result packet from PE `w` lands in its slot. Every packet is
/// tagged `tag` and indexes one of `slots` result slots, each filled
/// exactly once. When every result stream has closed, the hook is
/// dropped (closing any channel it owns), the PEs are joined and the
/// slots become the outcome — or an [`EdenIncomplete`] naming the
/// dead PEs and the unfilled slots. `tasks == 0` is the empty run.
pub(crate) fn run_pes<T, C, P, M, H>(
    cfg: &NativeConfig,
    tasks: usize,
    slots: usize,
    tag: &'static str,
    ctxs: Vec<C>,
    pe: P,
    master: M,
) -> Result<NativeOutcome<T>, EdenIncomplete>
where
    T: Send,
    C: Send,
    P: Fn(&mut Endpoint, usize, C, &Sender<Packet<T>>) + Sync,
    M: FnOnce(&mut Endpoint) -> H,
    H: FnMut(&mut Endpoint, usize),
{
    if tasks == 0 {
        return Ok(empty_outcome(cfg));
    }
    let workers = cfg.workers.max(1);
    debug_assert_eq!(ctxs.len(), workers, "one context per PE");
    let clock = WallClock::start();
    let ec = Arc::new(EventCount::new());
    let (txs, rxs): (Vec<_>, Vec<_>) = (0..workers)
        .map(|_| bounded_with_notify(cfg.chan_cap, Some(Arc::clone(&ec))))
        .unzip();
    let pe = &pe;
    let (slots, pe_reports, dead_pes, master_report) = std::thread::scope(|s| {
        let handles: Vec<_> = ctxs
            .into_iter()
            .zip(txs)
            .enumerate()
            .map(|(w, (ctx, tx))| {
                s.spawn(move || {
                    let mut ep = Endpoint::new(cfg, clock, w as u32);
                    pe(&mut ep, w, ctx, &tx);
                    ep.tbuf.record(NEventKind::RunEnd);
                    ep.finish()
                })
            })
            .collect();

        let mut ep = Endpoint::new(cfg, clock, workers as u32);
        ep.tbuf.record(NEventKind::RunStart {
            tasks: tasks as u64,
        });
        let mut slots: Vec<Option<T>> = (0..slots).map(|_| None).collect();
        let mut on_result = master(&mut ep);
        drain_results(&mut ep, &ec, &rxs, |ep, w, pkt| {
            ep.note_recv(w as u32, pkt.words, tag);
            let prev = slots[pkt.idx as usize].replace(pkt.payload);
            assert!(prev.is_none(), "result {} delivered twice", pkt.idx);
            on_result(ep, w);
        });
        ep.tbuf.record(NEventKind::RunEnd);
        drop(on_result);
        let (reports, dead) = try_join_all(handles);
        (slots, reports, dead, ep.finish())
    });
    let wall = clock.epoch().elapsed();
    finish_run(cfg, slots, wall, pe_reports, dead_pes, master_report)
}
