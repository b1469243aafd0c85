//! The native Eden backend's algorithmic skeletons.
//!
//! Eden programs are written against skeletons — higher-order process
//! schemes. The paper's workloads use five shapes, all implemented
//! here on real threads over the bounded channels of
//! [`crate::channel`]:
//!
//! * [`try_par_map`] — the static farm: task `i` is assigned to PE
//!   `i mod workers` up front, each PE streams its result packets back
//!   to the master. Right for regular work (sumEuler chunks, matMul
//!   blocks) where a static deal is already balanced.
//! * [`try_master_worker`] — the demand-driven farm (the paper's
//!   answer to irregular tasks like nqueens): the master keeps
//!   `prefetch` task packets in flight per worker and hands out the
//!   next task only when a result comes back, so fast workers get
//!   more tasks.
//! * [`try_ring`] — PEs own contiguous blocks of items and pass a
//!   pivot packet around the ring once per wave (APSP's
//!   Floyd–Warshall rounds, the paper's §III.D ring skeleton).
//! * [`try_par_map_reduce`] — the static farm folding as it goes: one
//!   partial packet per PE.
//! * [`try_exchange`] — bulk-synchronous all-to-all batches between
//!   PEs that own data partitions (episim's rounds).
//!
//! Each skeleton is only what is specific to it — its channel wiring,
//! its PE program and, for the demand-driven farm, a master program —
//! composed over the one harness `eden::run_pes`, which spawns the
//! PEs, collects result packets on the calling (master) thread and
//! assembles the same [`NativeOutcome`] the steal backend produces:
//! values in task order, wall time, counters, and (when tracing) one
//! [`rph_trace::Tracer`] row per PE plus one for the master.
//!
//! Failure behaviour: a panicking PE drops its channel endpoints,
//! which unblocks its peers (their sends/recvs observe the close) and
//! lets the master's drain terminate. Every skeleton then reports a
//! typed [`EdenIncomplete`] naming the dead PEs and the indices whose
//! results were lost; none of them unwinds into the caller.

use crate::channel::{bounded, bounded_with_notify, Packet, Receiver, Sender, Wordsize};
use crate::eden::{collect_only, run_pes, Endpoint};
use crate::error::EdenIncomplete;
use crate::executor::{Job, NativeConfig, NativeOutcome};
use crate::park::EventCount;
use crate::pool::block_share;
use crate::trace::NEventKind;
use std::sync::Arc;

/// Which farm skeleton a flat [`Job`] should run under on the Eden
/// backend. (The ring skeleton is not a farm — it needs the richer
/// [`RingJob`] shape — so it is not representable here.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Skeleton {
    /// Static farm: [`try_par_map`].
    ParMap,
    /// Demand-driven farm with the given per-worker prefetch depth:
    /// [`try_master_worker`].
    MasterWorker {
        /// Task packets kept in flight per worker (clamped to ≥ 1).
        prefetch: usize,
    },
}

impl Skeleton {
    /// Run `job` under this skeleton, reporting a dead PE as a typed
    /// [`EdenIncomplete`].
    pub fn try_run<J>(
        self,
        job: &J,
        cfg: &NativeConfig,
    ) -> Result<NativeOutcome<J::Out>, EdenIncomplete>
    where
        J: Job,
        J::Out: Wordsize,
    {
        match self {
            Skeleton::ParMap => try_par_map(job, cfg),
            Skeleton::MasterWorker { prefetch } => try_master_worker(job, cfg, prefetch),
        }
    }
}

/// Static farm: task `i` runs on PE `i mod workers`; every PE streams
/// `(index, value)` result packets to the master, which collects them
/// into task order. A dead PE is reported as [`EdenIncomplete`].
pub fn try_par_map<J>(job: &J, cfg: &NativeConfig) -> Result<NativeOutcome<J::Out>, EdenIncomplete>
where
    J: Job,
    J::Out: Wordsize,
{
    let workers = cfg.workers.max(1);
    let shards = cfg.shards.max(1);
    let per_shard = workers / shards;
    let n = job.len();
    let pe = |ep: &mut Endpoint, w: usize, (), res: &Sender<_>| {
        // Shard-aware static deal: task `i` lands on PE `(i mod
        // shards)·per_shard + (i/shards mod per_shard)` — round-robin
        // across shards first, then within the shard, so a short job
        // still spreads over every shard. PE `w = s·per_shard+j`
        // therefore owns `i = shards·j + s + k·workers`. With one
        // shard this is exactly `i mod workers`.
        let first = shards * (w % per_shard) + w / per_shard;
        let mine = n.saturating_sub(first).div_ceil(workers) as u64;
        ep.tbuf.record(NEventKind::RunStart { tasks: mine });
        for idx in (first..n).step_by(workers) {
            let out = ep.exec(1, || job.run(idx));
            if !ep.send(res, ep.master(), "result", Packet::new(idx as u32, out)) {
                break; // master gone: unwinding already
            }
        }
    };
    run_pes(cfg, n, n, "result", vec![(); workers], pe, collect_only)
}

/// Demand-driven farm: the master primes each worker with `prefetch`
/// task packets, then releases one new task per result received —
/// irregular tasks (nqueens subtrees) flow to whoever is free. With
/// fewer tasks than PEs the surplus workers receive an immediately
/// closed task stream and exit without deadlocking. Tasks already
/// handed to a PE that dies are lost (their indices land in
/// [`EdenIncomplete::missing`]), while the remaining tasks keep
/// flowing to the surviving PEs.
pub fn try_master_worker<J>(
    job: &J,
    cfg: &NativeConfig,
    prefetch: usize,
) -> Result<NativeOutcome<J::Out>, EdenIncomplete>
where
    J: Job,
    J::Out: Wordsize,
{
    let workers = cfg.workers.max(1);
    let n = job.len();
    let prefetch = prefetch.max(1);
    // Task channel depth = prefetch: the master never sends more than
    // `prefetch` undelivered tasks, so it never blocks here.
    let (task_txs, task_rxs): (Vec<_>, Vec<_>) = (0..workers)
        .map(|_| {
            let (tx, rx) = bounded(prefetch);
            (Some(tx), rx)
        })
        .unzip();

    let pe = |ep: &mut Endpoint, _: usize, task_rx: Receiver<Packet<()>>, res: &Sender<_>| {
        ep.tbuf.record(NEventKind::RunStart { tasks: 0 });
        while let Some(pkt) = ep.recv(&task_rx, ep.master(), "task") {
            let out = ep.exec(1, || job.run(pkt.idx as usize));
            if !ep.send(res, ep.master(), "result", Packet::new(pkt.idx, out)) {
                break;
            }
        }
    };

    /// The master's task dispenser: hands out task indices in order
    /// and closes each worker's stream once nothing is left for it.
    struct Feeder {
        txs: Vec<Option<Sender<Packet<()>>>>,
        outstanding: Vec<usize>,
        next: usize,
        n: usize,
    }
    impl Feeder {
        /// Hand the next task to worker `w` (no-op if its stream is
        /// already closed, e.g. because the worker died).
        fn feed(&mut self, master: &mut Endpoint, w: usize) {
            if let Some(tx) = &self.txs[w] {
                if master.send(tx, w as u32, "task", Packet::new(self.next as u32, ())) {
                    self.outstanding[w] += 1;
                    self.next += 1;
                } else {
                    self.txs[w] = None;
                }
            }
        }
    }
    let master = |ep: &mut Endpoint| {
        let mut f = Feeder {
            txs: task_txs,
            outstanding: vec![0; workers],
            next: 0,
            n,
        };
        // Prime every worker, round-robin so a tiny task bag still
        // spreads across PEs; then close streams that got nothing.
        'prime: for _ in 0..prefetch {
            for w in 0..workers {
                if f.next >= n {
                    break 'prime;
                }
                f.feed(ep, w);
            }
        }
        for w in 0..workers {
            if f.next >= n && f.outstanding[w] == 0 {
                f.txs[w] = None;
            }
        }
        move |ep: &mut Endpoint, w: usize| {
            f.outstanding[w] -= 1;
            if f.next < f.n {
                f.feed(ep, w);
            } else if f.outstanding[w] == 0 {
                f.txs[w] = None;
            }
        }
    };
    run_pes(cfg, n, n, "result", task_rxs, pe, master)
}

/// A wave-structured computation for the [`try_ring`] skeleton: `len`
/// items evolve over `len` waves; wave `k`'s update of every item
/// depends only on the item itself and item `k`'s pre-wave state (the
/// pivot), which the owner broadcasts around the ring.
pub trait RingJob: Sync {
    /// One item's fully-evaluated state (a matrix row, for APSP).
    type Item: Send + Clone + Wordsize;

    /// Number of items — and of waves.
    fn len(&self) -> usize;

    /// True when there is nothing to do.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Item `idx`'s initial state.
    fn init(&self, idx: usize) -> Self::Item;

    /// Item `idx`'s next state given wave `k`'s pivot. Not called for
    /// `idx == k` — the pivot item is carried over unchanged (the
    /// Floyd–Warshall self-update is the identity).
    fn step(&self, item: &Self::Item, idx: usize, pivot: &Self::Item, k: usize) -> Self::Item;
}

/// Ring skeleton: PE `w` owns the contiguous item block
/// `block_share(len, workers, w)` as private memory for the whole
/// run. At wave `k` the owner of item `k` clones its current state as
/// the pivot and sends it to its ring successor; every other PE
/// receives the pivot from its predecessor, forwards it (unless the
/// successor is the owner, which already has it) and updates its
/// block. After the last wave each PE streams its block back to the
/// master. One pivot thus crosses each ring edge at most once per
/// wave — `workers - 1` sends per wave, never `workers²`. A dying PE
/// severs the ring, so its neighbours' waves cannot complete either:
/// expect an [`EdenIncomplete`] cascade where several (often all) PEs
/// land in [`EdenIncomplete::dead_pes`].
pub fn try_ring<R: RingJob>(
    job: &R,
    cfg: &NativeConfig,
) -> Result<NativeOutcome<R::Item>, EdenIncomplete> {
    let workers = cfg.workers.max(1);
    let n = job.len();
    // owner[k] = PE whose block contains item k, under the same block
    // partition the PEs themselves compute.
    let mut owner = vec![0u32; n];
    for w in 0..workers {
        let (lo, hi) = block_share(n as u64, workers, w);
        owner[lo as usize..hi as usize].fill(w as u32);
    }
    // Ring edge `w` runs from PE `w-1` into PE `w`: PE `w` receives on
    // edge `w` and sends on edge `w+1`.
    let (mut ring_txs, ring_rxs): (Vec<_>, Vec<_>) =
        (0..workers).map(|_| bounded(cfg.chan_cap)).unzip();
    ring_txs.rotate_left(1);
    let edges: Vec<_> = ring_txs.into_iter().zip(ring_rxs).collect();

    let pe = |ep: &mut Endpoint, w: usize, (ring_tx, ring_rx), res: &Sender<_>| {
        let succ = (w + 1) % workers;
        let pred = (w + workers - 1) % workers;
        let (lo, hi) = block_share(n as u64, workers, w);
        let (lo, hi) = (lo as usize, hi as usize);
        ep.tbuf.record(NEventKind::RunStart {
            tasks: ((hi - lo) * n) as u64,
        });
        let mut items: Vec<R::Item> = (lo..hi).map(|i| job.init(i)).collect();
        for k in 0..n {
            let own = owner[k] as usize;
            let pivot = if own == w {
                let pivot = items[k - lo].clone();
                if workers > 1 {
                    let pkt = Packet::new(k as u32, pivot.clone());
                    ep.send(&ring_tx, succ as u32, "ring", pkt);
                }
                pivot
            } else {
                let pkt: Packet<R::Item> = ep
                    .recv(&ring_rx, pred as u32, "ring")
                    .expect("ring closed mid-wave (peer PE died)");
                debug_assert_eq!(pkt.idx as usize, k, "pivot arrived out of wave order");
                if succ != own {
                    let fwd = Packet::new(k as u32, pkt.payload.clone());
                    ep.send(&ring_tx, succ as u32, "ring", fwd);
                }
                pkt.payload
            };
            if !items.is_empty() {
                ep.exec(hi - lo, || {
                    for (off, item) in items.iter_mut().enumerate() {
                        if lo + off != k {
                            *item = job.step(item, lo + off, &pivot, k);
                        }
                    }
                });
            }
        }
        drop(ring_tx);
        for (idx, item) in (lo as u32..).zip(items) {
            if !ep.send(res, ep.master(), "result", Packet::new(idx, item)) {
                break;
            }
        }
    };
    run_pes(cfg, n, n, "result", edges, pe, collect_only)
}

/// A fold-as-you-go farm: the reduction view of [`try_par_map`].
/// Worker `w` owns the contiguous task block `block_share(len,
/// workers, w)`, folds its results locally in ascending task order,
/// and sends the master **one** partial packet; the master folds the
/// partials in ascending worker order. Because the blocks are
/// contiguous and both folds run left-to-right, the overall grouping
/// is a re-association of the sequential left fold — any
/// *associative* `fold` therefore reproduces the sequential result
/// bit-for-bit, regardless of worker count. On success `values` holds
/// exactly one element — the fold of every task's output (empty for
/// an empty job); a dead PE is reported as [`EdenIncomplete`] listing
/// every task of each lost block.
pub fn try_par_map_reduce<J, F>(
    job: &J,
    cfg: &NativeConfig,
    fold: F,
) -> Result<NativeOutcome<J::Out>, EdenIncomplete>
where
    J: Job,
    J::Out: Wordsize,
    F: Fn(J::Out, J::Out) -> J::Out + Sync,
{
    let workers = cfg.workers.max(1);
    let n = job.len();
    // One partial slot per non-empty block. Every block is non-empty
    // unless there are more PEs than tasks, in which case each
    // non-empty block holds one task: slot `s` then covers tasks
    // `block_share(n, parts, s)` either way.
    let parts = workers.min(n);
    let pe = |ep: &mut Endpoint, w: usize, (), res: &Sender<_>| {
        let (lo, hi) = block_share(n as u64, workers, w);
        let (lo, hi) = (lo as usize, hi as usize);
        ep.tbuf.record(NEventKind::RunStart {
            tasks: (hi - lo) as u64,
        });
        if lo < hi {
            let partial = ep.exec(hi - lo, || (lo..hi).map(|i| job.run(i)).reduce(&fold));
            let slot = if n < workers { lo } else { w };
            let pkt = Packet::new(slot as u32, partial.expect("non-empty block"));
            ep.send(res, ep.master(), "partial", pkt);
        }
    };
    let ctxs = vec![(); workers];
    run_pes(cfg, n, parts, "partial", ctxs, pe, collect_only)
        .map(|mut out| {
            out.values = out.values.into_iter().reduce(&fold).into_iter().collect();
            out
        })
        .map_err(|mut e| {
            e.missing = (e.missing.iter())
                .flat_map(|&s| {
                    let (lo, hi) = block_share(n as u64, parts, s as usize);
                    lo..hi
                })
                .collect();
            e
        })
}

/// A bulk-synchronous, data-partitioned computation for the
/// [`try_exchange`] skeleton — the shape iterated simulations
/// (episim's visit/return rounds) need and the farms cannot express:
/// every PE *owns* a partition of the data for the whole run, and at
/// each step boundary the partitions exchange batches all-to-all.
///
/// The skeleton calls [`ExchangeJob::exchange`] `steps()` times per
/// PE. Step `s` receives the batches emitted by step `s - 1` (one per
/// peer, empty-`Default` batches at step 0) and returns one outgoing
/// batch per peer — `out[p]` is delivered to PE `p`'s next step, the
/// self-addressed `out[part]` locally without touching a channel. The
/// batches of the final step flow into [`ExchangeJob::finish`], which
/// folds the partition state into the PE's single result.
pub trait ExchangeJob: Sync {
    /// The partition state a PE owns across all steps.
    type State: Send;
    /// One batch crossing a partition boundary at a step barrier.
    type Batch: Send + Default + Wordsize;
    /// A partition's final result, streamed to the master.
    type Out: Send + Wordsize;

    /// Number of exchange steps (0 is legal: init → finish directly).
    fn steps(&self) -> usize;

    /// Partition `part` of `parts`' initial state.
    fn init(&self, part: usize, parts: usize) -> Self::State;

    /// Run step `step` on the partition: absorb `inbox` (indexed by
    /// sending PE), update `state`, return the outgoing batch per PE
    /// (indexed by receiving PE; must have length `parts`).
    fn exchange(
        &self,
        part: usize,
        parts: usize,
        step: usize,
        state: &mut Self::State,
        inbox: Vec<Self::Batch>,
    ) -> Vec<Self::Batch>;

    /// Fold the partition into its final result, absorbing the last
    /// step's batches.
    fn finish(
        &self,
        part: usize,
        parts: usize,
        state: Self::State,
        inbox: Vec<Self::Batch>,
    ) -> Self::Out;
}

/// Round-barrier exchange skeleton: `workers` PEs each own one
/// partition; each step runs locally and then exchanges one batch per
/// ordered PE pair over dedicated SPSC channels (an empty batch is
/// still framed and sent, so every step delivers exactly one packet
/// per edge and termination is deterministic). Returns one value per
/// partition, in partition order. Like [`try_ring`], a dying PE
/// starves its peers' next step, so expect an [`EdenIncomplete`]
/// cascade naming several PEs.
pub fn try_exchange<X: ExchangeJob>(
    job: &X,
    cfg: &NativeConfig,
) -> Result<NativeOutcome<X::Out>, EdenIncomplete> {
    let workers = cfg.workers.max(1);
    let steps = job.steps();
    // Each PE parks on its own eventcount, pinged by all its inbound
    // edges — the PE-side mirror of the master's multiplexed drain.
    let ecs: Vec<Arc<EventCount>> = (0..workers).map(|_| Arc::new(EventCount::new())).collect();

    // One SPSC channel per ordered PE pair. At most two packets are
    // ever in flight on an edge (src may run one step ahead of dst,
    // never two: sending step s+2 requires having received dst's step
    // s+1, which dst sent only after consuming src's step s), so
    // capacity 2 makes every send non-blocking.
    let cap = cfg.chan_cap.max(2);
    // `txs[src][dst]` and `rxs[dst][src]`, `None` on the diagonal (no
    // self-channel).
    type Row<T> = Vec<Option<T>>;
    let mut txs: Vec<Row<Sender<Packet<X::Batch>>>> = (0..workers)
        .map(|_| (0..workers).map(|_| None).collect())
        .collect();
    let mut rxs: Vec<Row<Receiver<Packet<X::Batch>>>> = (0..workers)
        .map(|_| (0..workers).map(|_| None).collect())
        .collect();
    for src in 0..workers {
        for dst in (0..workers).filter(|&dst| dst != src) {
            let (tx, rx) = bounded_with_notify(cap, Some(Arc::clone(&ecs[dst])));
            txs[src][dst] = Some(tx);
            rxs[dst][src] = Some(rx);
        }
    }
    let ctxs: Vec<_> = txs.into_iter().zip(rxs).zip(ecs).collect();

    type Ctx<B> = ((Row<Sender<B>>, Row<Receiver<B>>), Arc<EventCount>);
    let pe = |ep: &mut Endpoint, w: usize, ((txs, rxs), ec): Ctx<_>, res: &Sender<_>| {
        ep.tbuf.record(NEventKind::RunStart {
            tasks: steps as u64 + 1,
        });
        let mut state = job.init(w, workers);
        let mut inbox: Vec<X::Batch> = (0..workers).map(|_| X::Batch::default()).collect();
        for step in 0..steps {
            let out = ep.exec(1, || job.exchange(w, workers, step, &mut state, inbox));
            assert_eq!(
                out.len(),
                workers,
                "exchange step {step} on PE {w}: one outgoing batch per PE required"
            );
            inbox = (0..workers).map(|_| X::Batch::default()).collect();
            for (dst, batch) in out.into_iter().enumerate() {
                if dst == w {
                    inbox[w] = batch;
                    continue;
                }
                let tx = txs[dst].as_ref().expect("edge exists for every peer");
                let sent = ep.send(tx, dst as u32, "exchange", Packet::new(step as u32, batch));
                assert!(sent, "exchange peer PE {dst} died (channel closed)");
            }
            recv_step(ep, &ec, &rxs, w, step, &mut inbox);
        }
        let out = ep.exec(1, || job.finish(w, workers, state, inbox));
        ep.send(res, ep.master(), "result", Packet::new(w as u32, out));
    };
    run_pes(cfg, workers, workers, "result", ctxs, pe, collect_only)
}

/// One PE's barrier wait inside [`try_exchange`]: collect exactly one
/// step-`step` packet from every peer, polling only the edges still
/// pending (an edge's next packet is always the oldest step it has
/// not delivered, so a pending edge's head packet *is* this step's)
/// and parking on the PE's eventcount while nothing is ready.
fn recv_step<B: Send + Wordsize>(
    ep: &mut Endpoint,
    ec: &EventCount,
    rxs: &[Option<Receiver<Packet<B>>>],
    me: usize,
    step: usize,
    inbox: &mut [B],
) {
    let mut pending: Vec<bool> = rxs.iter().map(|rx| rx.is_some()).collect();
    loop {
        let mut progress = false;
        for (src, rx) in rxs.iter().enumerate() {
            if !pending[src] {
                continue;
            }
            let rx = rx.as_ref().expect("pending edge has a receiver");
            if let Some(pkt) = rx.try_recv() {
                assert_eq!(
                    pkt.idx as usize, step,
                    "PE {me}: batch from PE {src} arrived out of step order"
                );
                ep.note_recv(src as u32, pkt.words, "exchange");
                inbox[src] = pkt.payload;
                pending[src] = false;
                progress = true;
            } else {
                assert!(
                    !rx.is_closed(),
                    "PE {me}: exchange peer PE {src} died mid-step"
                );
            }
        }
        if pending.iter().all(|p| !p) {
            return;
        }
        if !progress {
            ep.stats.recv_blocks += 1;
            ep.tbuf.record(NEventKind::BlockRecvAny);
            ec.park_if(|| {
                !rxs.iter()
                    .zip(&pending)
                    .any(|(rx, p)| *p && rx.as_ref().is_some_and(|rx| rx.poll_ready()))
            });
            ep.tbuf.record(NEventKind::Unblock);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rph_trace::Counters;

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

    fn expected(n: usize) -> Vec<i64> {
        (0..n as i64).map(|i| i * i).collect()
    }

    const PES: [usize; 6] = [1, 2, 3, 4, 5, 8];

    fn check_farm_stats(out: &NativeOutcome<i64>, n: u64, workers: usize) {
        assert_eq!(out.stats.tasks_run, n);
        assert_eq!(out.stats.tasks_local, n);
        assert_eq!(out.stats.tasks_stolen, 0);
        assert_eq!(out.stats.per_worker.len(), workers);
        assert_eq!(out.stats.per_worker.iter().sum::<u64>(), n);
        // Farms: one result packet per task, plus (master_worker) one
        // task packet per task — and conservation on a finished run.
        assert_eq!(out.stats.msgs_sent, out.stats.msgs_recv);
        assert!(out.stats.msgs_sent >= n);
        assert!(out.stats.words_sent > 0);
        assert_eq!(out.stats.steal_ops, 0);
        assert_eq!(out.stats.splits, 0);
    }

    #[test]
    fn par_map_matches_oracle_at_all_pe_counts() {
        for w in PES {
            let cfg = NativeConfig::new(w);
            let out = try_par_map(&Squares(257), &cfg).unwrap();
            assert_eq!(out.values, expected(257), "workers={w}");
            check_farm_stats(&out, 257, w);
            // Static deal: PE w gets every workers-th task.
            let want: Vec<u64> = (0..w)
                .map(|i| 257usize.saturating_sub(i).div_ceil(w) as u64)
                .collect();
            assert_eq!(out.stats.per_worker, want, "workers={w}");
        }
    }

    #[test]
    fn master_worker_matches_oracle_at_all_pe_counts() {
        for w in PES {
            for prefetch in [1, 2, 4] {
                let cfg = NativeConfig::new(w);
                let out = try_master_worker(&Squares(101), &cfg, prefetch).unwrap();
                assert_eq!(out.values, expected(101), "workers={w} prefetch={prefetch}");
                check_farm_stats(&out, 101, w);
            }
        }
    }

    /// Shard-aware static deal: task `i` goes to shard `i mod shards`
    /// first, then round-robins within the shard — so the per-PE task
    /// counts follow the interleaved formula, result packets from
    /// shard-1 PEs to the (shard-0) master count as cross-shard words,
    /// and a single-shard run is the classic `i mod workers` deal with
    /// zero remote words.
    #[test]
    fn sharded_par_map_spreads_tasks_across_shards() {
        let n = 257usize;
        let flat = try_par_map(&Squares(n), &NativeConfig::new(4)).unwrap();
        assert_eq!(flat.stats.remote_words, 0);
        let cfg = NativeConfig::new(4).with_topology(2, 2);
        let out = try_par_map(&Squares(n), &cfg).unwrap();
        assert_eq!(out.values, expected(n));
        // PE w = s·per_shard + j owns i = shards·j + s + k·workers.
        let want: Vec<u64> = (0..4)
            .map(|w| {
                let first = 2 * (w % 2) + w / 2;
                n.saturating_sub(first).div_ceil(4) as u64
            })
            .collect();
        assert_eq!(out.stats.per_worker, want);
        // Shard 1's PEs (2 and 3) stream all their results across the
        // shard boundary to the master.
        assert!(out.stats.remote_words > 0);
        assert!(out.stats.remote_words < out.stats.words_sent);
    }

    /// The oversubscription satellite: many more PEs than the
    /// (single-core CI) host has cores. The demand-driven farm must
    /// complete without deadlock with results bit-identical to the
    /// 1-PE run, and its block counters must stay conservation-sane.
    #[test]
    fn master_worker_oversubscribed_many_pes_on_one_core() {
        let one = try_master_worker(&Squares(200), &NativeConfig::new(1), 2).unwrap();
        for pes in [16usize, 32, 64] {
            let cfg = NativeConfig::new(pes);
            let out = try_master_worker(&Squares(200), &cfg, 2).unwrap();
            assert_eq!(out.values, one.values, "pes={pes}");
            check_farm_stats(&out, 200, pes);
            // Block episodes are bounded by message traffic plus a
            // small per-PE slack (end-of-stream waits, and the
            // master's 10 ms park safety timeout re-counting a long
            // quiet period) — not by wall time.
            assert!(
                out.stats.recv_blocks <= out.stats.msgs_recv + 10 * pes as u64 + 100,
                "pes={pes}: {:?}",
                out.stats
            );
            assert!(
                out.stats.send_blocks <= out.stats.msgs_sent,
                "pes={pes}: {:?}",
                out.stats
            );
        }
    }

    #[test]
    fn master_worker_fewer_tasks_than_pes_does_not_deadlock() {
        // The required stress shape: surplus PEs must see their task
        // stream close immediately and exit.
        for n in [1usize, 2, 3, 7] {
            for w in [4usize, 8] {
                let out = try_master_worker(&Squares(n), &NativeConfig::new(w), 2).unwrap();
                assert_eq!(out.values, expected(n), "n={n} workers={w}");
                assert_eq!(out.stats.tasks_run, n as u64);
            }
        }
    }

    #[test]
    fn tiny_channels_engage_backpressure_without_deadlock() {
        // Capacity-1 channels everywhere: every skeleton must still
        // complete, with senders genuinely blocking along the way.
        let cfg = NativeConfig::new(4).with_chan_cap(1);
        let out = try_par_map(&Squares(400), &cfg).unwrap();
        assert_eq!(out.values, expected(400));
        let out = try_master_worker(&Squares(400), &cfg, 1).unwrap();
        assert_eq!(out.values, expected(400));
    }

    #[test]
    fn empty_and_single_task_jobs() {
        let cfg = NativeConfig::new(4);
        let out = try_par_map(&Squares(0), &cfg).unwrap();
        assert!(out.values.is_empty());
        assert_eq!(out.stats.per_worker, vec![0; 4]);
        assert_eq!(out.stats.msgs_sent, 0);
        let out = try_par_map(&Squares(1), &cfg).unwrap();
        assert_eq!(out.values, vec![0]);
        let out = try_master_worker(&Squares(1), &cfg, 4).unwrap();
        assert_eq!(out.values, vec![0]);
    }

    /// Task `i` as a 2×2 matrix; the fold is the wrapping matrix
    /// product — associative but **not** commutative, so any
    /// out-of-order or re-grouped-across-gaps folding is caught.
    struct Mats(usize);

    impl Job for Mats {
        type Out = Vec<i64>;
        fn len(&self) -> usize {
            self.0
        }
        fn run(&self, idx: usize) -> Vec<i64> {
            let i = idx as i64;
            vec![i + 1, i * i + 3, 2 * i + 1, i + 7]
        }
    }

    fn matmul2(a: Vec<i64>, b: Vec<i64>) -> Vec<i64> {
        vec![
            a[0].wrapping_mul(b[0])
                .wrapping_add(a[1].wrapping_mul(b[2])),
            a[0].wrapping_mul(b[1])
                .wrapping_add(a[1].wrapping_mul(b[3])),
            a[2].wrapping_mul(b[0])
                .wrapping_add(a[3].wrapping_mul(b[2])),
            a[2].wrapping_mul(b[1])
                .wrapping_add(a[3].wrapping_mul(b[3])),
        ]
    }

    #[test]
    fn par_map_reduce_matches_sequential_fold_bit_for_bit() {
        // A non-commutative (but associative) fold: contiguous blocks
        // + in-order folding must reproduce the sequential left fold
        // exactly, at every PE count — including more PEs than tasks.
        let n = 97;
        let seq = (0..n).map(|i| Mats(n).run(i)).reduce(matmul2).unwrap();
        for w in [1, 2, 3, 4, 5, 8, 100] {
            let cfg = NativeConfig::new(w);
            let out = try_par_map_reduce(&Mats(n), &cfg, matmul2).unwrap();
            assert_eq!(out.values, vec![seq.clone()], "workers={w}");
            assert_eq!(out.stats.tasks_run, n as u64, "workers={w}");
            // One partial packet per non-empty block, nothing more.
            assert!(out.stats.msgs_sent <= w as u64, "workers={w}");
            assert_eq!(out.stats.msgs_sent, out.stats.msgs_recv, "workers={w}");
        }
    }

    #[test]
    fn par_map_reduce_empty_job() {
        let out = try_par_map_reduce(&Squares(0), &NativeConfig::new(4), |a, b| a + b).unwrap();
        assert!(out.values.is_empty());
        assert_eq!(out.stats.msgs_sent, 0);
    }

    #[test]
    fn par_map_reduce_dead_pe_is_typed_error() {
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
        let err = try_par_map_reduce(&Exploding, &NativeConfig::new(4), |a, b| a + b)
            .expect_err("a dead PE must fail the run");
        assert!(!err.dead_pes.is_empty());
        assert!(err.missing.contains(&5), "{err:?}");
    }

    /// Toy BSP computation with genuinely order- and partner-dependent
    /// batches: at each step every partition sends each peer the sum
    /// of its current cells times the peer index, then adds what it
    /// received. Any lost, duplicated or mis-stepped batch changes the
    /// result.
    struct ToyExchange {
        cells: usize,
        steps: usize,
    }

    impl ExchangeJob for ToyExchange {
        type State = Vec<i64>;
        type Batch = Vec<i64>;
        type Out = Vec<i64>;
        fn steps(&self) -> usize {
            self.steps
        }
        fn init(&self, part: usize, parts: usize) -> Vec<i64> {
            let (lo, hi) = block_share(self.cells as u64, parts, part);
            (lo as i64..hi as i64).map(|i| i * i + 1).collect()
        }
        fn exchange(
            &self,
            part: usize,
            parts: usize,
            step: usize,
            state: &mut Vec<i64>,
            inbox: Vec<Vec<i64>>,
        ) -> Vec<Vec<i64>> {
            for (src, batch) in inbox.iter().enumerate() {
                for (cell, add) in state.iter_mut().zip(batch) {
                    *cell = cell.wrapping_add(add.wrapping_mul(1 + src as i64));
                }
            }
            let sum: i64 = state.iter().sum();
            (0..parts)
                .map(|dst| {
                    if dst == part {
                        Vec::new()
                    } else {
                        vec![sum.wrapping_mul((dst + step) as i64); 2]
                    }
                })
                .collect()
        }
        fn finish(
            &self,
            _part: usize,
            _parts: usize,
            mut state: Vec<i64>,
            inbox: Vec<Vec<i64>>,
        ) -> Vec<i64> {
            for (src, batch) in inbox.iter().enumerate() {
                for (cell, add) in state.iter_mut().zip(batch) {
                    *cell = cell.wrapping_add(add.wrapping_mul(1 + src as i64));
                }
            }
            state
        }
    }

    /// Single-threaded oracle: run every partition's steps in lockstep.
    fn exchange_oracle(job: &ToyExchange, parts: usize) -> Vec<i64> {
        let mut states: Vec<Vec<i64>> = (0..parts).map(|p| job.init(p, parts)).collect();
        let mut inboxes: Vec<Vec<Vec<i64>>> = (0..parts).map(|_| vec![Vec::new(); parts]).collect();
        for step in 0..job.steps() {
            let mut next: Vec<Vec<Vec<i64>>> =
                (0..parts).map(|_| vec![Vec::new(); parts]).collect();
            for p in 0..parts {
                let out = job.exchange(
                    p,
                    parts,
                    step,
                    &mut states[p],
                    std::mem::take(&mut inboxes[p]),
                );
                for (dst, batch) in out.into_iter().enumerate() {
                    next[dst][p] = batch;
                }
            }
            inboxes = next;
        }
        (0..parts)
            .flat_map(|p| {
                job.finish(
                    p,
                    parts,
                    std::mem::take(&mut states[p]),
                    std::mem::take(&mut inboxes[p]),
                )
            })
            .collect()
    }

    #[test]
    fn exchange_matches_lockstep_oracle_at_all_pe_counts() {
        for w in PES {
            let job = ToyExchange {
                cells: 23,
                steps: 5,
            };
            let want = exchange_oracle(&job, w);
            let out = try_exchange(&job, &NativeConfig::new(w)).unwrap();
            let got: Vec<i64> = out.values.into_iter().flatten().collect();
            assert_eq!(got, want, "workers={w}");
            // One packet per ordered pair per step, plus one result
            // packet per PE; all conserved.
            let edges = (w * (w - 1)) as u64;
            assert_eq!(out.stats.msgs_sent, 5 * edges + w as u64, "workers={w}");
            assert_eq!(out.stats.msgs_sent, out.stats.msgs_recv, "workers={w}");
            assert_eq!(out.stats.tasks_run, (5 + 1) * w as u64, "workers={w}");
        }
    }

    #[test]
    fn exchange_zero_steps_and_tiny_channels() {
        let job = ToyExchange { cells: 9, steps: 0 };
        let out = try_exchange(&job, &NativeConfig::new(3)).unwrap();
        let got: Vec<i64> = out.values.into_iter().flatten().collect();
        assert_eq!(got, exchange_oracle(&job, 3));
        // chan_cap 1 is clamped to 2 internally; must still complete.
        let job = ToyExchange {
            cells: 16,
            steps: 7,
        };
        let out = try_exchange(&job, &NativeConfig::new(4).with_chan_cap(1)).unwrap();
        let got: Vec<i64> = out.values.into_iter().flatten().collect();
        assert_eq!(got, exchange_oracle(&job, 4));
    }

    #[test]
    fn exchange_sharded_topology_counts_remote_words() {
        let job = ToyExchange {
            cells: 24,
            steps: 4,
        };
        let flat = try_exchange(&job, &NativeConfig::new(4)).unwrap();
        assert_eq!(flat.stats.remote_words, 0);
        let out = try_exchange(&job, &NativeConfig::new(4).with_topology(2, 2)).unwrap();
        let got: Vec<i64> = out.values.into_iter().flatten().collect();
        assert_eq!(got, exchange_oracle(&job, 4));
        // Cross-shard edges carry real batch traffic.
        assert!(out.stats.remote_words > 0);
        assert!(out.stats.remote_words < out.stats.words_sent);
    }

    /// Toy wave computation with order-dependent updates: any
    /// deviation from strict wave order or from the block ownership
    /// contract changes the result.
    struct ToyRing(usize);

    impl RingJob for ToyRing {
        type Item = Vec<f64>;
        fn len(&self) -> usize {
            self.0
        }
        fn init(&self, idx: usize) -> Vec<f64> {
            vec![idx as f64, (idx * idx) as f64 + 1.0, 3.0]
        }
        fn step(&self, item: &Vec<f64>, idx: usize, pivot: &Vec<f64>, k: usize) -> Vec<f64> {
            item.iter()
                .zip(pivot)
                .map(|(a, b)| a + b * ((k + 1) as f64) + idx as f64 * 0.5)
                .collect()
        }
    }

    fn ring_oracle(job: &ToyRing) -> Vec<Vec<f64>> {
        let n = job.len();
        let mut items: Vec<Vec<f64>> = (0..n).map(|i| job.init(i)).collect();
        for k in 0..n {
            let pivot = items[k].clone();
            for (idx, item) in items.iter_mut().enumerate() {
                if idx != k {
                    *item = job.step(item, idx, &pivot, k);
                }
            }
        }
        items
    }

    #[test]
    fn ring_matches_sequential_oracle_bit_for_bit() {
        let job = ToyRing(23);
        let want = ring_oracle(&job);
        for w in PES {
            let out = try_ring(&job, &NativeConfig::new(w)).unwrap();
            assert_eq!(out.values, want, "workers={w}");
            assert_eq!(out.stats.tasks_run, 23 * 23, "workers={w}");
            assert_eq!(out.stats.msgs_sent, out.stats.msgs_recv, "workers={w}");
            if w == 1 {
                // Lone PE: no ring traffic at all, only result returns.
                assert_eq!(out.stats.msgs_sent, 23);
            }
        }
    }

    #[test]
    fn ring_with_more_pes_than_items_still_works() {
        let job = ToyRing(3);
        let want = ring_oracle(&job);
        let out = try_ring(&job, &NativeConfig::new(8)).unwrap();
        assert_eq!(out.values, want);
        assert_eq!(out.stats.tasks_run, 9);
    }

    #[test]
    fn traced_run_reconciles_events_with_counters() {
        let traced = || NativeConfig::new(3).with_trace();
        let toy = ToyExchange {
            cells: 24,
            steps: 4,
        };
        for (name, out) in [
            ("par_map", try_par_map(&Squares(64), &traced()).unwrap()),
            (
                "master_worker",
                try_master_worker(&Squares(64), &traced(), 2).unwrap(),
            ),
            (
                "ring",
                try_ring(&ToyRing(16), &traced()).unwrap().map_values(),
            ),
            (
                "par_map_reduce",
                try_par_map_reduce(&Squares(64), &traced(), |a, b| a + b).unwrap(),
            ),
            (
                "exchange",
                try_exchange(&toy, &traced()).unwrap().map_values(),
            ),
            (
                "exchange chan_cap 1",
                try_exchange(&toy, &traced().with_chan_cap(1))
                    .unwrap()
                    .map_values(),
            ),
        ] {
            assert_eq!(out.trace_dropped, 0, "{name}");
            let tracer = out.trace.as_ref().expect("traced run must carry a trace");
            assert_eq!(tracer.caps(), 4, "{name}: 3 PEs + master");
            let c = Counters::from_tracer(tracer);
            assert_eq!(c.messages_sent, out.stats.msgs_sent, "{name}");
            assert_eq!(c.messages_received, out.stats.msgs_recv, "{name}");
            assert_eq!(c.message_words, out.stats.words_sent, "{name}");
            assert_eq!(c.native_send_blocks, out.stats.send_blocks, "{name}");
            assert_eq!(c.native_recv_blocks, out.stats.recv_blocks, "{name}");
            assert_eq!(c.native_tasks, out.stats.tasks_run, "{name}");
            assert_eq!(c.native_tasks_stolen, 0, "{name}");
        }
    }

    /// Erase the value type so differently-typed outcomes share one
    /// reconciliation loop above.
    trait MapValues {
        fn map_values(self) -> NativeOutcome<i64>;
    }
    impl<T> MapValues for NativeOutcome<Vec<T>> {
        fn map_values(self) -> NativeOutcome<i64> {
            NativeOutcome {
                values: self.values.iter().map(|v| v.len() as i64).collect(),
                wall: self.wall,
                stats: self.stats,
                trace: self.trace,
                trace_dropped: self.trace_dropped,
            }
        }
    }

    /// Run `f` on its own thread and fail unless it returns within a
    /// generous deadline: a dead PE must not leave its peers hanging.
    fn terminates<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        let watched = std::thread::spawn(move || tx.send(f()));
        let out = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("run with a dead PE did not terminate");
        watched
            .join()
            .expect("watched run unwound")
            .expect("receiver is alive");
        out
    }

    /// [`ToyRing`] whose step for item 5 panics at wave 1. Every PE
    /// needs pivot 5, which only the dying PE could send, so the
    /// severed ring takes every PE down with it.
    struct DyingRing(ToyRing);

    impl RingJob for DyingRing {
        type Item = Vec<f64>;
        fn len(&self) -> usize {
            self.0.len()
        }
        fn init(&self, idx: usize) -> Vec<f64> {
            self.0.init(idx)
        }
        fn step(&self, item: &Vec<f64>, idx: usize, pivot: &Vec<f64>, k: usize) -> Vec<f64> {
            assert!(!(idx == 5 && k == 1), "boom");
            self.0.step(item, idx, pivot, k)
        }
    }

    #[test]
    fn dead_pe_in_ring_is_typed_error_naming_every_lost_item() {
        let n = 16;
        for w in [1usize, 2, 3, 4, 8] {
            let err = terminates(move || try_ring(&DyingRing(ToyRing(n)), &NativeConfig::new(w)))
                .expect_err("a dead PE must fail the run");
            // Item 5's owner dies first; the cascade then takes every
            // PE and every item with it.
            let dying = (0..w).find(|&p| block_share(n as u64, w, p).1 > 5).unwrap();
            assert!(
                err.dead_pes.contains(&(dying as u32)),
                "workers={w}: {err:?}"
            );
            let all_pes: Vec<u32> = (0..w as u32).collect();
            assert_eq!(err.dead_pes, all_pes, "workers={w}");
            let all_items: Vec<u32> = (0..n as u32).collect();
            assert_eq!(err.missing, all_items, "workers={w}");
        }
    }

    /// [`ToyExchange`] whose partition `parts / 2` panics at step 1,
    /// before sending that step's batches: every peer is left waiting
    /// on a closed edge.
    struct DyingExchange(ToyExchange);

    impl ExchangeJob for DyingExchange {
        type State = Vec<i64>;
        type Batch = Vec<i64>;
        type Out = Vec<i64>;
        fn steps(&self) -> usize {
            self.0.steps()
        }
        fn init(&self, part: usize, parts: usize) -> Vec<i64> {
            self.0.init(part, parts)
        }
        fn exchange(
            &self,
            part: usize,
            parts: usize,
            step: usize,
            state: &mut Vec<i64>,
            inbox: Vec<Vec<i64>>,
        ) -> Vec<Vec<i64>> {
            assert!(!(part == parts / 2 && step == 1), "boom");
            self.0.exchange(part, parts, step, state, inbox)
        }
        fn finish(
            &self,
            part: usize,
            parts: usize,
            state: Vec<i64>,
            inbox: Vec<Vec<i64>>,
        ) -> Vec<i64> {
            self.0.finish(part, parts, state, inbox)
        }
    }

    #[test]
    fn dead_pe_in_exchange_is_typed_error_naming_every_lost_partition() {
        for w in [1usize, 2, 3, 4, 8] {
            let job = DyingExchange(ToyExchange {
                cells: 23,
                steps: 3,
            });
            let err = terminates(move || try_exchange(&job, &NativeConfig::new(w)))
                .expect_err("a dead PE must fail the run");
            assert!(
                err.dead_pes.contains(&(w as u32 / 2)),
                "workers={w}: {err:?}"
            );
            let all: Vec<u32> = (0..w as u32).collect();
            assert_eq!(err.dead_pes, all, "workers={w}");
            assert_eq!(err.missing, all, "workers={w}");
        }
    }

    /// The PR 6 bugfix contract: through the fallible entry points a
    /// dying PE becomes a typed error naming the dead PE and the task
    /// indices whose results were lost — no panic on the caller, no
    /// silent holes.
    #[test]
    fn dead_pe_surfaces_as_typed_error_with_lost_tasks() {
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
        for skel in [Skeleton::ParMap, Skeleton::MasterWorker { prefetch: 2 }] {
            let err = skel
                .try_run(&Exploding, &NativeConfig::new(4))
                .expect_err("a dead PE must fail the run");
            assert!(!err.dead_pes.is_empty(), "{skel:?}: {err:?}");
            assert!(
                err.missing.contains(&5),
                "{skel:?}: the panicking task's result must be reported lost: {err:?}"
            );
        }
        // par_map's static deal pins task 5 to PE 5 mod 4 = 1.
        let err = try_par_map(&Exploding, &NativeConfig::new(4)).unwrap_err();
        assert_eq!(err.dead_pes, vec![1]);
    }
}
