//! Software delegation locks on simulated memory — the strongest modern
//! competitors to the paper's hardware lease mechanism: MCS and CLH
//! queue locks, flat combining \[Hendler et al., SPAA 2010\], and
//! CCSynch \[Fatourou & Kallimanis, PPoPP 2012\] — plus two
//! lease-accelerated hybrids (the MCS tail word and the flat-combining
//! publication list under §6-style leases).
//!
//! All per-thread queue nodes and publication records are
//! **pre-allocated at machine setup** ([`Dlock::init`]) on line-aligned
//! simulated memory. This is not just the classic node-recycling idiom:
//! in this simulator every `Malloc`/`Free` executes as a message round
//! trip to the allocator home tile (tile 0), so per-acquisition
//! allocation would charge delegation locks a *false* NoC contention
//! cost that the TTS/lease baselines never pay. Scenarios assert the
//! steady-state sweep performs zero allocator messages
//! (`EngineInfo::alloc_msgs == 0`).
//!
//! Delegation means the lock holder may execute *other threads'*
//! critical sections: operations are published as `(op, arg)` word
//! pairs and applied through a [`CsApply`] — a `Copy` description of
//! the structure being protected, so every thread (and therefore every
//! potential combiner) can run any thread's operation.

use crate::{ClhHandle, ClhLock, LeasedLock, SpinLock, TryLock, SPIN_WORK};
use lr_machine::ThreadCtx;
use lr_sim_core::Addr;
use lr_sim_mem::SimMemory;

/// A critical-section interpreter: applies one published `(op, arg)`
/// operation to the protected structure and returns its response word.
/// Combiners call this for other threads' operations, so it must be a
/// pure function of simulated memory (no host-side per-thread state).
pub trait CsApply: Copy + Send + 'static {
    fn apply(&self, ctx: &mut ThreadCtx, op: u64, arg: u64) -> u64;
}

/// Which delegation algorithm a [`Dlock`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DlockAlgo {
    /// MCS queue lock: `xchg` on the tail, spin on your own node.
    Mcs,
    /// MCS with the tail word leased around the `xchg`/`cas` — the §6
    /// idea applied to the queue lock's only contended line.
    McsLease,
    /// [`ClhLock`] over a pre-allocated node pool (its own handles
    /// malloc one node each).
    Clh,
    /// Flat combining: publish `(op, arg)`, one thread takes a TTS
    /// combiner lock and serves the whole publication list.
    Fc,
    /// Flat combining with the combiner lock *and* each served
    /// publication record leased — "lease the combiner's publication
    /// list" (the head-to-head hybrid the ROADMAP asks for).
    FcLease,
    /// CCSynch: node-chain delegation with bounded handoff — the
    /// combining chain is the queue, so there is no separate lock word
    /// (captures Reciprocating Locks' bounded-handoff reciprocation).
    CcSynch,
}

/// Every algorithm, in canonical order (fuzz generator and scenario
/// series index into this).
pub const DLOCK_ALGOS: [DlockAlgo; 6] = [
    DlockAlgo::Mcs,
    DlockAlgo::McsLease,
    DlockAlgo::Clh,
    DlockAlgo::Fc,
    DlockAlgo::FcLease,
    DlockAlgo::CcSynch,
];

impl DlockAlgo {
    pub fn name(self) -> &'static str {
        match self {
            DlockAlgo::Mcs => "mcs",
            DlockAlgo::McsLease => "mcs-lease",
            DlockAlgo::Clh => "clh",
            DlockAlgo::Fc => "fc",
            DlockAlgo::FcLease => "fc-lease",
            DlockAlgo::CcSynch => "ccsynch",
        }
    }
}

// MCS node layout (16 bytes, line-aligned).
const MCS_LOCKED: u64 = 0;
const MCS_NEXT: u64 = 8;

/// Bytes of a flat-combining publication record (allocate each one
/// line-aligned, one per thread). Layout: REQ (0 = idle, 1 = pending,
/// 2 = served), OP, ARG, RESP.
pub const FC_RECORD_BYTES: u64 = 32;
const FC_REQ: u64 = 0;
const FC_OP: u64 = 8;
const FC_ARG: u64 = 16;
const FC_RESP: u64 = 24;

// CCSynch node layout (48 bytes, line-aligned).
const CC_WAIT: u64 = 0;
const CC_DONE: u64 = 8;
const CC_OP: u64 = 16;
const CC_ARG: u64 = 24;
const CC_RESP: u64 = 32;
const CC_NEXT: u64 = 40;

/// CCSynch handoff bound: a combiner serves at most this many chained
/// operations before passing combining duty down the chain (the
/// bounded-reciprocation knob; large enough that small sweeps combine
/// freely, small enough that no thread serves unboundedly).
const CC_HANDOFF: u64 = 64;

/// One flat-combining call \[Hendler et al., SPAA 2010\] on this
/// thread's record `rec`: publish `(op, arg)`, then poll the record and
/// try `lock` until either a combiner has served the record or the lock
/// is won. A winner whose record was served while it contended (under
/// leases, waiters queue for a whole session) hands the lock straight
/// back; any other winner runs `serve`, which must serve every pending
/// record in its charge, its own included ([`fc_scan`],
/// [`fc_respond`]). Returns the operation's response word.
pub fn fc_call<L: TryLock>(
    ctx: &mut ThreadCtx,
    lock: &L,
    rec: Addr,
    op: u64,
    arg: u64,
    serve: impl FnOnce(&mut ThreadCtx),
) -> u64 {
    ctx.write(rec.offset(FC_OP), op);
    ctx.write(rec.offset(FC_ARG), arg);
    ctx.write(rec.offset(FC_REQ), 1);
    let won = loop {
        if ctx.read(rec.offset(FC_REQ)) == 2 {
            break false;
        }
        if lock.try_lock(ctx) {
            break true;
        }
        ctx.work(SPIN_WORK);
    };
    if won {
        if ctx.read(rec.offset(FC_REQ)) != 2 {
            serve(ctx);
        }
        lock.unlock(ctx);
    }
    let resp = ctx.read(rec.offset(FC_RESP));
    ctx.write(rec.offset(FC_REQ), 0);
    resp
}

/// The combiner's pass over `recs`: `f(ctx, rec, op, arg)` for each
/// pending record. With `lease`, each record's line is leased while it
/// is read and `f` runs, batching the response and handoff
/// invalidations the way §6 batches lock-word ownership.
pub fn fc_scan(
    ctx: &mut ThreadCtx,
    recs: &[Addr],
    lease: bool,
    mut f: impl FnMut(&mut ThreadCtx, Addr, u64, u64),
) {
    for &r in recs {
        if lease {
            ctx.lease_max(r);
        }
        if ctx.read(r.offset(FC_REQ)) == 1 {
            let op = ctx.read(r.offset(FC_OP));
            let arg = ctx.read(r.offset(FC_ARG));
            f(ctx, r, op, arg);
        }
        if lease {
            ctx.release(r);
        }
    }
}

/// Serve the pending record `rec` with response `resp`.
pub fn fc_respond(ctx: &mut ThreadCtx, rec: Addr, resp: u64) {
    ctx.write(rec.offset(FC_RESP), resp);
    ctx.write(rec.offset(FC_REQ), 2);
}

/// A delegation lock instance: the shared word(s) plus the pre-allocated
/// per-thread node/record pool. `Clone` so each workload thread can move
/// its own copy into its closure; all fields are simulated addresses, so
/// clones alias the same simulated lock.
#[derive(Debug, Clone)]
pub struct Dlock {
    algo: DlockAlgo,
    /// MCS/CLH/CCSynch tail pointer; FC combiner-lock word.
    tail: Addr,
    /// Per-thread pool, indexed by worker tid. CLH and CCSynch carry one
    /// extra node at the end: the initial dummy the tail starts on.
    nodes: Vec<Addr>,
}

/// Per-thread lock state plus host-side combiner statistics. The stats
/// are deterministic (the simulation is), but host-side only: they never
/// touch `MachineStats`, so recorded traces and goldens are unaffected.
#[derive(Debug, Clone)]
pub struct DlockHandle {
    /// MCS/FC: this thread's own node/record. CLH/CCSynch: the node the
    /// thread currently owns (recycled along the queue/chain).
    node: Addr,
    /// Times this thread held the lock / acted as combiner.
    pub acquisitions: u64,
    /// Operations this thread executed while holding (own + served).
    /// For non-delegating algorithms this equals `acquisitions`.
    pub combined: u64,
}

impl Dlock {
    /// Allocate the lock and its whole per-thread pool at machine setup
    /// time (zero simulated cost, zero allocator messages at runtime).
    /// `max_threads` bounds the worker tids that may call [`Self::handle`].
    pub fn init(mem: &mut SimMemory, algo: DlockAlgo, max_threads: usize) -> Dlock {
        let tail = mem.alloc_line_aligned(8);
        let nodes: Vec<Addr> = match algo {
            DlockAlgo::Mcs | DlockAlgo::McsLease => (0..max_threads)
                .map(|_| mem.alloc_line_aligned(16))
                .collect(),
            DlockAlgo::Clh => {
                let v: Vec<Addr> = (0..max_threads + 1)
                    .map(|_| mem.alloc_line_aligned(8))
                    .collect();
                // Tail starts on the unlocked dummy (fresh memory is
                // zeroed, so the dummy already reads "released").
                mem.write_word(tail, v[max_threads].0);
                v
            }
            DlockAlgo::Fc | DlockAlgo::FcLease => (0..max_threads)
                .map(|_| mem.alloc_line_aligned(FC_RECORD_BYTES))
                .collect(),
            DlockAlgo::CcSynch => {
                let v: Vec<Addr> = (0..max_threads + 1)
                    .map(|_| mem.alloc_line_aligned(48))
                    .collect();
                // The initial chain node: WAIT=0/DONE=0 means the first
                // enqueuer becomes combiner immediately.
                mem.write_word(tail, v[max_threads].0);
                v
            }
        };
        Dlock { algo, tail, nodes }
    }

    pub fn algo(&self) -> DlockAlgo {
        self.algo
    }

    /// This thread's handle over the pre-allocated pool. Host-side only —
    /// no simulated instructions, hence no allocator traffic.
    pub fn handle(&self, tid: usize) -> DlockHandle {
        DlockHandle {
            node: self.nodes[tid],
            acquisitions: 0,
            combined: 0,
        }
    }

    /// Execute one critical-section operation under the lock: acquire,
    /// run (possibly *being* run by a combiner), release. Returns the
    /// operation's response word.
    pub fn run<A: CsApply>(
        &self,
        ctx: &mut ThreadCtx,
        h: &mut DlockHandle,
        apply: &A,
        op: u64,
        arg: u64,
    ) -> u64 {
        match self.algo {
            DlockAlgo::Mcs => self.mcs_run(ctx, h, apply, op, arg, false),
            DlockAlgo::McsLease => self.mcs_run(ctx, h, apply, op, arg, true),
            DlockAlgo::Clh => self.clh_run(ctx, h, apply, op, arg),
            DlockAlgo::Fc => fc_call(ctx, &SpinLock::at(self.tail), h.node, op, arg, |ctx| {
                self.fc_serve(ctx, h, apply, false)
            }),
            DlockAlgo::FcLease => {
                fc_call(ctx, &LeasedLock::at(self.tail), h.node, op, arg, |ctx| {
                    self.fc_serve(ctx, h, apply, true)
                })
            }
            DlockAlgo::CcSynch => self.cc_run(ctx, h, apply, op, arg),
        }
    }

    /// MCS: enqueue via tail `xchg`, spin on our own node, hand off
    /// through the successor link. `lease_tail` wraps the two tail RMWs
    /// in a §6 lease so the queue's only globally contended line behaves
    /// like the paper's leased lock word.
    fn mcs_run<A: CsApply>(
        &self,
        ctx: &mut ThreadCtx,
        h: &mut DlockHandle,
        apply: &A,
        op: u64,
        arg: u64,
        lease_tail: bool,
    ) -> u64 {
        let node = h.node;
        ctx.write(node.offset(MCS_NEXT), 0);
        if lease_tail {
            ctx.lease_max(self.tail);
        }
        let pred = ctx.xchg(self.tail, node.0);
        if lease_tail {
            ctx.release(self.tail);
        }
        if pred != 0 {
            // Arm our spin flag *before* linking: the predecessor can
            // only clear it after it sees the link.
            ctx.write(node.offset(MCS_LOCKED), 1);
            ctx.write(Addr(pred).offset(MCS_NEXT), node.0);
            while ctx.read(node.offset(MCS_LOCKED)) != 0 {
                ctx.work(SPIN_WORK);
            }
        }
        let resp = apply.apply(ctx, op, arg);
        h.acquisitions += 1;
        h.combined += 1;
        let mut next = ctx.read(node.offset(MCS_NEXT));
        if next == 0 {
            if lease_tail {
                ctx.lease_max(self.tail);
            }
            let (won, _) = ctx.cas_val(self.tail, node.0, 0);
            if lease_tail {
                ctx.release(self.tail);
            }
            if won {
                return resp;
            }
            // A successor is mid-enqueue: wait for its link.
            loop {
                next = ctx.read(node.offset(MCS_NEXT));
                if next != 0 {
                    break;
                }
                ctx.work(SPIN_WORK);
            }
        }
        ctx.write(Addr(next).offset(MCS_LOCKED), 0);
        resp
    }

    /// CLH: [`ClhLock`] on the tail word, enqueuing with the thread's
    /// current pool node. Release recycles the predecessor's node as
    /// ours, so the pool never grows.
    fn clh_run<A: CsApply>(
        &self,
        ctx: &mut ThreadCtx,
        h: &mut DlockHandle,
        apply: &A,
        op: u64,
        arg: u64,
    ) -> u64 {
        let lock = ClhLock::at(self.tail);
        let mut node = ClhHandle::with_node(h.node);
        lock.lock(ctx, &mut node);
        let resp = apply.apply(ctx, op, arg);
        h.acquisitions += 1;
        h.combined += 1;
        lock.unlock(ctx, &mut node);
        h.node = node.node();
        resp
    }

    /// Flat combining's serve step: apply every pending record of the
    /// pool. `lease` is the `fc-lease` hybrid, which leases each record
    /// while serving it (its combiner word is a [`LeasedLock`]).
    fn fc_serve<A: CsApply>(
        &self,
        ctx: &mut ThreadCtx,
        h: &mut DlockHandle,
        apply: &A,
        lease: bool,
    ) {
        h.acquisitions += 1;
        fc_scan(ctx, &self.nodes, lease, |ctx, rec, op, arg| {
            let resp = apply.apply(ctx, op, arg);
            fc_respond(ctx, rec, resp);
            h.combined += 1;
        });
    }

    /// CCSynch: the enqueue chain *is* the combining queue. Swap a fresh
    /// node in as tail, publish into the node received, spin on it; the
    /// thread woken with `DONE == 0` combines up to [`CC_HANDOFF`]
    /// chained operations, then reciprocates combining duty onward.
    fn cc_run<A: CsApply>(
        &self,
        ctx: &mut ThreadCtx,
        h: &mut DlockHandle,
        apply: &A,
        op: u64,
        arg: u64,
    ) -> u64 {
        let fresh = h.node;
        ctx.write(fresh.offset(CC_WAIT), 1);
        ctx.write(fresh.offset(CC_DONE), 0);
        ctx.write(fresh.offset(CC_NEXT), 0);
        let cur = Addr(ctx.xchg(self.tail, fresh.0));
        ctx.write(cur.offset(CC_OP), op);
        ctx.write(cur.offset(CC_ARG), arg);
        ctx.write(cur.offset(CC_NEXT), fresh.0);
        h.node = cur; // adopt the received node as our next spare
        while ctx.read(cur.offset(CC_WAIT)) != 0 {
            ctx.work(SPIN_WORK);
        }
        if ctx.read(cur.offset(CC_DONE)) != 0 {
            return ctx.read(cur.offset(CC_RESP));
        }
        // Combining duty is ours. The first served node is always `cur`
        // (we linked its NEXT above), so our own response is iteration 0.
        h.acquisitions += 1;
        let mut own_resp = 0;
        let mut tmp = cur;
        let mut served = 0u64;
        loop {
            let next = ctx.read(tmp.offset(CC_NEXT));
            if next == 0 || served >= CC_HANDOFF {
                break;
            }
            let o = ctx.read(tmp.offset(CC_OP));
            let a = ctx.read(tmp.offset(CC_ARG));
            let resp = apply.apply(ctx, o, a);
            ctx.write(tmp.offset(CC_RESP), resp);
            ctx.write(tmp.offset(CC_DONE), 1);
            ctx.write(tmp.offset(CC_WAIT), 0);
            if tmp == cur {
                own_resp = resp;
            }
            h.combined += 1;
            served += 1;
            tmp = Addr(next);
        }
        // Handoff: wake `tmp`'s owner with DONE still 0 — it combines
        // from here (or, if `tmp` is the idle tail node, the next
        // enqueuer skips its spin entirely).
        ctx.write(tmp.offset(CC_WAIT), 0);
        own_resp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lr_machine::{Machine, SystemConfig, ThreadFn};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// Non-atomic read-modify-write counter: loses updates under any
    /// mutual-exclusion bug, and proves delegated application (the
    /// combiner's faa-free increment) is serialized.
    #[derive(Clone, Copy)]
    struct CounterApply {
        cell: Addr,
    }

    impl CsApply for CounterApply {
        fn apply(&self, ctx: &mut ThreadCtx, _op: u64, arg: u64) -> u64 {
            let v = ctx.read(self.cell);
            ctx.work(25);
            ctx.write(self.cell, v.wrapping_add(arg));
            v
        }
    }

    fn run_algo(algo: DlockAlgo, threads: usize, per: u64) -> (u64, u64, u64) {
        let mut m = Machine::new(SystemConfig::with_cores(threads));
        let (lock, cell) = m.setup(|mem| {
            let cell = mem.alloc_line_aligned(8);
            (Dlock::init(mem, algo, threads), cell)
        });
        let acq = Arc::new(AtomicU64::new(0));
        let comb = Arc::new(AtomicU64::new(0));
        let progs: Vec<ThreadFn> = (0..threads)
            .map(|tid| {
                let lock = lock.clone();
                let (acq, comb) = (acq.clone(), comb.clone());
                Box::new(move |ctx: &mut ThreadCtx| {
                    let mut h = lock.handle(tid);
                    let apply = CounterApply { cell };
                    for _ in 0..per {
                        lock.run(ctx, &mut h, &apply, 0, 1);
                        ctx.work(30);
                    }
                    acq.fetch_add(h.acquisitions, Ordering::Relaxed);
                    comb.fetch_add(h.combined, Ordering::Relaxed);
                }) as ThreadFn
            })
            .collect();
        let (_, mem) = m.run_with_memory(progs);
        (
            mem.read_word(cell),
            acq.load(Ordering::Relaxed),
            comb.load(Ordering::Relaxed),
        )
    }

    #[test]
    fn every_algorithm_is_mutually_exclusive_and_complete() {
        let (threads, per) = (5, 20u64);
        for algo in DLOCK_ALGOS {
            let (count, acq, comb) = run_algo(algo, threads, per);
            let total = threads as u64 * per;
            assert_eq!(count, total, "{}: lost updates", algo.name());
            assert_eq!(comb, total, "{}: ops applied != ops submitted", algo.name());
            assert!(
                acq >= 1 && acq <= total,
                "{}: handoff count insane",
                algo.name()
            );
        }
    }

    #[test]
    fn combining_algorithms_batch_ops_per_handoff() {
        // Under contention the delegating algorithms must serve more
        // than one op per lock acquisition on average.
        for algo in [DlockAlgo::Fc, DlockAlgo::FcLease, DlockAlgo::CcSynch] {
            let (count, acq, comb) = run_algo(algo, 6, 30);
            assert_eq!(count, 180, "{}: lost updates", algo.name());
            assert!(
                comb > acq,
                "{}: no combining happened ({comb} ops in {acq} holds)",
                algo.name()
            );
        }
    }

    #[test]
    fn single_thread_fast_path_works() {
        for algo in DLOCK_ALGOS {
            let (count, acq, comb) = run_algo(algo, 1, 10);
            assert_eq!(count, 10, "{}", algo.name());
            assert_eq!(comb, 10, "{}", algo.name());
            assert_eq!(acq, 10, "{}: uncontended holds must be 1:1", algo.name());
        }
    }

    #[test]
    fn responses_route_back_to_the_delegating_thread() {
        // Each thread FAAs a shared cell by 1 and must receive the *old*
        // value; collecting every response must yield a permutation of
        // 0..total — even when a combiner executed the op on our behalf.
        let (threads, per) = (4, 12u64);
        for algo in DLOCK_ALGOS {
            let mut m = Machine::new(SystemConfig::with_cores(threads));
            let (lock, cell) = m.setup(|mem| {
                let cell = mem.alloc_line_aligned(8);
                (Dlock::init(mem, algo, threads), cell)
            });
            let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
            let progs: Vec<ThreadFn> = (0..threads)
                .map(|tid| {
                    let lock = lock.clone();
                    let seen = seen.clone();
                    Box::new(move |ctx: &mut ThreadCtx| {
                        let mut h = lock.handle(tid);
                        let apply = CounterApply { cell };
                        let mut got = Vec::new();
                        for _ in 0..per {
                            got.push(lock.run(ctx, &mut h, &apply, 0, 1));
                        }
                        seen.lock().unwrap().extend(got);
                    }) as ThreadFn
                })
                .collect();
            m.run(progs);
            let mut all = seen.lock().unwrap().clone();
            all.sort_unstable();
            let expect: Vec<u64> = (0..threads as u64 * per).collect();
            assert_eq!(all, expect, "{}: responses mangled", algo.name());
        }
    }
}
