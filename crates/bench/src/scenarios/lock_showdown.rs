//! Delegation-lock showdown: the paper's TTS and leased locks against
//! the modern software delegation family — MCS, CLH, flat combining and
//! CCSynch, plus the lease-accelerated hybrids (`mcs-lease` leases the
//! tail word around the two tail atomics, `fc-lease` leases the
//! combiner word for the session and each publication record while it
//! is served). Every series drives the same sequential array stack
//! through the same `(op, arg)` critical sections, so the only variable
//! is the lock protocol itself.
//!
//! Each cell runs **two contention levels** over the same structure:
//! `hot` (every iteration is a delegated push/pop — the total-order
//! regime delegation is built for) and `mild` (one delegated op every
//! 4th iteration, private-line writes and local work between — the
//! regime where a centralized combiner mostly idles). The reported row
//! is the `hot` run; both levels emit `CSVX` extras with the combiner
//! shape (acquisitions, ops combined, ops per lock handoff) and a
//! log2-bucket operation-latency histogram with p50/p90/p99 read off
//! the buckets.
//!
//! The cell also enforces the model-distortion fixes this scenario was
//! built to catch: the engine must report **zero allocator messages**
//! (all lock nodes and stack storage are pre-allocated pools — a single
//! steady-state `Malloc` would route a NoC round trip to tile 0 and
//! distort every latency number), every delegated operation must be
//! combined exactly once, no push may ever observe a full stack, and
//! the final depth must balance the push/pop/empty ledger.

use crate::harness::BenchRow;
use crate::scenario::{CellCtx, CellOut, Scenario};
use lr_ds::{DelegatedStack, StackApply, STACK_EMPTY, STACK_PUSH};
use lr_machine::{Machine, MachineStats, SystemConfig, ThreadCtx, ThreadFn};
use lr_sim_core::Addr;
use lr_sync::{CsApply, LeasedLock, SpinLock, TryLock, DLOCK_ALGOS};
use std::sync::{Arc, Mutex};

pub static SCENARIO: Scenario = Scenario {
    name: "lock_showdown",
    title: "Delegation-lock showdown (stack)",
    paper_ref: "§6–§7 competitors",
    series: &[
        "tts",
        "tts-lease",
        "mcs",
        "mcs-lease",
        "clh",
        "fc",
        "fc-lease",
        "ccsynch",
    ],
    default_ops: 256,
    run_cell,
    annotate: None,
    footer: Some(
        "Same sequential array stack under eight lock protocols; the row\n\
         is the hot (every-op-delegated) level, CSVX carries both levels.\n\
         ops_per_handoff is delegated ops per lock acquisition: ~1 for\n\
         TTS/MCS/CLH (one op per hold), >1 when flat combining / CCSynch\n\
         actually batch. Latency columns are log2-bucket percentiles of\n\
         per-operation simulated cycles (lease hybrids shine here: the\n\
         implicit queue hands the lock over without a re-read storm).",
    ),
};

/// Number of log2 latency buckets: bucket 0 is `dt == 0`, bucket k
/// (k >= 1) holds `dt` in `[2^(k-1), 2^k - 1]`, the last bucket is
/// open-ended. 2^23 cycles (~8.4 ms simulated) is far beyond any
/// single-op latency this workload can produce.
const NB: usize = 24;

fn bucket(dt: u64) -> usize {
    if dt == 0 {
        0
    } else {
        ((64 - dt.leading_zeros()) as usize).min(NB - 1)
    }
}

/// Host-side per-run ledger, merged across threads. Deterministic: every
/// field is derived from simulated observables (`ctx.now()`, responses).
#[derive(Clone, Copy)]
struct Tally {
    delegated: u64,
    pushes: u64,
    pops: u64,
    empties: u64,
    rejected: u64,
    acq: u64,
    comb: u64,
    lat_max: u64,
    hist: [u64; NB],
}

impl Tally {
    fn new() -> Self {
        Tally {
            delegated: 0,
            pushes: 0,
            pops: 0,
            empties: 0,
            rejected: 0,
            acq: 0,
            comb: 0,
            lat_max: 0,
            hist: [0; NB],
        }
    }

    fn merge(&mut self, o: &Tally) {
        self.delegated += o.delegated;
        self.pushes += o.pushes;
        self.pops += o.pops;
        self.empties += o.empties;
        self.rejected += o.rejected;
        self.acq += o.acq;
        self.comb += o.comb;
        self.lat_max = self.lat_max.max(o.lat_max);
        for (a, b) in self.hist.iter_mut().zip(o.hist.iter()) {
            *a += *b;
        }
    }

    /// q-th percentile latency read off the bucket upper bounds.
    fn pct(&self, q: u64) -> u64 {
        let total: u64 = self.hist.iter().sum();
        if total == 0 {
            return 0;
        }
        let target = (total * q).div_ceil(100);
        let mut seen = 0u64;
        for (k, n) in self.hist.iter().enumerate() {
            seen += n;
            if seen >= target {
                return if k == 0 { 0 } else { (1u64 << k) - 1 };
            }
        }
        self.lat_max
    }
}

/// Which protocol guards the critical sections of a series: one of the
/// two TTS baselines, or (series 2 on) `DLOCK_ALGOS[series - 2]`.
#[derive(Clone)]
enum Guard {
    Lock(Arc<dyn TryLock + Send + Sync>),
    Delegated(DelegatedStack),
}

struct RunOut {
    stats: MachineStats,
    alloc_msgs: u64,
    tally: Tally,
    depth: u64,
    cfg: SystemConfig,
}

/// One deterministic run of the showdown workload for one series at one
/// contention level. `hot` delegates every iteration; otherwise every
/// 4th, with a private-line write plus local work in between.
fn simulate(ctx: &CellCtx, series: usize, hot: bool, record: bool) -> RunOut {
    let (threads, ops) = (ctx.threads, ctx.ops);
    let cfg = SystemConfig::with_cores(threads.max(2));
    let mut m = Machine::new(cfg.clone());
    if record {
        // Only the measured (hot) run records; the mild run would
        // otherwise write a second trace under the same cell label.
        m = ctx.prepare(m);
    }
    // Everything pre-allocated at setup: stack storage, the lock word /
    // node pools, and a private line per thread. Steady state must not
    // send a single allocator message (asserted below via EngineInfo).
    let (guard, apply, own) = m.setup(|mem| {
        let (guard, apply) = match series {
            0 | 1 => {
                let a = StackApply::init(mem, threads as u64);
                let lock: Arc<dyn TryLock + Send + Sync> = if series == 0 {
                    Arc::new(SpinLock::init(mem))
                } else {
                    Arc::new(LeasedLock::init(mem))
                };
                (Guard::Lock(lock), a)
            }
            _ => {
                let algo = DLOCK_ALGOS[series - 2];
                assert_eq!(SCENARIO.series[series], algo.name());
                let s = DelegatedStack::init(mem, algo, threads, threads as u64);
                let a = s.apply();
                (Guard::Delegated(s), a)
            }
        };
        let own: Vec<Addr> = (0..threads.max(1))
            .map(|_| mem.alloc_line_aligned(8))
            .collect();
        (guard, apply, own)
    });
    let agg = Arc::new(Mutex::new(Tally::new()));
    let progs: Vec<ThreadFn> = (0..threads)
        .map(|tid| {
            let guard = guard.clone();
            let own = own[tid];
            let agg = agg.clone();
            Box::new(move |ctx: &mut ThreadCtx| {
                let mut t = Tally::new();
                let mut handle = match &guard {
                    Guard::Delegated(s) => Some(s.handle(tid)),
                    _ => None,
                };
                let mut turn = 0u64;
                for i in 0..ops {
                    if hot || i % 4 == 0 {
                        // Alternate push/pop per delegated op, so each
                        // thread holds at most one unpopped element and
                        // capacity == threads can never reject.
                        let (op, arg) = if turn.is_multiple_of(2) {
                            (STACK_PUSH, tid as u64 * ops + i + 1)
                        } else {
                            (lr_ds::STACK_POP, 0)
                        };
                        turn += 1;
                        let t0 = ctx.now();
                        let resp = match &guard {
                            Guard::Lock(l) => {
                                l.lock(ctx);
                                let r = apply.apply(ctx, op, arg);
                                l.unlock(ctx);
                                t.acq += 1;
                                t.comb += 1;
                                r
                            }
                            Guard::Delegated(s) => {
                                s.lock.run(ctx, handle.as_mut().unwrap(), &apply, op, arg)
                            }
                        };
                        let dt = ctx.now().saturating_sub(t0);
                        t.lat_max = t.lat_max.max(dt);
                        t.hist[bucket(dt)] += 1;
                        t.delegated += 1;
                        if op == STACK_PUSH {
                            t.pushes += 1;
                            if resp == 0 {
                                t.rejected += 1;
                            }
                        } else {
                            t.pops += 1;
                            if resp == STACK_EMPTY {
                                t.empties += 1;
                            }
                        }
                    } else {
                        ctx.write(own, i);
                        ctx.work(48);
                    }
                    ctx.count_op();
                }
                if let Some(h) = handle {
                    t.acq += h.acquisitions;
                    t.comb += h.combined;
                }
                agg.lock().unwrap().merge(&t);
            }) as ThreadFn
        })
        .collect();
    let (stats, mem, info) = m.run_counted_info(progs);
    let tally = *agg.lock().unwrap();
    RunOut {
        stats,
        alloc_msgs: info.alloc_msgs,
        tally,
        depth: apply.depth(&mem),
        cfg,
    }
}

/// Assert the run's structural invariants and render its CSVX line.
fn check_and_render(series: usize, threads: usize, level: &str, out: &RunOut) -> String {
    let t = &out.tally;
    let name = SCENARIO.series[series];
    assert_eq!(
        out.alloc_msgs, 0,
        "{name}/{level}: {} steady-state allocator messages — a pool was \
         not pre-allocated and Malloc/Free NoC round trips to the \
         allocator home tile are distorting the measurement",
        out.alloc_msgs
    );
    assert_eq!(t.rejected, 0, "{name}/{level}: push hit capacity");
    assert_eq!(
        t.comb, t.delegated,
        "{name}/{level}: combined-op ledger does not balance \
         (every delegated op must be applied exactly once)"
    );
    assert_eq!(
        out.depth,
        t.pushes - (t.pops - t.empties),
        "{name}/{level}: final depth does not balance the push/pop/empty ledger"
    );
    let per_handoff = if t.acq > 0 {
        t.delegated as f64 / t.acq as f64
    } else {
        0.0
    };
    let hist = t
        .hist
        .iter()
        .map(|n| n.to_string())
        .collect::<Vec<_>>()
        .join(":");
    format!(
        "CSVX,lock_showdown,{name},{threads},level,{level},delegated_ops,{},\
         acquisitions,{},combined,{},ops_per_handoff,{per_handoff:.2},\
         lat_p50,{},lat_p90,{},lat_p99,{},lat_max,{},hist,{hist}",
        t.delegated,
        t.acq,
        t.comb,
        t.pct(50),
        t.pct(90),
        t.pct(99),
        t.lat_max,
    )
}

fn run_cell(ctx: &CellCtx) -> CellOut {
    let (series, threads) = (ctx.series, ctx.threads);
    let hot = simulate(ctx, series, true, true);
    let mild = simulate(ctx, series, false, false);
    let mut cell = CellOut::row(BenchRow::from_stats(
        SCENARIO.series[series],
        threads,
        &hot.cfg,
        &hot.stats,
    ));
    cell.post
        .push(check_and_render(series, threads, "hot", &hot));
    cell.post
        .push(check_and_render(series, threads, "mild", &mild));
    cell
}
