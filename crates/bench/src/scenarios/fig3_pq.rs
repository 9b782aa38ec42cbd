//! Figure 3 (right column): the skiplist-based priority queue —
//! Lotan–Shavit over Pugh's locking skiplist (baseline) versus the
//! lease-based implementation, which "relies on a global lock". A plain
//! global lock is included as an ablation (how much of the win is the
//! lease vs. serialization).
//!
//! 100% updates: each thread alternates insert(random key)/deleteMin,
//! after pre-filling the queue.

use crate::harness::BenchRow;
use crate::scenario::{CellCtx, CellOut, Scenario};
use lr_ds::PriorityQueue;
use lr_machine::{Machine, SystemConfig, ThreadCtx, ThreadFn};
use lr_sim_mem::SimMemory;

const PREFILL: u64 = 256;

/// Constructor of one priority-queue implementation.
type PqInit = fn(&mut SimMemory) -> PriorityQueue;

pub static SCENARIO: Scenario = Scenario {
    name: "fig3_pq",
    title: "Figure 3 (priority queue): Lotan-Shavit baseline vs global-lock + lease",
    paper_ref: "Figure 3",
    series: &[
        "pq-lotan-shavit-base",
        "pq-global-lock",
        "pq-global-lock-lease",
    ],
    default_ops: 30,
    run_cell,
    annotate: None,
    footer: None,
};

fn run_cell(ctx: &CellCtx) -> CellOut {
    let (series, threads, ops) = (ctx.series, ctx.threads, ctx.ops);
    let init: PqInit = match series {
        0 => PriorityQueue::init_lotan_shavit,
        1 => PriorityQueue::init_global_lock,
        _ => PriorityQueue::init_global_leased,
    };
    let cfg = SystemConfig::with_cores(threads.max(2));
    let mut m = ctx.prepare(Machine::new(cfg.clone()));
    let pq = m.setup(init);
    let progs: Vec<ThreadFn> = (0..threads)
        .map(|tid| {
            Box::new(move |ctx: &mut ThreadCtx| {
                // Pre-fill a private slice of keys (not counted).
                for i in 0..PREFILL / threads as u64 + 1 {
                    let k = (tid as u64 + 1) * 1_000_000 + i * 17 + 1;
                    pq.insert(ctx, k, tid as u64);
                }
                for _ in 0..ops {
                    let k: u64 = ctx.rng().gen_range(1..100_000_000);
                    pq.insert(ctx, k, tid as u64);
                    ctx.count_op();
                    pq.delete_min(ctx);
                    ctx.count_op();
                }
            }) as ThreadFn
        })
        .collect();
    let stats = m.run(progs);
    CellOut::row(BenchRow::from_stats(
        SCENARIO.series[series],
        threads,
        &cfg,
        &stats,
    ))
}
