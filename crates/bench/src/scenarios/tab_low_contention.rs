//! §7 "Low Contention": lock-free linked lists, skiplists, binary trees,
//! and lock-based hash tables with 20% updates / 80% searches on uniform
//! random keys. The paper finds identical throughput, with leases adding
//! ≤ 5% at ≥ 32 threads.

use crate::harness::BenchRow;
use crate::scenario::{CellCtx, CellOut, Scenario};
use lr_ds::{Bst, HarrisList, HashTable, LockingSkipList};
use lr_machine::{Machine, SystemConfig, ThreadCtx, ThreadFn};

const KEY_RANGE: u64 = 512;
const PREFILL: u64 = 128;

pub static SCENARIO: Scenario = Scenario {
    name: "tab_low_contention",
    title: "Low contention: list/skiplist/BST/hashtable, 20% updates, uniform keys",
    paper_ref: "§7",
    series: &[
        "harris-list-base",
        "hashtable-base",
        "bst-base",
        "harris-list-lease",
        "hashtable-lease",
        "bst-lease",
        "skiplist-set-base",
    ],
    default_ops: 40,
    run_cell,
    annotate: None,
    footer: None,
};

/// One op: 80% contains, 10% insert, 10% remove, uniform keys.
fn mixed_op(ctx: &mut ThreadCtx, op: &impl Fn(&mut ThreadCtx, u8, u64)) {
    let k: u64 = ctx.rng().gen_range(1..KEY_RANGE);
    let dice: u8 = ctx.rng().gen_range(0..10);
    op(ctx, dice, k);
    ctx.count_op();
}

fn sweep<F>(ctx: &CellCtx, name: &str, build: F) -> BenchRow
where
    F: Fn(&mut Machine) -> Box<dyn Fn(&mut ThreadCtx, u8, u64) + Send + Sync>,
{
    let (threads, ops) = (ctx.threads, ctx.ops);
    let cfg = SystemConfig::with_cores(threads.max(2));
    let mut m = ctx.prepare(Machine::new(cfg.clone()));
    let op = std::sync::Arc::new(build(&mut m));
    let stripe = PREFILL / threads as u64 + 1;
    let progs: Vec<ThreadFn> = (0..threads)
        .map(|tid| {
            let op = op.clone();
            Box::new(move |ctx: &mut ThreadCtx| {
                // Pre-fill a disjoint key stripe (uncounted).
                for i in 0..stripe {
                    let k = (tid as u64 * stripe + i) % (KEY_RANGE - 1) + 1;
                    op(ctx, 0, k);
                }
                for _ in 0..ops {
                    mixed_op(ctx, op.as_ref());
                }
            }) as ThreadFn
        })
        .collect();
    let stats = m.run(progs);
    BenchRow::from_stats(name, threads, &cfg, &stats)
}

fn run_cell(ctx: &CellCtx) -> CellOut {
    let series = ctx.series;
    let name = SCENARIO.series[series];
    let leased = (3..6).contains(&series);
    let row = match series {
        0 | 3 => sweep(ctx, name, |m| {
            let l = m.setup(|mem| HarrisList::init(mem, leased));
            Box::new(move |ctx, dice, k| {
                match dice {
                    0 => {
                        l.insert(ctx, k);
                    }
                    1 => {
                        l.remove(ctx, k);
                    }
                    _ => {
                        l.contains(ctx, k);
                    }
                };
            })
        }),
        1 | 4 => sweep(ctx, name, |m| {
            let h = m.setup(|mem| HashTable::init(mem, 256, leased));
            Box::new(move |ctx, dice, k| {
                match dice {
                    0 => {
                        h.insert(ctx, k);
                    }
                    1 => {
                        h.remove(ctx, k);
                    }
                    _ => {
                        h.contains(ctx, k);
                    }
                };
            })
        }),
        2 | 5 => sweep(ctx, name, |m| {
            let b = m.setup(|mem| Bst::init(mem, leased));
            Box::new(move |ctx, dice, k| {
                match dice {
                    0 => {
                        b.insert(ctx, k);
                    }
                    1 => {
                        b.remove(ctx, k);
                    }
                    _ => {
                        b.contains(ctx, k);
                    }
                };
            })
        }),
        // Locking skiplist set (lease variant not applicable: its locks
        // are per-node and short; the paper's skiplist-set numbers are
        // base-only here).
        _ => sweep(ctx, name, |m| {
            let sl = m.setup(LockingSkipList::init);
            Box::new(move |ctx, dice, k| {
                match dice {
                    0 => {
                        sl.insert(ctx, k, k);
                    }
                    1 => {
                        sl.remove(ctx, k);
                    }
                    _ => {
                        sl.contains(ctx, k);
                    }
                };
            })
        }),
    };
    CellOut::row(row)
}
