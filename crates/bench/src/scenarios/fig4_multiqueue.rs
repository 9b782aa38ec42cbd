//! Figure 4 (left pair): MultiQueues \[36\] with eight queues — threads
//! alternate insert and deleteMin (Algorithm 4). The paper reports ~50%
//! improvement from leases/MultiLeases (bounded by the long sequential
//! critical sections).

use crate::harness::BenchRow;
use crate::scenario::{CellCtx, CellOut, Scenario};
use lr_ds::{MqVariant, MultiQueue};
use lr_machine::{Machine, SystemConfig, ThreadCtx, ThreadFn};

const NUM_QUEUES: usize = 8;
const PREFILL: u64 = 512;

pub static SCENARIO: Scenario = Scenario {
    name: "fig4_multiqueue",
    title: "Figure 4 (MultiQueues): 8 queues, alternating insert/deleteMin",
    paper_ref: "Figure 4",
    series: &["multiqueue-base", "multiqueue-lease"],
    default_ops: 40,
    run_cell,
    annotate: None,
    footer: None,
};

fn run_cell(ctx: &CellCtx) -> CellOut {
    let (series, threads, ops) = (ctx.series, ctx.threads, ctx.ops);
    let variant = match series {
        0 => MqVariant::Base,
        _ => MqVariant::Leased,
    };
    let cfg = SystemConfig::with_cores(threads.max(2));
    let mut m = ctx.prepare(Machine::new(cfg.clone()));
    let mq = m.setup(|mem| MultiQueue::init(mem, NUM_QUEUES, variant));
    let progs: Vec<ThreadFn> = (0..threads)
        .map(|tid| {
            let mq = mq.clone();
            Box::new(move |ctx: &mut ThreadCtx| {
                for i in 0..PREFILL / threads as u64 + 1 {
                    let k = (tid as u64 + 1) * 1_000_000 + i * 13 + 1;
                    mq.insert(ctx, k, tid as u64);
                }
                for _ in 0..ops {
                    let k: u64 = ctx.rng().gen_range(1..100_000_000);
                    mq.insert(ctx, k, tid as u64);
                    ctx.count_op();
                    mq.delete_min(ctx);
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
