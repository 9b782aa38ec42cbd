//! Figure 5 (right): the lock-based Pagerank of CRONO \[2\]. Around 25% of
//! pages are dangling ("inaccessible"), and their rank mass is folded
//! into one shared cell under a contended lock. The paper reports 8x
//! throughput at 32 threads from leasing that lock, letting the
//! application scale.

use crate::harness::BenchRow;
use crate::scenario::{CellCtx, CellOut, Scenario};
use lr_apps::{Graph, Pagerank, PagerankVariant, SCALE};
use lr_machine::{Machine, SystemConfig, ThreadCtx, ThreadFn};
use std::sync::Arc;

pub static SCENARIO: Scenario = Scenario {
    name: "fig5_pagerank",
    title: "Figure 5 (right): lock-based Pagerank, contended dangling-mass lock",
    paper_ref: "Figure 5",
    series: &["pagerank-tts-base", "pagerank-lease"],
    // The ops knob doubles as the graph node count for this scenario.
    default_ops: 300,
    run_cell,
    annotate: None,
    footer: None,
};

fn run_cell(ctx: &CellCtx) -> CellOut {
    let (series, threads, ops) = (ctx.series, ctx.threads, ctx.ops);
    let variant = match series {
        0 => PagerankVariant::Base,
        _ => PagerankVariant::Leased,
    };
    // A graph must have at least a handful of nodes for the rank-mass
    // audit below to be meaningful under tiny smoke runs.
    let nodes = (ops as usize).max(8);
    let graph = Arc::new(Graph::synthesize(nodes, 0.25, 97));
    let iterations = 3;
    let cfg = SystemConfig::with_cores(threads.max(2));
    let mut m = ctx.prepare(Machine::new(cfg.clone()));
    let pr = m.setup(|mem| Pagerank::init(mem, &graph, threads, variant));
    let pr2 = pr.clone();
    let progs: Vec<ThreadFn> = (0..threads)
        .map(|tid| {
            let pr = pr.clone();
            let graph = graph.clone();
            Box::new(move |ctx: &mut ThreadCtx| {
                pr.run_thread(ctx, &graph, tid, threads, iterations);
            }) as ThreadFn
        })
        .collect();
    let (stats, mem) = m.run_with_memory(progs);
    let total = pr2.total_rank(&mem);
    assert!(
        total > SCALE * 70 / 100,
        "rank mass lost: {total} (race in the dangling lock?)"
    );
    CellOut::row(BenchRow::from_stats(
        SCENARIO.series[series],
        threads,
        &cfg,
        &stats,
    ))
}
