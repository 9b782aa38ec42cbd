//! Figure 3 (left column): the contended lock-based counter — throughput
//! and energy per operation for the TTS baseline, TTS + lease, the
//! ticket lock with linear backoff, and the CLH queue lock.
//!
//! The paper reports up to 20x throughput and 10x energy improvement for
//! the leased lock at 64 threads.

use crate::harness::BenchRow;
use crate::scenario::{CellCtx, CellOut, Scenario};
use lr_apps::{CounterBench, CounterLockKind};
use lr_machine::{Machine, SystemConfig, ThreadCtx, ThreadFn};

pub static SCENARIO: Scenario = Scenario {
    name: "fig3_counter",
    title: "Figure 3 (counter): lock-based counter throughput + energy",
    paper_ref: "Figure 3",
    series: &[
        "counter-tts-base",
        "counter-tts-lease",
        "counter-ticket-backoff",
        "counter-clh",
    ],
    default_ops: 60,
    run_cell,
    annotate: None,
    footer: None,
};

fn run_cell(ctx: &CellCtx) -> CellOut {
    let (series, threads, ops) = (ctx.series, ctx.threads, ctx.ops);
    let kind = match series {
        0 => CounterLockKind::Tts,
        1 => CounterLockKind::TtsLeased,
        2 => CounterLockKind::TicketBackoff,
        _ => CounterLockKind::Clh,
    };
    let cfg = SystemConfig::with_cores(threads.max(2));
    let mut m = ctx.prepare(Machine::new(cfg.clone()));
    let bench = m.setup(|mem| CounterBench::init(mem, kind));
    let progs: Vec<ThreadFn> = (0..threads)
        .map(|_| {
            Box::new(move |ctx: &mut ThreadCtx| {
                bench.run_thread(ctx, ops);
            }) as ThreadFn
        })
        .collect();
    let (stats, mem) = m.run_with_memory(progs);
    assert_eq!(
        mem.read_word(bench.counter_addr()),
        ops * threads as u64,
        "lost increments under {kind:?}"
    );
    CellOut::row(BenchRow::from_stats(
        SCENARIO.series[series],
        threads,
        &cfg,
        &stats,
    ))
}
