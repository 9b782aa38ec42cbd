//! Record/replay throughput: how much faster the engine re-drives a
//! recorded op stream than the live lockstep run that produced it.
//!
//! Each cell records a live run with [`Machine::run_recorded`] (real OS
//! worker threads, rendezvous handoffs), then replays the captured
//! trace engine-only through `lr-replay` — single thread, no slots, no
//! parking — and *requires* the replay to reproduce the recorded
//! `MachineStats` byte-for-byte before reporting any number. The Mops
//! column is replay sim-ops/s; the `CSVX` extras carry live sim-ops/s
//! and the speedup, which isolates the rendezvous + scheduling share of
//! live simulation cost (everything the replayer skips).
//!
//! Two series bracket the replayer's advantage:
//!
//! * `contended-faa` — maximal protocol work per op: replay advantage
//!   is smallest because the engine dominates either way.
//! * `lease-churn` — private lease/write/release loops: almost pure
//!   handoff cost live, so replay's advantage is largest.

use crate::harness::BenchRow;
use crate::scenario::{CellCtx, CellOut, Scenario, ScenarioKind};
use lr_machine::{Machine, SystemConfig, ThreadCtx, ThreadFn};
use lr_replay::{replay, ReplayOutcome};
use std::time::Instant;

pub static SCENARIO: Scenario = Scenario {
    name: "trace_replay",
    title: "Trace record/replay throughput",
    paper_ref: "infrastructure",
    series: &["contended-faa", "lease-churn"],
    // Per-thread simulated instructions, as in engine_throughput.
    default_ops: 4_000,
    kind: ScenarioKind::HostLockstep,
    run_cell,
    annotate: None,
    footer: Some(
        "Wall-clock replay speed vs the live lockstep run (host-dependent).\n\
         Replay feeds the recorded op stream back into the engine from one\n\
         thread (no rendezvous, no parked workers) and must reproduce the\n\
         recorded MachineStats byte-for-byte; the speedup is the live run's\n\
         handoff + host-scheduling share.",
    ),
};

fn build_machine(threads: usize) -> (Machine, Vec<lr_machine::Addr>) {
    let cfg = SystemConfig::with_cores(threads.max(2));
    let mut m = Machine::new(cfg);
    let lines = m.setup(|mem| {
        (0..threads.max(1))
            .map(|_| mem.alloc_line_aligned(8))
            .collect::<Vec<_>>()
    });
    (m, lines)
}

fn programs(series: usize, threads: usize, ops: u64, lines: &[lr_machine::Addr]) -> Vec<ThreadFn> {
    let shared = lines[0];
    (0..threads)
        .map(|tid| {
            let own = lines[tid];
            Box::new(move |ctx: &mut ThreadCtx| {
                if series == 0 {
                    for _ in 0..ops {
                        ctx.faa(shared, 1);
                        ctx.count_op();
                    }
                } else {
                    for i in 0..ops / 3 {
                        ctx.lease_max(own);
                        ctx.write(own, i);
                        ctx.release(own);
                        ctx.count_op();
                    }
                }
            }) as ThreadFn
        })
        .collect()
}

fn run_cell(ctx: &CellCtx) -> CellOut {
    let (series, threads, ops) = (ctx.series, ctx.threads, ctx.ops);
    // Live recorded run.
    let (m, lines) = build_machine(threads);
    let m = ctx.prepare(m);
    let t0 = Instant::now();
    let recorded = m.run_recorded(programs(series, threads, ops, &lines));
    let live_wall = t0.elapsed().as_secs_f64().max(1e-9);

    // Engine-only replay of the captured trace.
    let t1 = Instant::now();
    let outcome = replay(&recorded.trace);
    let replay_wall = t1.elapsed().as_secs_f64().max(1e-9);
    let (stats, events) = match outcome {
        ReplayOutcome::Matched { stats, events, .. } => (stats, events),
        ReplayOutcome::Diverged(d) => panic!("trace_replay cell diverged: {d}\n{}", d.report),
    };
    assert_eq!(
        stats.to_json(),
        recorded.stats.to_json(),
        "replayed stats must be byte-identical to the live run"
    );
    assert_eq!(events, recorded.events, "replay event count must match");

    let live_ops_per_sec = recorded.stats.app_ops as f64 / live_wall;
    let replay_ops_per_sec = stats.app_ops as f64 / replay_wall;
    let mut cell = CellOut::row(BenchRow::host_only(
        SCENARIO.series[series],
        threads,
        replay_ops_per_sec / 1e6,
    ));
    cell.post.push(format!(
        "CSVX,trace_replay,{},{},live_ops_per_sec,{:.0},replay_ops_per_sec,{:.0},speedup,{:.2},trace_bytes,{}",
        SCENARIO.series[series],
        threads,
        live_ops_per_sec,
        replay_ops_per_sec,
        replay_ops_per_sec / live_ops_per_sec,
        lr_sim_core::tracefmt::encode(&recorded.trace).len(),
    ));
    cell
}
