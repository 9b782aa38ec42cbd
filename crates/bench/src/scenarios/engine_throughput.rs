//! Host throughput of the simulator itself: how many simulated
//! instructions and engine events the lockstep runtime retires per
//! wall-clock second. Not a paper figure — this guards the engine's
//! constant factor (rendezvous handoff cost, per-event allocation) so
//! the real experiments keep finishing in seconds as workloads grow.
//!
//! Three series bracket the engine's work per instruction:
//!
//! * `contended-faa` — every thread FAAs one shared line: maximal
//!   protocol work per instruction (directory round trips, probe
//!   queueing), the regime the paper's contended benchmarks live in.
//! * `private-rw` — each thread read/writes its own line: everything
//!   hits L1 after warmup, so the wall-clock cost is almost pure
//!   worker⇄engine handoff plus event-queue traffic.
//! * `events-resident` — each thread churns max-length leases on its
//!   own line: every acquisition schedules an expiry `MAX_LEASE_TIME`
//!   (20 000 cycles) out, so hundreds of far-future events stay
//!   resident per thread while the near-horizon pops proceed — the
//!   event-queue stress that the hierarchical timing wheel exists for
//!   (the `BinaryHeap` paid O(log n) on every push/pop here).
//!
//! Rows report wall-clock *simulated ops/s* in the Mops column; the
//! `CSVX` extras carry events/s and the raw wall time. Numbers are
//! host-dependent by nature (everything else in the suite is
//! byte-deterministic; these rows are exempt, like the native
//! validation scenario).

use crate::harness::BenchRow;
use crate::scenario::{CellCtx, CellOut, Scenario, ScenarioKind};
use lr_machine::{Machine, SystemConfig, ThreadCtx, ThreadFn};
use std::time::Instant;

pub static SCENARIO: Scenario = Scenario {
    name: "engine_throughput",
    title: "Engine throughput",
    paper_ref: "infrastructure",
    series: &["contended-faa", "private-rw", "events-resident"],
    // Per-thread simulated instructions; enough to amortize thread
    // startup while keeping a full sweep under a minute.
    default_ops: 4_000,
    kind: ScenarioKind::HostLockstep,
    run_cell,
    annotate: None,
    footer: Some(
        "Wall-clock simulator speed (host-dependent, not byte-reproducible).\n\
         contended-faa bounds the protocol-heavy regime, private-rw the pure\n\
         handoff overhead, events-resident the far-future event-queue horizon\n\
         (lease expiries); sim results are unaffected by any of them.",
    ),
};

fn run_cell(ctx: &CellCtx) -> CellOut {
    let (series, threads, ops) = (ctx.series, ctx.threads, ctx.ops);
    let cfg = SystemConfig::with_cores(threads.max(2));
    let mut m = ctx.prepare(Machine::new(cfg.clone()));
    let lines = m.setup(|mem| {
        (0..threads.max(1))
            .map(|_| mem.alloc_line_aligned(8))
            .collect::<Vec<_>>()
    });
    let shared = lines[0];
    let progs: Vec<ThreadFn> = (0..threads)
        .map(|tid| {
            let own = lines[tid];
            Box::new(move |ctx: &mut ThreadCtx| {
                match series {
                    0 => {
                        for _ in 0..ops {
                            ctx.faa(shared, 1);
                            ctx.count_op();
                        }
                    }
                    1 => {
                        for i in 0..ops / 2 {
                            ctx.write(own, i);
                            ctx.count_op();
                            ctx.read(own);
                            ctx.count_op();
                        }
                    }
                    _ => {
                        // Uncontended lease churn: the line stays
                        // Modified in the local L1, so each iteration is
                        // three fast-path instructions — but every lease
                        // parks one more expiry event 20 000 cycles in
                        // the future (released leases leave their armed
                        // expiry behind; it fires as a generation-checked
                        // no-op), keeping a deep far-future horizon
                        // resident in the event queue.
                        for i in 0..ops / 3 {
                            ctx.lease_max(own);
                            ctx.write(own, i);
                            ctx.release(own);
                            ctx.count_op();
                        }
                    }
                }
            }) as ThreadFn
        })
        .collect();
    let t0 = Instant::now();
    let (stats, mem, events) = m.run_counted(progs);
    let wall = t0.elapsed().as_secs_f64().max(1e-9);
    if series == 0 {
        assert_eq!(
            mem.read_word(shared),
            ops * threads as u64,
            "lost increments in the contended series"
        );
    }
    let ops_per_sec = stats.app_ops as f64 / wall;
    let events_per_sec = events as f64 / wall;
    let mut cell = CellOut::row(BenchRow::host_only(
        SCENARIO.series[series],
        threads,
        ops_per_sec / 1e6,
    ));
    cell.post.push(format!(
        "CSVX,engine_throughput,{},{},sim_ops_per_sec,{:.0},sim_events_per_sec,{:.0},events,{},wall_secs,{:.4}",
        SCENARIO.series[series], threads, ops_per_sec, events_per_sec, events, wall
    ));
    cell
}
