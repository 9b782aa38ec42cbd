//! §5 "Speculative Execution" ablation: adaptive lease suppression.
//!
//! Workload: a shared cell updated by a read–compute–CAS pattern whose
//! compute window is ~150 cycles. With the default 20K-cycle
//! `MAX_LEASE_TIME` the lease covers the window and removes all CAS
//! retries. With a pathological 60-cycle bound the lease *always*
//! expires mid-window — pure overhead — and the adaptive predictor
//! (tracking involuntary releases per call site, as the paper proposes)
//! suppresses it, recovering baseline behaviour.

use crate::harness::BenchRow;
use crate::scenario::{CellCtx, CellOut, Scenario};
use lr_lease::AdaptiveLease;
use lr_machine::{Machine, SystemConfig, ThreadCtx, ThreadFn};
use lr_sim_core::Cycle;

const COMPUTE: Cycle = 150;
const SITE: u64 = 0xadaf_0001;

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Base,
    StaticLease,
    Adaptive,
}

pub static SCENARIO: Scenario = Scenario {
    name: "tab_adaptive",
    title: "Adaptive lease suppression: healthy (20K) vs pathological (60-cycle) MAX_LEASE_TIME",
    paper_ref: "§5",
    series: &[
        "rmw-base",
        "rmw-lease-20k",
        "rmw-adaptive-20k",
        "rmw-base-60",
        "rmw-lease-60",
        "rmw-adaptive-60",
    ],
    default_ops: 120,
    run_cell,
    annotate: None,
    footer: None,
};

fn run_cell(ctx: &CellCtx) -> CellOut {
    let (series, threads, ops) = (ctx.series, ctx.threads, ctx.ops);
    let mode = match series % 3 {
        0 => Mode::Base,
        1 => Mode::StaticLease,
        _ => Mode::Adaptive,
    };
    let lease_time: Cycle = if series < 3 { 20_000 } else { 60 };
    let mut cfg = SystemConfig::with_cores(threads.max(2));
    cfg.lease.max_lease_time = lease_time;
    let mut m = ctx.prepare(Machine::new(cfg.clone()));
    let cell = m.setup(|mem| mem.alloc_line_aligned(8));
    let progs: Vec<ThreadFn> = (0..threads)
        .map(|_| {
            Box::new(move |ctx: &mut ThreadCtx| {
                let mut al = AdaptiveLease::default();
                for _ in 0..ops {
                    loop {
                        let took = match mode {
                            Mode::Base => false,
                            Mode::StaticLease => {
                                ctx.lease(cell, lease_time);
                                true
                            }
                            Mode::Adaptive => al.lease(ctx, SITE, cell, lease_time),
                        };
                        let v = ctx.read(cell);
                        ctx.work(COMPUTE); // compute the new value
                        let ok = ctx.cas(cell, v, v + 1);
                        match mode {
                            Mode::Base => {}
                            Mode::StaticLease => {
                                ctx.release(cell);
                            }
                            Mode::Adaptive => al.release(ctx, SITE, cell, took),
                        }
                        if ok {
                            break;
                        }
                    }
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
