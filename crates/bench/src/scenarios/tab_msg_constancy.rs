//! §7 message/miss constancy: "average cache misses per operation for
//! the stack are constant ... from 4 to 64 threads; on the base
//! implementation, this parameter increases by 5x at 64 threads. The
//! same holds if we record average coherence messages per operation ...
//! and even if we decrease MAX_LEASE_TIME to 1K cycles."
//!
//! Growth factors are emitted as `CSVX,` lines relative to the series'
//! first ≥4-thread row — computed at merge time from already-emitted
//! rows (the [`Scenario::annotate`] hook), so a parallel sweep prints
//! exactly what a serial one does.

use super::common::stack_cell;
use crate::harness::BenchRow;
use crate::scenario::{CellCtx, CellOut, Scenario};
use lr_ds::StackVariant;
use lr_sim_core::Cycle;

pub static SCENARIO: Scenario = Scenario {
    name: "tab_msg_constancy",
    title: "Message/miss constancy: stack misses/op and messages/op vs threads",
    paper_ref: "§7",
    series: &["stack-base", "stack-lease-20k", "stack-lease-1k"],
    default_ops: 120,
    run_cell,
    annotate: Some(growth_lines),
    footer: None,
};

fn run_cell(ctx: &CellCtx) -> CellOut {
    let series = ctx.series;
    let (variant, lease_time): (StackVariant, Cycle) = match series {
        0 => (StackVariant::Base, 20_000),
        1 => (StackVariant::Leased, 20_000),
        _ => (StackVariant::Leased, 1_000),
    };
    CellOut::row(stack_cell(ctx, SCENARIO.series[series], variant, |cfg| {
        cfg.lease.max_lease_time = lease_time
    }))
}

/// Misses/op and msgs/op growth relative to the series' first ≥4-thread
/// row (growth 1.000 on that row itself).
fn growth_lines(prior: &[BenchRow], current: &BenchRow) -> Vec<String> {
    if current.threads < 4 {
        return Vec::new();
    }
    let base = prior.iter().find(|r| r.threads >= 4).unwrap_or(current);
    vec![format!(
        "CSVX,{},{},miss_growth,{:.3},msg_growth,{:.3}",
        current.series,
        current.threads,
        current.misses_per_op / base.misses_per_op,
        current.msgs_per_op / base.msgs_per_op
    )]
}
