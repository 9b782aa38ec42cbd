//! Figure 2: throughput of the lock-free Treiber stack with and without
//! leases, 100% update operations, threads ∈ {1, 2, 4, ..., 64}.
//!
//! Each thread alternates push/pop pairs on the shared stack. The paper
//! reports ops/second; the leased variant should stay roughly flat as
//! threads grow while the base variant collapses (up to ~5–7x gap).

use super::common::stack_cell;
use crate::scenario::{CellCtx, CellOut, Scenario};
use lr_ds::StackVariant;

pub static SCENARIO: Scenario = Scenario {
    name: "fig2_stack",
    title: "Figure 2: Treiber stack throughput, 100% updates, base vs lease",
    paper_ref: "Figure 2",
    series: &["treiber-base", "treiber-lease"],
    default_ops: 200,
    run_cell,
    annotate: None,
    footer: None,
};

fn run_cell(ctx: &CellCtx) -> CellOut {
    let series = ctx.series;
    let variant = match series {
        0 => StackVariant::Base,
        _ => StackVariant::Leased,
    };
    CellOut::row(stack_cell(ctx, SCENARIO.series[series], variant, |_| {}))
}
