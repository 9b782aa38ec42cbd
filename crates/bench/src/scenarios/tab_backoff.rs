//! §7 "Comparison with Backoffs and Optimized Implementations": the
//! Treiber stack with exponential backoff versus leases. The paper finds
//! backoff buys up to 3x over base but stays ~2.5x below leases.
//!
//! Also covers the §5 prioritization ablation: leases with regular
//! requests allowed to break them.

use super::common::stack_cell;
use crate::scenario::{CellCtx, CellOut, Scenario};
use lr_ds::StackVariant;

pub static SCENARIO: Scenario = Scenario {
    name: "tab_backoff",
    title: "Backoff comparison (+ prioritization ablation): Treiber stack",
    paper_ref: "§7 / §5",
    series: &[
        "treiber-base",
        "treiber-backoff",
        "treiber-lease",
        "treiber-lease-prio",
    ],
    default_ops: 80,
    run_cell,
    annotate: None,
    footer: None,
};

fn run_cell(ctx: &CellCtx) -> CellOut {
    let series = ctx.series;
    let (variant, prioritization) = match series {
        0 => (StackVariant::Base, false),
        1 => (StackVariant::Backoff, false),
        2 => (StackVariant::Leased, false),
        _ => (StackVariant::Leased, true),
    };
    CellOut::row(stack_cell(ctx, SCENARIO.series[series], variant, |cfg| {
        cfg.lease.prioritization = prioritization
    }))
}
