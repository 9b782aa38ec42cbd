//! Figure 3 (middle column): the Michael–Scott queue — throughput and
//! energy for the base implementation, single leases on the sentinel
//! pointers (Algorithm 3), and the multi-lease ablation (tail + last
//! node's next field), which the paper finds *slower* than the single
//! predecessor lease.

use super::common::queue_cell;
use crate::scenario::{CellCtx, CellOut, Scenario};
use lr_ds::QueueVariant;

pub static SCENARIO: Scenario = Scenario {
    name: "fig3_queue",
    title: "Figure 3 (queue): Michael-Scott queue throughput + energy, single vs multi lease",
    paper_ref: "Figure 3",
    series: &["msqueue-base", "msqueue-lease", "msqueue-multilease"],
    default_ops: 150,
    run_cell,
    annotate: None,
    footer: None,
};

fn run_cell(ctx: &CellCtx) -> CellOut {
    let series = ctx.series;
    let variant = match series {
        0 => QueueVariant::Base,
        1 => QueueVariant::Leased,
        _ => QueueVariant::MultiLeased,
    };
    CellOut::row(queue_cell(ctx, SCENARIO.series[series], variant, |_| {}))
}
