//! Figure 5 (left): hardware versus software MultiLeases on the TL2
//! benchmark. The paper finds them comparable, with the software
//! emulation paying a slight but consistent penalty (extra instructions;
//! joint holding not guaranteed).

use super::common::tl2_cell;
use crate::scenario::{CellCtx, CellOut, Scenario};
use lr_stm::Tl2Variant;

pub static SCENARIO: Scenario = Scenario {
    name: "fig5_tl2_swhw",
    title: "Figure 5 (left): hardware vs software MultiLeases on TL2",
    paper_ref: "Figure 5",
    series: &["tl2-hw-multilease", "tl2-sw-multilease"],
    default_ops: 120,
    run_cell,
    annotate: None,
    footer: None,
};

fn run_cell(ctx: &CellCtx) -> CellOut {
    let series = ctx.series;
    let variant = match series {
        0 => Tl2Variant::HwMultiLease,
        _ => Tl2Variant::SwMultiLease,
    };
    let (row, _abort_rate) = tl2_cell(ctx, SCENARIO.series[series], variant);
    CellOut::row(row)
}
