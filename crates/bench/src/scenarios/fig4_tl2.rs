//! Figure 4 (right pair): the TL2-style transactional benchmark —
//! "transactions attempt to modify the values of two randomly chosen
//! transactional objects out of a fixed set of ten, by acquiring locks
//! on both". The paper reports up to 5x from MultiLeases (the abort rate
//! collapses) and a moderate gain from leasing only the first lock.

use super::common::tl2_cell;
use crate::scenario::{CellCtx, CellOut, Scenario};
use lr_stm::Tl2Variant;

pub static SCENARIO: Scenario = Scenario {
    name: "fig4_tl2",
    title: "Figure 4 (TL2): 2-of-10 object transactions, base vs single lease vs MultiLease",
    paper_ref: "Figure 4",
    series: &["tl2-base", "tl2-single-lease", "tl2-hw-multilease"],
    default_ops: 120,
    run_cell,
    annotate: None,
    footer: None,
};

fn run_cell(ctx: &CellCtx) -> CellOut {
    let series = ctx.series;
    let variant = match series {
        0 => Tl2Variant::Base,
        1 => Tl2Variant::SingleLease,
        _ => Tl2Variant::HwMultiLease,
    };
    let (row, abort_rate) = tl2_cell(ctx, SCENARIO.series[series], variant);
    let post = vec![format!(
        "CSVX,{},{},abort_rate,{:.4}",
        row.series, row.threads, abort_rate
    )];
    CellOut { row, post }
}
