//! §8 "Other Protocols" ablation: Lease/Release on MESI instead of MSI.
//! The lease semantics are identical ("a core leasing a line demands it
//! in Exclusive state, and will delay incoming coherence requests"); the
//! contended results must be essentially protocol-independent, while
//! MESI saves the upgrade transaction in read-then-write patterns.

use super::common::stack_cell;
use crate::scenario::{CellCtx, CellOut, Scenario};
use lr_ds::StackVariant;
use lr_sim_core::CoherenceProtocol;

pub static SCENARIO: Scenario = Scenario {
    name: "tab_mesi",
    title: "MESI ablation: Treiber stack under MSI vs MESI",
    paper_ref: "§8",
    series: &[
        "stack-base-msi",
        "stack-base-mesi",
        "stack-lease-msi",
        "stack-lease-mesi",
    ],
    default_ops: 120,
    run_cell,
    annotate: None,
    footer: None,
};

fn run_cell(ctx: &CellCtx) -> CellOut {
    let series = ctx.series;
    let (variant, protocol) = match series {
        0 => (StackVariant::Base, CoherenceProtocol::Msi),
        1 => (StackVariant::Base, CoherenceProtocol::Mesi),
        2 => (StackVariant::Leased, CoherenceProtocol::Msi),
        _ => (StackVariant::Leased, CoherenceProtocol::Mesi),
    };
    CellOut::row(stack_cell(ctx, SCENARIO.series[series], variant, |cfg| {
        cfg.protocol = protocol
    }))
}
