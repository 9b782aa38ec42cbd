//! §7 / §8 ablations on the lease configuration:
//!
//! * `MAX_LEASE_TIME` ∈ {1K, 20K} cycles — the paper's sensitivity check
//!   (results should be essentially unchanged);
//! * `MAX_NUM_LEASES` = 1 — the paper's recommended minimal hardware
//!   proposal (single-lease-only cores, §8), which must not hurt the
//!   single-lease workloads.

use super::common::{queue_cell, stack_cell};
use crate::scenario::{CellCtx, CellOut, Scenario};
use lr_ds::{QueueVariant, StackVariant};
use lr_sim_core::Cycle;

pub static SCENARIO: Scenario = Scenario {
    name: "tab_lease_sensitivity",
    title: "Lease-config sensitivity: MAX_LEASE_TIME 1K vs 20K; MAX_NUM_LEASES = 1",
    paper_ref: "§7 / §8",
    series: &[
        "stack-lease-20k",
        "stack-lease-1k",
        "stack-lease-single-entry",
        "queue-lease-20k",
        "queue-lease-1k",
        "queue-lease-single-entry",
    ],
    default_ops: 80,
    run_cell,
    annotate: None,
    footer: None,
};

fn run_cell(ctx: &CellCtx) -> CellOut {
    let series = ctx.series;
    let (lease_time, max_leases): (Cycle, usize) = match series % 3 {
        0 => (20_000, 8),
        1 => (1_000, 8),
        _ => (20_000, 1),
    };
    let name = SCENARIO.series[series];
    let tweak = move |cfg: &mut lr_machine::SystemConfig| {
        cfg.lease.max_lease_time = lease_time;
        cfg.lease.max_num_leases = max_leases;
    };
    let row = if series < 3 {
        stack_cell(ctx, name, StackVariant::Leased, tweak)
    } else {
        queue_cell(ctx, name, QueueVariant::Leased, tweak)
    };
    CellOut::row(row)
}
