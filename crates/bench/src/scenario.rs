//! The declarative experiment surface: a [`Scenario`] describes one
//! paper figure/table — its series, sweep axes, default operation
//! count, and a pure `run_cell` function producing one measured row.
//!
//! Every (series × thread-count) grid cell is an independent
//! deterministic simulation (same seed ⇒ identical stats), so the sweep
//! driver ([`crate::sweep`]) is free to execute cells on parallel host
//! workers and merge rows back in canonical order: output is
//! byte-identical to a serial run.
//!
//! The concrete scenarios live under [`crate::scenarios`]; adding a
//! workload is a ~30-line registry entry there, not a new binary.

use crate::harness::BenchRow;
use lr_machine::Machine;
use std::path::PathBuf;

/// Where a cell's simulations dump their traces: a directory plus the
/// cell's canonical label (`scenario.series.tN`), which the machine
/// layer turns into a collision-free filename.
#[derive(Debug, Clone)]
pub struct RecordTo {
    pub dir: PathBuf,
    pub label: String,
}

/// Inputs to one grid cell. The sweep driver threads the record
/// directory through here explicitly — a recording sweep never mutates
/// process-global state (`std::env::set_var`) that parallel workers
/// would race on.
#[derive(Debug, Clone)]
pub struct CellCtx {
    /// Index into the scenario's `series` array.
    pub series: usize,
    /// Simulated thread count for this cell.
    pub threads: usize,
    /// Per-thread operation count.
    pub ops: u64,
    /// Trace destination when the sweep records (`--record DIR`).
    pub record: Option<RecordTo>,
}

impl CellCtx {
    /// Apply this cell's recording destination (if any) to a machine.
    /// Scenario `run_cell` implementations route every `Machine` they
    /// construct through here.
    pub fn prepare(&self, m: Machine) -> Machine {
        match &self.record {
            Some(r) => m.with_trace_output(r.dir.clone(), r.label.clone()),
            None => m,
        }
    }
}

/// The output of one grid cell: the measured row plus any auxiliary
/// lines (`CSVX,` extras) printed immediately after it.
#[derive(Debug, Clone)]
pub struct CellOut {
    pub row: BenchRow,
    /// Extra lines emitted right after the row (e.g. TL2 abort rates).
    pub post: Vec<String>,
}

impl CellOut {
    /// A cell with no auxiliary output.
    pub fn row(row: BenchRow) -> Self {
        CellOut {
            row,
            post: Vec::new(),
        }
    }
}

/// Lines emitted right *before* a row, computed from the rows already
/// emitted for the same series (in canonical order) plus the current
/// row — e.g. the message-constancy growth factors, which are relative
/// to the series' first ≥4-thread row. Pure, so serial and parallel
/// sweeps agree.
pub type AnnotateFn = fn(prior: &[BenchRow], current: &BenchRow) -> Vec<String>;

/// One paper figure/table as a declarative registry entry.
pub struct Scenario {
    /// Registry key, e.g. `fig2_stack`.
    pub name: &'static str,
    /// Header title; its slug names the `BENCH_<slug>.json` file.
    pub title: &'static str,
    /// Where in the paper this comes from, e.g. `"Figure 2"`.
    pub paper_ref: &'static str,
    /// Series (variant) names, in canonical emission order.
    pub series: &'static [&'static str],
    /// Default per-thread operation count (for Pagerank: node count).
    pub default_ops: u64,
    /// Run one grid cell. Must be pure up to the deterministic
    /// simulator seed (recording, when requested via the context, only
    /// adds trace files — never changes the measured row).
    pub run_cell: fn(ctx: &CellCtx) -> CellOut,
    /// Optional pre-row annotation hook (see [`AnnotateFn`]).
    pub annotate: Option<AnnotateFn>,
    /// Optional trailer printed after the scenario's last row.
    pub footer: Option<&'static str>,
}

// Scenarios live in a `static` registry and are handed to sweep worker
// threads by reference.
const _: () = {
    const fn assert_sync<T: Sync>() {}
    assert_sync::<Scenario>();
};
