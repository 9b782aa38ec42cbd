//! The deterministic sweep driver: expands scenarios into a flat list
//! of independent (series × threads) grid cells, executes them across
//! parallel host workers, and merges rows back in canonical order — the
//! output stream is byte-identical to a serial run (`--jobs 1`),
//! because every cell is a deterministic simulation and emission order
//! is fixed by the plan, not by completion order.

use crate::harness::{threads_sweep, BenchRow};
use crate::report::{JsonPolicy, Report};
use crate::scenario::{CellCtx, CellOut, Scenario};
use crate::scenarios;
use lr_machine::TraceOutput;
use lr_sim_core::SystemConfig;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// One grid cell: a single deterministic measurement.
#[derive(Clone, Copy)]
pub struct CellSpec {
    pub scenario: &'static Scenario,
    pub series: usize,
    pub threads: usize,
    pub ops: u64,
}

/// A fully expanded sweep: cells in canonical emission order.
pub struct Plan {
    pub cells: Vec<CellSpec>,
    pub jobs: usize,
    pub json: JsonPolicy,
    /// When set, every cell's simulations dump traces into this
    /// directory (the `--record` flag), labelled per cell.
    pub record_dir: Option<PathBuf>,
}

/// Everything that selects and scales a sweep. `Default` gives the full
/// registry at the paper's thread counts and per-scenario default ops.
pub struct PlanOpts {
    /// Scenarios to run, in canonical order (default: whole registry).
    pub scenarios: Vec<&'static Scenario>,
    /// Keep only series whose name contains this substring.
    pub series_filter: Option<String>,
    /// Explicit thread axis (default: the paper's sweep, 1 to 64).
    pub threads: Option<Vec<usize>>,
    /// Per-thread operation-count override (`--ops` / smoke mode);
    /// takes precedence over each scenario's default.
    pub ops: Option<u64>,
    /// Worker thread count.
    pub jobs: usize,
    pub json: JsonPolicy,
    /// Trace-record directory (`--record DIR`). Threaded through the
    /// plan to each cell explicitly; workers never consult the
    /// environment.
    pub record_dir: Option<PathBuf>,
}

impl Default for PlanOpts {
    fn default() -> Self {
        PlanOpts {
            scenarios: scenarios::registry().to_vec(),
            series_filter: None,
            threads: None,
            ops: None,
            jobs: default_jobs(),
            json: JsonPolicy::disabled(),
            record_dir: None,
        }
    }
}

/// Host parallelism, the default `--jobs`.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Cap the worker count at host parallelism (at least 1):
/// every cell's engine runs on its worker's thread, so more workers
/// than host cores only oversubscribe. Pure — the caller supplies the
/// host parallelism.
pub fn clamp_jobs(jobs: usize, host: usize) -> usize {
    jobs.min(host).max(1)
}

/// Resolve one scenario's per-thread operation count: the explicit
/// override (`--ops`), else the scenario default.
fn resolve_ops(sc: &Scenario, over: Option<u64>) -> u64 {
    over.unwrap_or(sc.default_ops)
}

/// Expand `opts` into the canonical cell list: scenario-major (registry
/// order), series-major within a scenario, threads ascending.
pub fn build_plan(opts: &PlanOpts) -> Plan {
    let axis = opts.threads.clone().unwrap_or_else(|| threads_sweep(64));
    let mut cells = Vec::new();
    for sc in &opts.scenarios {
        let ops = resolve_ops(sc, opts.ops);
        for (series, name) in sc.series.iter().enumerate() {
            if let Some(f) = &opts.series_filter {
                if !name.contains(f.as_str()) {
                    continue;
                }
            }
            for &threads in &axis {
                cells.push(CellSpec {
                    scenario: sc,
                    series,
                    threads,
                    ops,
                });
            }
        }
    }
    let host_cap = default_jobs();
    let jobs = clamp_jobs(opts.jobs.max(1), host_cap);
    if jobs < opts.jobs.max(1) {
        eprintln!(
            "lr-bench: clamping --jobs {} to {jobs}: the host has {host_cap} \
             (output is byte-identical for any job count)",
            opts.jobs.max(1)
        );
    }
    Plan {
        cells,
        jobs,
        json: opts.json.clone(),
        record_dir: opts.record_dir.clone(),
    }
}

/// The full per-cell context handed to `run_cell`: the grid coordinates
/// plus this cell's trace destination, labelled
/// `scenario.series-name.tN` so concurrent cells recording into one
/// directory produce distinct, meaningful filenames.
fn cell_ctx(plan: &Plan, c: &CellSpec) -> CellCtx {
    CellCtx {
        series: c.series,
        threads: c.threads,
        ops: c.ops,
        record: plan.record_dir.as_ref().map(|dir| TraceOutput {
            dir: dir.clone(),
            label: format!(
                "{}.{}.t{}",
                c.scenario.name, c.scenario.series[c.series], c.threads
            ),
        }),
    }
}

/// Streaming merge state: emits completed cells strictly in plan order,
/// opening/closing one [`Report`] per scenario as the cursor crosses
/// scenario boundaries.
struct Emitter<'a> {
    plan: &'a Plan,
    out: &'a mut (dyn Write + Send),
    results: Vec<Option<CellOut>>,
    cursor: usize,
    report: Option<Report>,
    /// Rows already emitted for the cursor's current series (input to
    /// the scenario's `annotate` hook).
    series_rows: Vec<BenchRow>,
    header_cfg: SystemConfig,
}

impl<'a> Emitter<'a> {
    fn new(plan: &'a Plan, out: &'a mut (dyn Write + Send)) -> Self {
        Emitter {
            results: (0..plan.cells.len()).map(|_| None).collect(),
            cursor: 0,
            report: None,
            series_rows: Vec::new(),
            // Headers print the paper's Table 1 (the full 64-core
            // configuration), as the standalone benches always did.
            header_cfg: SystemConfig::default(),
            plan,
            out,
        }
    }

    /// Record cell `i`'s result and emit every cell that is now ready
    /// in canonical order.
    fn complete(&mut self, i: usize, cell_out: CellOut) {
        self.results[i] = Some(cell_out);
        while self.cursor < self.results.len() && self.results[self.cursor].is_some() {
            let co = self.results[self.cursor].take().expect("checked above");
            self.emit(self.cursor, co);
            self.cursor += 1;
        }
        if self.cursor == self.results.len() {
            self.close_report();
        }
    }

    fn emit(&mut self, idx: usize, co: CellOut) {
        let cell = &self.plan.cells[idx];
        let scenario_changed =
            idx == 0 || !std::ptr::eq(self.plan.cells[idx - 1].scenario, cell.scenario);
        if scenario_changed {
            self.close_report();
            self.report = Some(Report::begin(
                self.out,
                cell.scenario.title,
                &self.header_cfg,
                &self.plan.json,
            ));
            self.series_rows.clear();
        } else if self.plan.cells[idx - 1].series != cell.series {
            self.series_rows.clear();
        }
        let report = self.report.as_mut().expect("opened above");
        if let Some(annotate) = cell.scenario.annotate {
            for line in annotate(&self.series_rows, &co.row) {
                report.extra(self.out, &line);
            }
        }
        report.row(self.out, &co.row);
        for line in &co.post {
            report.extra(self.out, line);
        }
        self.series_rows.push(co.row);
    }

    fn close_report(&mut self) {
        if let Some(mut r) = self.report.take() {
            // The scenario that just finished is the one owning the
            // previous cell.
            if self.cursor > 0 {
                if let Some(f) = self.plan.cells[self.cursor - 1].scenario.footer {
                    r.line(self.out, f);
                }
            }
            r.finish(self.out);
        }
    }

    fn assert_drained(&self) {
        assert_eq!(
            self.cursor,
            self.results.len(),
            "sweep ended with unemitted cells"
        );
    }
}

/// Execute the plan on `plan.jobs` worker threads, merging rows in
/// canonical order as cells complete.
pub fn run(plan: &Plan, out: &mut (dyn Write + Send)) {
    let cells = plan.cells.len();
    let emit = Mutex::new(Emitter::new(plan, out));
    let next = AtomicUsize::new(0);
    let workers = plan.jobs.min(cells);
    if workers > 1 {
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= cells {
                        break;
                    }
                    let c = &plan.cells[i];
                    let co = (c.scenario.run_cell)(&cell_ctx(plan, c));
                    emit.lock().unwrap().complete(i, co);
                });
            }
        });
    } else {
        for (i, c) in plan.cells.iter().enumerate() {
            let co = (c.scenario.run_cell)(&cell_ctx(plan, c));
            emit.lock().unwrap().complete(i, co);
        }
    }
    emit.into_inner().unwrap().assert_drained();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_scenario_then_series_then_threads_ordered() {
        let opts = PlanOpts {
            scenarios: vec![
                scenarios::find("fig2_stack").unwrap(),
                scenarios::find("fig3_queue").unwrap(),
            ],
            threads: Some(vec![2, 4]),
            ops: Some(4),
            ..PlanOpts::default()
        };
        let plan = build_plan(&opts);
        let got: Vec<_> = plan
            .cells
            .iter()
            .map(|c| (c.scenario.name, c.series, c.threads))
            .collect();
        assert_eq!(
            got,
            vec![
                ("fig2_stack", 0, 2),
                ("fig2_stack", 0, 4),
                ("fig2_stack", 1, 2),
                ("fig2_stack", 1, 4),
                ("fig3_queue", 0, 2),
                ("fig3_queue", 0, 4),
                ("fig3_queue", 1, 2),
                ("fig3_queue", 1, 4),
                ("fig3_queue", 2, 2),
                ("fig3_queue", 2, 4),
            ]
        );
    }

    #[test]
    fn series_filter_selects_matching_series_only() {
        let opts = PlanOpts {
            scenarios: vec![scenarios::find("fig2_stack").unwrap()],
            series_filter: Some("lease".to_string()),
            threads: Some(vec![2]),
            ops: Some(4),
            ..PlanOpts::default()
        };
        let plan = build_plan(&opts);
        assert_eq!(plan.cells.len(), 1);
        assert_eq!(plan.cells[0].series, 1);
    }

    #[test]
    fn explicit_ops_override_beats_env_default() {
        let sc = scenarios::find("fig2_stack").unwrap();
        assert_eq!(resolve_ops(sc, Some(7)), 7);
    }

    #[test]
    fn jobs_clamp_respects_host_parallelism_budget() {
        // Within the host's cores: jobs pass through untouched.
        assert_eq!(clamp_jobs(8, 8), 8);
        assert_eq!(clamp_jobs(3, 8), 3);
        // More jobs than host cores: capped at the host.
        assert_eq!(clamp_jobs(64, 2), 2);
        assert_eq!(clamp_jobs(9, 8), 8);
        // Degenerate inputs stay sane: never zero.
        assert_eq!(clamp_jobs(0, 0), 1);
        assert_eq!(clamp_jobs(4, 0), 1);
    }
}
