//! The one driver: run any subset of the paper's experiment grid with
//! parallel workers and canonical (serial-identical) output.
//!
//! ```text
//! lr-bench --list
//! lr-bench --scenario fig2_stack,fig3_queue --threads 2,4,8 --jobs 8
//! lr-bench --series lease --ops 50
//! lr-bench --smoke --jobs 2          # tiny ops, every scenario
//! ```

use lr_bench::{build_plan, default_jobs, registry, run, JsonPolicy, PlanOpts, Scenario};
use lr_sim_core::MAX_CORES;

const USAGE: &str = "\
lr-bench — declarative sweep driver for every paper figure/table

USAGE:
    lr-bench [OPTIONS]

OPTIONS:
    --list               List registered scenarios and exit
    --scenario A,B,...   Run only the named scenarios (default: all)
    --series SUBSTR      Run only series whose name contains SUBSTR
    --threads T1,T2,...  Thread counts, each 1 to 1024 (default: 1,2,4,...,64)
    --ops N              Per-thread operations for every scenario, at
                         least 1 (default: per scenario)
    --jobs N             Parallel workers (default and cap: host cores;
                         output is identical for any N)
    --smoke              Tiny ops, 2-thread cells: every selected
                         scenario in seconds
    --record DIR         Record every simulation as a trace file in DIR
                         (verify them with `lr-replay DIR`)
    --json DIR           Write each scenario's rows to DIR/BENCH_<name>.json
                         (DIR is created if missing; default: no JSON)
    -h, --help           This help
";

/// Per-thread ops for `--smoke`: small enough that all 16 scenarios
/// finish in seconds, large enough that every metric is exercised.
const SMOKE_OPS: u64 = 8;

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("run `lr-bench --help` for usage");
    std::process::exit(2);
}

/// The `--threads` axis. Every count must fit one simulated machine
/// (1 to `MAX_CORES` cores), so a bad value is a usage error here
/// rather than a panic inside a running cell.
fn parse_threads(arg: &str) -> Vec<usize> {
    arg.split(',')
        .map(|p| match p.trim().parse::<usize>() {
            Ok(t) if (1..=MAX_CORES).contains(&t) => t,
            _ => fail(&format!(
                "bad --threads value {p:?} (each count must be 1 to {MAX_CORES})"
            )),
        })
        .collect()
}

/// `--ops`: every cell needs at least one op per thread, or its
/// per-op metrics divide by zero.
fn parse_ops(arg: &str) -> u64 {
    match arg.trim().parse::<u64>() {
        Ok(n) if n >= 1 => n,
        _ => fail(&format!("bad --ops value {arg:?} (must be at least 1)")),
    }
}

fn list_scenarios() {
    println!(
        "{:<22} {:<16} {:>6} {:>8}  series",
        "name", "paper", "series", "def.ops"
    );
    for s in registry() {
        println!(
            "{:<22} {:<16} {:>6} {:>8}  {}",
            s.name,
            s.paper_ref,
            s.series.len(),
            s.default_ops,
            s.series.join(",")
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scenario_filter: Option<Vec<String>> = None;
    let mut series_filter: Option<String> = None;
    let mut threads: Option<Vec<usize>> = None;
    let mut ops: Option<u64> = None;
    let mut jobs: Option<usize> = None;
    let mut smoke = false;
    let mut record_dir: Option<String> = None;
    let mut json_dir: Option<String> = None;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| -> String {
            it.next()
                .unwrap_or_else(|| fail(&format!("{name} needs a value")))
                .clone()
        };
        match a.as_str() {
            "--list" => {
                list_scenarios();
                return;
            }
            "-h" | "--help" => {
                print!("{USAGE}");
                return;
            }
            "--scenario" => {
                scenario_filter = Some(value("--scenario").split(',').map(str::to_string).collect())
            }
            "--series" => series_filter = Some(value("--series")),
            "--threads" => threads = Some(parse_threads(&value("--threads"))),
            "--ops" => ops = Some(parse_ops(&value("--ops"))),
            "--jobs" => {
                jobs = Some(
                    value("--jobs")
                        .parse()
                        .unwrap_or_else(|_| fail("bad --jobs value")),
                )
            }
            "--smoke" => smoke = true,
            "--record" => record_dir = Some(value("--record")),
            "--json" => json_dir = Some(value("--json")),
            other => fail(&format!("unknown argument {other:?}")),
        }
    }

    // The record directory flows to workers through the plan — never
    // through mutable process-global env state.
    let record_dir: Option<std::path::PathBuf> = record_dir.map(std::path::PathBuf::from);
    if let Some(dir) = &record_dir {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| {
            fail(&format!(
                "cannot create --record dir {}: {e}",
                dir.display()
            ))
        });
    }
    let json = match json_dir {
        None => JsonPolicy::disabled(),
        Some(dir) => JsonPolicy::in_dir(&dir)
            .unwrap_or_else(|e| fail(&format!("cannot create --json dir {dir}: {e}"))),
    };

    let selected: Vec<&'static Scenario> = match &scenario_filter {
        None => registry().to_vec(),
        Some(names) => {
            // Preserve registry (canonical) order regardless of the
            // order names were given in.
            for n in names {
                if !registry().iter().any(|s| s.name == n.as_str()) {
                    let known: Vec<_> = registry().iter().map(|s| s.name).collect();
                    fail(&format!(
                        "unknown scenario {n:?}; known: {}",
                        known.join(", ")
                    ));
                }
            }
            registry()
                .iter()
                .copied()
                .filter(|s| names.iter().any(|n| n == s.name))
                .collect()
        }
    };

    if smoke {
        ops.get_or_insert(SMOKE_OPS);
        threads.get_or_insert(vec![2]);
    }

    let opts = PlanOpts {
        scenarios: selected,
        series_filter,
        threads,
        ops,
        jobs: jobs.unwrap_or_else(default_jobs),
        json,
        record_dir,
    };
    let plan = build_plan(&opts);
    if plan.cells.is_empty() {
        fail("filters selected no cells");
    }
    eprintln!(
        "lr-bench: {} cells across {} scenario(s), {} job(s)",
        plan.cells.len(),
        opts.scenarios.len(),
        plan.jobs
    );
    let mut stdout = std::io::stdout();
    run(&plan, &mut stdout);
}
