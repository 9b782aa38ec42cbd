//! Registry-wide coverage: every scenario must produce sane rows, and
//! a parallel sweep must be byte-identical to a serial one.

use lr_bench::{build_plan, find, registry, run, JsonPolicy, PlanOpts, Scenario};

/// Tiny per-thread op count: enough to exercise every code path, small
/// enough to run all 16 scenarios in seconds.
const TINY_OPS: u64 = 6;

fn run_to_string(scenarios: Vec<&'static Scenario>, jobs: usize, ops: u64) -> String {
    let opts = PlanOpts {
        scenarios,
        threads: Some(vec![2]),
        ops: Some(ops),
        jobs,
        json: JsonPolicy::disabled(),
        ..PlanOpts::default()
    };
    let plan = build_plan(&opts);
    let mut out: Vec<u8> = Vec::new();
    run(&plan, &mut out);
    String::from_utf8(out).expect("driver output is UTF-8")
}

/// Every registered scenario, run at 2 threads with tiny ops, emits at
/// least one `CSV,` row per series and every metric field is finite.
#[test]
fn smoke_every_scenario_emits_finite_rows() {
    for sc in registry() {
        let text = run_to_string(vec![sc], 2, TINY_OPS);
        let rows: Vec<&str> = text.lines().filter(|l| l.starts_with("CSV,")).collect();
        assert!(
            rows.len() >= sc.series.len(),
            "{}: {} CSV rows for {} series:\n{text}",
            sc.name,
            rows.len(),
            sc.series.len()
        );
        for row in rows {
            let fields: Vec<&str> = row.split(',').collect();
            assert_eq!(fields.len(), 8, "{}: malformed row {row:?}", sc.name);
            assert!(
                sc.series.contains(&fields[1]),
                "{}: unknown series in {row:?}",
                sc.name
            );
            for f in &fields[2..] {
                let v: f64 = f
                    .parse()
                    .unwrap_or_else(|_| panic!("{}: non-numeric field {f:?} in {row:?}", sc.name));
                assert!(v.is_finite(), "{}: non-finite metric in {row:?}", sc.name);
            }
        }
    }
}

/// The core contract of the refactor: a `--jobs 4` parallel sweep over
/// every scenario produces row-for-row (in fact byte-for-byte)
/// identical output to `--jobs 1`.
#[test]
fn parallel_sweep_is_byte_identical_to_serial() {
    let serial = run_to_string(registry().to_vec(), 1, TINY_OPS);
    let parallel = run_to_string(registry().to_vec(), 4, TINY_OPS);
    assert!(!serial.is_empty());
    assert_eq!(
        serial, parallel,
        "parallel sweep diverged from serial output"
    );
}

/// Rows come out grouped by series in declaration order with ascending
/// thread counts — the canonical order the merge guarantees.
#[test]
fn rows_emitted_in_canonical_order() {
    let sc = find("fig3_queue").unwrap();
    let opts = PlanOpts {
        scenarios: vec![sc],
        threads: Some(vec![1, 2]),
        ops: Some(TINY_OPS),
        jobs: 4,
        json: JsonPolicy::disabled(),
        ..PlanOpts::default()
    };
    let plan = build_plan(&opts);
    let mut out: Vec<u8> = Vec::new();
    run(&plan, &mut out);
    let text = String::from_utf8(out).unwrap();
    let got: Vec<(String, String)> = text
        .lines()
        .filter(|l| l.starts_with("CSV,"))
        .map(|l| {
            let f: Vec<&str> = l.split(',').collect();
            (f[1].to_string(), f[2].to_string())
        })
        .collect();
    let want: Vec<(String, String)> = [
        ("msqueue-base", "1"),
        ("msqueue-base", "2"),
        ("msqueue-lease", "1"),
        ("msqueue-lease", "2"),
        ("msqueue-multilease", "1"),
        ("msqueue-multilease", "2"),
    ]
    .iter()
    .map(|(s, t)| (s.to_string(), t.to_string()))
    .collect();
    assert_eq!(got, want);
}

/// The annotate hook (message-constancy growth factors) is computed at
/// merge time, so it also matches between serial and parallel runs and
/// references the series' first ≥4-thread row.
#[test]
fn msg_constancy_growth_lines_are_deterministic() {
    let sc = find("tab_msg_constancy").unwrap();
    let opts = |jobs| PlanOpts {
        scenarios: vec![sc],
        threads: Some(vec![2, 4, 8]),
        ops: Some(TINY_OPS),
        jobs,
        json: JsonPolicy::disabled(),
        ..PlanOpts::default()
    };
    let mut serial: Vec<u8> = Vec::new();
    run(&build_plan(&opts(1)), &mut serial);
    let mut parallel: Vec<u8> = Vec::new();
    run(&build_plan(&opts(4)), &mut parallel);
    assert_eq!(serial, parallel);
    let text = String::from_utf8(serial).unwrap();
    let growth: Vec<&str> = text.lines().filter(|l| l.starts_with("CSVX,")).collect();
    // 3 series × threads {4, 8} get growth lines; threads=2 does not.
    assert_eq!(growth.len(), 6, "unexpected CSVX lines:\n{text}");
    assert!(
        growth
            .iter()
            .any(|l| l.contains(",4,miss_growth,1.000,msg_growth,1.000")),
        "t=4 row must be its own growth baseline:\n{text}"
    );
}

/// A `--record` sweep under `--jobs 4` writes exactly one trace file
/// per sim cell — identical cells racing into one directory must never
/// silently overwrite each other — and a rerun adds files instead of
/// replacing them. Every file must decode and carry the cell's label.
#[test]
fn recorded_parallel_sweep_keeps_every_trace() {
    let dir = std::env::temp_dir().join(format!("lr_registry_record_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = PlanOpts {
        scenarios: vec![find("fig2_stack").unwrap(), find("fig3_queue").unwrap()],
        threads: Some(vec![2]),
        ops: Some(TINY_OPS),
        jobs: 4,
        json: JsonPolicy::disabled(),
        record_dir: Some(dir.clone()),
        ..PlanOpts::default()
    };
    let plan = build_plan(&opts);
    let cells = plan.cells.len();
    assert_eq!(
        cells, 5,
        "2 stack series + 3 queue series at one thread count"
    );
    let mut out: Vec<u8> = Vec::new();
    run(&plan, &mut out);
    let traces = || -> Vec<std::path::PathBuf> {
        let mut v: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| {
                p.extension()
                    .is_some_and(|x| x == lr_sim_core::tracefmt::TRACE_EXT)
            })
            .collect();
        v.sort();
        v
    };
    let first = traces();
    assert_eq!(first.len(), cells, "one trace per sim cell: {first:?}");
    for p in &first {
        let name = p.file_name().unwrap().to_string_lossy().into_owned();
        assert!(
            name.starts_with("fig2_stack.") || name.starts_with("fig3_queue."),
            "trace not labelled by its cell: {name}"
        );
        let t = lr_sim_core::tracefmt::decode(&std::fs::read(p).unwrap())
            .unwrap_or_else(|e| panic!("{}: {e}", p.display()));
        assert_eq!(t.cores.len(), 2);
    }
    // Rerun: every original file must survive, byte-for-byte.
    let before: Vec<Vec<u8>> = first.iter().map(|p| std::fs::read(p).unwrap()).collect();
    run(&plan, &mut Vec::new());
    assert_eq!(traces().len(), 2 * cells, "rerun must add, not overwrite");
    for (p, b) in first.iter().zip(&before) {
        assert_eq!(
            &std::fs::read(p).unwrap(),
            b,
            "{} was clobbered",
            p.display()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `BENCH_*.json` files written by the driver are complete, valid and
/// named after the scenario title slug.
#[test]
fn driver_writes_json_per_scenario() {
    let dir = std::env::temp_dir().join(format!("lr_registry_json_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let sc = find("fig2_stack").unwrap();
    let opts = PlanOpts {
        scenarios: vec![sc],
        threads: Some(vec![2]),
        ops: Some(TINY_OPS),
        jobs: 2,
        json: JsonPolicy::in_dir(&dir).expect("temp dir is usable"),
        ..PlanOpts::default()
    };
    let mut out: Vec<u8> = Vec::new();
    run(&build_plan(&opts), &mut out);
    let path = dir
        .canonicalize()
        .unwrap()
        .join("BENCH_figure_2_treiber_stack_throughput_100_updates_base_vs_lease.json");
    let doc = std::fs::read_to_string(&path).expect("driver JSON missing");
    assert_eq!(doc.matches("\"series\"").count(), 2);
    assert_eq!(doc.matches('{').count(), doc.matches('}').count());
    let _ = std::fs::remove_dir_all(&dir);
}
