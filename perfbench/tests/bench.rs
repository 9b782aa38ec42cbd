//! The benchmark's own tests: smoke-size runs of every workload pass
//! their correctness gates, one seed repeats every simulated metric,
//! another seed changes the op stream, and the metrics each run prints
//! are exactly the ones `BENCHMARK.json` declares.

use lr_perfbench::workload::plan;
use lr_perfbench::{run, Config, Report, Size, Workload};

fn smoke(workload: Workload, seed: u64, trace: bool) -> Report {
    run(&Config {
        workload,
        seed,
        seconds: 0.0,
        trace,
        size: Size::Smoke,
    })
}

/// Metric names of one section (`end_to_end` or `per_layer`) of the
/// repository's `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} section"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split("\"name\":")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

fn names(r: &Report) -> Vec<String> {
    r.metrics.iter().map(|m| m.name.to_string()).collect()
}

#[test]
fn smoke_runs_pass_their_gates() {
    for w in Workload::ALL {
        let r = smoke(w, 7, false);
        assert!(
            r.correct(),
            "{}: {} of {} ops failed",
            w.name(),
            r.failed,
            r.attempted
        );
        assert!(r.attempted > 0);
        assert_eq!(r.metric("op_pass_ratio"), Some(1.0), "{}", w.name());
        assert_eq!(names(&r), declared("end_to_end"), "{}", w.name());
        for m in &r.metrics {
            assert!(m.value.is_finite() && m.value > 0.0, "{}: {m:?}", w.name());
        }
    }
}

#[test]
fn traced_smoke_runs_report_every_layer_metric() {
    for w in Workload::ALL {
        let r = smoke(w, 7, true);
        assert!(
            r.correct(),
            "{}: {} of {} ops failed",
            w.name(),
            r.failed,
            r.attempted
        );
        assert_eq!(names(&r), declared("per_layer"), "{}", w.name());
        assert!(r.metrics.iter().all(|m| m.value.is_finite()));
        assert!(!r.tracer.spans().is_empty());
        let share = r.metric("handoff.wall_share").expect("handoff metric");
        if w.is_live() {
            assert!(share > 0.0 && share < 1.0, "{}: share {share}", w.name());
        } else {
            assert_eq!(
                share, 0.0,
                "the replay workload has no handoff by construction"
            );
        }
    }
}

#[test]
fn one_seed_repeats_every_simulated_metric() {
    const SIM: [&str; 5] = [
        "sim_mops",
        "op_cycles_p50",
        "op_cycles_p99",
        "msgs_per_op",
        "nj_per_op",
    ];
    for w in Workload::ALL {
        let (a, b) = (smoke(w, 3, false), smoke(w, 3, false));
        for name in SIM {
            assert_eq!(a.metric(name), b.metric(name), "{}: {name}", w.name());
        }
    }
}

#[test]
fn another_seed_changes_the_op_stream() {
    for w in Workload::ALL {
        assert_eq!(plan(w, Size::Smoke, 1), plan(w, Size::Smoke, 1));
        assert_ne!(
            plan(w, Size::Smoke, 1),
            plan(w, Size::Smoke, 2),
            "{}",
            w.name()
        );
    }
}
