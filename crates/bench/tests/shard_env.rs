//! The sweep never runs more sim-cell workers than the host has cores:
//! `lr-bench --jobs J` with J above host parallelism is clamped, with a
//! warning naming both numbers. Subprocess-driven so the clamp takes
//! its real path through `build_plan` and the binary's plan banner.

use std::process::{Command, Output};

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lr-bench"))
        .args(args)
        .env("LR_NO_JSON", "1")
        .output()
        .expect("lr-bench subprocess runs")
}

/// `--jobs` one above host parallelism is clamped to host parallelism
/// — with a warning naming both numbers.
#[test]
fn oversubscribing_jobs_are_clamped_with_warning() {
    let host = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let jobs = (host + 1).to_string();
    let out = bench(&[
        "--scenario",
        "fig2_stack",
        "--threads",
        "2",
        "--ops",
        "4",
        "--jobs",
        &jobs,
    ]);
    assert!(out.status.success(), "clamped run failed: {out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains(&format!("clamping --jobs {jobs} to {host}")),
        "missing/incorrect clamp warning:\n{err}"
    );
    assert!(
        err.contains(&format!("{host} job(s)")),
        "plan banner should show the clamped job count:\n{err}"
    );
}
