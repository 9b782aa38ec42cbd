//! The sweep never runs more workers than the host has cores:
//! `lr-bench --jobs J` with J above host parallelism is clamped, with a
//! warning naming both numbers, and a `--threads` count no machine can
//! hold exits with a usage error. Subprocess-driven so both take their
//! real path through the binary's argument parsing and `build_plan`.

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

/// A thread count no simulated machine can hold (0, or more than
/// `MAX_CORES`) is a usage error: exit 2 naming `--threads`, not a
/// panic from inside a cell. Both are rejected while the arguments are
/// parsed, so neither run builds a machine or starts a worker.
#[test]
fn unrunnable_thread_counts_are_usage_errors() {
    let too_many = (lr_sim_core::MAX_CORES + 1).to_string();
    for threads in ["0", too_many.as_str()] {
        let out = bench(&[
            "--scenario",
            "fig2_stack",
            "--threads",
            threads,
            "--ops",
            "1",
            "--jobs",
            "1",
        ]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--threads {threads}: {out:?}");
        assert!(
            err.contains("--threads") && err.contains(threads),
            "--threads {threads}: the error should name the option and value:\n{err}"
        );
        assert!(
            !err.contains("panicked"),
            "--threads {threads} panicked:\n{err}"
        );
    }
}
