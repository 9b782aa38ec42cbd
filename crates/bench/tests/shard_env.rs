//! The sweep never runs more workers than the host has cores:
//! `lr-bench --jobs J` with J above host parallelism is clamped, with a
//! warning naming both numbers, and a `--threads` count no machine can
//! hold, `--ops 0` or an unusable `--json` directory exits with a usage
//! error. Subprocess-driven so both take their real path through the
//! binary's argument parsing and `build_plan`.

use std::process::{Command, Output};

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lr-bench"))
        .args(args)
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
/// `MAX_CORES`), zero ops per thread, or a `--json` directory that
/// cannot be created is a usage error: exit 2 naming the option and
/// value, not a panic, a NaN row from inside a cell or a run that
/// quietly writes no JSON. All are rejected before the sweep starts,
/// so no run builds a machine or starts a worker.
#[test]
fn unusable_arguments_are_usage_errors() {
    let too_many = (lr_sim_core::MAX_CORES + 1).to_string();
    // A path under a regular file cannot be created as a directory.
    let file = std::env::temp_dir().join(format!("lr_bench_json_file_{}", std::process::id()));
    std::fs::write(&file, b"x").expect("temp file is writable");
    let under_file = file.join("sub");
    let under_file = under_file.to_str().expect("temp path is UTF-8");
    for (flag, value) in [
        ("--threads", "0"),
        ("--threads", too_many.as_str()),
        ("--ops", "0"),
        ("--json", under_file),
    ] {
        let mut args = vec!["--scenario", "fig2_stack", "--threads", "2", "--ops", "1"];
        match args.iter().position(|a| *a == flag) {
            Some(at) => args[at + 1] = value,
            None => args.extend([flag, value]),
        }
        args.extend(["--jobs", "1"]);
        let out = bench(&args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} {value}: {out:?}");
        assert!(
            err.contains(flag) && err.contains(value),
            "{flag} {value}: the error should name the option and value:\n{err}"
        );
        assert!(!err.contains("panicked"), "{flag} {value} panicked:\n{err}");
    }
    let _ = std::fs::remove_file(&file);
}
