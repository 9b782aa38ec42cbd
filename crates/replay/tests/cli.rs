//! The `lr-replay` binary on a directory of traces: the exit status CI
//! gates on. A directory holding one tampered trace fails with status 1
//! and names that file; the clean trace alone passes with status 0.

use lr_machine::{Machine, SystemConfig, ThreadCtx, ThreadFn};
use lr_sim_core::tracefmt::{MachineTrace, TraceOp};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Record two threads FAA-ing one shared counter.
fn record() -> MachineTrace {
    let mut machine = Machine::new(SystemConfig::with_cores(2));
    let cell = machine.setup(|m| m.alloc_line_aligned(8));
    let progs: Vec<ThreadFn> = (0..2)
        .map(|_| {
            Box::new(move |ctx: &mut ThreadCtx| {
                for _ in 0..4 {
                    ctx.faa(cell, 1);
                    ctx.count_op();
                }
            }) as ThreadFn
        })
        .collect();
    machine.run_recorded(progs).trace
}

/// A fresh directory holding the clean recording as `clean.lrt`.
fn dir_with_clean_trace(tag: &str) -> (PathBuf, MachineTrace) {
    let dir = std::env::temp_dir().join(format!("lr_replay_cli_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let trace = record();
    lr_replay::write_trace(&dir.join("clean.lrt"), &trace).unwrap();
    (dir, trace)
}

fn lr_replay(dir: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lr-replay"))
        .arg(dir)
        .output()
        .expect("lr-replay runs")
}

#[test]
fn directory_with_a_tampered_trace_exits_1_naming_it() {
    let (dir, mut trace) = dir_with_clean_trace("tampered");
    let rec = trace
        .cores
        .iter_mut()
        .flatten()
        .find(|r| !matches!(r.op, TraceOp::Exit { .. } | TraceOp::Barrier))
        .expect("the recording has a reply");
    rec.reply_flag = !rec.reply_flag;
    lr_replay::write_trace(&dir.join("tampered.lrt"), &trace).unwrap();

    let out = lr_replay(&dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("tampered.lrt"), "{stderr}");
    assert!(!stderr.contains("clean.lrt"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn directory_of_clean_traces_exits_0() {
    let (dir, _) = dir_with_clean_trace("clean");
    let out = lr_replay(&dir);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.trim_end().ends_with("all replays byte-identical"),
        "{stdout}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
