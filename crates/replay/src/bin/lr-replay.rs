//! Verify or inspect recorded simulation traces.
//!
//! ```text
//! lr-replay PATH...          replay each trace and require byte-identical stats
//! lr-replay --dump PATH...   print a summary of each trace without replaying
//! ```
//!
//! A PATH is a trace file or a directory; a directory stands for every
//! `*.lrt` in it, in file-name order. The last line is a one-line
//! summary. Exits 1 if any trace fails to load or verify (or a
//! directory to verify holds none), 2 on bad usage.

use lr_replay::{read_trace, trace_files, verify, verify_dir};
use lr_sim_core::tracefmt::config_fingerprint;
use std::path::{Path, PathBuf};

const USAGE: &str = "usage: lr-replay [--dump] PATH...\n\
  PATH       a trace file, or a directory: every *.lrt in it, by file name\n\
  (no flag)  replay each trace engine-only and require byte-identical MachineStats\n\
  --dump     print a summary of each trace without replaying";

/// Traces handled and their recorded ops, or one line per failure.
type Outcome = Result<(usize, u64), Vec<String>>;

/// Replay one trace file, printing its PASS line.
fn verify_one(path: &Path) -> Outcome {
    let trace = read_trace(path).map_err(|e| vec![format!("{}: {e}", path.display())])?;
    match verify(&trace) {
        Ok(stats) => {
            println!(
                "PASS {}: {} ops over {} cores replayed byte-identical ({} cycles)",
                path.display(),
                trace.total_ops(),
                trace.cores.len(),
                stats.total_cycles,
            );
            Ok((1, trace.total_ops()))
        }
        Err(d) if d.report.is_empty() => Err(vec![format!("{}: {d}", path.display())]),
        Err(d) => Err(vec![format!("{}: {d}\n{}", path.display(), d.report)]),
    }
}

/// Replay every trace in a directory, printing one PASS line for all.
fn verify_many(dir: &Path) -> Outcome {
    let (n, ops) = verify_dir(dir)?;
    println!(
        "PASS {}: {n} trace(s), {ops} ops replayed byte-identical",
        dir.display()
    );
    Ok((n, ops))
}

/// Print a summary line for one trace file, or for each in a directory.
fn dump(path: &Path) -> Outcome {
    let files = if path.is_dir() {
        trace_files(path).map_err(|e| vec![format!("cannot read {}: {e}", path.display())])?
    } else {
        vec![path.to_path_buf()]
    };
    let mut ops = 0;
    for file in &files {
        let trace = read_trace(file).map_err(|e| vec![format!("{}: {e}", file.display())])?;
        println!(
            "{}: cores={} ops={} events={} fingerprint={:016x} seed={:#x}",
            file.display(),
            trace.cores.len(),
            trace.total_ops(),
            trace.live_events,
            config_fingerprint(&trace.config),
            trace.config.seed,
        );
        ops += trace.total_ops();
    }
    Ok((files.len(), ops))
}

fn main() {
    let mut dump_only = false;
    let mut paths: Vec<PathBuf> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--dump" => dump_only = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other if other.starts_with('-') => {
                eprintln!("unknown flag {other}\n{USAGE}");
                std::process::exit(2);
            }
            _ => paths.push(PathBuf::from(arg)),
        }
    }
    if paths.is_empty() {
        eprintln!("{USAGE}");
        std::process::exit(2);
    }

    let (mut traces, mut ops, mut failures) = (0usize, 0u64, 0usize);
    for path in &paths {
        let outcome = if dump_only {
            dump(path)
        } else if path.is_dir() {
            verify_many(path)
        } else {
            verify_one(path)
        };
        match outcome {
            Ok((n, o)) => {
                traces += n;
                ops += o;
            }
            Err(fails) => {
                for f in &fails {
                    eprintln!("FAIL {f}");
                }
                failures += fails.len();
            }
        }
    }
    if failures > 0 {
        eprintln!("lr-replay: {failures} failure(s); {traces} trace(s) passed");
        std::process::exit(1);
    }
    if dump_only {
        println!("lr-replay: {traces} trace(s), {ops} recorded ops");
    } else {
        println!("lr-replay: {traces} trace(s), {ops} recorded ops: all replays byte-identical");
    }
}
