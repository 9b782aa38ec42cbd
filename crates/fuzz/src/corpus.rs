//! The checked-in regression corpus.
//!
//! `corpus/` holds two kinds of trace files, both replayed by CI on
//! every change (`lr-fuzz --check-corpus`):
//!
//! * `seedNN_<variant>.lrt` — healthy recordings of the first few
//!   campaign seeds under every [`Variant`], regenerated by
//!   `--regen-corpus`. They pin today's engine behaviour: any future
//!   change that alters a reply, a stat, or the event count fails the
//!   gate with exact core/offset/cycle coordinates.
//! * `dlockNN_<variant>.lrt` — the same, for the delegation-heavy
//!   workloads ([`Workload::delegation`]): every thread drives all six
//!   delegation-lock algorithms, so combiner handoffs (one thread
//!   executing another thread's published FAA) are pinned across the
//!   whole replay matrix.
//! * `numaNN_<variant>.lrt` — the same, for the node-replication-heavy
//!   workloads ([`Workload::replicated`]), recorded under a two-socket
//!   topology: log appends, replica replay, and cross-socket-link
//!   message timing are all pinned across the replay matrix.
//! * `repro_seedNNNN_<variant>_<kind>.lrt` — shrunk minimal reproducers
//!   persisted by the farm when a campaign finds a divergence. They
//!   stay red until the underlying bug is fixed, then pin the fix.
//!
//! Every file embeds its full `SystemConfig`, so a corpus check needs
//! no side-channel metadata; the seed rides in the file name.

use crate::exec::{record_workload, Variant, VARIANTS};
use crate::gen::Workload;
use lr_sim_core::tracefmt::MachineTrace;
use std::path::{Path, PathBuf};

/// File name of a healthy corpus entry.
pub fn entry_name(seed: u64, variant: Variant) -> String {
    format!(
        "seed{seed:02}_{}.{}",
        variant.name(),
        lr_sim_core::tracefmt::TRACE_EXT
    )
}

/// File name of a delegation-workload corpus entry.
pub fn dlock_entry_name(seed: u64, variant: Variant) -> String {
    format!(
        "dlock{seed:02}_{}.{}",
        variant.name(),
        lr_sim_core::tracefmt::TRACE_EXT
    )
}

/// File name of a node-replication-workload corpus entry.
pub fn numa_entry_name(seed: u64, variant: Variant) -> String {
    format!(
        "numa{seed:02}_{}.{}",
        variant.name(),
        lr_sim_core::tracefmt::TRACE_EXT
    )
}

/// File name of a shrunk failure reproducer.
pub fn repro_name(seed: u64, variant: &str, kind: &str) -> String {
    format!(
        "repro_seed{seed:04}_{variant}_{kind}.{}",
        lr_sim_core::tracefmt::TRACE_EXT
    )
}

/// Record seeds `0..seeds` under every variant and write one trace per
/// (seed, variant) into `dir`, replacing existing entries (regeneration
/// is deliberate). Returns the written file names, in written order.
pub fn regen(dir: &Path, seeds: u64) -> Result<Vec<String>, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let mut written = Vec::new();
    for seed in 0..seeds {
        let w = Workload::generate(seed);
        for v in VARIANTS {
            let out =
                record_workload(&w, v).map_err(|e| format!("seed {seed} [{}]: {e}", v.name()))?;
            let name = entry_name(seed, v);
            lr_replay::write_trace(&dir.join(&name), &out.trace)
                .map_err(|e| format!("cannot write {name}: {e}"))?;
            written.push(name);
        }
    }
    // One delegation-heavy entry per variant: all six lock algorithms
    // under full contention, so cross-thread combiner execution is
    // pinned alongside the plain mixed-op seeds.
    let w = Workload::delegation(0);
    for v in VARIANTS {
        let out = record_workload(&w, v).map_err(|e| format!("dlock 0 [{}]: {e}", v.name()))?;
        let name = dlock_entry_name(0, v);
        lr_replay::write_trace(&dir.join(&name), &out.trace)
            .map_err(|e| format!("cannot write {name}: {e}"))?;
        written.push(name);
    }
    // One node-replication-heavy entry per variant, recorded on the
    // two-socket machine (`record_workload` picks the topology from the
    // workload): the shared-log append path and the replica-replay path
    // are pinned with real cross-socket link latencies in the trace.
    let w = Workload::replicated(0);
    for v in VARIANTS {
        let out = record_workload(&w, v).map_err(|e| format!("numa 0 [{}]: {e}", v.name()))?;
        let name = numa_entry_name(0, v);
        lr_replay::write_trace(&dir.join(&name), &out.trace)
            .map_err(|e| format!("cannot write {name}: {e}"))?;
        written.push(name);
    }
    Ok(written)
}

/// Persist a (possibly tampered) reproducer trace. Unlike regeneration
/// this never overwrites: an existing reproducer documents a known bug.
pub fn persist_repro(dir: &Path, name: &str, trace: &MachineTrace) -> Result<PathBuf, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(name);
    if path.exists() {
        return Ok(path);
    }
    lr_replay::write_trace(&path, trace).map_err(|e| format!("cannot write {name}: {e}"))?;
    Ok(path)
}

/// Replay every `*.lrt` in `dir` once. Returns `(files, total replayed
/// ops)` or the list of failures.
pub fn check(dir: &Path) -> Result<(usize, u64), Vec<String>> {
    let paths = match lr_replay::trace_files(dir) {
        Ok(p) => p,
        Err(e) => return Err(vec![format!("cannot read {}: {e}", dir.display())]),
    };
    if paths.is_empty() {
        return Err(vec![format!("no .lrt traces in {}", dir.display())]);
    }
    let mut failures = Vec::new();
    let mut total_ops = 0u64;
    for path in &paths {
        match lr_replay::verify_file(path) {
            Ok(v) => total_ops += v.ops,
            Err(e) => failures.push(format!("{}: {e}", path.display())),
        }
    }
    if failures.is_empty() {
        Ok((paths.len(), total_ops))
    } else {
        Err(failures)
    }
}
