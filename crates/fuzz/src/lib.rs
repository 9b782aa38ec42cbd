//! # lr-fuzz
//!
//! Replay-driven differential fuzzing farm for the lease/release
//! simulator.
//!
//! The farm closes the loop between three existing subsystems: the
//! seeded workload generator ([`gen`]) produces pure-data per-thread
//! programs; the executor ([`exec`]) records them live under every
//! machine-configuration variant and re-verifies each trace through
//! [`lr_replay`]; and any failure is delta-debugged
//! ([`shrink`](mod@shrink)) to a minimal workload whose trace is
//! persisted into the checked-in regression corpus ([`corpus`]) that CI
//! replays on every change.
//!
//! Everything is deterministic: a campaign is fully described by its
//! seed range, its output is byte-identical across runs and hosts, and
//! a finding's file name alone (`repro_seedNNNN_variant_kind.lrt`)
//! reproduces it.

#![forbid(unsafe_code)]

pub mod corpus;
pub mod exec;
pub mod gen;
pub mod shrink;

pub use corpus::{dlock_entry_name, entry_name, persist_repro, regen as regen_corpus, repro_name};
pub use exec::{
    check_seed, check_variant, check_workload, record_workload, Finding, RunOutput, SeedReport,
    Variant, VARIANTS,
};
pub use gen::{GenOp, Workload};
pub use shrink::{shrink, Shrunk};

use lr_sim_core::tracefmt::{MachineTrace, TraceOp};
use std::path::{Path, PathBuf};

/// Shrink budget (predicate evaluations, i.e. full record+replay runs)
/// for automatic reproducer minimization.
pub const SHRINK_BUDGET: usize = 1_500;

/// Flip the `reply_flag` of the first reply-bearing record in `trace`.
/// Returns the `(core, offset)` coordinates of the mutation, or `None`
/// if the trace carries no replies (Exit/Barrier only).
pub fn tamper_first_reply(trace: &mut MachineTrace) -> Option<(usize, usize)> {
    for (core, stream) in trace.cores.iter_mut().enumerate() {
        for (offset, rec) in stream.iter_mut().enumerate() {
            if !matches!(rec.op, TraceOp::Exit { .. } | TraceOp::Barrier) {
                rec.reply_flag = !rec.reply_flag;
                return Some((core, offset));
            }
        }
    }
    None
}

/// What the end-to-end self-test proved.
pub struct SelfTestReport {
    /// Coordinates of the injected mutation in the full-size trace.
    pub injected: (usize, usize),
    /// Ops in the generating workload before/after shrinking.
    pub original_ops: u64,
    pub shrunk_ops: u64,
    /// Predicate evaluations the shrinker spent.
    pub evals: usize,
    /// The persisted minimal reproducer.
    pub repro: PathBuf,
}

/// Workload seed the self-test injects into (any seed works; fixed for
/// deterministic output).
pub const SELF_TEST_SEED: u64 = 0xfa11;

/// End-to-end detection drill: record a real workload, deliberately
/// flip one reply flag in the trace, and require the farm to (a) catch
/// the mutation at its exact coordinates, (b) shrink the generating
/// workload to a single op whose tampered trace still fails, and
/// (c) persist that minimal reproducer where the corpus gate will keep
/// replaying it. Proves the whole detection pipeline is live — a farm
/// that reports "0 findings" is only meaningful if this passes.
pub fn self_test(repro_dir: &Path) -> Result<SelfTestReport, String> {
    let w = Workload::generate(SELF_TEST_SEED);

    // A workload fails-under-tampering iff its recording has a reply to
    // flip and the replayer then refuses the trace.
    let tampered_is_caught = |cand: &Workload| -> Option<(MachineTrace, (usize, usize))> {
        let out = record_workload(cand, Variant::Msi).ok()?;
        let mut t = out.trace;
        let coords = tamper_first_reply(&mut t)?;
        lr_replay::verify(&t).err().map(|_| (t, coords))
    };

    let (full_trace, injected) = tampered_is_caught(&w)
        .ok_or("injected reply mutation was NOT caught on the full workload")?;
    let d = lr_replay::verify(&full_trace).expect_err("caught above");
    if (d.core, d.offset) != injected {
        return Err(format!(
            "mutation injected at core {} offset {} but reported at core {} offset {}",
            injected.0, injected.1, d.core, d.offset
        ));
    }

    let s = shrink(&w, SHRINK_BUDGET, |cand| tampered_is_caught(cand).is_some());
    let (min_trace, _) = tampered_is_caught(&s.workload)
        .ok_or("shrunk workload no longer reproduces the failure")?;
    if s.workload.total_ops() != 1 {
        return Err(format!(
            "expected a 1-op reproducer, shrinker stopped at {} ops (minimal: {})",
            s.workload.total_ops(),
            s.minimal
        ));
    }

    let name = repro_name(SELF_TEST_SEED, Variant::Msi.name(), "selftest");
    // Self-test reproducers are drills, not bugs: always rewrite.
    let path = repro_dir.join(&name);
    std::fs::create_dir_all(repro_dir).map_err(|e| e.to_string())?;
    lr_replay::write_trace(&path, &min_trace).map_err(|e| e.to_string())?;

    // The persisted file must round-trip and still fail verification —
    // exactly what the corpus gate will do with it.
    let back = lr_replay::read_trace(&path).map_err(|e| e.to_string())?;
    if lr_replay::verify(&back).is_ok() {
        return Err("persisted reproducer verifies clean after round-trip".to_string());
    }

    Ok(SelfTestReport {
        injected,
        original_ops: w.total_ops(),
        shrunk_ops: s.workload.total_ops(),
        evals: s.evals,
        repro: path,
    })
}
