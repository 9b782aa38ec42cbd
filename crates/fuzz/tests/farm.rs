//! End-to-end farm coverage: campaigns are clean and deterministic,
//! the injected-mutation drill catches/shrinks/persists, and the
//! corpus round-trips.

use lr_fuzz::{
    check_seed, record_workload, regen_corpus, self_test, tamper_first_reply, Variant, Workload,
};
use lr_replay::verify_dir as check_corpus;

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("lr_fuzz_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The first campaign seeds pass the whole check matrix (3 variants,
/// one replay each, + invariants + decode robustness).
#[test]
fn first_seeds_are_clean() {
    for seed in 0..6 {
        let r = check_seed(seed).unwrap_or_else(|f| panic!("{f}"));
        assert_eq!(r.verified, 3, "one replay per variant");
        assert!(r.ops > 0);
    }
}

/// Every checked-in corpus trace replays clean with the debug checks
/// compiled in: the tile-ownership assertions, the mid-flight
/// single-writer sweeps and the event queue's reference check (test
/// builds always carry them). This drives the message-passing coherence
/// handlers through every recorded protocol interleaving while proving
/// no handler ever touches another tile's slice.
#[test]
fn checked_in_corpus_replays_clean_with_ownership_assertions() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus");
    let (files, ops) = check_corpus(&dir).unwrap_or_else(|f| panic!("{f:?}"));
    assert_eq!(
        files, 18,
        "(4 seeds + 1 delegation + 1 replicated workload) x 3 variants"
    );
    assert!(ops > 0);
}

/// The checked-in corpus is exactly what today's workload code records:
/// re-recording it (`lr-fuzz --regen-corpus corpus --seeds 4`) writes
/// the same 18 files, byte for byte. Replaying the corpus re-drives its
/// recorded ops, so it cannot see a change in the ops a workload
/// issues; re-recording does.
#[test]
fn corpus_is_what_todays_workloads_record() {
    let corpus = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus");
    let dir = scratch("corpus_rerecord");
    let mut wrote = regen_corpus(&dir, 4).unwrap();
    wrote.sort();
    // Shrunk reproducers (`repro_*`) are not re-recorded.
    let mut healthy: Vec<String> = std::fs::read_dir(&corpus)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| !n.starts_with("repro_"))
        .collect();
    healthy.sort();
    assert_eq!(wrote, healthy, "corpus/ holds other entries than a regen");
    assert_eq!(wrote.len(), 18);
    for name in &wrote {
        assert!(
            std::fs::read(dir.join(name)).unwrap() == std::fs::read(corpus.join(name)).unwrap(),
            "{name}: today's workload code records a different trace"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Recording the same workload twice under the same variant is
/// byte-identical — the determinism bedrock everything else rests on.
#[test]
fn recording_is_deterministic_per_variant() {
    let w = Workload::generate(5);
    for v in [Variant::Msi, Variant::Mesi, Variant::LeaseTight] {
        let a = record_workload(&w, v).unwrap();
        let b = record_workload(&w, v).unwrap();
        assert_eq!(
            lr_sim_core::tracefmt::encode(&a.trace),
            lr_sim_core::tracefmt::encode(&b.trace),
            "variant {} recorded nondeterministically",
            v.name()
        );
    }
    // ...and different variants genuinely exercise different configs.
    let msi = record_workload(&w, Variant::Msi).unwrap();
    let mesi = record_workload(&w, Variant::Mesi).unwrap();
    assert_ne!(
        lr_sim_core::tracefmt::encode(&msi.trace),
        lr_sim_core::tracefmt::encode(&mesi.trace),
        "msi and mesi produced identical traces — variant knob inert?"
    );
}

/// The full detection drill: inject → catch at exact coordinates →
/// shrink to one op → persist → persisted file still fails verify.
#[test]
fn self_test_catches_shrinks_and_persists() {
    let dir = scratch("selftest");
    let r = self_test(&dir).expect("self-test must pass");
    assert_eq!(r.shrunk_ops, 1, "reproducer must be a single op");
    assert!(r.original_ops > 1);
    assert!(r.repro.starts_with(&dir));
    let back = lr_replay::read_trace(&r.repro).unwrap();
    assert!(
        lr_replay::verify(&back).is_err(),
        "persisted reproducer must stay red"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `tamper_first_reply` reports the exact coordinates the replayer
/// then diverges at.
#[test]
fn tamper_coordinates_match_divergence_report() {
    let w = Workload::generate(9);
    let mut t = record_workload(&w, Variant::LeaseTight).unwrap().trace;
    let (core, offset) = tamper_first_reply(&mut t).expect("trace has replies");
    let d = lr_replay::verify(&t).expect_err("tampered trace must fail");
    assert_eq!((d.core, d.offset), (core, offset));
}

/// Corpus regeneration is deterministic (two regens are byte-identical)
/// and the result passes the corpus gate.
#[test]
fn corpus_regen_is_deterministic_and_checkable() {
    let (a, b) = (scratch("corpus_a"), scratch("corpus_b"));
    let wrote_a = regen_corpus(&a, 2).unwrap();
    let wrote_b = regen_corpus(&b, 2).unwrap();
    assert_eq!(wrote_a, wrote_b);
    assert_eq!(
        wrote_a.len(),
        12,
        "(2 seeds + 1 delegation + 1 replicated workload) x 3 variants"
    );
    for name in &wrote_a {
        assert_eq!(
            std::fs::read(a.join(name)).unwrap(),
            std::fs::read(b.join(name)).unwrap(),
            "{name} differs between regens"
        );
    }
    let (files, ops) = check_corpus(&a).unwrap_or_else(|f| panic!("{f:?}"));
    assert_eq!(files, 12);
    assert!(ops > 0);
    let _ = std::fs::remove_dir_all(&a);
    let _ = std::fs::remove_dir_all(&b);
}

/// The corpus gate actually gates: a tampered entry fails the check.
#[test]
fn corpus_check_rejects_tampered_entry() {
    let dir = scratch("corpus_bad");
    regen_corpus(&dir, 1).unwrap();
    let victim = dir.join(lr_fuzz::entry_name(lr_fuzz::Family::Seed, 0, Variant::Msi));
    let mut t = lr_replay::read_trace(&victim).unwrap();
    tamper_first_reply(&mut t).unwrap();
    lr_replay::write_trace(&victim, &t).unwrap();
    let failures = check_corpus(&dir).expect_err("tampered corpus must fail");
    assert!(
        failures.iter().any(|f| f.contains("seed00_msi")),
        "failure must name the tampered file: {failures:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
