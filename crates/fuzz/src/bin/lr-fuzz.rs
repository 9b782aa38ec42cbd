//! The fuzzing-farm CLI. Fully deterministic output: a fixed seed range
//! prints byte-identical text on every run and host (CI diffs two runs
//! against each other).
//!
//! ```text
//! lr-fuzz --seeds 64                    # campaign over seeds 0..64
//! lr-fuzz --self-test --repro-dir /tmp  # end-to-end detection drill
//! lr-fuzz --regen-corpus corpus --seeds 4
//! lr-fuzz --check-corpus corpus         # what CI runs on every change
//! ```

use lr_fuzz::{
    check_workload, record_workload, repro_name, self_test, shrink, Variant, Workload,
    SHRINK_BUDGET,
};

const USAGE: &str = "\
lr-fuzz — replay-driven differential fuzzing farm

USAGE:
    lr-fuzz [--seeds N] [--base-seed S] [--repro-dir DIR]
    lr-fuzz --self-test [--repro-dir DIR]
    lr-fuzz --regen-corpus DIR [--seeds N]
    lr-fuzz --check-corpus DIR

MODES (default: campaign):
    campaign             Check every seed in [S, S+N): record live under
                         msi/mesi/lease-tight, verify each trace by
                         engine-only replay, check FAA-ledger + app-ops
                         invariants, probe decoder robustness. Any
                         finding is shrunk to a minimal reproducer,
                         persisted to the repro dir, and fails the run.
    --self-test          Inject a reply mutation into a real recording
                         and require catch + shrink-to-1-op + persist.
    --regen-corpus DIR   (Re)write the healthy corpus entries for the
                         first N seeds under every variant.
    --check-corpus DIR   Replay every *.lrt in DIR once; exit non-zero
                         on any divergence.

OPTIONS:
    --seeds N            Campaign/corpus seed count (default 64)
    --base-seed S        First campaign seed (default 0)
    --repro-dir DIR      Where shrunk reproducers are persisted
                         (default: corpus)
    -h, --help           This help
";

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("run `lr-fuzz --help` for usage");
    std::process::exit(2);
}

fn campaign(base: u64, seeds: u64, repro_dir: &std::path::Path) -> ! {
    println!(
        "lr-fuzz: campaign seeds {base}..{} — 3 variants per seed",
        base + seeds
    );
    let mut total_ops = 0u64;
    let mut total_verified = 0usize;
    let mut findings = 0usize;
    for seed in base..base + seeds {
        match lr_fuzz::check_seed(seed) {
            Ok(r) => {
                total_ops += r.ops;
                total_verified += r.verified;
                println!(
                    "seed {seed:4}: ok   {} threads, {:3} ops, {} replays verified",
                    r.threads, r.ops, r.verified
                );
            }
            Err(f) => {
                findings += 1;
                println!("seed {seed:4}: FINDING {f}");
                let w = Workload::generate(seed);
                let kind = f.kind;
                let s = shrink(
                    &w,
                    SHRINK_BUDGET,
                    |cand| matches!(check_workload(cand), Err(ref g) if g.kind == kind),
                );
                println!(
                    "seed {seed:4}: shrunk {} -> {} ops in {} evals (minimal: {})",
                    w.total_ops(),
                    s.workload.total_ops(),
                    s.evals,
                    s.minimal
                );
                // Persist the minimal workload's trace under the variant
                // that failed (campaign findings are real engine bugs:
                // replaying this trace in CI re-exposes the divergence
                // until fixed). Invariant-class findings fall back to
                // the baseline recording.
                let variant = Variant::parse(f.variant).unwrap_or(Variant::Msi);
                match record_workload(&s.workload, variant) {
                    Ok(out) => {
                        let name = repro_name(seed, f.variant, f.kind);
                        match lr_fuzz::persist_repro(repro_dir, &name, &out.trace) {
                            Ok(p) => println!("seed {seed:4}: reproducer {}", p.display()),
                            Err(e) => eprintln!("seed {seed:4}: cannot persist reproducer: {e}"),
                        }
                    }
                    Err(e) => eprintln!(
                        "seed {seed:4}: shrunk workload aborts live ({e}); no trace to persist"
                    ),
                }
            }
        }
    }
    if findings > 0 {
        eprintln!("lr-fuzz: {findings} finding(s) in {seeds} seeds");
        std::process::exit(1);
    }
    println!(
        "lr-fuzz: {seeds} seeds clean — {total_ops} generated ops, {total_verified} replay verifications"
    );
    std::process::exit(0);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut seeds = 64u64;
    let mut base_seed = 0u64;
    let mut repro_dir = std::path::PathBuf::from("corpus");
    let mut do_self_test = false;
    let mut regen: Option<std::path::PathBuf> = None;
    let mut check: Option<std::path::PathBuf> = None;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| -> String {
            it.next()
                .unwrap_or_else(|| fail(&format!("{name} needs a value")))
                .clone()
        };
        match a.as_str() {
            "-h" | "--help" => {
                print!("{USAGE}");
                return;
            }
            "--seeds" => {
                seeds = value("--seeds")
                    .parse()
                    .unwrap_or_else(|_| fail("bad --seeds value"))
            }
            "--base-seed" => {
                base_seed = value("--base-seed")
                    .parse()
                    .unwrap_or_else(|_| fail("bad --base-seed value"))
            }
            "--repro-dir" => repro_dir = value("--repro-dir").into(),
            "--self-test" => do_self_test = true,
            "--regen-corpus" => regen = Some(value("--regen-corpus").into()),
            "--check-corpus" => check = Some(value("--check-corpus").into()),
            other => fail(&format!("unknown argument {other:?}")),
        }
    }
    if seeds == 0 {
        fail("--seeds must be at least 1");
    }

    if do_self_test {
        match self_test(&repro_dir) {
            Ok(r) => {
                println!(
                    "self-test: injected reply-flag mutation at core {} offset {} caught; \
                     workload shrunk {} -> {} ops in {} evals; reproducer {}",
                    r.injected.0,
                    r.injected.1,
                    r.original_ops,
                    r.shrunk_ops,
                    r.evals,
                    r.repro.display()
                );
                return;
            }
            Err(e) => {
                eprintln!("self-test FAILED: {e}");
                std::process::exit(1);
            }
        }
    }
    if let Some(dir) = regen {
        match lr_fuzz::regen_corpus(&dir, seeds) {
            Ok(written) => {
                for name in &written {
                    println!("wrote {}", dir.join(name).display());
                }
                println!(
                    "lr-fuzz: corpus regenerated — {} traces ({} seeds + 1 delegation \
                     + 1 replicated workload, x 3 variants)",
                    written.len(),
                    seeds
                );
                return;
            }
            Err(e) => fail(&e),
        }
    }
    if let Some(dir) = check {
        match lr_fuzz::check_corpus(&dir) {
            Ok((files, ops)) => {
                println!(
                    "lr-fuzz: corpus clean — {files} trace(s), {ops} ops replayed byte-identical"
                );
                return;
            }
            Err(failures) => {
                for f in &failures {
                    eprintln!("FAIL {f}");
                }
                eprintln!("lr-fuzz: {} corpus failure(s)", failures.len());
                std::process::exit(1);
            }
        }
    }
    campaign(base_seed, seeds, &repro_dir);
}
