//! Golden-trace fixture: a checked-in recording of a fixed workload.
//!
//! Two invariants, diffed byte-for-byte in CI:
//!
//! 1. Re-recording the workload today produces *exactly* the fixture
//!    bytes — any drift in the wire format, the lockstep runtime, or
//!    the protocol stack's simulated behaviour shows up here first.
//! 2. The fixture replays cleanly and byte-identically.
//!
//! Regenerate deliberately (after an intentional behaviour change) with
//! the ignored test: `cargo test -p lr-replay --test golden -- --ignored`.

use lr_machine::{Machine, SimBarrier, SystemConfig, ThreadCtx, ThreadFn};
use lr_sim_core::tracefmt::{self, MachineTrace, TraceOp};
use std::path::PathBuf;

/// How to rewrite the fixture, for the failure messages.
const REGEN: &str = "cargo test -p lr-replay --test golden -- --ignored";

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join("golden.lrt")
}

/// Fixed workload covering every recorded op kind: lease/read/CAS/
/// release churn on a shared cell, FAA, exchange, malloc/free, a
/// MultiLease pair, and a barrier (for the marker record).
fn record_golden() -> MachineTrace {
    let mut cfg = SystemConfig::with_cores(2);
    cfg.seed = 0x90_1d_e2;
    let mut machine = Machine::new(cfg);
    let (cell, pair, barrier) = machine.setup(|m| {
        let cell = m.alloc_line_aligned(8);
        let pair = [m.alloc_line_aligned(8), m.alloc_line_aligned(8)];
        let barrier = SimBarrier::init(m, 2);
        (cell, pair, barrier)
    });
    let progs: Vec<ThreadFn> = (0..2)
        .map(|tid| {
            let mut barrier = barrier;
            Box::new(move |ctx: &mut ThreadCtx| {
                for i in 0..12u64 {
                    loop {
                        ctx.lease_max(cell);
                        let v = ctx.read(cell);
                        let ok = ctx.cas(cell, v, v + 1);
                        ctx.release(cell);
                        if ok {
                            break;
                        }
                    }
                    ctx.faa(pair[0], i);
                    ctx.count_op();
                }
                barrier.wait(ctx);
                if ctx.multi_lease(&[pair[0], pair[1]], 400) {
                    let a = ctx.read(pair[0]);
                    ctx.write(pair[1], a + tid as u64);
                    ctx.release_all();
                }
                let scratch = ctx.malloc_line(64);
                ctx.write(scratch, 0xabc);
                ctx.xchg(scratch, 0xdef);
                ctx.free(scratch);
                ctx.count_op();
            }) as ThreadFn
        })
        .collect();
    machine.run_recorded(progs).trace
}

/// Rewrites the fixture from today's recording; run it only on purpose.
#[test]
#[ignore = "rewrites the checked-in fixture"]
fn regenerate_golden_fixture() {
    let bytes = tracefmt::encode(&record_golden());
    let path = fixture_path();
    std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("mkdir fixtures");
    std::fs::write(&path, &bytes).expect("write golden fixture");
    eprintln!("regenerated {} ({} bytes)", path.display(), bytes.len());
}

#[test]
fn golden_trace_matches_fixture_byte_for_byte() {
    let bytes = tracefmt::encode(&record_golden());
    let path = fixture_path();
    let golden = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); regenerate with `{REGEN}`",
            path.display()
        )
    });
    assert_eq!(
        bytes, golden,
        "re-recording the golden workload no longer reproduces the fixture — \
         the wire format or simulated behaviour changed; if intentional, \
         regenerate with `{REGEN}`"
    );
}

#[test]
fn golden_fixture_decodes_replays_and_reencodes() {
    let path = fixture_path();
    let trace = lr_replay::read_trace(&path).unwrap_or_else(|e| {
        panic!(
            "cannot load {} ({e}); regenerate with `{REGEN}`",
            path.display()
        )
    });
    // Canonical form: decode → encode is byte-identical.
    let reencoded = tracefmt::encode(&trace);
    assert_eq!(reencoded, std::fs::read(&path).expect("fixture readable"));
    // The fixture contains the barrier marker the workload crossed.
    assert!(
        trace
            .cores
            .iter()
            .flatten()
            .any(|r| matches!(r.op, TraceOp::Barrier)),
        "golden fixture should contain a Barrier marker"
    );
    // And it replays byte-identically.
    let stats = lr_replay::verify(&trace).expect("golden fixture replays byte-identical");
    assert_eq!(stats.app_ops, 2 * 13);
}
