//! Divergence-detection coverage: inject a mismatch into every reply
//! field an [`OpRecord`] carries (`reply_time`, `reply_value`,
//! `reply_flag`), into the final stats JSON, and into the engine event
//! count, and require the replayer to (a) catch each one, (b) report
//! the *first* divergent record with its core/offset/cycle/line
//! coordinates.
//!
//! [`OpRecord`]: lr_sim_core::tracefmt::OpRecord

use lr_machine::{Machine, SystemConfig, ThreadCtx, ThreadFn};
use lr_replay::{replay, verify, ReplayOutcome};
use lr_sim_core::tracefmt::{MachineTrace, TraceOp};

/// Record a short contended run: every thread loops lease → read → CAS
/// → release on one shared cell, so the trace carries every reply shape
/// (times, values, and CAS success/failure flags).
fn record(threads: usize, iters: u64) -> MachineTrace {
    let mut machine = Machine::new(SystemConfig::with_cores(threads));
    let cell = machine.setup(|m| m.alloc_line_aligned(8));
    let progs: Vec<ThreadFn> = (0..threads)
        .map(|_| {
            Box::new(move |ctx: &mut ThreadCtx| {
                for _ in 0..iters {
                    loop {
                        ctx.lease_max(cell);
                        let v = ctx.read(cell);
                        let ok = ctx.cas(cell, v, v + 1);
                        ctx.release(cell);
                        if ok {
                            break;
                        }
                    }
                    ctx.count_op();
                }
            }) as ThreadFn
        })
        .collect();
    machine.run_recorded(progs).trace
}

/// Offsets (into `trace.cores[core]`) of records that carry an
/// engine-produced reply — everything except the Exit marker and
/// Barrier annotations.
fn reply_offsets(trace: &MachineTrace, core: usize) -> Vec<usize> {
    trace.cores[core]
        .iter()
        .enumerate()
        .filter(|(_, r)| !matches!(r.op, TraceOp::Exit { .. } | TraceOp::Barrier))
        .map(|(i, _)| i)
        .collect()
}

/// Mutate one reply field of one record and require the replayer to
/// diverge exactly there, with full coordinates and both field values
/// in the report.
fn assert_caught(
    mut trace: MachineTrace,
    core: usize,
    offset: usize,
    field: &str,
    mutate: impl FnOnce(&mut lr_sim_core::tracefmt::OpRecord),
) {
    let at = trace.cores[core][offset].at;
    let has_addr = trace.cores[core][offset].op.addr().is_some();
    mutate(&mut trace.cores[core][offset]);
    let ReplayOutcome::Diverged(d) = replay(&trace) else {
        panic!("{field} mutation at core {core} offset {offset} not caught");
    };
    assert_eq!(d.core, core, "{field}: wrong core reported");
    assert_eq!(d.offset, offset, "{field}: wrong offset reported");
    assert_eq!(
        d.cycle, at,
        "{field}: cycle must be the record's issue time"
    );
    assert_eq!(
        d.line.is_some(),
        has_addr,
        "{field}: line coordinate must mirror the op's address"
    );
    assert!(
        d.detail.contains("differs from recording"),
        "{field}: detail must name the mismatch: {}",
        d.detail
    );
    assert!(
        !d.report.is_empty(),
        "{field}: divergence must carry the engine failure report"
    );
}

#[test]
fn reply_time_mutation_is_caught_at_its_record() {
    let trace = record(2, 3);
    let off = reply_offsets(&trace, 1)[2];
    assert_caught(trace, 1, off, "reply_time", |r| r.reply_time += 1);
}

#[test]
fn reply_value_mutation_is_caught_at_its_record() {
    let trace = record(2, 3);
    let off = reply_offsets(&trace, 0)[1];
    assert_caught(trace, 0, off, "reply_value", |r| {
        r.reply_value = r.reply_value.wrapping_add(0xdead)
    });
}

#[test]
fn reply_flag_mutation_is_caught_at_its_record() {
    let trace = record(2, 3);
    // Flip the flag on a CAS specifically: its flag is semantically
    // meaningful (success/failure), the hardest case to sneak past.
    let off = *reply_offsets(&trace, 1)
        .iter()
        .find(|&&i| matches!(trace.cores[1][i].op, TraceOp::Cas { .. }))
        .expect("contended run must record a CAS");
    assert_caught(trace, 1, off, "reply_flag", |r| {
        r.reply_flag = !r.reply_flag
    });
}

/// When several records are tampered with on one core, the replayer
/// reports the *earliest* one — the first-divergence guarantee that
/// makes shrunk reproducers meaningful.
#[test]
fn first_divergence_wins() {
    let mut trace = record(2, 4);
    let offs = reply_offsets(&trace, 0);
    let (k1, k2) = (offs[1], offs[3]);
    assert!(k1 < k2);
    trace.cores[0][k2].reply_value ^= 0xff;
    trace.cores[0][k1].reply_time += 7;
    let ReplayOutcome::Diverged(d) = replay(&trace) else {
        panic!("tampered trace replayed clean");
    };
    assert_eq!(d.core, 0);
    assert_eq!(
        d.offset, k1,
        "must report the first divergent record, not a later one"
    );
}

#[test]
fn stats_json_mutation_fails_verify_with_byte_context() {
    let mut trace = record(2, 2);
    assert!(verify(&trace).is_ok());
    trace.stats_json = trace.stats_json.replacen('0', "1", 1);
    let d = verify(&trace).expect_err("tampered stats JSON must fail");
    assert!(
        d.detail.contains("MachineStats differ"),
        "detail must name the stats mismatch: {}",
        d.detail
    );
    assert!(
        d.detail.contains("first difference at byte"),
        "detail must locate the first differing byte: {}",
        d.detail
    );
}

#[test]
fn live_event_count_mutation_fails_verify() {
    let mut trace = record(2, 2);
    trace.live_events += 1;
    let d = verify(&trace).expect_err("tampered event count must fail");
    assert!(
        d.detail.contains("events"),
        "detail must name the event-count mismatch: {}",
        d.detail
    );
}
