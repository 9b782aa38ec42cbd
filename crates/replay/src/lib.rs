//! # lr-replay
//!
//! Deterministic replay of recorded simulations, engine-only.
//!
//! A live run captures every simulated instruction at the
//! worker⇄engine rendezvous boundary ([`Machine::run_recorded`] or
//! `Machine::with_trace_output`). Because the lockstep runtime's only
//! inputs are
//! each core's issue times and operands — all recorded — feeding the
//! streams back into the engine from a single thread reproduces the
//! *exact* event sequence of the live run: no worker OS threads, no
//! rendezvous handoffs, no parking. [`replay`] does exactly that and
//! [`verify`] additionally requires the reproduced `MachineStats` to be
//! byte-for-byte identical to the recording.
//!
//! The [`ReplaySource`] doubles as a divergence detector: every reply
//! the engine produces is compared against the recorded one, and the
//! first mismatch aborts the run with a structured [`Divergence`] —
//! trace offset, cycle, line address, and the machine's full failure
//! report (protocol-trace window, in-flight state, lease tables).
//! Replay of an unmodified trace on an unmodified engine always
//! matches; a divergence therefore flags either a tampered trace or a
//! behavioural change in the protocol stack, which makes recorded
//! traces compact cross-version regression oracles.

use lr_machine::{
    Cycle, LineAddr, Machine, MachineStats, Op, OpSource, Reply, Request, SystemConfig,
};
use lr_sim_core::tracefmt::{self, MachineTrace, TraceError, TraceOp};
use lr_sim_mem::SimMemory;
use std::path::{Path, PathBuf};

/// Protocol-trace ring depth for replay runs: enough context around a
/// divergence to see the competing transactions on the affected line.
const REPLAY_TRACE_DEPTH: usize = 64;

/// First point where a replayed run departed from its recording.
#[derive(Debug)]
pub struct Divergence {
    /// Core whose stream diverged.
    pub core: usize,
    /// Index of the diverging record within that core's stream.
    pub offset: usize,
    /// Recorded issue time of the diverging op.
    pub cycle: Cycle,
    /// Cache line the op addresses, if it has one.
    pub line: Option<LineAddr>,
    /// One-line description of the mismatch.
    pub detail: String,
    /// The machine's full failure report at the abort point
    /// (protocol-trace window, in-flight state, lease tables).
    pub report: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "replay divergence at core {} record {} (cycle {}",
            self.core, self.offset, self.cycle
        )?;
        if let Some(line) = self.line {
            write!(f, ", {line}")?;
        }
        write!(f, "): {}", self.detail)
    }
}

/// Result of [`replay`].
pub enum ReplayOutcome {
    /// The engine reproduced every recorded reply.
    Matched {
        stats: MachineStats,
        /// Final memory image (boxed: a `SimMemory` is page-table-sized).
        mem: Box<SimMemory>,
        /// Discrete events the replayed engine processed.
        events: u64,
    },
    /// The engine departed from the recording (or the run failed).
    Diverged(Box<Divergence>),
}

/// An [`OpSource`] that feeds a recorded trace back into the engine and
/// compares every reply against the recording.
pub struct ReplaySource<'t> {
    trace: &'t MachineTrace,
    /// Per-core position in the record stream; during an op's flight it
    /// points at that op, advancing when its reply is observed.
    cursor: Vec<usize>,
    divergence: Option<Box<Divergence>>,
}

impl<'t> ReplaySource<'t> {
    pub fn new(trace: &'t MachineTrace) -> Self {
        ReplaySource {
            trace,
            cursor: vec![0; trace.cores.len()],
            divergence: None,
        }
    }

    /// The divergence recorded by a failed run, if any.
    pub fn take_divergence(&mut self) -> Option<Box<Divergence>> {
        self.divergence.take()
    }

    fn fail(
        &mut self,
        core: usize,
        offset: usize,
        cycle: Cycle,
        line: Option<LineAddr>,
        detail: String,
    ) -> String {
        self.divergence = Some(Box::new(Divergence {
            core,
            offset,
            cycle,
            line,
            detail: detail.clone(),
            report: String::new(),
        }));
        detail
    }
}

impl OpSource for ReplaySource<'_> {
    fn next(&mut self, tid: usize) -> Result<Request, String> {
        let stream = &self.trace.cores[tid];
        // Barrier records are annotations with no engine-visible op.
        while matches!(
            stream.get(self.cursor[tid]).map(|r| &r.op),
            Some(TraceOp::Barrier)
        ) {
            self.cursor[tid] += 1;
        }
        let offset = self.cursor[tid];
        let Some(rec) = stream.get(offset) else {
            let cycle = stream.last().map_or(0, |r| r.reply_time);
            let detail = format!(
                "core {tid}: trace exhausted after {offset} records but the engine \
                 expects another op (recording ended without Exit?)"
            );
            return Err(self.fail(tid, offset, cycle, None, detail));
        };
        let op = Op::from_trace(&rec.op, rec.at).expect("barriers were skipped above");
        if matches!(rec.op, TraceOp::Exit { .. }) {
            // No reply follows an Exit; consume it now.
            self.cursor[tid] += 1;
        }
        Ok(Request {
            tid,
            at: rec.at,
            op,
        })
    }

    fn observe(&mut self, tid: usize, reply: Reply) -> Result<(), String> {
        let offset = self.cursor[tid];
        let rec = &self.trace.cores[tid][offset];
        if reply.time == rec.reply_time
            && reply.value == rec.reply_value
            && reply.flag == rec.reply_flag
        {
            self.cursor[tid] += 1;
            return Ok(());
        }
        let detail = format!(
            "replayed reply to {:?} differs from recording: \
             got (time {}, value {:#x}, flag {}), recorded (time {}, value {:#x}, flag {})",
            rec.op,
            reply.time,
            reply.value,
            reply.flag,
            rec.reply_time,
            rec.reply_value,
            rec.reply_flag
        );
        let (at, line) = (rec.at, rec.op.addr().map(|a| a.line()));
        Err(self.fail(tid, offset, at, line, detail))
    }
}

/// Re-drive a recorded trace through the engine under its recorded
/// configuration, single-threaded. Matches unless the trace was
/// tampered with or the protocol stack's behaviour changed since the
/// recording.
pub fn replay(trace: &MachineTrace) -> ReplayOutcome {
    replay_with_config(trace, trace.config.clone())
}

/// Like [`replay`] but under an explicit configuration — deliberately
/// divergent configs (say, a different `dram_latency`) are how the
/// divergence detector itself is exercised.
pub fn replay_with_config(trace: &MachineTrace, cfg: SystemConfig) -> ReplayOutcome {
    if trace.cores.is_empty()
        || cfg.num_cores < 1
        || cfg.num_cores > lr_sim_core::MAX_CORES
        || trace.cores.len() > cfg.num_cores
    {
        return ReplayOutcome::Diverged(Box::new(Divergence {
            core: 0,
            offset: 0,
            cycle: 0,
            line: None,
            detail: format!(
                "trace core count {} is incompatible with config num_cores {}",
                trace.cores.len(),
                cfg.num_cores
            ),
            report: String::new(),
        }));
    }
    let mut machine = Machine::new(cfg).with_trace(REPLAY_TRACE_DEPTH);
    machine.setup(|m| *m = SimMemory::restore(&trace.mem));
    let mut source = ReplaySource::new(trace);
    match machine.run_source(trace.cores.len(), &mut source) {
        Ok((stats, mem, events)) => ReplayOutcome::Matched {
            stats,
            mem: Box::new(mem),
            events,
        },
        Err(abort) => {
            let mut d = source.take_divergence().unwrap_or_else(|| {
                Box::new(Divergence {
                    core: 0,
                    offset: 0,
                    cycle: 0,
                    line: None,
                    detail: abort.reason.clone(),
                    report: String::new(),
                })
            });
            d.report = abort.report;
            ReplayOutcome::Diverged(d)
        }
    }
}

/// Index and context of the first differing byte between two strings
/// (for stats-JSON mismatch reports).
fn first_diff(a: &str, b: &str) -> String {
    let pos = a
        .bytes()
        .zip(b.bytes())
        .position(|(x, y)| x != y)
        .unwrap_or_else(|| a.len().min(b.len()));
    let ctx = |s: &str| {
        let start = pos.saturating_sub(20);
        let end = (pos + 20).min(s.len());
        s.get(start..end)
            .unwrap_or("<non-utf8 boundary>")
            .to_string()
    };
    format!(
        "first difference at byte {pos}: replayed …{}… vs recorded …{}…",
        ctx(a),
        ctx(b)
    )
}

/// Replay a trace and require the reproduced run to be byte-for-byte
/// identical to the recording: every per-op reply (checked in flight),
/// the final `MachineStats` JSON, and the engine event count.
pub fn verify(trace: &MachineTrace) -> Result<MachineStats, Box<Divergence>> {
    match replay(trace) {
        ReplayOutcome::Matched { stats, events, .. } => {
            let json = stats.to_json();
            if json != trace.stats_json {
                return Err(Box::new(Divergence {
                    core: 0,
                    offset: 0,
                    cycle: stats.total_cycles,
                    line: None,
                    detail: format!(
                        "replayed MachineStats differ from recording: {}",
                        first_diff(&json, &trace.stats_json)
                    ),
                    report: String::new(),
                }));
            }
            if events != trace.live_events {
                return Err(Box::new(Divergence {
                    core: 0,
                    offset: 0,
                    cycle: stats.total_cycles,
                    line: None,
                    detail: format!(
                        "replayed engine processed {events} events, recording says {}",
                        trace.live_events
                    ),
                    report: String::new(),
                }));
            }
            Ok(stats)
        }
        ReplayOutcome::Diverged(d) => Err(d),
    }
}

/// Why a trace file could not be loaded.
#[derive(Debug)]
pub enum TraceReadError {
    Io(std::io::Error),
    Format(TraceError),
}

impl std::fmt::Display for TraceReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceReadError::Io(e) => write!(f, "{e}"),
            TraceReadError::Format(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for TraceReadError {}

/// Load and decode a trace file.
pub fn read_trace(path: &Path) -> Result<MachineTrace, TraceReadError> {
    let bytes = std::fs::read(path).map_err(TraceReadError::Io)?;
    tracefmt::decode(&bytes).map_err(TraceReadError::Format)
}

/// Encode and write a trace file.
pub fn write_trace(path: &Path, trace: &MachineTrace) -> std::io::Result<()> {
    std::fs::write(path, tracefmt::encode(trace))
}

/// Every `*.lrt` trace file in `dir`, sorted by file name — the
/// canonical iteration order for corpus replays and `--replay DIR`.
pub fn trace_files(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == tracefmt::TRACE_EXT))
        .collect();
    paths.sort();
    Ok(paths)
}

/// Outcome of a successful [`verify_file`] call.
pub struct VerifiedTrace {
    /// Recorded engine-visible ops in the trace.
    pub ops: u64,
    /// Simulated core count.
    pub cores: usize,
    /// The reproduced (and byte-verified) statistics.
    pub stats: MachineStats,
}

/// Load one trace file and [`verify`] it, folding IO, decode, and
/// divergence failures into one printable error — the shared engine
/// behind `lr-bench --replay`, `lr-replay`, and the fuzz farm's corpus
/// gate.
pub fn verify_file(path: &Path) -> Result<VerifiedTrace, String> {
    let trace = read_trace(path).map_err(|e| e.to_string())?;
    let stats = verify(&trace).map_err(|d| d.to_string())?;
    Ok(VerifiedTrace {
        ops: trace.total_ops(),
        cores: trace.cores.len(),
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lr_machine::{ThreadCtx, ThreadFn};

    /// A lease-contended counter recording: every lease/CAS/release path
    /// plus allocation, exercised under real inter-core contention.
    fn record_contended(threads: usize, iters: u64) -> MachineTrace {
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

    /// Replay takes every machine the recorder can: a 128-core ×
    /// 2-socket run, wider than one 64-bit sharer word, whose cores
    /// read and FAA one line homed on each socket.
    #[test]
    fn replay_accepts_machines_wider_than_64_cores() {
        const CORES: usize = 128;
        let mut cfg = SystemConfig::with_cores(CORES);
        cfg.sockets = 2;
        let mut machine = Machine::new(cfg);
        let cells = machine.setup(|m| [m.alloc_line_aligned(8), m.alloc_in_socket(8, 64, 1)]);
        let progs: Vec<ThreadFn> = (0..CORES)
            .map(|tid| {
                Box::new(move |ctx: &mut ThreadCtx| {
                    for i in 0..3 {
                        ctx.read(cells[(tid + i) % 2]);
                        ctx.faa(cells[(tid + i + 1) % 2], 1);
                        ctx.count_op();
                    }
                }) as ThreadFn
            })
            .collect();
        let trace = machine.run_recorded(progs).trace;
        assert_eq!(trace.cores.len(), CORES);
        match replay(&trace) {
            ReplayOutcome::Matched { mem, .. } => {
                let total: u64 = cells.iter().map(|&c| mem.read_word(c)).sum();
                assert_eq!(total, 3 * CORES as u64);
            }
            ReplayOutcome::Diverged(d) => panic!("128-core replay diverged: {d}"),
        }
        verify(&trace).expect("128-core replay matches its recording byte for byte");
    }

    #[test]
    fn replay_reproduces_recorded_run_byte_for_byte() {
        let trace = record_contended(3, 40);
        assert!(trace.total_ops() > 0);
        let stats = verify(&trace).expect("replay matches recording");
        assert_eq!(stats.app_ops, 3 * 40);
    }

    #[test]
    fn replay_restores_final_memory() {
        let trace = record_contended(2, 25);
        match replay(&trace) {
            ReplayOutcome::Matched { mem, .. } => {
                // The counter cell is the first line-aligned heap block.
                let cell = trace.mem.live[0].0;
                assert_eq!(mem.read_word(lr_machine::Addr(cell)), 50);
            }
            ReplayOutcome::Diverged(d) => panic!("unexpected divergence: {d}"),
        }
    }

    #[test]
    fn changed_config_is_caught_as_divergence() {
        let trace = record_contended(2, 20);
        let mut cfg = trace.config.clone();
        cfg.dram_latency += 5;
        match replay_with_config(&trace, cfg) {
            ReplayOutcome::Matched { .. } => {
                panic!("replay under a different dram latency cannot match")
            }
            ReplayOutcome::Diverged(d) => {
                assert!(
                    d.detail.contains("differs from recording"),
                    "unexpected detail: {}",
                    d.detail
                );
                assert!(
                    !d.report.is_empty(),
                    "divergence carries the machine report"
                );
            }
        }
    }

    #[test]
    fn tampered_reply_is_caught_with_location() {
        let mut trace = record_contended(2, 10);
        // Flip the recorded flag of core 1's first CAS.
        let (offset, rec) = trace.cores[1]
            .iter_mut()
            .enumerate()
            .find(|(_, r)| matches!(r.op, TraceOp::Cas { .. }))
            .expect("trace contains a CAS");
        rec.reply_flag = !rec.reply_flag;
        let cycle = rec.at;
        let line = rec.op.addr().map(|a| a.line());
        match replay(&trace) {
            ReplayOutcome::Matched { .. } => panic!("tampered trace cannot match"),
            ReplayOutcome::Diverged(d) => {
                assert_eq!(d.core, 1);
                assert_eq!(d.offset, offset);
                assert_eq!(d.cycle, cycle);
                assert_eq!(d.line, line);
            }
        }
    }

    #[test]
    fn truncated_stream_is_caught() {
        let mut trace = record_contended(2, 10);
        // Drop core 0's Exit sentinel: the engine will ask for another op.
        trace.cores[0].pop();
        match replay(&trace) {
            ReplayOutcome::Matched { .. } => panic!("truncated trace cannot match"),
            ReplayOutcome::Diverged(d) => {
                assert_eq!(d.core, 0);
                assert!(d.detail.contains("exhausted"), "detail: {}", d.detail);
            }
        }
    }

    #[test]
    fn verify_rejects_tampered_stats_json() {
        let mut trace = record_contended(2, 10);
        trace.stats_json = trace.stats_json.replacen('0', "1", 1);
        let err = verify(&trace).expect_err("stats tampering must be caught");
        assert!(
            err.detail.contains("MachineStats"),
            "detail: {}",
            err.detail
        );
    }
}
