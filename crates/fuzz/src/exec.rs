//! Execute a generated [`Workload`] on the live machine and check it.
//!
//! One seed fans out across every orthogonal configuration axis:
//!
//! * **machine variant** ([`Variant`]): MSI baseline, MESI, and a
//!   deliberately hostile lease configuration (tight expiry, tiny
//!   lease table, prioritization on);
//! * **record/replay**: every recorded trace is re-verified engine-only
//!   ([`lr_replay::verify`]), which must reproduce every per-op reply,
//!   the final `MachineStats` JSON, and the event count.
//!
//! Independent of all axes, the workload's built-in invariants must
//! hold: the counter ledger ([`Workload::counter_ledger`]) and the
//! `app_ops` count. A violation of any of these is a [`Finding`].

use crate::gen::{GenOp, Workload, DLOCK_ALGO_COUNT, MAX_COUNTERS};
use lr_ds::ReplicatedCounter;
use lr_machine::{Addr, Machine, SystemConfig, ThreadCtx, ThreadFn};
use lr_sim_core::tracefmt::{self, MachineTrace};
use lr_sim_core::CoherenceProtocol;
use lr_sync::{CsApply, Dlock, DlockHandle, DLOCK_ALGOS};

/// One machine-configuration axis point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Paper baseline: MSI, default lease knobs.
    Msi,
    /// MESI protocol, default lease knobs.
    Mesi,
    /// MSI with a hostile lease config: 500-cycle expiry, 2-entry lease
    /// table, priority lease-breaking on — maximizes involuntary
    /// releases, overflows, and priority breaks.
    LeaseTight,
}

/// Every variant, in canonical order.
pub const VARIANTS: [Variant; 3] = [Variant::Msi, Variant::Mesi, Variant::LeaseTight];

impl Variant {
    pub fn name(self) -> &'static str {
        match self {
            Variant::Msi => "msi",
            Variant::Mesi => "mesi",
            Variant::LeaseTight => "lease-tight",
        }
    }

    /// Inverse of [`Variant::name`].
    pub fn parse(name: &str) -> Option<Variant> {
        VARIANTS.iter().copied().find(|v| v.name() == name)
    }

    fn apply(self, cfg: &mut SystemConfig) {
        match self {
            Variant::Msi => {}
            Variant::Mesi => cfg.protocol = CoherenceProtocol::Mesi,
            Variant::LeaseTight => {
                cfg.lease.max_lease_time = 500;
                cfg.lease.max_num_leases = 2;
                cfg.lease.prioritization = true;
            }
        }
    }
}

/// One confirmed misbehaviour: the farm's unit of output. Carries
/// everything needed to reproduce without the campaign: the seed, the
/// variant, and (after shrinking) the minimal trace.
#[derive(Debug)]
pub struct Finding {
    pub seed: u64,
    pub variant: &'static str,
    /// Short machine-readable failure class (`divergence`, `ledger`,
    /// `app-ops`, `live-abort`, `nondeterminism`, `decode-panic`).
    pub kind: &'static str,
    pub detail: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "seed {} [{}] {}: {}",
            self.seed, self.variant, self.kind, self.detail
        )
    }
}

/// A recorded live run plus the observables the checks need.
pub struct RunOutput {
    pub trace: MachineTrace,
    /// Final value of every counter cell, read from post-run memory.
    pub counters: Vec<u64>,
    /// Linearized final value of the node-replicated counter (the log
    /// fold; also asserts every replica matches its applied prefix), or
    /// `None` when the workload has no [`GenOp::ReplicatedOp`].
    pub replicated: Option<u64>,
    /// Final `app_ops` stat.
    pub app_ops: u64,
}

/// The delegated critical section for [`GenOp::DlockFaa`]: `op` names
/// the counter cell, `arg` is the FAA delta. `Copy` (a [`CsApply`]
/// requirement) forces the fixed-size cell array; unused slots alias
/// cell 0 and are never indexed (the generator bounds `cell`).
#[derive(Clone, Copy)]
struct FuzzApply {
    counters: [Addr; MAX_COUNTERS],
}

impl CsApply for FuzzApply {
    fn apply(&self, ctx: &mut ThreadCtx, op: u64, arg: u64) -> u64 {
        ctx.faa(self.counters[op as usize], arg)
    }
}

/// Which delegation-lock algorithms a workload actually uses, as a
/// presence mask over `DLOCK_ALGOS` indices. Drives setup so workloads
/// without `DlockFaa` ops allocate no lock pools at all (their memory
/// layout — and thus their traces — stay exactly as before the op
/// existed).
fn used_dlock_algos(w: &Workload) -> [bool; DLOCK_ALGO_COUNT] {
    let mut used = [false; DLOCK_ALGO_COUNT];
    for prog in &w.programs {
        for op in prog {
            if let GenOp::DlockFaa { algo, .. } = op {
                used[*algo] = true;
            }
        }
    }
    used
}

/// Build the per-thread closure for one program. `dlocks[i]` is `Some`
/// exactly when the workload delegates through `DLOCK_ALGOS[i]`.
fn thread_fn(
    tid: usize,
    prog: Vec<GenOp>,
    counters: Vec<Addr>,
    scratch: Vec<Addr>,
    dlocks: Vec<Option<Dlock>>,
    repl: Option<ReplicatedCounter>,
) -> ThreadFn {
    let mut apply = FuzzApply {
        counters: [Addr(0); MAX_COUNTERS],
    };
    for (slot, &a) in apply.counters.iter_mut().zip(counters.iter().cycle()) {
        *slot = a;
    }
    Box::new(move |ctx: &mut ThreadCtx| {
        let mut handles: Vec<Option<DlockHandle>> = vec![None; dlocks.len()];
        let mut repl_handle = None;
        for op in &prog {
            match *op {
                GenOp::Faa { cell, delta } => {
                    ctx.faa(counters[cell], delta);
                }
                GenOp::LeasedFaa { cell, delta } => {
                    ctx.lease_max(counters[cell]);
                    ctx.faa(counters[cell], delta);
                    ctx.release(counters[cell]);
                }
                GenOp::Read { cell } => {
                    ctx.read(scratch[cell]);
                }
                GenOp::Write { cell, value } => ctx.write(scratch[cell], value),
                GenOp::Cas {
                    cell,
                    expected,
                    new,
                } => {
                    ctx.cas(scratch[cell], expected, new);
                }
                GenOp::Xchg { cell, value } => {
                    ctx.xchg(scratch[cell], value);
                }
                GenOp::MultiTouch { a, b, value } => {
                    let addrs = [scratch[a], scratch[b]];
                    let time = ctx.max_lease_time().min(1_000);
                    if ctx.multi_lease(&addrs, time) {
                        ctx.write(addrs[0], value);
                        ctx.write(addrs[1], value ^ 1);
                    }
                    ctx.release_all();
                }
                GenOp::AllocChurn { words, value } => {
                    let p = ctx.malloc_line(words * 8);
                    ctx.write(p, value);
                    ctx.xchg(p, value.wrapping_add(1));
                    ctx.free(p);
                }
                GenOp::DlockFaa { algo, cell, delta } => {
                    let d = dlocks[algo]
                        .as_ref()
                        .expect("setup allocated a pool for every used algorithm");
                    let h = handles[algo].get_or_insert_with(|| d.handle(tid));
                    d.run(ctx, h, &apply, cell as u64, delta);
                }
                GenOp::ReplicatedOp { delta } => {
                    let rc = repl
                        .as_ref()
                        .expect("setup allocated the replicated counter for this workload");
                    let h = repl_handle.get_or_insert_with(|| rc.handle(tid));
                    rc.add(ctx, h, delta);
                }
                GenOp::Work { cycles } => ctx.work(cycles),
            }
            ctx.count_op();
        }
    })
}

/// Record one live run of `w` under `variant`. A panic anywhere in the
/// lockstep run (worker or engine) is folded into an `Err` — a
/// live-abort finding, never a farm crash.
pub fn record_workload(w: &Workload, variant: Variant) -> Result<RunOutput, String> {
    let mut cfg = SystemConfig::with_cores(w.threads());
    variant.apply(&mut cfg);
    // Decouple the machine's internal seed from the default so campaign
    // seeds also vary backoff/arbitration randomness, deterministically.
    cfg.seed ^= w.seed.rotate_left(17);
    // Workloads that drive the node-replicated counter run on a
    // two-socket topology whenever the thread count allows it, so the
    // fuzzer replays real cross-socket log traffic; everything else
    // keeps the flat single-socket machine (and its traces) unchanged.
    let has_repl = w.has_replicated();
    let sockets = if has_repl && w.threads().is_multiple_of(2) {
        2
    } else {
        1
    };
    cfg.sockets = sockets;

    let mut machine = Machine::new(cfg);
    let used = used_dlock_algos(w);
    let threads = w.threads();
    // The lease/release hybrid of the replicated counter rides the
    // hostile-lease variant; the plain NR path rides MSI and MESI.
    let repl_lease = variant == Variant::LeaseTight;
    let (counter_addrs, scratch_addrs, dlocks, repl) = machine.setup(|m| {
        let c: Vec<Addr> = (0..w.counters).map(|_| m.alloc_line_aligned(8)).collect();
        let s: Vec<Addr> = (0..w.scratch).map(|_| m.alloc_line_aligned(8)).collect();
        // One pre-allocated lock (node pool and all) per algorithm the
        // workload actually delegates through; steady state then sends
        // zero allocator messages for lock bookkeeping.
        let d: Vec<Option<Dlock>> = DLOCK_ALGOS
            .iter()
            .zip(used.iter())
            .map(|(&algo, &u)| u.then(|| Dlock::init(m, algo, threads)))
            .collect();
        let r = has_repl.then(|| {
            let log_cap = w
                .programs
                .iter()
                .flatten()
                .filter(|op| matches!(op, GenOp::ReplicatedOp { .. }))
                .count() as u64;
            ReplicatedCounter::init(m, sockets, threads / sockets, threads, log_cap, repl_lease)
        });
        (c, s, d, r)
    });
    let progs: Vec<ThreadFn> = w
        .programs
        .iter()
        .enumerate()
        .map(|(tid, p)| {
            thread_fn(
                tid,
                p.clone(),
                counter_addrs.clone(),
                scratch_addrs.clone(),
                dlocks.clone(),
                repl.clone(),
            )
        })
        .collect();
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
        machine.run_recorded(progs)
    }))
    .map_err(|p| format!("live run panicked: {}", panic_msg(p)))?;
    // `final_value` panics if any replica diverged from its applied log
    // prefix; fold that into a live-abort finding, not a farm crash.
    let replicated = match repl.as_ref() {
        Some(rc) => Some(
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| rc.final_value(&run.mem)))
                .map_err(|p| format!("replica consistency check panicked: {}", panic_msg(p)))?,
        ),
        None => None,
    };
    Ok(RunOutput {
        counters: counter_addrs
            .iter()
            .map(|&a| run.mem.read_word(a))
            .collect(),
        replicated,
        app_ops: run.stats.app_ops,
        trace: run.trace,
    })
}

/// A panic payload's message, for folding a panic into a finding.
fn panic_msg(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Run every check for one (workload, variant) pair, ending with one
/// replay verification of its trace, and hand the checked trace back.
pub fn check_variant(w: &Workload, variant: Variant) -> Result<MachineTrace, Finding> {
    let finding = |kind: &'static str, detail: String| Finding {
        seed: w.seed,
        variant: variant.name(),
        kind,
        detail,
    };
    let out = record_workload(w, variant).map_err(|e| finding("live-abort", e))?;

    let ledger = w.counter_ledger();
    if out.counters != ledger {
        return Err(finding(
            "ledger",
            format!(
                "counter cells ended at {:?}, FAA ledger says {:?}",
                out.counters, ledger
            ),
        ));
    }
    if let Some(got) = out.replicated {
        let want = w.replicated_ledger();
        if got != want {
            return Err(finding(
                "ledger",
                format!("replicated counter ended at {got}, log ledger says {want}"),
            ));
        }
    }
    if out.app_ops != w.total_ops() {
        return Err(finding(
            "app-ops",
            format!(
                "machine counted {} app ops, workload has {}",
                out.app_ops,
                w.total_ops()
            ),
        ));
    }
    lr_replay::verify(&out.trace).map_err(|d| finding("divergence", d.to_string()))?;
    Ok(out.trace)
}

/// Trace-encoding robustness probe: the encoder must round-trip, and a
/// decoder fed corrupted bytes must fail *gracefully* (no panic) at
/// deterministically chosen flip positions.
pub fn check_encoding(w: &Workload, trace: &MachineTrace) -> Result<(), Finding> {
    let bytes = tracefmt::encode(trace);
    let back = tracefmt::decode(&bytes).map_err(|e| Finding {
        seed: w.seed,
        variant: "encode",
        kind: "decode-panic",
        detail: format!("round-trip decode failed: {e}"),
    })?;
    if back != *trace {
        return Err(Finding {
            seed: w.seed,
            variant: "encode",
            kind: "decode-panic",
            detail: "round-trip decode produced a different trace".to_string(),
        });
    }
    let mut rng = lr_sim_core::SplitMix64::new(w.seed ^ 0xb17f11b5);
    for _ in 0..4 {
        let pos = rng.gen_range(0usize..bytes.len());
        let mut bad = bytes.clone();
        bad[pos] ^= 1 << rng.gen_range(0u64..8) as u8;
        let res = std::panic::catch_unwind(|| tracefmt::decode(&bad).is_ok());
        if res.is_err() {
            return Err(Finding {
                seed: w.seed,
                variant: "encode",
                kind: "decode-panic",
                detail: format!("decoder panicked on a single-bit flip at byte {pos}"),
            });
        }
    }
    // Truncation at every prefix of the header plus a mid-body cut must
    // also fail gracefully.
    for cut in [0, 1, 7, 8, 11, bytes.len() / 2, bytes.len() - 1] {
        let res = std::panic::catch_unwind(|| tracefmt::decode(&bytes[..cut]).is_ok());
        match res {
            Err(_) => {
                return Err(Finding {
                    seed: w.seed,
                    variant: "encode",
                    kind: "decode-panic",
                    detail: format!("decoder panicked on truncation to {cut} bytes"),
                })
            }
            Ok(true) => {
                return Err(Finding {
                    seed: w.seed,
                    variant: "encode",
                    kind: "decode-panic",
                    detail: format!("decoder accepted a trace truncated to {cut} bytes"),
                })
            }
            Ok(false) => {}
        }
    }
    Ok(())
}

/// Per-seed campaign summary (for deterministic progress output).
pub struct SeedReport {
    pub seed: u64,
    pub threads: usize,
    pub ops: u64,
    /// Replay verifications performed (one per variant).
    pub verified: usize,
}

/// Run the full check matrix for one workload: every [`Variant`],
/// replay verification, ledger/app-ops invariants, encoding robustness
/// of the MSI recording, and (on every eighth seed) a record-twice
/// determinism check against it.
pub fn check_workload(w: &Workload) -> Result<SeedReport, Finding> {
    let seed = w.seed;
    let mut msi = None;
    for v in VARIANTS {
        let trace = check_variant(w, v)?;
        if v == Variant::Msi {
            msi = Some(trace);
        }
    }
    let msi = msi.expect("VARIANTS includes MSI");
    check_encoding(w, &msi)?;
    if seed.is_multiple_of(8) {
        let again = record_workload(w, Variant::Msi).map_err(|e| Finding {
            seed,
            variant: "msi",
            kind: "live-abort",
            detail: e,
        })?;
        if tracefmt::encode(&again.trace) != tracefmt::encode(&msi) {
            return Err(Finding {
                seed,
                variant: "msi",
                kind: "nondeterminism",
                detail: "recording the same workload twice produced different traces".to_string(),
            });
        }
    }
    Ok(SeedReport {
        seed,
        threads: w.threads(),
        ops: w.total_ops(),
        verified: VARIANTS.len(),
    })
}

/// [`check_workload`] for the workload generated by `seed`.
pub fn check_seed(seed: u64) -> Result<SeedReport, Finding> {
    check_workload(&Workload::generate(seed))
}
