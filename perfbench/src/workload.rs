//! The three workloads: op-stream generation from the seed, machine
//! construction, one measured execution, and each workload's
//! correctness gate.
//!
//! Every workload is a closed loop: each simulated core issues its next
//! op when the previous one completes, with a fixed op count per core.
//! Every execution builds a fresh machine, so simulated caches start
//! empty.

use crate::span::Tracer;
use lr_ds::{ReplicatedKv, StackVariant, TreiberStack, KV_MISS};
use lr_machine::{Addr, EngineInfo, Machine, MachineStats, SystemConfig, ThreadCtx, ThreadFn};
use lr_replay::{ReplayOutcome, ReplaySource};
use lr_sim_core::tracefmt::{self, MachineTrace};
use lr_sim_core::{SplitMix64, Zipf};
use lr_sim_mem::SimMemory;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Live: 16 cores, each leasing, reading, writing and releasing its
    /// own line.
    LiveLeaseChurn,
    /// Engine-only: replay of a recorded 32-core leased Treiber stack.
    ReplayContendedStack,
    /// Live: 1024 cores × 4 sockets serving Zipfian KV traffic through
    /// node replication.
    NumaServing1024,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::LiveLeaseChurn,
        Workload::ReplayContendedStack,
        Workload::NumaServing1024,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LiveLeaseChurn => "live_lease_churn",
            Workload::ReplayContendedStack => "replay_contended_stack",
            Workload::NumaServing1024 => "numa_serving_1024",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Does the measured phase run live OS-thread workers?
    pub fn is_live(self) -> bool {
        self != Workload::ReplayContendedStack
    }
}

/// Problem size: `Full` is what the benchmark measures; `Smoke` is a
/// tiny instance of the same workload for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

/// Machine shape and per-core op count of one workload at one size.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Shape {
    pub cores: usize,
    pub sockets: usize,
    pub ops_per_core: usize,
}

pub(crate) fn shape(w: Workload, size: Size) -> Shape {
    let (cores, sockets, full, smoke) = match w {
        Workload::LiveLeaseChurn => (16, 1, 2_000, 20),
        // Ops are push/pop pairs.
        Workload::ReplayContendedStack => (32, 1, 200, 8),
        Workload::NumaServing1024 => (1024, 4, 16, 4),
    };
    match size {
        Size::Full => Shape {
            cores,
            sockets,
            ops_per_core: full,
        },
        // The smoke NUMA machine keeps 4 sockets but only 64 cores.
        Size::Smoke => Shape {
            cores: cores.min(64),
            sockets,
            ops_per_core: smoke,
        },
    }
}

/// NUMA key space, skew and GET share, as in the `numa_serving` scenario.
const KEYS: usize = 64;
const ZIPF_S: f64 = 0.99;
/// Key `k` (1-based) starts at `SEED_BASE + k`.
const SEED_BASE: u64 = 1_000;
/// Lines in the lease-churn arena each core's line is drawn from (so
/// the seed moves lines between home tiles).
const ARENA_PER_CORE: usize = 4;
/// Protocol-trace ring depth `lr_replay::replay` runs with; wide traces
/// replayed here use the same depth so per-event cost stays comparable.
const REPLAY_TRACE_DEPTH: usize = 64;

/// Every op stream a workload issues, generated from the seed.
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// Per core: its arena slot and the value each op writes.
    Churn {
        slots: Vec<usize>,
        values: Vec<Vec<u64>>,
    },
    /// Per core: values pushed before the pairs, then one value per
    /// push/pop pair.
    Stack {
        pre: Vec<Vec<u64>>,
        pairs: Vec<Vec<u64>>,
    },
    /// Per core: `(key, None)` is a GET, `(key, Some(delta))` an ADD.
    Numa { ops: Vec<Vec<(u64, Option<u64>)>> },
}

pub fn plan(w: Workload, size: Size, seed: u64) -> Plan {
    let sh = shape(w, size);
    let mut rng = SplitMix64::new(seed ^ 0x9e11_bea7_0000_0000 ^ w as u64);
    match w {
        Workload::LiveLeaseChurn => {
            let mut slots: Vec<usize> = (0..sh.cores * ARENA_PER_CORE).collect();
            rng.shuffle(&mut slots);
            slots.truncate(sh.cores);
            let values = (0..sh.cores)
                .map(|_| (0..sh.ops_per_core).map(|_| rng.next_u64() | 1).collect())
                .collect();
            Plan::Churn { slots, values }
        }
        Workload::ReplayContendedStack => {
            let value = |rng: &mut SplitMix64| (rng.next_u64() >> 24) | 1;
            let pre = (0..sh.cores)
                .map(|_| {
                    let n = rng.gen_range(0u64..=2);
                    (0..n).map(|_| value(&mut rng)).collect()
                })
                .collect();
            let pairs = (0..sh.cores)
                .map(|_| (0..sh.ops_per_core).map(|_| value(&mut rng)).collect())
                .collect();
            Plan::Stack { pre, pairs }
        }
        Workload::NumaServing1024 => {
            // Every tenth op of a core is an ADD, staggered by core: the
            // seed picks keys and deltas but not how many ADDs a core
            // issues, whose tail would otherwise set the makespan.
            let zipf = Zipf::new(KEYS, ZIPF_S);
            let ops = (0..sh.cores)
                .map(|c| {
                    (0..sh.ops_per_core)
                        .map(|i| {
                            let key = zipf.sample(&mut rng) as u64 + 1;
                            if (c + i) % 10 == 0 {
                                (key, Some(rng.gen_range(1u64..=100)))
                            } else {
                                (key, None)
                            }
                        })
                        .collect()
                })
                .collect();
            Plan::Numa { ops }
        }
    }
}

impl Plan {
    /// Application ops the plan issues.
    pub fn app_ops(&self) -> u64 {
        let n: usize = match self {
            Plan::Churn { values, .. } => values.iter().map(Vec::len).sum(),
            Plan::Stack { pre, pairs } => {
                pre.iter().map(Vec::len).sum::<usize>()
                    + 2 * pairs.iter().map(Vec::len).sum::<usize>()
            }
            Plan::Numa { ops } => ops.iter().map(Vec::len).sum(),
        };
        n as u64
    }
}

/// Machine configuration of a workload.
pub(crate) fn machine_config(w: Workload, size: Size) -> SystemConfig {
    let sh = shape(w, size);
    let mut cfg = SystemConfig::with_cores(sh.cores);
    cfg.sockets = sh.sockets;
    if w == Workload::NumaServing1024 {
        // As in `numa_serving`: small caches keep kilo-core runs
        // tractable while the hot working set stays resident.
        cfg.l1_kib = 8;
        cfg.l2_slice_kib = 32;
    }
    cfg
}

/// What the workers observe, shared with the host: per-op simulated
/// latencies (cycles, `ctx.now()` around each op), ops whose in-flight
/// check failed, and the stack's pop ledger.
#[derive(Default)]
struct Probe {
    op_cycles: Mutex<Vec<u64>>,
    bad_ops: AtomicU64,
    pops: AtomicU64,
    popped_sum: AtomicU64,
}

impl Probe {
    fn deposit(&self, lat: Vec<u64>) {
        self.op_cycles
            .lock()
            .expect("a worker panicked while depositing latencies")
            .extend(lat);
    }

    fn take_cycles(&self) -> Vec<u64> {
        std::mem::take(
            &mut self
                .op_cycles
                .lock()
                .expect("a worker panicked while depositing latencies"),
        )
    }
}

/// Host-side expectations a finished run is checked against.
enum Check {
    Churn {
        lines: Vec<Addr>,
    },
    Stack {
        stack: TreiberStack,
    },
    Numa {
        kv: ReplicatedKv,
        ledger: Vec<u64>,
        key_ops: Vec<u64>,
        adds: u64,
    },
}

/// A machine loaded with its workload, ready to run.
struct Built {
    machine: Machine,
    programs: Vec<ThreadFn>,
    check: Check,
}

fn build(cfg: &SystemConfig, plan: &Plan, probe: &Arc<Probe>) -> Built {
    let mut machine = Machine::new(cfg.clone());
    match plan {
        Plan::Churn { slots, values } => {
            let arena = machine.setup(|mem| {
                (0..slots.len() * ARENA_PER_CORE)
                    .map(|_| mem.alloc_line_aligned(64))
                    .collect::<Vec<_>>()
            });
            let lines: Vec<Addr> = slots.iter().map(|&s| arena[s]).collect();
            let programs = lines
                .iter()
                .zip(values)
                .map(|(&line, vals)| {
                    let (vals, probe) = (vals.clone(), probe.clone());
                    Box::new(move |ctx: &mut ThreadCtx| {
                        let mut lat = Vec::with_capacity(vals.len());
                        let (mut prev, mut bad) = (0, 0);
                        for v in vals {
                            let t0 = ctx.now();
                            ctx.lease_max(line);
                            let seen = ctx.read(line);
                            ctx.write(line, v);
                            ctx.release(line);
                            lat.push(ctx.now() - t0);
                            ctx.count_op();
                            // Only this core touches the line: every
                            // read must see its own previous write.
                            bad += u64::from(seen != prev);
                            prev = v;
                        }
                        probe.bad_ops.fetch_add(bad, Ordering::Relaxed);
                        probe.deposit(lat);
                    }) as ThreadFn
                })
                .collect();
            Built {
                machine,
                programs,
                check: Check::Churn { lines },
            }
        }
        Plan::Stack { pre, pairs } => {
            let stack = machine.setup(|mem| TreiberStack::init(mem, StackVariant::Leased));
            let programs = pre
                .iter()
                .zip(pairs)
                .map(|(pre, pairs)| {
                    let (pre, pairs, probe) = (pre.clone(), pairs.clone(), probe.clone());
                    Box::new(move |ctx: &mut ThreadCtx| {
                        let mut lat = Vec::with_capacity(pre.len() + 2 * pairs.len());
                        let (mut pops, mut popped) = (0u64, 0u64);
                        let timed_push = |ctx: &mut ThreadCtx, v: u64, lat: &mut Vec<u64>| {
                            let t0 = ctx.now();
                            stack.push(ctx, v);
                            lat.push(ctx.now() - t0);
                            ctx.count_op();
                        };
                        for &v in &pre {
                            timed_push(ctx, v, &mut lat);
                        }
                        for &v in &pairs {
                            timed_push(ctx, v, &mut lat);
                            let t0 = ctx.now();
                            if let Some(x) = stack.pop(ctx) {
                                pops += 1;
                                popped = popped.wrapping_add(x);
                            }
                            lat.push(ctx.now() - t0);
                            ctx.count_op();
                        }
                        probe.pops.fetch_add(pops, Ordering::Relaxed);
                        probe.popped_sum.fetch_add(popped, Ordering::Relaxed);
                        probe.deposit(lat);
                    }) as ThreadFn
                })
                .collect();
            Built {
                machine,
                programs,
                check: Check::Stack { stack },
            }
        }
        Plan::Numa { ops } => {
            let threads = ops.len();
            let (sockets, tps) = (cfg.sockets, cfg.num_cores / cfg.sockets);
            let app_ops: u64 = ops.iter().map(|p| p.len() as u64).sum();
            let kv = machine.setup(|mem| {
                let kv =
                    ReplicatedKv::init(mem, sockets, tps, threads, app_ops, true, 2 * KEYS as u64);
                for k in 1..=KEYS as u64 {
                    kv.seed(mem, k, SEED_BASE + k);
                }
                kv
            });
            let mut ledger: Vec<u64> = (1..=KEYS as u64).map(|k| SEED_BASE + k).collect();
            let mut key_ops = vec![0u64; KEYS];
            let mut adds = 0;
            for &(key, delta) in ops.iter().flatten() {
                let k = key as usize - 1;
                key_ops[k] += 1;
                if let Some(d) = delta {
                    ledger[k] = ledger[k].wrapping_add(d);
                    adds += 1;
                }
            }
            let programs = ops
                .iter()
                .enumerate()
                .map(|(tid, prog)| {
                    let (kv, prog, probe) = (kv.clone(), prog.clone(), probe.clone());
                    Box::new(move |ctx: &mut ThreadCtx| {
                        let mut h = kv.handle(tid);
                        let mut lat = Vec::with_capacity(prog.len());
                        let mut bad = 0;
                        for (key, delta) in prog {
                            let t0 = ctx.now();
                            let r = match delta {
                                Some(d) => kv.add(ctx, &mut h, key, d),
                                None => kv.get_local(ctx, &h, key),
                            };
                            lat.push(ctx.now() - t0);
                            ctx.count_op();
                            // Every key is seeded, so no op may miss.
                            bad += u64::from(r == KV_MISS);
                        }
                        probe.bad_ops.fetch_add(bad, Ordering::Relaxed);
                        probe.deposit(lat);
                    }) as ThreadFn
                })
                .collect();
            Built {
                machine,
                programs,
                check: Check::Numa {
                    kv,
                    ledger,
                    key_ops,
                    adds,
                },
            }
        }
    }
}

/// Ops that fail the workload's gate, given the finished run. Gate
/// failures are counted against ops, never skipped.
fn gate(check: &Check, plan: &Plan, stats: &MachineStats, mem: &SimMemory, probe: &Probe) -> u64 {
    let attempted = plan.app_ops();
    if stats.app_ops != attempted {
        return attempted;
    }
    let failed = match (check, plan) {
        (Check::Churn { lines }, Plan::Churn { values, .. }) => {
            let t = stats.core_totals();
            if t.releases_voluntary + t.releases_involuntary != t.leases_taken {
                return attempted;
            }
            // Each core's line must hold the last value it wrote.
            let stale: u64 = lines
                .iter()
                .zip(values)
                .filter(|(&line, vals)| vals.last().is_some_and(|&v| mem.read_word(line) != v))
                .map(|(_, vals)| vals.len() as u64)
                .sum();
            stale + probe.bad_ops.load(Ordering::Relaxed)
        }
        (Check::Stack { stack }, Plan::Stack { pre, pairs }) => {
            let pushed = pre.iter().chain(pairs).flatten();
            let pushes = pushed.clone().count() as u64;
            let pushed_sum = pushed.fold(0u64, |s, &v| s.wrapping_add(v));
            let pops = probe.pops.load(Ordering::Relaxed);
            let popped_sum = probe.popped_sum.load(Ordering::Relaxed);
            if stack_contents(stack, mem, pushes)
                == (
                    pushes.wrapping_sub(pops),
                    pushed_sum.wrapping_sub(popped_sum),
                )
            {
                0
            } else {
                attempted
            }
        }
        (
            Check::Numa {
                kv,
                ledger,
                key_ops,
                adds,
            },
            _,
        ) => {
            let n = kv.log_len(mem);
            // GETs are served replica-locally: the log holds exactly
            // the ADDs, and a multi-socket run must cross a link.
            if n != *adds
                || kv.op_counts(mem) != (*adds, 0)
                || (*adds > 0 && stats.cross_socket_msgs == 0)
            {
                return attempted;
            }
            let diverged: u64 = (0..KEYS)
                .filter(|&k| {
                    let key = k as u64 + 1;
                    kv.replay_value(mem, key, Some(SEED_BASE + key), n) != Some(ledger[k])
                })
                .map(|k| key_ops[k])
                .sum();
            diverged + probe.bad_ops.load(Ordering::Relaxed)
        }
        _ => unreachable!("check and plan come from the same workload"),
    };
    failed.min(attempted)
}

/// `(depth, wrapping value sum)` of the stack in `mem`, walking at most
/// `limit + 1` nodes (a cycle reads as too deep).
fn stack_contents(stack: &TreiberStack, mem: &SimMemory, limit: u64) -> (u64, u64) {
    let (mut depth, mut sum) = (0u64, 0u64);
    let mut node = mem.read_word(stack.head);
    while node != 0 && depth <= limit {
        sum = sum.wrapping_add(mem.read_word(Addr(node)));
        node = mem.read_word(Addr(node).offset(8));
        depth += 1;
    }
    (depth, sum)
}

/// The recorded stack run the replay workload re-drives.
pub(crate) struct Recording {
    pub bytes: Vec<u8>,
    pub stats: MachineStats,
    pub events: u64,
    pub op_cycles: Vec<u64>,
    check: Check,
    probe: Arc<Probe>,
    /// Ops of the recording that failed its gate.
    pub failed: u64,
}

/// A workload after set-up: its config, op streams, and (for the
/// replay workload) the encoded recording of stream 0.
pub(crate) struct Prepared {
    pub workload: Workload,
    pub cfg: SystemConfig,
    /// One plan per stream (see [`streams`]).
    pub plans: Vec<Plan>,
    pub recording: Option<Recording>,
}

/// Independent op streams one run simulates, each derived from the
/// seed. The NUMA cell's simulated tail is chaotic in its input: a
/// single stream moves `op_cycles_p99` by ~15% between seeds, so a run
/// pools five. The other workloads vary < 1% and use one.
pub(crate) fn streams(w: Workload) -> usize {
    match w {
        Workload::NumaServing1024 => 5,
        _ => 1,
    }
}

/// Seed of stream `k` of a run seeded `seed` (stream 0 uses the seed).
fn stream_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_add((k as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Set-up: generate the op streams, build the machine and, for the
/// replay workload, record the live run and encode its trace.
pub(crate) fn prepare(w: Workload, size: Size, seed: u64, tr: &mut Tracer) -> Prepared {
    let cfg = machine_config(w, size);
    let plans: Vec<Plan> = tr.span("setup.plan", |_| {
        (0..streams(w))
            .map(|k| plan(w, size, stream_seed(seed, k)))
            .collect()
    });
    let probe = Arc::new(Probe::default());
    let built = tr.span("setup.build", |_| build(&cfg, &plans[0], &probe));
    let recording = (w == Workload::ReplayContendedStack).then(|| {
        let rec = tr.span("lr_machine.run_recorded", |_| {
            built.machine.run_recorded(built.programs)
        });
        let failed = gate(&built.check, &plans[0], &rec.stats, &rec.mem, &probe);
        let bytes = tr.span("tracefmt.encode", |_| tracefmt::encode(&rec.trace));
        Recording {
            bytes,
            stats: rec.stats,
            events: rec.events,
            op_cycles: probe.take_cycles(),
            check: built.check,
            probe,
            failed,
        }
    });
    Prepared {
        workload: w,
        cfg,
        plans,
        recording,
    }
}

/// One measured execution.
pub(crate) struct Run {
    /// Host seconds of the timed phase: the live machine run, or the
    /// trace decode plus engine-only replay.
    pub wall_s: f64,
    pub stats: MachineStats,
    pub events: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Simulated cycles of every app op (the replay reproduces the
    /// recording's, so the replay workload reports those).
    pub op_cycles: Vec<u64>,
}

/// Run stream `k` of the workload once, timing only the phase the
/// workload measures.
pub(crate) fn run(p: &Prepared, k: usize, tr: &mut Tracer) -> Run {
    match &p.recording {
        None => run_live(p, &p.plans[k], tr),
        Some(rec) => run_replay(&p.plans[k], rec, tr),
    }
}

fn run_live(p: &Prepared, plan: &Plan, tr: &mut Tracer) -> Run {
    let probe = Arc::new(Probe::default());
    let built = build(&p.cfg, plan, &probe);
    let t0 = Instant::now();
    let (stats, mem, info): (MachineStats, SimMemory, EngineInfo) = tr
        .span("lr_machine.run_counted", |_| {
            built.machine.run_counted_info(built.programs)
        });
    let wall_s = t0.elapsed().as_secs_f64();
    assert_eq!(
        info.shards, 1,
        "the benchmark measures the one-partition engine"
    );
    let failed = tr.span("gate", |_| gate(&built.check, plan, &stats, &mem, &probe));
    Run {
        wall_s,
        stats,
        events: info.events,
        attempted: plan.app_ops(),
        failed,
        op_cycles: probe.take_cycles(),
    }
}

fn run_replay(plan: &Plan, rec: &Recording, tr: &mut Tracer) -> Run {
    let t0 = Instant::now();
    let outcome = tr
        .span("tracefmt.decode", |_| tracefmt::decode(&rec.bytes))
        .map_err(|e| e.to_string())
        .and_then(|trace| tr.span("lr_replay.replay", |_| replay_trace(&trace)));
    let wall_s = t0.elapsed().as_secs_f64();
    let attempted = plan.app_ops();
    let (stats, events, failed) = match outcome {
        Ok((stats, mem, events)) => {
            let identical = stats.to_json() == rec.stats.to_json() && events == rec.events;
            let failed = if identical {
                tr.span("gate", |_| gate(&rec.check, plan, &stats, &mem, &rec.probe))
            } else {
                attempted
            };
            (stats, events, failed)
        }
        Err(why) => {
            eprintln!("replay failed: {why}");
            (MachineStats::default(), 0, attempted)
        }
    };
    Run {
        wall_s,
        stats,
        events,
        attempted,
        failed,
        op_cycles: rec.op_cycles.clone(),
    }
}

/// Record one live run of stream 0 of a live workload: its trace,
/// stats and failed ops (for the handoff attribution of the traced run).
pub(crate) fn record_live(p: &Prepared, tr: &mut Tracer) -> (MachineTrace, MachineStats, u64) {
    let probe = Arc::new(Probe::default());
    let built = build(&p.cfg, &p.plans[0], &probe);
    let rec = tr.span("lr_machine.run_recorded", |_| {
        built.machine.run_recorded(built.programs)
    });
    let failed = gate(&built.check, &p.plans[0], &rec.stats, &rec.mem, &probe);
    (rec.trace, rec.stats, failed)
}

/// Engine-only replay of `trace`: `(stats, final memory, events)`.
/// `lr_replay::replay` refuses traces wider than 64 cores, so wider
/// ones are driven through the same `ReplaySource` on a machine built
/// here, with the same protocol-trace ring depth.
pub(crate) fn replay_trace(trace: &MachineTrace) -> Result<(MachineStats, SimMemory, u64), String> {
    if trace.config.num_cores <= 64 {
        return match lr_replay::replay(trace) {
            ReplayOutcome::Matched { stats, mem, events } => Ok((stats, *mem, events)),
            ReplayOutcome::Diverged(d) => Err(d.to_string()),
        };
    }
    let mut m = Machine::new(trace.config.clone()).with_trace(REPLAY_TRACE_DEPTH);
    m.setup(|mem| *mem = SimMemory::restore(&trace.mem));
    let mut src = ReplaySource::new(trace);
    let res = m.run_source(trace.cores.len(), &mut src);
    res.map_err(|abort| {
        src.take_divergence()
            .map_or(abort.reason, |d| d.to_string())
    })
}
