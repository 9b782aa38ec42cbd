//! Zipfian KV serving on the multi-socket machine: plain MSI vs
//! lease/release vs node replication, at 1, 2, and 4 sockets. Not a
//! paper figure — this is the NUMA extension the topology tier exists
//! for: the same key-skewed serving traffic (90% GET / 10% ADD over a
//! Zipf(0.99) key distribution) is driven through three protocols and
//! the interesting axis is **cross-socket messages per operation**,
//! alongside throughput and energy.
//!
//! * `msi.sN` — one shared open-addressing table on the flat heap
//!   (directory-homed on socket 0, the classic "data lives on one
//!   node" layout); ADD is a CAS-retry read-modify-write.
//! * `lease.sN` — same table, but ADD leases the value line, updates
//!   it in place, and releases (§6 discipline): under Zipfian skew the
//!   hot lines stop migrating on every retry.
//! * `nr.sN` — [`lr_ds::ReplicatedKv`]: per-socket replicas fed by a
//!   shared operation log. GETs are served from the socket-local
//!   replica (the NR read path — per-socket sequentially consistent);
//!   only ADDs cross sockets, as one tail FAA plus log-entry lines per
//!   *batch*.
//!
//! Every cell asserts its full operation ledger in-cell: the op
//! sequences are pre-generated host-side (identical across all nine
//! series for a given cell), so the exact final value of every key is
//! known — the table (or the log fold, for NR) must match it, and
//! `app_ops` must equal the issued count. Single-socket cells
//! additionally assert `cross_socket_msgs == 0` (the sockets=1
//! degeneracy) and multi-socket cells with workers on more than one
//! socket assert it is nonzero.
//!
//! Caches are deliberately small (8 KiB L1 / 32 KiB L2 slice). They
//! keep the hot working set resident — the contention structure, not
//! capacity misses, is what's measured — and they stay so that results
//! remain comparable across revisions. Host memory does not need them:
//! cache sets are allocated on first fill, so even the paper's Table-1
//! sizes cost a 1024-core engine about 3 MiB.

use crate::harness::BenchRow;
use crate::scenario::{CellCtx, CellOut, Scenario};
use lr_ds::{ReplicatedKv, KV_MISS};
use lr_machine::{Addr, Machine, SystemConfig, ThreadCtx, ThreadFn};
use lr_sim_core::{SplitMix64, Zipf};

pub static SCENARIO: Scenario = Scenario {
    name: "numa_serving",
    title: "NUMA serving",
    paper_ref: "beyond paper (NUMA)",
    series: &[
        "msi.s1", "msi.s2", "msi.s4", "lease.s1", "lease.s2", "lease.s4", "nr.s1", "nr.s2", "nr.s4",
    ],
    default_ops: 48,
    run_cell,
    annotate: None,
    footer: Some(
        "Zipf(0.99) over 64 keys, 90% GET / 10% ADD, identical op\n\
         sequences across all series per cell. msi: CAS-retry updates\n\
         on one shared table homed on socket 0; lease: leased in-place\n\
         updates on the same table; nr: node replication (socket-local\n\
         replica reads + shared log for mutations). CSVX rows carry\n\
         cross-socket messages per op — the NUMA metric the protocols\n\
         are competing on.",
    ),
};

/// Hot key-space size and Zipf skew (the serving-workload classic).
const KEYS: usize = 64;
const ZIPF_S: f64 = 0.99;
/// Every key starts at `SEED_BASE + key`.
const SEED_BASE: u64 = 1_000;

/// One pre-generated operation: `None` delta is a GET.
type Op = (u64, Option<u64>);

/// (protocol, sockets) for each series index.
fn series_params(series: usize) -> (&'static str, usize) {
    (["msi", "lease", "nr"][series / 3], [1, 2, 4][series % 3])
}

/// Pre-generate every thread's op sequence. Seeded by (threads, ops)
/// only — all nine series of a cell replay the identical traffic, so
/// their rows are directly comparable and the expected final state is
/// series-independent.
fn gen_ops(threads: usize, ops: u64) -> Vec<Vec<Op>> {
    let mut rng = SplitMix64::new(0x5e11_0ca7 ^ (threads as u64).rotate_left(32) ^ ops);
    let zipf = Zipf::new(KEYS, ZIPF_S);
    (0..threads)
        .map(|_| {
            (0..ops)
                .map(|_| {
                    let key = zipf.sample(&mut rng) as u64 + 1;
                    if rng.gen_range(0u64..10) == 0 {
                        (key, Some(rng.gen_range(1u64..=100)))
                    } else {
                        (key, None)
                    }
                })
                .collect()
        })
        .collect()
}

/// Expected final value of every key: seed plus the wrapping sum of all
/// ADD deltas addressed to it.
fn expected_ledger(plan: &[Vec<Op>]) -> Vec<u64> {
    let mut ledger: Vec<u64> = (0..KEYS as u64).map(|k| SEED_BASE + k + 1).collect();
    for prog in plan {
        for &(key, delta) in prog {
            if let Some(d) = delta {
                let e = &mut ledger[key as usize - 1];
                *e = e.wrapping_add(d);
            }
        }
    }
    ledger
}

/// The cell's machine config: `threads` workers on the smallest
/// socket-divisible core count, with the module's small caches (kept
/// for comparable results, not for host memory).
fn numa_cfg(threads: usize, sockets: usize) -> SystemConfig {
    let cores = threads.max(sockets).next_multiple_of(sockets);
    let mut cfg = SystemConfig::with_cores(cores);
    cfg.sockets = sockets;
    cfg.l1_kib = 8;
    cfg.l2_slice_kib = 32;
    cfg
}

/// Per-key value-word addresses of the direct (non-replicated) table:
/// one 16-byte `[key, value]` slot per key, seeded at setup. The flat
/// heap homes every line on socket 0 — the un-replicated layout NR is
/// being compared against.
fn direct_table(mem: &mut lr_sim_mem::SimMemory) -> Vec<Addr> {
    (0..KEYS as u64)
        .map(|k| {
            let slot = mem.alloc_line_aligned(16);
            mem.write_word(slot, k + 1);
            mem.write_word(slot.offset(8), SEED_BASE + k + 1);
            slot.offset(8)
        })
        .collect()
}

fn run_cell(ctx: &CellCtx) -> CellOut {
    let (series, threads, ops) = (ctx.series, ctx.threads, ctx.ops);
    let (proto, sockets) = series_params(series);
    let cfg = numa_cfg(threads, sockets);
    let cores = cfg.num_cores;
    let tps = cores / sockets;
    let plan = gen_ops(threads, ops);
    let ledger = expected_ledger(&plan);
    let total_adds: u64 = plan.iter().flatten().filter(|(_, d)| d.is_some()).count() as u64;

    let mut m = ctx.prepare(Machine::new(cfg.clone()));
    let (stats, finals, nr_checked) = if proto == "nr" {
        let kv = m.setup(|mem| {
            let kv = ReplicatedKv::init(
                mem,
                sockets,
                tps,
                threads,
                threads as u64 * ops,
                true,
                2 * KEYS as u64,
            );
            for k in 0..KEYS as u64 {
                kv.seed(mem, k + 1, SEED_BASE + k + 1);
            }
            kv
        });
        let progs: Vec<ThreadFn> = plan
            .iter()
            .enumerate()
            .map(|(tid, prog)| {
                let kv = kv.clone();
                let prog = prog.clone();
                Box::new(move |ctx: &mut ThreadCtx| {
                    let mut h = kv.handle(tid);
                    for (key, delta) in prog {
                        let r = match delta {
                            Some(d) => kv.add(ctx, &mut h, key, d),
                            None => kv.get_local(ctx, &h, key),
                        };
                        assert_ne!(r, KV_MISS, "seeded key can never miss");
                        ctx.count_op();
                    }
                }) as ThreadFn
            })
            .collect();
        let (stats, mem) = m.run_with_memory(progs);
        // The linearized final state is the full log fold; GETs are
        // served replica-locally, so the log holds exactly the ADDs.
        let n = kv.log_len(&mem);
        assert_eq!(n, total_adds, "log is missing mutations");
        let (muts, gets) = kv.op_counts(&mem);
        assert_eq!(muts, total_adds, "mutation ledger unbalanced");
        assert_eq!(gets, 0, "local-read NR must never append a GET");
        let finals: Vec<u64> = (0..KEYS as u64)
            .map(|k| {
                kv.replay_value(&mem, k + 1, Some(SEED_BASE + k + 1), n)
                    .expect("seeded key")
            })
            .collect();
        (stats, finals, true)
    } else {
        let leased = proto == "lease";
        let vaddrs = m.setup(direct_table);
        let progs: Vec<ThreadFn> = plan
            .iter()
            .map(|prog| {
                let vaddrs = vaddrs.clone();
                let prog = prog.clone();
                Box::new(move |ctx: &mut ThreadCtx| {
                    for (key, delta) in prog {
                        let a = vaddrs[key as usize - 1];
                        match delta {
                            None => {
                                ctx.read(a);
                            }
                            Some(d) if leased => {
                                ctx.lease_max(a);
                                let v = ctx.read(a);
                                ctx.write(a, v.wrapping_add(d));
                                ctx.release(a);
                            }
                            Some(d) => {
                                let mut v = ctx.read(a);
                                loop {
                                    let (ok, seen) = ctx.cas_val(a, v, v.wrapping_add(d));
                                    if ok {
                                        break;
                                    }
                                    v = seen;
                                }
                            }
                        }
                        ctx.count_op();
                    }
                }) as ThreadFn
            })
            .collect();
        let (stats, mem) = m.run_with_memory(progs);
        let finals: Vec<u64> = vaddrs.iter().map(|&a| mem.read_word(a)).collect();
        (stats, finals, false)
    };

    // The in-cell ledger: every key must land exactly where the
    // pre-generated traffic says, under every protocol and topology.
    assert_eq!(
        finals, ledger,
        "{proto}.s{sockets} t{threads}: final key values diverged from the op ledger"
    );
    assert_eq!(stats.app_ops, threads as u64 * ops, "app_ops miscounted");
    if sockets == 1 {
        assert_eq!(
            stats.cross_socket_msgs, 0,
            "single-socket run crossed a socket link"
        );
    } else if threads > tps && (!nr_checked || total_adds > 0) {
        // Workers span more than one socket: the flat-heap (or, for
        // NR, the shared-log) traffic must actually cross the link.
        // An all-GET NR cell is the one legitimate exception — its
        // reads never leave the socket, which is the whole point.
        assert!(
            stats.cross_socket_msgs > 0,
            "{proto}.s{sockets} t{threads}: no cross-socket traffic despite multi-socket workers"
        );
    }

    let cross_per_op = stats.cross_socket_msgs as f64 / stats.app_ops.max(1) as f64;
    let mut cell = CellOut::row(BenchRow::from_stats(
        SCENARIO.series[series],
        threads,
        &cfg,
        &stats,
    ));
    cell.post.push(format!(
        "CSVX,numa_serving,{},{},cross_socket_msgs,{},cross_per_op,{:.4},socket_flit_hops,{},\
         sockets,{},cores,{},nr,{}",
        SCENARIO.series[series],
        threads,
        stats.cross_socket_msgs,
        cross_per_op,
        stats.socket_flit_hops,
        sockets,
        cores,
        nr_checked as u8,
    ));
    cell
}
