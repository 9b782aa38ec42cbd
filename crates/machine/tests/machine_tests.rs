//! Full-machine behavioural tests: data correctness, lease semantics,
//! determinism, and timing sanity on the simulated multicore.

use lr_machine::{Machine, SimBarrier, SystemConfig, ThreadFn};
use lr_sim_core::Addr;

fn cfg(cores: usize) -> SystemConfig {
    SystemConfig::with_cores(cores)
}

#[test]
fn single_thread_read_write() {
    let mut m = Machine::new(cfg(2));
    let a = m.setup(|mem| mem.alloc_line_aligned(8));
    let stats = m.run(vec![Box::new(move |ctx: &mut lr_machine::ThreadCtx| {
        assert_eq!(ctx.read(a), 0);
        ctx.write(a, 42);
        assert_eq!(ctx.read(a), 42);
        ctx.count_op();
    }) as ThreadFn]);
    assert_eq!(stats.app_ops, 1);
    assert!(stats.total_cycles > 0);
    // First read misses (fill in S), the write upgrades (a second miss),
    // and the final read hits on the M copy.
    assert_eq!(stats.cores[0].l1_hits, 1);
    assert_eq!(stats.cores[0].l1_misses, 2);
}

#[test]
fn faa_from_many_threads_sums() {
    let n = 8;
    let per = 50;
    let mut m = Machine::new(cfg(n));
    let a = m.setup(|mem| mem.alloc_line_aligned(8));
    let progs: Vec<ThreadFn> = (0..n)
        .map(|_| {
            Box::new(move |ctx: &mut lr_machine::ThreadCtx| {
                for _ in 0..per {
                    ctx.faa(a, 1);
                    ctx.count_op();
                }
            }) as ThreadFn
        })
        .collect();
    let stats = m.run(progs);
    assert_eq!(stats.app_ops, (n * per) as u64);

    // Verify the final value with a fresh single-thread run reading it —
    // simpler: rerun machine? Instead check via stats invariant: every FAA
    // is an rmw.
    let t = stats.core_totals();
    assert_eq!(t.rmw_ops, (n * per) as u64);
}

#[test]
fn final_memory_value_is_visible() {
    let n = 4;
    let per = 25u64;
    let mut m = Machine::new(cfg(n));
    let a = m.setup(|mem| mem.alloc_line_aligned(8));
    let done = std::sync::Arc::new(std::sync::Mutex::new(0u64));
    let mut progs: Vec<ThreadFn> = Vec::new();
    for tid in 0..n {
        let done = done.clone();
        progs.push(Box::new(move |ctx| {
            for _ in 0..per {
                ctx.faa(a, 1);
            }
            if tid == 0 {
                // Busy-wait until all increments are visible.
                loop {
                    let v = ctx.read(a);
                    if v == per * n as u64 {
                        *done.lock().unwrap() = v;
                        break;
                    }
                    ctx.work(100);
                }
            }
        }));
    }
    m.run(progs);
    assert_eq!(*done.lock().unwrap(), per * n as u64);
}

#[test]
fn cas_contention_is_linearizable() {
    // Counter via CAS loops: total must equal ops even under failures.
    let n = 8;
    let per = 30u64;
    let mut m = Machine::new(cfg(n));
    let a = m.setup(|mem| mem.alloc_line_aligned(8));
    let final_val = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
    let mut progs: Vec<ThreadFn> = Vec::new();
    for tid in 0..n {
        let final_val = final_val.clone();
        progs.push(Box::new(move |ctx| {
            for _ in 0..per {
                loop {
                    let v = ctx.read(a);
                    if ctx.cas(a, v, v + 1) {
                        break;
                    }
                }
            }
            if tid == 0 {
                loop {
                    let v = ctx.read(a);
                    if v == per * 8 {
                        final_val.store(v, std::sync::atomic::Ordering::Relaxed);
                        break;
                    }
                    ctx.work(200);
                }
            }
        }));
    }
    let stats = m.run(progs);
    assert_eq!(
        final_val.load(std::sync::atomic::Ordering::Relaxed),
        per * n as u64
    );
    let t = stats.core_totals();
    assert_eq!(t.cas_attempts - t.cas_failures, per * n as u64);
    // With 8 threads hammering one line there must be some CAS failures.
    assert!(
        t.cas_failures > 0,
        "expected contention-induced CAS failures"
    );
}

#[test]
fn lease_protects_read_cas_window() {
    // With leases on the contended line, CAS failures should (nearly)
    // vanish: that is the paper's core claim (Figure 1/2).
    let n = 8;
    let per = 30u64;
    let mut m = Machine::new(cfg(n));
    let a = m.setup(|mem| mem.alloc_line_aligned(8));
    let progs: Vec<ThreadFn> = (0..n)
        .map(|_| {
            Box::new(move |ctx: &mut lr_machine::ThreadCtx| {
                for _ in 0..per {
                    loop {
                        ctx.lease_max(a);
                        let v = ctx.read(a);
                        let ok = ctx.cas(a, v, v + 1);
                        ctx.release(a);
                        if ok {
                            break;
                        }
                    }
                }
            }) as ThreadFn
        })
        .collect();
    let stats = m.run(progs);
    let t = stats.core_totals();
    assert_eq!(t.cas_attempts, per * n as u64, "no retries expected");
    assert_eq!(t.cas_failures, 0, "leases must make the read-CAS atomic");
    assert_eq!(t.leases_taken, per * n as u64);
    assert_eq!(t.releases_voluntary, per * n as u64);
    assert_eq!(t.releases_involuntary, 0);
    // Probes were queued behind leases.
    assert!(t.probes_queued > 0);
}

#[test]
fn unreleased_lease_expires_involuntarily() {
    let mut m = Machine::new(cfg(2));
    let a = m.setup(|mem| mem.alloc_line_aligned(8));
    let progs: Vec<ThreadFn> = vec![
        Box::new(move |ctx| {
            ctx.lease(a, 2_000);
            ctx.write(a, 1);
            // Forget to release; spin long past expiry.
            ctx.work(10_000);
        }),
        Box::new(move |ctx| {
            ctx.work(100); // let thread 0 take the lease first
                           // This read stalls behind the lease until it expires.
            let v = ctx.read(a);
            assert_eq!(v, 1);
        }),
    ];
    let stats = m.run(progs);
    let t = stats.core_totals();
    assert_eq!(t.releases_involuntary, 1);
    assert_eq!(t.releases_voluntary, 0);
    assert_eq!(t.probes_queued, 1);
    assert!(t.probe_queued_cycles > 500, "probe should have waited");
}

#[test]
fn release_returns_voluntary_flag() {
    let mut m = Machine::new(cfg(2));
    let a = m.setup(|mem| mem.alloc_line_aligned(8));
    let progs: Vec<ThreadFn> = vec![Box::new(move |ctx| {
        ctx.lease(a, 1_000);
        ctx.write(a, 7);
        assert!(ctx.release(a), "in-time release is voluntary");
        ctx.lease(a, 50);
        ctx.work(5_000); // outlive the lease
        assert!(
            !ctx.release(a),
            "expired lease: release reports involuntary"
        );
    })];
    let stats = m.run(progs);
    let t = stats.core_totals();
    assert_eq!(t.releases_voluntary, 1);
    assert_eq!(t.releases_involuntary, 1);
}

#[test]
fn multi_lease_holds_two_lines_jointly() {
    let n = 4;
    let per = 20u64;
    let mut m = Machine::new(cfg(n));
    let (a, b) = m.setup(|mem| (mem.alloc_line_aligned(8), mem.alloc_line_aligned(8)));
    // Transfer workload: move 1 from a to b atomically under multilease;
    // the sum a+b must always read 0 modulo in-flight transfers.
    let progs: Vec<ThreadFn> = (0..n)
        .map(|_| {
            Box::new(move |ctx: &mut lr_machine::ThreadCtx| {
                for _ in 0..per {
                    assert!(ctx.multi_lease(&[a, b], ctx.max_lease_time()));
                    let va = ctx.read(a);
                    let vb = ctx.read(b);
                    ctx.write(a, va.wrapping_add(1));
                    ctx.write(b, vb.wrapping_sub(1));
                    ctx.release(a); // releases the whole group
                    ctx.count_op();
                }
            }) as ThreadFn
        })
        .collect();
    let stats = m.run(progs);
    let t = stats.core_totals();
    assert_eq!(stats.app_ops, per * n as u64);
    assert_eq!(t.multileases, per * n as u64);
    assert_eq!(t.releases_involuntary, 0, "joint holding must succeed");
}

#[test]
fn multi_lease_over_capacity_is_rejected() {
    let mut config = cfg(2);
    config.lease.max_num_leases = 2;
    let mut m = Machine::new(config);
    let addrs = m.setup(|mem| {
        (0..3)
            .map(|_| mem.alloc_line_aligned(8))
            .collect::<Vec<Addr>>()
    });
    let progs: Vec<ThreadFn> = vec![Box::new(move |ctx| {
        assert!(!ctx.multi_lease(&addrs, 1000), "3 > MAX_NUM_LEASES = 2");
        // Still works with 2 lines.
        assert!(ctx.multi_lease(&addrs[..2], 1000));
        ctx.release_all();
    })];
    m.run(progs);
}

#[test]
fn pinned_victim_counts_every_line_of_its_group() {
    // A 1 KiB one-way L1 has 16 sets, so lines 16 apart share one way.
    // Filling the group's second line finds its first line pinned there:
    // that lease ends as an overflow and takes its group-mate with it.
    let mut config = cfg(2);
    config.l1_kib = 1;
    config.l1_ways = 1;
    let mut m = Machine::new(config);
    let (a, b) = m.setup(|mem| {
        let base = mem.alloc_line_aligned(17 * lr_sim_core::LINE_SIZE);
        (base, Addr(base.0 + 16 * lr_sim_core::LINE_SIZE))
    });
    let stats = m.run(vec![Box::new(move |ctx: &mut lr_machine::ThreadCtx| {
        ctx.multi_lease(&[a, b], ctx.max_lease_time());
        ctx.release_all();
    }) as ThreadFn]);
    let c = &stats.cores[0];
    assert_eq!(c.leases_taken, 2);
    assert_eq!(c.lease_overflows, 2, "both group lines ended by the fill");
    assert_eq!(
        c.leases_taken,
        c.releases_voluntary
            + c.releases_involuntary
            + c.lease_overflows
            + c.leases_broken_by_priority,
        "every lease taken ends exactly once"
    );
}

#[test]
fn software_multi_lease_works() {
    let n = 4;
    let per = 15u64;
    let mut m = Machine::new(cfg(n));
    let (a, b) = m.setup(|mem| (mem.alloc_line_aligned(8), mem.alloc_line_aligned(8)));
    let progs: Vec<ThreadFn> = (0..n)
        .map(|_| {
            Box::new(move |ctx: &mut lr_machine::ThreadCtx| {
                for _ in 0..per {
                    ctx.software_multi_lease(&[a, b], 2_000);
                    let va = ctx.read(a);
                    ctx.write(b, va + 1);
                    ctx.write(a, va + 1);
                    ctx.software_release_all(&[a, b]);
                    ctx.count_op();
                }
            }) as ThreadFn
        })
        .collect();
    let stats = m.run(progs);
    assert_eq!(stats.app_ops, per * n as u64);
}

#[test]
fn snapshot_is_consistent_under_writers() {
    let mut m = Machine::new(cfg(4));
    let (a, b) = m.setup(|mem| (mem.alloc_line_aligned(8), mem.alloc_line_aligned(8)));
    let snaps = std::sync::Arc::new(std::sync::Mutex::new(Vec::<Vec<u64>>::new()));
    let mut progs: Vec<ThreadFn> = Vec::new();
    // Writers keep a == b at all times (update under multilease).
    for _ in 0..2 {
        progs.push(Box::new(move |ctx| {
            for i in 0..30u64 {
                ctx.multi_lease(&[a, b], ctx.max_lease_time());
                ctx.write(a, i);
                ctx.write(b, i);
                ctx.release(a);
            }
        }));
    }
    // Snapshotter: every successful snapshot must see a == b.
    let s2 = snaps.clone();
    progs.push(Box::new(move |ctx| {
        let mut got = 0;
        while got < 10 {
            if let Some(vals) = ctx.snapshot(&[a, b], 5_000) {
                assert_eq!(vals[0], vals[1], "snapshot tore: {vals:?}");
                s2.lock().unwrap().push(vals);
                got += 1;
            }
            ctx.work(200);
        }
    }));
    m.run(progs);
    assert_eq!(snaps.lock().unwrap().len(), 10);
}

#[test]
fn barrier_synchronizes_phases() {
    let n = 6;
    let mut m = Machine::new(cfg(n));
    let (bar, flags) = m.setup(|mem| {
        let bar = SimBarrier::init(mem, n);
        let flags: Vec<Addr> = (0..n).map(|_| mem.alloc_line_aligned(8)).collect();
        (bar, flags)
    });
    let progs: Vec<ThreadFn> = (0..n)
        .map(|tid| {
            let flags = flags.clone();
            let mut bar = bar;
            Box::new(move |ctx: &mut lr_machine::ThreadCtx| {
                // Phase 1: set my flag.
                ctx.write(flags[tid], 1);
                bar.wait(ctx);
                // Phase 2: everyone's flag must be visible.
                for &f in &flags {
                    assert_eq!(ctx.read(f), 1, "barrier did not separate phases");
                }
                bar.wait(ctx);
            }) as ThreadFn
        })
        .collect();
    m.run(progs);
}

#[test]
fn deterministic_same_seed_same_stats() {
    let run = || {
        let mut m = Machine::new(cfg(8));
        let a = m.setup(|mem| mem.alloc_line_aligned(8));
        let progs: Vec<ThreadFn> = (0..8)
            .map(|_| {
                Box::new(move |ctx: &mut lr_machine::ThreadCtx| {
                    for _ in 0..40 {
                        loop {
                            let v = ctx.read(a);
                            if ctx.cas(a, v, v + 1) {
                                break;
                            }
                        }
                        let spin = ctx.rng().next_u64() % 64;
                        ctx.work(spin);
                    }
                }) as ThreadFn
            })
            .collect();
        m.run(progs).summary()
    };
    let _ = &run; // silence unused-trait-import pattern
    assert_eq!(run(), run(), "same seed must give identical statistics");
}

#[test]
fn work_advances_time_without_traffic() {
    let mut m = Machine::new(cfg(1));
    let a = m.setup(|mem| mem.alloc_line_aligned(8));
    let progs: Vec<ThreadFn> = vec![Box::new(move |ctx| {
        ctx.read(a);
        let t0 = ctx.now();
        ctx.work(1234);
        assert_eq!(ctx.now(), t0 + 1234);
        ctx.read(a);
    })];
    let stats = m.run(progs);
    assert_eq!(stats.cores[0].l1_misses, 1);
    assert!(stats.total_cycles >= 1234);
}

#[test]
#[should_panic(expected = "panicked inside the simulation")]
fn worker_panic_is_propagated() {
    let mut m = Machine::new(cfg(2));
    let a = m.setup(|mem| mem.alloc_line_aligned(8));
    let progs: Vec<ThreadFn> = vec![Box::new(move |ctx| {
        ctx.read(a);
        panic!("workload bug");
    })];
    m.run(progs);
}

#[test]
fn worker_panic_while_holding_lease_reports_coherently() {
    // Thread 0 panics while holding a lease that thread 1 is queued
    // behind: the engine must tear the run down (no hang on the parked
    // rendezvous slots) and raise one coherent failure report naming
    // the panicking thread, with the protocol state attached.
    let mut m = Machine::new(cfg(2)).with_trace(64);
    let a = m.setup(|mem| mem.alloc_line_aligned(8));
    let progs: Vec<ThreadFn> = vec![
        Box::new(move |ctx| {
            ctx.lease(a, 20_000);
            ctx.write(a, 1);
            panic!("workload bug under lease");
        }),
        Box::new(move |ctx| {
            ctx.work(200); // queue behind thread 0's lease
            ctx.write(a, 2);
            ctx.work(50_000);
        }),
    ];
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| m.run(progs)))
        .expect_err("worker panic must propagate");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .expect("report is a String payload");
    assert!(msg.contains("panicked inside the simulation"), "{msg}");
    assert!(msg.contains("[0]"), "report must name thread 0: {msg}");
    assert!(msg.contains("simulation failure report"), "{msg}");
    assert!(msg.contains("-- lease tables --"), "{msg}");
}

#[test]
fn worker_panic_while_a_peer_spins_on_it_is_reported_at_once() {
    // Thread 1 waits in a barrier that thread 0 never reaches: thread 0
    // panics first. The panic must end the run as soon as it happens,
    // not when the spinning peer trips the watchdog.
    let mut config = cfg(2);
    config.watchdog_max_cycles = 1_000_000;
    let mut m = Machine::new(config);
    let (a, barrier) = m.setup(|mem| (mem.alloc_line_aligned(8), SimBarrier::init(mem, 2)));
    let progs: Vec<ThreadFn> = vec![
        Box::new(move |ctx| {
            ctx.work(10_000); // let thread 1 reach the barrier
            ctx.read(a);
            panic!("workload bug before the barrier");
        }),
        Box::new(move |ctx| {
            let mut barrier = barrier;
            barrier.wait(ctx);
        }),
    ];
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| m.run(progs)))
        .expect_err("worker panic must propagate");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .expect("report is a String payload");
    assert!(msg.contains("panicked inside the simulation"), "{msg}");
    assert!(msg.contains("[0]"), "report must name thread 0: {msg}");
}

#[test]
fn prioritization_lets_regular_requests_break_leases() {
    // Thread 0 camps on a lease and never releases; thread 1 issues a
    // plain (regular) store. With prioritization ON the store must
    // complete long before the 20K-cycle lease would expire.
    let run = |prioritization: bool| {
        let mut config = cfg(2);
        config.lease.prioritization = prioritization;
        let mut m = Machine::new(config);
        let a = m.setup(|mem| mem.alloc_line_aligned(8));
        let when = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        let when2 = when.clone();
        let progs: Vec<ThreadFn> = vec![
            Box::new(move |ctx: &mut lr_machine::ThreadCtx| {
                ctx.lease(a, 20_000);
                ctx.write(a, 1);
                ctx.work(30_000); // camp past the other thread's store
            }),
            Box::new(move |ctx: &mut lr_machine::ThreadCtx| {
                ctx.work(200); // let thread 0 take the lease
                ctx.write(a, 2);
                when2.store(ctx.now(), std::sync::atomic::Ordering::Relaxed);
            }),
        ];
        let stats = m.run(progs);
        (
            when.load(std::sync::atomic::Ordering::Relaxed),
            stats.core_totals().leases_broken_by_priority,
        )
    };
    let (t_off, broken_off) = run(false);
    let (t_on, broken_on) = run(true);
    assert_eq!(broken_off, 0);
    assert!(broken_on >= 1, "regular store must break the lease");
    assert!(
        t_on < 2_000 && t_off > 15_000,
        "prioritization should complete the store early: on={t_on} off={t_off}"
    );
}

#[test]
fn mesi_machine_run_matches_msi_semantics() {
    // The same contended workload on MSI and MESI must produce the same
    // data results; MESI may only change timing/traffic.
    let run = |protocol: lr_sim_core::CoherenceProtocol| {
        let mut config = cfg(4);
        config.protocol = protocol;
        let mut m = Machine::new(config);
        let a = m.setup(|mem| mem.alloc_line_aligned(8));
        let progs: Vec<ThreadFn> = (0..4)
            .map(|_| {
                Box::new(move |ctx: &mut lr_machine::ThreadCtx| {
                    for _ in 0..30 {
                        loop {
                            ctx.lease_max(a);
                            let v = ctx.read(a);
                            let ok = ctx.cas(a, v, v + 1);
                            ctx.release(a);
                            if ok {
                                break;
                            }
                        }
                    }
                }) as ThreadFn
            })
            .collect();
        let (stats, mem) = m.run_with_memory(progs);
        (mem.read_word(a), stats.core_totals().cas_failures)
    };
    let (v_msi, fail_msi) = run(lr_sim_core::CoherenceProtocol::Msi);
    let (v_mesi, fail_mesi) = run(lr_sim_core::CoherenceProtocol::Mesi);
    assert_eq!(v_msi, 120);
    assert_eq!(v_mesi, 120);
    assert_eq!(fail_msi, 0);
    assert_eq!(fail_mesi, 0);
}

#[test]
fn mesi_avoids_upgrade_misses_single_thread() {
    let run = |protocol: lr_sim_core::CoherenceProtocol| {
        let mut config = cfg(1);
        config.protocol = protocol;
        let mut m = Machine::new(config);
        let cells: Vec<Addr> = m.setup(|mem| (0..16).map(|_| mem.alloc_line_aligned(8)).collect());
        let progs: Vec<ThreadFn> = vec![Box::new(move |ctx| {
            // Read-then-write every cell: MSI pays an upgrade per cell,
            // MESI does not.
            for &c in &cells {
                let v = ctx.read(c);
                ctx.write(c, v + 1);
            }
        })];
        let stats = m.run(progs);
        stats.cores[0].l1_misses
    };
    let msi = run(lr_sim_core::CoherenceProtocol::Msi);
    let mesi = run(lr_sim_core::CoherenceProtocol::Mesi);
    assert_eq!(msi, 32, "MSI: one fill + one upgrade per cell");
    assert_eq!(mesi, 16, "MESI: the E grant absorbs the upgrade");
}

#[test]
fn malloc_and_free_roundtrip() {
    let m = Machine::new(cfg(1));
    let progs: Vec<ThreadFn> = vec![Box::new(move |ctx| {
        let p = ctx.malloc_line(16);
        assert!(!p.is_null());
        assert_eq!(p.line_offset(), 0);
        ctx.write(p, 5);
        ctx.write(p.offset(8), 6);
        assert_eq!(ctx.read(p), 5);
        assert_eq!(ctx.read(p.offset(8)), 6);
        ctx.free(p);
        let q = ctx.malloc_line(16);
        assert_eq!(ctx.read(q), 0, "recycled memory must be zeroed");
    })];
    m.run(progs);
}

#[test]
fn watchdog_trip_emits_structured_failure_report() {
    // A livelocked program trips the cycle watchdog; instead of a bare
    // panic the machine must emit one coherent report: the trace window,
    // the coherence engine's in-flight dump, and every lease table.
    let mut config = cfg(2);
    config.watchdog_max_cycles = 20_000;
    let mut m = Machine::new(config).with_trace(64);
    let a = m.setup(|mem| mem.alloc_line_aligned(8));
    let progs: Vec<ThreadFn> = vec![Box::new(move |ctx| {
        // Hold a lease (so the report has lease-table content) and spin
        // past the watchdog limit.
        ctx.lease(a, 1_000_000);
        loop {
            ctx.read(a);
            ctx.work(100);
        }
    })];
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| m.run(progs)))
        .expect_err("watchdog must trip");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .expect("report is a String payload");
    assert!(msg.contains("simulation failure report"), "{msg}");
    assert!(msg.contains("watchdog"), "{msg}");
    assert!(msg.contains("-- trace window --"), "{msg}");
    assert!(msg.contains("-- in-flight protocol state --"), "{msg}");
    assert!(msg.contains("-- lease tables --"), "{msg}");
    assert!(msg.contains("-- pending ops --"), "{msg}");
    // The trace window actually captured protocol events.
    assert!(
        msg.contains("GrantArrive") || msg.contains("OpStart"),
        "{msg}"
    );
}

#[test]
fn trace_ring_buffer_does_not_perturb_results() {
    let run = |depth: usize| {
        let mut m = Machine::new(cfg(4)).with_trace(depth);
        let a = m.setup(|mem| mem.alloc_line_aligned(8));
        let progs: Vec<ThreadFn> = (0..4)
            .map(|_| {
                Box::new(move |ctx: &mut lr_machine::ThreadCtx| {
                    for _ in 0..20 {
                        ctx.faa(a, 1);
                    }
                }) as ThreadFn
            })
            .collect();
        m.run(progs).summary()
    };
    // Tracing is observability only: identical statistics with and
    // without it.
    assert_eq!(run(0), run(64));
}

/// Single-socket degeneracy at the machine level: with `sockets == 1`
/// the multi-socket machinery must be completely invisible — the
/// socket-link knobs (latency, energy rate) cannot perturb one byte of
/// the stats JSON, no cross-socket counter appears in it, and turning
/// the knobs only matters once a second socket exists.
#[test]
fn single_socket_stats_ignore_socket_knobs() {
    let run = |sockets: usize, link: u64, nj: f64| {
        let mut c = cfg(8);
        c.sockets = sockets;
        c.socket_link_latency = link;
        c.energy.socket_flit_hop_nj = nj;
        let mut m = Machine::new(c);
        let a = m.setup(|mem| mem.alloc_line_aligned(8));
        let progs: Vec<ThreadFn> = (0..8)
            .map(|_| {
                Box::new(move |ctx: &mut lr_machine::ThreadCtx| {
                    for _ in 0..25 {
                        ctx.faa(a, 1);
                        ctx.count_op();
                    }
                }) as ThreadFn
            })
            .collect();
        m.run(progs)
    };
    let base = run(1, 40, 0.2);
    let cranked = run(1, 4_000, 99.0);
    assert_eq!(
        base.to_json(),
        cranked.to_json(),
        "socket knobs leaked into a single-socket run"
    );
    assert_eq!(base.cross_socket_msgs, 0);
    assert!(
        !base.to_json().contains("cross_socket"),
        "sockets=1 JSON must keep the pre-NUMA byte layout"
    );
    // The same knobs are very much visible once a second socket exists:
    // the contended line's traffic crosses the link, the counter shows
    // up in the JSON, and the slower link stretches the run.
    let two = run(2, 40, 0.2);
    assert!(two.cross_socket_msgs > 0);
    assert!(two.to_json().contains("cross_socket_msgs"));
    let slow = run(2, 4_000, 0.2);
    assert!(
        slow.total_cycles > two.total_cycles,
        "a 100x slower socket link must stretch a cross-socket run"
    );
    // (Message *counts* may shift with the interleaving; only the
    // latency signature is asserted.)
}
