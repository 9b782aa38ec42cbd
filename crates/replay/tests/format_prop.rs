//! Property tests for the trace wire format: encode→decode identity
//! over randomized op streams, corruption detection, and the trip
//! between a trace op and the live op.

use lr_machine::{AddrVec, ADDRVEC_INLINE};
use lr_replay::ReplayOutcome;
use lr_sim_core::tracefmt::{self, MachineTrace, MemImage, OpRecord, TraceOp};
use lr_sim_core::{Addr, SplitMix64, SystemConfig};

fn random_op(rng: &mut SplitMix64) -> TraceOp {
    let a = Addr(0x1000 + 8 * rng.gen_range(0..4096u64));
    match rng.gen_range(0..13u32) {
        0 => TraceOp::Read(a),
        1 => TraceOp::Write(a, rng.next_u64()),
        2 => TraceOp::Cas {
            addr: a,
            expected: rng.next_u64(),
            new: rng.next_u64(),
        },
        3 => TraceOp::Faa {
            addr: a,
            delta: rng.next_u64(),
        },
        4 => TraceOp::Xchg {
            addr: a,
            value: rng.next_u64(),
        },
        5 => TraceOp::Lease {
            addr: a,
            time: rng.gen_range(0..10_000u64),
        },
        6 => TraceOp::Release { addr: a },
        7 => {
            let n = rng.gen_range(1..=8usize);
            TraceOp::MultiLease {
                addrs: (0..n)
                    .map(|_| Addr(0x1000 + 64 * rng.gen_range(0..512u64)))
                    .collect(),
                time: rng.gen_range(0..10_000u64),
            }
        }
        8 => TraceOp::ReleaseAll,
        9 => TraceOp::Malloc {
            size: rng.gen_range(1..4096u64),
            align: 8u64 << rng.gen_range(0..4u32),
        },
        10 => TraceOp::Free(a),
        11 => TraceOp::Barrier,
        _ => TraceOp::Exit {
            instructions: rng.next_u64(),
            ops: rng.gen_range(0..1u64 << 20),
        },
    }
}

fn random_trace(seed: u64) -> MachineTrace {
    let mut rng = SplitMix64::new(seed);
    let ncores = rng.gen_range(1..=8usize);
    let mut cores = Vec::with_capacity(ncores);
    for _ in 0..ncores {
        let nrec = rng.gen_range(0..200usize);
        let mut at = 0u64;
        let mut records = Vec::with_capacity(nrec);
        for _ in 0..nrec {
            at += rng.gen_range(1..1000u64);
            let op = random_op(&mut rng);
            let has_reply = !matches!(op, TraceOp::Exit { .. } | TraceOp::Barrier);
            let reply_time = if has_reply {
                at + rng.gen_range(0..500u64)
            } else {
                at
            };
            records.push(OpRecord {
                at,
                op,
                reply_time,
                reply_value: if has_reply { rng.next_u64() } else { 0 },
                reply_flag: has_reply && rng.gen_bool(0.5),
            });
        }
        cores.push(records);
    }
    let mem = MemImage {
        pages: (0..rng.gen_range(0..6u64))
            .map(|i| {
                let words = rng.gen_range(1..=32usize);
                (i * 3, (0..words).map(|_| rng.next_u64()).collect())
            })
            .collect(),
        brk: 0x1000 + rng.gen_range(0..1u64 << 30),
        live: (0..rng.gen_range(0..10u64))
            .map(|i| (0x1000 + i * 64, 8u64 << rng.gen_range(0..4u32)))
            .collect(),
        free: (0..rng.gen_range(0..4u32))
            .map(|i| {
                (
                    8u64 << i,
                    (0..rng.gen_range(1..=5usize))
                        .map(|_| rng.next_u64())
                        .collect(),
                )
            })
            .collect(),
        live_bytes: rng.gen_range(0..1u64 << 20),
    };
    let mut config = SystemConfig::with_cores(8.max(ncores));
    config.seed = rng.next_u64();
    config.freq_ghz = 0.5 + (rng.gen_range(0..100u64) as f64) / 17.0;
    config.lease.prioritization = rng.gen_bool(0.5);
    MachineTrace {
        config,
        mem,
        cores,
        stats_json: format!("{{\"x\":{}}}", rng.next_u64()),
        live_events: rng.next_u64(),
    }
}

#[test]
fn encode_decode_identity_over_random_streams() {
    for seed in 0..200u64 {
        let t = random_trace(0x5eed_0000 + seed);
        let bytes = tracefmt::encode(&t);
        let back =
            tracefmt::decode(&bytes).unwrap_or_else(|e| panic!("seed {seed}: decode failed: {e}"));
        assert_eq!(back, t, "seed {seed}: roundtrip not identity");
        // Re-encoding the decoded trace is byte-identical (canonical form).
        assert_eq!(tracefmt::encode(&back), bytes, "seed {seed}: not canonical");
    }
}

#[test]
fn random_byte_flips_never_decode_to_a_different_trace() {
    let t = random_trace(0xfeed_face);
    let clean = tracefmt::encode(&t);
    let mut rng = SplitMix64::new(0xbad_c0de);
    for _ in 0..500 {
        let pos = rng.gen_range(0..clean.len());
        let bit = 1u8 << rng.gen_range(0..8u32);
        let mut corrupt = clean.clone();
        corrupt[pos] ^= bit;
        // A rejected decode is fine; a successful one must never
        // silently yield something else.
        if let Ok(back) = tracefmt::decode(&corrupt) {
            assert_eq!(back, t, "flip at {pos} decoded to a different trace");
        }
    }
}

#[test]
fn random_truncations_are_rejected() {
    let t = random_trace(0x77);
    let clean = tracefmt::encode(&t);
    let mut rng = SplitMix64::new(9);
    for _ in 0..100 {
        let cut = rng.gen_range(0..clean.len());
        assert!(
            tracefmt::decode(&clean[..cut]).is_err(),
            "truncation at {cut} accepted"
        );
    }
}

/// A trace op mapped to the live op and back with `map_addrs` is
/// unchanged, MultiLease groups longer than the inline capacity (which
/// spill to the heap) included.
#[test]
fn trace_op_survives_the_trip_through_the_live_op() {
    let mut rng = SplitMix64::new(0x11fe_0b0b);
    let long_groups = (ADDRVEC_INLINE..=2 * ADDRVEC_INLINE + 1).map(|n| TraceOp::MultiLease {
        addrs: (0..n as u64).map(|i| Addr(0x1000 + 64 * i)).collect(),
        time: n as u64,
    });
    for op in (0..2000).map(|_| random_op(&mut rng)).chain(long_groups) {
        let live: lr_machine::Op = op.map_addrs(|a| AddrVec::from_slice(a));
        if let lr_machine::Op::MultiLease { addrs, .. } = &live {
            let spilled = matches!(addrs, AddrVec::Heap(_));
            assert_eq!(spilled, addrs.len() > ADDRVEC_INLINE, "{op:?}");
        }
        assert_eq!(live.addr(), op.addr(), "{op:?}");
        assert_eq!(live.map_addrs(|a| a.to_vec()), op);
    }
}

#[test]
fn replay_outcome_is_exported() {
    // Compile-time check that the public surface used by downstream
    // tooling exists; no runtime behaviour.
    fn _takes(_: ReplayOutcome) {}
}
