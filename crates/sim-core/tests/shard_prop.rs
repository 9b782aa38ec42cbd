//! Randomized property tests for the engine's keyed event store:
//! driving the same interleaved push/pop schedule through a
//! [`ShardedQueue`] and a single [`EventQueue`]
//! fed the same canonical keys must produce element-for-element
//! identical pop streams, equal to a flat pending-set oracle ordered by
//! `(time, key)`, where the key is the canonical
//! `(src_tile << 48) | per-src-tile counter` stamp. Same oracle model
//! as `event_prop.rs`, extended with random source and destination
//! tiles per push — the only randomized test in which a same-cycle push
//! lands below the last popped key. Schedules use 8 tiles, except one
//! high-fan-in schedule at kilo-core scale.

use lr_sim_core::{EventQueue, ShardedQueue, SplitMix64};

const TILES: usize = 8;

/// One schedule step: `Push(src_tile, dest_tile, delay)` schedules the
/// next id at `now + delay` for `dest_tile` as a push by
/// `src_tile`; `Pop` pops one event (skipped while empty). Trailing
/// drain is implicit.
#[derive(Debug, Clone, Copy)]
enum Step {
    Push(usize, usize, u64),
    Pop,
}

/// Tiles a schedule needs: [`TILES`], or more if it names more.
fn tiles_of(steps: &[Step]) -> usize {
    steps
        .iter()
        .map(|&s| match s {
            Step::Push(src, dest, _) => src.max(dest) + 1,
            Step::Pop => 0,
        })
        .fold(TILES, usize::max)
}

/// Mirror of the queue's canonical key stamping.
fn next_key(ctrs: &mut [u64], src: usize) -> u64 {
    let k = ((src as u64) << 48) | ctrs[src];
    ctrs[src] += 1;
    k
}

fn random_schedule(seed: u64, max_delay: u64, push_bias: f64) -> Vec<Step> {
    let mut rng = SplitMix64::new(seed);
    let steps = rng.gen_range(1usize..300);
    (0..steps)
        .map(|_| {
            if rng.gen_bool(push_bias) {
                Step::Push(
                    rng.gen_range(0u64..TILES as u64) as usize,
                    rng.gen_range(0u64..TILES as u64) as usize,
                    rng.gen_range(0u64..max_delay),
                )
            } else {
                Step::Pop
            }
        })
        .collect()
}

/// Pop stream of the keyed store.
fn drive_sharded(steps: &[Step]) -> Vec<(u64, usize)> {
    let mut q: ShardedQueue<usize> = ShardedQueue::new(tiles_of(steps));
    let mut out = Vec::new();
    let mut id = 0usize;
    for &s in steps {
        match s {
            Step::Push(src, dest, d) => {
                q.push(src, q.now(), dest, q.now() + d, id);
                id += 1;
            }
            Step::Pop => out.extend(q.pop_global().map(|(t, _, e)| (t, e))),
        }
    }
    while let Some((t, _, e)) = q.pop_global() {
        out.push((t, e));
    }
    assert!(q.is_empty());
    assert_eq!(q.processed() as usize, out.len());
    out
}

/// Pop stream of the single-queue reference for the same schedule,
/// stamped with the same canonical keys the keyed store uses.
fn drive_single(steps: &[Step]) -> Vec<(u64, usize)> {
    let mut q: EventQueue<usize> = EventQueue::new();
    let mut ctrs = vec![0u64; tiles_of(steps)];
    let mut now = 0u64;
    let mut out = Vec::new();
    let mut id = 0usize;
    for &s in steps {
        match s {
            Step::Push(src, _, d) => {
                let key = next_key(&mut ctrs, src);
                q.push_at_seq(now + d, key, id);
                id += 1;
            }
            Step::Pop => {
                if let Some((t, e)) = q.pop() {
                    now = t;
                    out.push((t, e));
                }
            }
        }
    }
    while let Some((t, e)) = q.pop() {
        out.push((t, e));
    }
    out
}

/// Full cross-check for one schedule: the keyed store equals the
/// single-queue run equals the flat pending-set oracle.
fn check_schedule(steps: &[Step], label: &str) {
    let reference = drive_single(steps);
    // Oracle: a naive O(n) discrete-event simulation over a flat
    // pending set — pop removes the `(time, key)` minimum. (A
    // retrospective full sort would be wrong: a push *after* a pop can
    // carry the popped time with a smaller canonical key — same cycle,
    // lower source tile — and legitimately pops later.)
    let expected: Vec<(u64, usize)> = {
        let mut ctrs = vec![0u64; tiles_of(steps)];
        let mut now = 0u64;
        let mut pending: Vec<(u64, u64, usize)> = Vec::new();
        let mut out = Vec::new();
        let mut id = 0usize;
        for &s in steps {
            match s {
                Step::Push(src, _, d) => {
                    let key = next_key(&mut ctrs, src);
                    pending.push((now + d, key, id));
                    id += 1;
                }
                Step::Pop => {
                    if let Some(i) =
                        (0..pending.len()).min_by_key(|&i| (pending[i].0, pending[i].1))
                    {
                        let (t, _, e) = pending.swap_remove(i);
                        now = t;
                        out.push((t, e));
                    }
                }
            }
        }
        pending.sort();
        out.extend(pending.into_iter().map(|(t, _, e)| (t, e)));
        out
    };
    assert_eq!(
        reference, expected,
        "{label}: single-queue vs sorted oracle"
    );
    assert_eq!(drive_sharded(steps), reference, "{label}");
}

#[test]
fn sharded_pop_stream_equals_single_queue_push_only() {
    for case in 0..128u64 {
        let sched = random_schedule(0x5a4d_0000 + case, 50, 1.0);
        check_schedule(&sched, &format!("case {case}"));
    }
}

#[test]
fn sharded_pop_stream_equals_single_queue_interleaved() {
    for case in 0..128u64 {
        let sched = random_schedule(0x5a4d_1000 + case, 100, 0.5);
        check_schedule(&sched, &format!("interleaved case {case}"));
    }
}

/// Far-future delays (lease-timeout scale and beyond): the keyed wheel
/// must cascade identically to the single wheel.
#[test]
fn sharded_far_future_delays_stay_sorted() {
    for case in 0..64u64 {
        let mut rng = SplitMix64::new(0x5a4d_2000 + case);
        let steps = rng.gen_range(1usize..200);
        let sched: Vec<Step> = (0..steps)
            .map(|_| {
                if rng.gen_bool(0.6) {
                    let d = match rng.gen_range(0u64..3) {
                        0 => rng.gen_range(0u64..100),
                        1 => 20_000 + rng.gen_range(0u64..20_000),
                        _ => rng.gen_range(0u64..1 << 40),
                    };
                    Step::Push(
                        rng.gen_range(0u64..TILES as u64) as usize,
                        rng.gen_range(0u64..TILES as u64) as usize,
                        d,
                    )
                } else {
                    Step::Pop
                }
            })
            .collect();
        check_schedule(&sched, &format!("far-future case {case}"));
    }
}

/// Dense same-cycle bursts: ties at one cycle must pop in canonical-key
/// order — by source tile, then by each tile's own push order —
/// independent of the order the pushes were made in.
#[test]
fn sharded_same_cycle_bursts_keep_canonical_key_order() {
    for case in 0..64u64 {
        let mut rng = SplitMix64::new(0x5a4d_3000 + case);
        let mut sched = Vec::new();
        for _ in 0..rng.gen_range(1usize..20) {
            let base = rng.gen_range(0u64..64);
            for _ in 0..rng.gen_range(1usize..32) {
                sched.push(Step::Push(
                    rng.gen_range(0u64..TILES as u64) as usize,
                    rng.gen_range(0u64..TILES as u64) as usize,
                    base + rng.gen_range(0u64..3) * 7,
                ));
            }
            for _ in 0..rng.gen_range(0usize..8) {
                sched.push(Step::Pop);
            }
        }
        check_schedule(&sched, &format!("burst case {case}"));
    }
}

/// High fan-in at kilo-core scale, the shape of the 1024-core NUMA
/// cell: 1024 source tiles keep thousands of events pending across
/// several level-1 and level-2 wheel windows, with keys arriving out of
/// order — including clusters of same-cycle pushes that reach level 0
/// only through a cascade.
#[test]
fn sharded_high_fan_in_keeps_canonical_key_order() {
    const FAN_IN: u64 = 1024;
    let mut rng = SplitMix64::new(0x5a4d_4000);
    let mut sched = Vec::new();
    for _ in 0..4 {
        for _ in 0..2000 {
            let d = match rng.gen_range(0u64..4) {
                0 => rng.gen_range(0u64..256),
                1 => rng.gen_range(256u64..1 << 16),
                2 => rng.gen_range(1u64 << 16..1 << 18),
                _ => 300 * rng.gen_range(1u64..8),
            };
            sched.push(Step::Push(
                rng.gen_range(0u64..FAN_IN) as usize,
                rng.gen_range(0u64..FAN_IN) as usize,
                d,
            ));
        }
        for _ in 0..rng.gen_range(500usize..1500) {
            sched.push(Step::Pop);
        }
    }
    check_schedule(&sched, "kilo-core fan-in");
}
