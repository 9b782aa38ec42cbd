//! Model-based randomized tests for the lease table (Algorithm 1/2
//! semantics) against a straightforward reference model, driven by the
//! in-tree [`SplitMix64`] generator.

use lr_coherence::ProbeAction;
use lr_lease::{LeaseController, LeaseState, LeaseTable};
use lr_sim_core::{CoreId, Cycle, LeaseConfig, LineAddr, SplitMix64};
use std::collections::{BTreeSet, HashMap};

#[derive(Debug, Clone)]
enum Cmd {
    Begin { line: u64, time: Cycle },
    Grant { line: u64 },
    Release { line: u64 },
    Multi { lines: Vec<u64>, time: Cycle },
    ReleaseAll,
    Advance { dt: Cycle },
}

fn random_cmd(rng: &mut SplitMix64) -> Cmd {
    match rng.gen_range(0u8..6) {
        0 => Cmd::Begin {
            line: rng.gen_range(0u64..12),
            time: rng.gen_range(1u64..50_000),
        },
        1 => Cmd::Grant {
            line: rng.gen_range(0u64..12),
        },
        2 => Cmd::Release {
            line: rng.gen_range(0u64..12),
        },
        3 => {
            let n = rng.gen_range(0usize..5);
            Cmd::Multi {
                lines: (0..n).map(|_| rng.gen_range(0u64..12)).collect(),
                time: rng.gen_range(1u64..50_000),
            }
        }
        4 => Cmd::ReleaseAll,
        _ => Cmd::Advance {
            dt: rng.gen_range(1u64..30_000),
        },
    }
}

#[test]
fn table_invariants_hold() {
    for case in 0..256u64 {
        let mut rng = SplitMix64::new(0x7_ab1e_0000 + case);
        let steps = rng.gen_range(1usize..120);
        let cfg = LeaseConfig {
            max_num_leases: 4,
            max_lease_time: 20_000,
            ..LeaseConfig::default()
        };
        let mut t = LeaseTable::new(cfg.clone());
        let mut now: Cycle = 0;
        // Model: line -> (expires, gen) for armed counters; groups handled
        // coarsely via the acquisition discipline below.
        let mut armed: HashMap<u64, (Cycle, u64)> = HashMap::new();
        let mut acquiring: Vec<u64> = Vec::new(); // group lines not yet all granted
        let mut granted_in_group = 0usize;
        let mut counters = Vec::new();
        let mut released = Vec::new();

        for step in 0..steps {
            // While a MultiLease acquisition is in flight, the only legal
            // next steps are grants of its lines (that is what the
            // machine does); emulate that discipline.
            if !acquiring.is_empty() {
                let line = acquiring[granted_in_group];
                t.on_exclusive_granted_into(LineAddr(line), now, &mut counters);
                granted_in_group += 1;
                if granted_in_group == acquiring.len() {
                    assert_eq!(counters.len(), acquiring.len(), "joint start");
                    for &a in &counters {
                        armed.insert(a.line.0, (a.expires, a.generation));
                        assert!(a.expires <= now + cfg.max_lease_time);
                    }
                    acquiring.clear();
                    granted_in_group = 0;
                } else {
                    assert!(counters.is_empty(), "group counters started early");
                }
                continue;
            }
            match random_cmd(&mut rng) {
                Cmd::Begin { line, time } => {
                    // A full table first ends its oldest lease, with its
                    // group, as `LeaseController::lease` does.
                    if let Some(victim) = t.displaced_by(LineAddr(line)) {
                        assert!(t.release_into(victim, &mut released));
                        assert!(released.contains(&victim));
                    }
                    if t.begin_lease(LineAddr(line), time) {
                        assert_eq!(t.state(LineAddr(line), now), LeaseState::Pending);
                    } else {
                        assert_ne!(t.state(LineAddr(line), now), LeaseState::NotLeased);
                    }
                }
                Cmd::Grant { line } => {
                    let was_pending = t.state(LineAddr(line), now) == LeaseState::Pending;
                    t.on_exclusive_granted_into(LineAddr(line), now, &mut counters);
                    if was_pending {
                        assert_eq!(counters.len(), 1);
                        let a = counters[0];
                        assert!(
                            a.expires <= now + cfg.max_lease_time,
                            "MAX_LEASE_TIME violated"
                        );
                        armed.insert(line, (a.expires, a.generation));
                        assert!(t.is_leased(LineAddr(line), now));
                    }
                }
                Cmd::Release { line } => {
                    let leased_before = t.state(LineAddr(line), now) != LeaseState::NotLeased;
                    if t.release_into(LineAddr(line), &mut released) {
                        assert!(leased_before);
                        for &l in &released {
                            assert_eq!(t.state(l, now), LeaseState::NotLeased);
                        }
                    } else {
                        assert!(!leased_before);
                    }
                }
                Cmd::Multi { lines, time } => {
                    let mut sorted_lines: Vec<LineAddr> =
                        lines.iter().map(|&l| LineAddr(l)).collect();
                    // RELEASEALL comes first (Algorithm 2 line 2).
                    t.release_all_into(&mut released);
                    if t.begin_multilease(&mut sorted_lines, time) {
                        // Acquisition order is the fixed global sort.
                        let mut sorted = sorted_lines.clone();
                        sorted.sort_unstable();
                        assert_eq!(&sorted, &sorted_lines, "not in global order");
                        acquiring = sorted_lines.iter().map(|l| l.0).collect();
                        granted_in_group = 0;
                    } else {
                        let mut dedup = lines.clone();
                        dedup.sort_unstable();
                        dedup.dedup();
                        assert!(dedup.len() > cfg.max_num_leases);
                        assert!(t.is_empty(), "rejection must leave the table empty");
                    }
                }
                Cmd::ReleaseAll => {
                    t.release_all_into(&mut released);
                    assert!(t.is_empty());
                }
                Cmd::Advance { dt } => {
                    now += dt;
                    // Fire due expiries like the machine would.
                    let due: Vec<(u64, (Cycle, u64))> = armed
                        .iter()
                        .filter(|(_, &(e, _))| e <= now)
                        .map(|(&l, &v)| (l, v))
                        .collect();
                    for (line, (_, generation)) in due {
                        armed.remove(&line);
                        t.on_expiry_into(LineAddr(line), generation, &mut released);
                        assert!(
                            !t.is_leased(LineAddr(line), now),
                            "case {case} step {step}: lease survived expiry"
                        );
                    }
                }
            }
            // Core invariant: never more than MAX_NUM_LEASES entries.
            assert!(t.len() <= cfg.max_num_leases, "table over-full");
            // Invariant: all active leases respect the global bound.
            for l in t.lines() {
                if let Some(&(e, _)) = armed.get(&l.0) {
                    assert!(e <= now + cfg.max_lease_time);
                }
            }
        }
    }
}

/// Index of each lease-end reason in the model's counts.
const VOLUNTARY: usize = 0;
const INVOLUNTARY: usize = 1;
const OVERFLOW: usize = 2;
const BROKEN: usize = 3;

/// The same command stream, driven through one core's
/// [`LeaseController`], with one random lease hook after each command.
/// A model set of held lines checks that every lease ends exactly once,
/// under the reason of the path that ended it — including a rejected
/// MultiLease, which still ends every lease held before it.
#[test]
fn controller_ends_every_lease_once() {
    const CORE: CoreId = CoreId(0);
    // Across all cases: lines ended per reason, and rejected MultiLeases
    // that found leases held.
    let mut total = [0u64; 4];
    let mut rejected_over_held = 0;
    for case in 0..256u64 {
        let mut rng = SplitMix64::new(0x7_ab1e_0000 + case);
        let steps = rng.gen_range(1usize..120);
        // Three, not four: `random_cmd` draws groups of up to four lines,
        // so only a smaller table ever rejects one.
        let cfg = LeaseConfig {
            max_num_leases: 3,
            max_lease_time: 20_000,
            prioritization: true,
            ..LeaseConfig::default()
        };
        let mut lc = LeaseController::new(1, &cfg);
        let mut now: Cycle = 0;
        let mut held: BTreeSet<u64> = BTreeSet::new();
        let mut armed: HashMap<u64, (Cycle, u64)> = HashMap::new();
        let mut ended = [0u64; 4];
        let (mut out, mut pins, mut mates) = (Vec::new(), Vec::new(), Vec::new());
        // Drop the lines in `out` from `held`, each counted under `why`.
        let end = |held: &mut BTreeSet<u64>, ended: &mut [u64; 4], out: &[LineAddr], why| {
            for l in out {
                assert!(held.remove(&l.0), "case {case}: {l} ended but not held");
            }
            ended[why] += out.len() as u64;
        };

        for step in 0..steps {
            match random_cmd(&mut rng) {
                Cmd::Begin { line, time } => {
                    let was_held = held.contains(&line);
                    let full = held.len() == cfg.max_num_leases;
                    let taken = lc.lease(CORE, LineAddr(line), time, &mut out);
                    assert_eq!(taken, !was_held, "footnote 1: no extension");
                    assert_eq!(!out.is_empty(), taken && full, "FIFO displacement");
                    end(&mut held, &mut ended, &out, OVERFLOW);
                    if taken {
                        held.insert(line);
                    }
                }
                Cmd::Grant { line } => {
                    for a in lc.exclusive_granted(CORE, LineAddr(line), now) {
                        armed.insert(a.line.0, (a.expires, a.generation));
                    }
                }
                Cmd::Release { line } => {
                    let was_held = held.contains(&line);
                    assert_eq!(lc.release(CORE, LineAddr(line), &mut out), was_held);
                    assert_eq!(out.contains(&LineAddr(line)), was_held);
                    end(&mut held, &mut ended, &out, VOLUNTARY);
                }
                Cmd::Multi { lines, time } => {
                    let before: Vec<LineAddr> = held.iter().map(|&l| LineAddr(l)).collect();
                    let group = lines.iter().map(|&l| LineAddr(l));
                    let admitted = lc.multi_lease(CORE, group, time, &mut out);
                    out.sort_unstable();
                    assert_eq!(out, before, "RELEASEALL comes first (Algorithm 2 line 2)");
                    end(&mut held, &mut ended, &out, VOLUNTARY);
                    let mut dedup = lines.clone();
                    dedup.sort_unstable();
                    dedup.dedup();
                    assert_eq!(admitted, dedup.len() <= cfg.max_num_leases);
                    if !admitted {
                        rejected_over_held += usize::from(!before.is_empty());
                        lc.check_quiescent()
                            .expect("rejection must end every held lease");
                    }
                    // Acquire the group in the order the controller hands
                    // it out: the fixed global sort.
                    let mut order = Vec::new();
                    while let Some(l) = lc.next_group_line(CORE) {
                        order.push(l.0);
                        for a in lc.exclusive_granted(CORE, l, now) {
                            armed.insert(a.line.0, (a.expires, a.generation));
                        }
                    }
                    if admitted {
                        assert_eq!(order, dedup, "not in global order");
                        held.extend(dedup);
                    } else {
                        assert!(order.is_empty(), "a rejected group acquires nothing");
                    }
                }
                Cmd::ReleaseAll => {
                    lc.release_all(CORE, &mut out);
                    end(&mut held, &mut ended, &out, VOLUNTARY);
                    assert!(held.is_empty());
                }
                Cmd::Advance { dt } => {
                    now += dt;
                    let due: Vec<(u64, (Cycle, u64))> = armed
                        .iter()
                        .filter(|(_, &(e, _))| e <= now)
                        .map(|(&l, &v)| (l, v))
                        .collect();
                    for (line, (_, generation)) in due {
                        armed.remove(&line);
                        if lc.expire(CORE, LineAddr(line), generation, &mut out) {
                            assert!(out.contains(&LineAddr(line)));
                        }
                        end(&mut held, &mut ended, &out, INVOLUNTARY);
                    }
                }
            }
            // One lease hook, as the coherence engine would call it. Every
            // due expiry fired above, so a probe finds no lease expired
            // but not yet released; a regular probe breaks an active one.
            let line = rng.gen_range(0u64..12);
            let hooked = match rng.gen_range(0u8..4) {
                0 => {
                    let regular = rng.gen_range(0u8..2) == 0;
                    let action = lc.probe_action(CORE, LineAddr(line), regular, now);
                    let broken = action == ProbeAction::ProceedBreakingLease;
                    assert!(!broken || regular, "only a regular probe breaks");
                    broken.then_some((line, BROKEN))
                }
                1 => {
                    lc.line_invalidated(CORE, LineAddr(line));
                    held.contains(&line).then_some((line, INVOLUNTARY))
                }
                2 => {
                    let pinned = [LineAddr(line), LineAddr(rng.gen_range(0u64..12))];
                    let victim = lc.pinned_victim(CORE, &pinned).unwrap();
                    held.contains(&victim.0).then_some((victim.0, OVERFLOW))
                }
                _ => None,
            };
            lc.take_staged(&mut pins, &mut mates);
            if let Some((line, why)) = hooked {
                assert!(mates.iter().all(|&(_, m)| m.0 != line));
                out.clear();
                out.push(LineAddr(line));
                out.extend(mates.iter().map(|&(_, m)| m));
                end(&mut held, &mut ended, &out, why);
            } else {
                assert!(mates.is_empty(), "group-mates staged with no lease ended");
            }
            mates.clear();

            let s = lc.counters(CORE);
            let counted = [
                s.releases_voluntary,
                s.releases_involuntary,
                s.lease_overflows,
                s.leases_broken_by_priority,
            ];
            assert_eq!(counted, ended, "case {case} step {step}");
            let open = s.leases_taken - ended.iter().sum::<u64>();
            assert_eq!(open, held.len() as u64, "case {case} step {step}");
            assert_eq!(lc.check_quiescent().is_ok(), held.is_empty());
        }
        lc.release_all(CORE, &mut out);
        lc.check_quiescent().unwrap();
        for (t, e) in total.iter_mut().zip(ended) {
            *t += e;
        }
    }
    assert!(
        total.iter().all(|&n| n > 0),
        "a reason never ended a lease: {total:?}"
    );
    assert!(
        rejected_over_held > 0,
        "no MultiLease was rejected over held leases"
    );
}
