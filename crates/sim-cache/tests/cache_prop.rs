//! Randomized tests for the set-associative cache model, checked against a
//! reference model (per-set vectors with explicit LRU ordering) and driven
//! by the in-tree [`SplitMix64`] generator.

use lr_sim_cache::{Inserted, SetAssocCache};
use lr_sim_core::{LineAddr, SplitMix64};
use std::collections::HashMap;

#[derive(Debug, Clone)]
enum Cmd {
    Insert(u64),
    Touch(u64),
    Remove(u64),
    Pin(u64, bool),
}

fn random_cmd(rng: &mut SplitMix64, l: u64) -> Cmd {
    match rng.gen_range(0u8..4) {
        0 => Cmd::Insert(l),
        1 => Cmd::Touch(l),
        2 => Cmd::Remove(l),
        _ => Cmd::Pin(l, rng.gen_bool(0.5)),
    }
}

/// Reference model: per set, a vector of (line, pinned) in LRU→MRU order.
#[derive(Default)]
struct Model {
    sets: HashMap<usize, Vec<(u64, bool)>>,
    num_sets: usize,
    ways: usize,
}

impl Model {
    fn set_of(&self, line: u64) -> usize {
        line as usize % self.num_sets
    }
    fn find(&mut self, line: u64) -> Option<(usize, usize)> {
        let s = self.set_of(line);
        self.sets
            .get(&s)
            .and_then(|v| v.iter().position(|&(l, _)| l == line))
            .map(|i| (s, i))
    }
    fn touch(&mut self, line: u64) -> bool {
        if let Some((s, i)) = self.find(line) {
            let v = self.sets.get_mut(&s).unwrap();
            let e = v.remove(i);
            v.push(e);
            true
        } else {
            false
        }
    }
    fn insert(&mut self, line: u64) -> Option<Option<u64>> {
        // Returns None if AllPinned; Some(victim) otherwise.
        let s = self.set_of(line);
        let v = self.sets.entry(s).or_default();
        if v.len() < self.ways {
            v.push((line, false));
            return Some(None);
        }
        let victim_pos = v.iter().position(|&(_, p)| !p)?;
        // LRU non-pinned = first non-pinned in LRU→MRU order.
        let (victim, _) = v.remove(victim_pos);
        v.push((line, false));
        Some(Some(victim))
    }
    /// Resident lines as `(set, line)`, sorted.
    fn resident(&self) -> Vec<(usize, u64)> {
        let mut r: Vec<(usize, u64)> = self
            .sets
            .iter()
            .flat_map(|(&s, v)| v.iter().map(move |&(l, _)| (s, l)))
            .collect();
        r.sort_unstable();
        r
    }
}

/// Drive `cases` seeded command sequences of up to `max_steps` steps
/// through a `num_sets × ways` cache and the model in lockstep, and
/// check every observable after every step. Each case picks
/// `hot_sets` distinct sets in random order; `pick_line(rng, hot)`
/// draws each command's line.
fn check_against_model(
    num_sets: usize,
    ways: usize,
    hot_sets: usize,
    cases: u64,
    max_steps: usize,
    seed: u64,
    pick_line: impl Fn(&mut SplitMix64, &[u64]) -> u64,
) {
    for case in 0..cases {
        let mut hot: Vec<u64> = (0..num_sets as u64).collect();
        SplitMix64::new(!(seed + case)).shuffle(&mut hot);
        hot.truncate(hot_sets);
        let mut rng = SplitMix64::new(seed + case);
        let steps = rng.gen_range(1usize..max_steps);
        let mut cache: SetAssocCache<u64> = SetAssocCache::new(num_sets, ways);
        let mut model = Model {
            num_sets,
            ways,
            ..Model::default()
        };

        for _ in 0..steps {
            let l = pick_line(&mut rng, &hot);
            match random_cmd(&mut rng, l) {
                Cmd::Insert(l) => {
                    if model.find(l).is_some() {
                        continue; // cache forbids double insert
                    }
                    let got = cache.insert(LineAddr(l), l);
                    match model.insert(l) {
                        None => assert_eq!(got, Inserted::AllPinned),
                        Some(None) => assert_eq!(got, Inserted::NoVictim),
                        Some(Some(victim)) => {
                            assert_eq!(got, Inserted::Evicted(LineAddr(victim), victim));
                        }
                    }
                }
                Cmd::Touch(l) => {
                    let got = cache.touch(LineAddr(l)).is_some();
                    assert_eq!(got, model.touch(l));
                }
                Cmd::Remove(l) => {
                    let got = cache.remove(LineAddr(l));
                    match model.find(l) {
                        Some((s, i)) => {
                            model.sets.get_mut(&s).unwrap().remove(i);
                            assert_eq!(got, Some(l));
                        }
                        None => assert_eq!(got, None),
                    }
                }
                Cmd::Pin(l, p) => {
                    let got = cache.set_pinned(LineAddr(l), p);
                    match model.find(l) {
                        Some((s, i)) => {
                            model.sets.get_mut(&s).unwrap()[i].1 = p;
                            assert!(got);
                        }
                        None => assert!(!got),
                    }
                }
            }
            // Global invariants after every step.
            let mut count = 0;
            for (s, v) in &model.sets {
                assert!(v.len() <= ways, "set {s} over-full");
                count += v.len();
                for &(l, p) in v {
                    assert!(cache.contains(LineAddr(l)));
                    assert_eq!(cache.is_pinned(LineAddr(l)), p);
                }
            }
            assert_eq!(cache.len(), count);
            // `iter()` yields exactly the resident lines, grouped by set
            // in ascending set order.
            let seen: Vec<(usize, u64)> = cache
                .iter()
                .map(|(l, &payload)| {
                    assert_eq!(payload, l.0, "payload travelled with its line");
                    (model.set_of(l.0), l.0)
                })
                .collect();
            assert!(
                seen.windows(2).all(|w| w[0].0 <= w[1].0),
                "{num_sets}x{ways} case {case}: iter() left ascending set order: {seen:?}"
            );
            let mut seen = seen;
            seen.sort_unstable();
            assert_eq!(seen, model.resident(), "{num_sets}x{ways} case {case}");
        }
    }
}

#[test]
fn cache_matches_reference_model() {
    check_against_model(4, 3, 4, 256, 150, 0xc_ac4e_0000, |rng, _| {
        rng.gen_range(0u64..64)
    });
}

/// Geometries where most sets are never filled: a few hot sets, filled
/// in random order (so first-fill order differs from set order), each
/// drawing from `2 × ways` aliasing lines, which keeps the hot sets near
/// full and forces evictions (and fully pinned sets at 1 × 1 and 64 × 4).
#[test]
fn sparse_geometries_match_reference_model() {
    for (num_sets, ways, hot_sets) in [(1usize, 1usize, 1usize), (64, 4, 4), (512, 8, 4)] {
        let seed = 0x5ba2_5e00_0000 + (num_sets as u64) * 100;
        check_against_model(num_sets, ways, hot_sets, 64, 400, seed, |rng, hot| {
            let k = rng.gen_range(0..2 * ways as u64);
            hot[rng.gen_range(0..hot.len())] + k * num_sets as u64
        });
    }
}
