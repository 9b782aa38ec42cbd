//! # lr-sim-cache
//!
//! Set-associative cache *timing/state* model used for both the private L1
//! caches and the shared L2 slices of the simulated machine.
//!
//! The cache stores no data — the simulator is timing-first and data lives
//! in the authoritative `lr_sim_mem::SimMemory` store — only tags, a
//! per-cache true-LRU ordering, a per-line *pin* flag, and a caller-chosen
//! payload per line (coherence state, directory entry, ...).
//!
//! Pinning implements the paper's §5 requirement that leased lines stay
//! resident: "the lease table mirrors the load buffer", i.e. a leased line
//! cannot be chosen as an eviction victim.

#![forbid(unsafe_code)]

use lr_sim_core::LineAddr;

/// One resident line.
#[derive(Debug, Clone)]
struct Way<T> {
    line: LineAddr,
    /// Monotone use stamp; smallest = least recently used.
    lru: u64,
    pinned: bool,
    payload: T,
}

/// Result of [`SetAssocCache::insert`].
#[derive(Debug, PartialEq, Eq)]
pub enum Inserted<T> {
    /// The line fit without evicting anyone.
    NoVictim,
    /// The line displaced `(victim line, victim payload)`.
    Evicted(LineAddr, T),
    /// Every way of the target set is pinned; the line was *not* inserted.
    ///
    /// With `MAX_NUM_LEASES` far below L1 associativity × sets this can
    /// only happen under adversarial aliasing; callers fall back to
    /// releasing a lease (see `lr-lease`).
    AllPinned,
}

/// A set-associative cache with true LRU and pinnable lines.
///
/// Way storage follows the sets a run touches: a set's `ways` slots are
/// appended to `slots` as one block on the first insert into that set,
/// and a lookup in a never-filled set misses without allocating. A
/// kilo-core machine fills a small fraction of its L1/L2 sets, so this
/// keeps construction at one `u32` per set instead of `ways` slots.
#[derive(Debug)]
pub struct SetAssocCache<T> {
    sets: usize,
    ways: usize,
    /// Per set: 1 + the index of its block in `slots`, or 0 if the set
    /// was never filled.
    block: Vec<u32>,
    /// The filled sets' ways, `ways` slots per block, in first-fill
    /// order (set order is recovered through `block`).
    slots: Vec<Option<Way<T>>>,
    clock: u64,
}

impl<T> SetAssocCache<T> {
    /// A cache with `sets` sets of `ways` ways.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets > 0 && ways > 0);
        SetAssocCache {
            sets,
            ways,
            block: vec![0; sets],
            slots: Vec::new(),
            clock: 0,
        }
    }

    #[inline]
    fn set_of(&self, line: LineAddr) -> usize {
        (line.0 as usize) % self.sets
    }

    /// Slot range of `set`'s ways; empty if the set was never filled.
    #[inline]
    fn ways_of(&self, set: usize) -> std::ops::Range<usize> {
        match self.block[set] as usize {
            0 => 0..0,
            b => (b - 1) * self.ways..b * self.ways,
        }
    }

    /// Slot range of `set`'s ways, allocating its block on first fill.
    fn ways_of_or_alloc(&mut self, set: usize) -> std::ops::Range<usize> {
        if self.block[set] == 0 {
            self.slots
                .resize_with(self.slots.len() + self.ways, || None);
            self.block[set] = u32::try_from(self.slots.len() / self.ways)
                .expect("more than u32::MAX sets filled");
        }
        self.ways_of(set)
    }

    fn find(&self, line: LineAddr) -> Option<usize> {
        self.ways_of(self.set_of(line))
            .find(|&i| self.slots[i].as_ref().is_some_and(|w| w.line == line))
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// True if no lines are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Is `line` resident?
    pub fn contains(&self, line: LineAddr) -> bool {
        self.find(line).is_some()
    }

    /// Payload of `line`, if resident. Does not touch LRU state.
    pub fn peek(&self, line: LineAddr) -> Option<&T> {
        self.find(line)
            .map(|i| &self.slots[i].as_ref().unwrap().payload)
    }

    /// Mutable payload of `line`, if resident. Does not touch LRU state.
    pub fn peek_mut(&mut self, line: LineAddr) -> Option<&mut T> {
        self.find(line)
            .map(|i| &mut self.slots[i].as_mut().unwrap().payload)
    }

    /// Payload of `line`, marking it most-recently-used.
    pub fn touch(&mut self, line: LineAddr) -> Option<&mut T> {
        let i = self.find(line)?;
        self.clock += 1;
        let w = self.slots[i].as_mut().unwrap();
        w.lru = self.clock;
        Some(&mut w.payload)
    }

    /// Insert `line` (must not be resident), evicting the LRU non-pinned
    /// way of its set if the set is full.
    pub fn insert(&mut self, line: LineAddr, payload: T) -> Inserted<T> {
        debug_assert!(!self.contains(line), "insert of resident line {line}");
        self.clock += 1;
        let clock = self.clock;
        let range = self.ways_of_or_alloc(self.set_of(line));

        // Prefer an invalid way.
        if let Some(i) = range.clone().find(|&i| self.slots[i].is_none()) {
            self.slots[i] = Some(Way {
                line,
                lru: clock,
                pinned: false,
                payload,
            });
            return Inserted::NoVictim;
        }

        // Otherwise evict the least-recently-used non-pinned way.
        let victim = range
            .filter(|&i| !self.slots[i].as_ref().unwrap().pinned)
            .min_by_key(|&i| self.slots[i].as_ref().unwrap().lru);
        match victim {
            None => Inserted::AllPinned,
            Some(i) => {
                let old = self.slots[i]
                    .replace(Way {
                        line,
                        lru: clock,
                        pinned: false,
                        payload,
                    })
                    .unwrap();
                Inserted::Evicted(old.line, old.payload)
            }
        }
    }

    /// Remove `line`, returning its payload.
    pub fn remove(&mut self, line: LineAddr) -> Option<T> {
        let i = self.find(line)?;
        self.slots[i].take().map(|w| w.payload)
    }

    /// Pin or unpin `line`. Returns false if the line is not resident.
    pub fn set_pinned(&mut self, line: LineAddr, pinned: bool) -> bool {
        match self.find(line) {
            Some(i) => {
                self.slots[i].as_mut().unwrap().pinned = pinned;
                true
            }
            None => false,
        }
    }

    /// Is `line` pinned?
    pub fn is_pinned(&self, line: LineAddr) -> bool {
        self.find(line)
            .is_some_and(|i| self.slots[i].as_ref().unwrap().pinned)
    }

    /// Iterate over `(line, payload)` of all resident lines, in ascending
    /// set order and way order within a set.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, &T)> {
        (0..self.sets)
            .flat_map(|s| &self.slots[self.ways_of(s)])
            .flatten()
            .map(|w| (w.line, &w.payload))
    }

    /// All pinned lines in the set that `line` maps to (used to pick a
    /// lease to force-release when a fill finds its whole set pinned).
    pub fn pinned_in_set(&self, line: LineAddr) -> Vec<LineAddr> {
        self.ways_of(self.set_of(line))
            .filter_map(|i| self.slots[i].as_ref())
            .filter(|w| w.pinned)
            .map(|w| w.line)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: u64) -> LineAddr {
        LineAddr(n)
    }

    #[test]
    fn hit_and_miss() {
        let mut c = SetAssocCache::new(4, 2);
        assert!(!c.contains(line(1)));
        assert_eq!(c.insert(line(1), 'a'), Inserted::NoVictim);
        assert!(c.contains(line(1)));
        assert_eq!(c.peek(line(1)), Some(&'a'));
        assert_eq!(c.peek(line(5)), None); // same set (5 % 4 == 1), not resident
    }

    #[test]
    fn lru_eviction_order() {
        // 1 set, 2 ways: lines 0 and 1 fill it; touching 0 makes 1 the victim.
        let mut c = SetAssocCache::new(1, 2);
        c.insert(line(0), 0);
        c.insert(line(1), 1);
        c.touch(line(0));
        match c.insert(line(2), 2) {
            Inserted::Evicted(l, p) => {
                assert_eq!(l, line(1));
                assert_eq!(p, 1);
            }
            other => panic!("expected eviction, got {other:?}"),
        }
        assert!(c.contains(line(0)));
        assert!(c.contains(line(2)));
    }

    #[test]
    fn pinned_lines_survive_eviction() {
        let mut c = SetAssocCache::new(1, 2);
        c.insert(line(0), 0);
        c.insert(line(1), 1);
        assert!(c.set_pinned(line(0), true));
        // line 0 is LRU but pinned: line 1 must be evicted instead.
        match c.insert(line(2), 2) {
            Inserted::Evicted(l, _) => assert_eq!(l, line(1)),
            other => panic!("expected eviction, got {other:?}"),
        }
        assert!(c.contains(line(0)));
    }

    #[test]
    fn all_pinned_refuses_insert() {
        let mut c = SetAssocCache::new(1, 2);
        c.insert(line(0), 0);
        c.insert(line(1), 1);
        c.set_pinned(line(0), true);
        c.set_pinned(line(1), true);
        assert_eq!(c.insert(line(2), 2), Inserted::AllPinned);
        assert!(!c.contains(line(2)));
        // Unpinning restores normal replacement.
        c.set_pinned(line(0), false);
        assert!(matches!(c.insert(line(2), 2), Inserted::Evicted(l, _) if l == line(0)));
    }

    #[test]
    fn remove_and_reinsert() {
        let mut c = SetAssocCache::new(2, 2);
        c.insert(line(0), 'x');
        assert_eq!(c.remove(line(0)), Some('x'));
        assert_eq!(c.remove(line(0)), None);
        assert_eq!(c.insert(line(0), 'y'), Inserted::NoVictim);
    }

    #[test]
    fn set_indexing_separates_sets() {
        let mut c = SetAssocCache::new(4, 1);
        // Lines 0..4 map to distinct sets: no evictions.
        for i in 0..4 {
            assert_eq!(c.insert(line(i), i), Inserted::NoVictim);
        }
        assert_eq!(c.len(), 4);
        // Line 4 aliases with line 0.
        assert!(matches!(c.insert(line(4), 4), Inserted::Evicted(l, _) if l == line(0)));
    }

    #[test]
    fn iter_sees_all_resident() {
        let mut c = SetAssocCache::new(8, 2);
        for i in 0..10 {
            c.insert(line(i), i);
        }
        let mut lines: Vec<u64> = c.iter().map(|(l, _)| l.0).collect();
        lines.sort_unstable();
        assert_eq!(lines, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn sets_are_allocated_on_first_fill_only() {
        let mut c = SetAssocCache::new(64, 4);
        // Lookups, removals and pins in never-filled sets miss without
        // allocating any ways.
        assert!(!c.contains(line(7)));
        assert!(c.touch(line(7)).is_none());
        assert_eq!(c.remove(line(7)), None);
        assert!(!c.set_pinned(line(7), true));
        assert!(c.pinned_in_set(line(7)).is_empty());
        assert_eq!(c.slots.len(), 0);
        // Filling sets 9 then 2 appends one block each; iteration still
        // follows set order, not fill order.
        c.insert(line(9), 'a');
        c.insert(line(2), 'b');
        c.insert(line(66), 'c');
        assert_eq!(c.slots.len(), 2 * 4);
        let lines: Vec<u64> = c.iter().map(|(l, _)| l.0).collect();
        assert_eq!(lines, [2, 66, 9]);
    }

    #[test]
    fn pin_missing_line_returns_false() {
        let mut c: SetAssocCache<()> = SetAssocCache::new(2, 1);
        assert!(!c.set_pinned(line(9), true));
        assert!(!c.is_pinned(line(9)));
    }

    #[test]
    fn touch_updates_payload_access() {
        let mut c = SetAssocCache::new(1, 1);
        c.insert(line(3), 10);
        if let Some(p) = c.touch(line(3)) {
            *p += 1;
        }
        assert_eq!(c.peek(line(3)), Some(&11));
        assert!(c.touch(line(4)).is_none());
    }
}
