//! Hierarchical timing wheel: the O(1)-amortized backing store for
//! [`crate::EventQueue`].
//!
//! # Layout
//!
//! Eight levels of 256 slots each slice the 64-bit cycle counter into
//! 8-bit digits. An entry lives at the *highest* level whose digit
//! differs from the wheel's current position `pos`:
//!
//! * level 0 — one slot per cycle for the 256-cycle near horizon
//!   (`time >> 8 == pos >> 8`);
//! * level `k` — one slot per `256^k`-cycle window for events whose
//!   first differing digit (vs `pos`) is digit `k`.
//!
//! Because every pending time is `>= pos`, an occupied slot's index is
//! never *behind* the position's digit at that level, so the wheel
//! needs no wrap-around handling: each level scans forward like a flat
//! array, driven by a 256-bit occupancy bitmap (four `u64` words,
//! `trailing_zeros` per word).
//!
//! # Overflow cascade
//!
//! When the near horizon is exhausted, [`Wheel::pop`] finds the lowest
//! non-empty level, detaches its first occupied slot, advances `pos` to
//! that slot's window base, and re-files the slot's entries — now one
//! or more digits closer — into lower levels. An entry cascades at most
//! `LEVELS - 1` times over its lifetime, so push + pop stay O(1)
//! amortized regardless of how far in the future events are scheduled
//! (lease timeouts sit `MAX_LEASE_TIME` = 20 000 cycles out, i.e. at
//! level 1–2).
//!
//! # Determinism
//!
//! The queue contract is *total order by `(time, seq)`*. Each slot's
//! entries hang off an intrusive singly-linked list, and order is kept
//! only where [`Wheel::pop`] reads it ([`Wheel::link`]):
//!
//! * a level-0 slot holds a single cycle, and its list stays sorted by
//!   `seq` (ordered insert; O(1) for an in-order key), so its head is
//!   the slot's minimum;
//! * a higher-level slot is a plain append-only bag (O(1) push,
//!   however many entries its window holds);
//! * the cascade re-files a detached slot through the same
//!   [`Wheel::link`], so every entry that reaches level 0 lands in key
//!   order there, whatever order its window collected it in.
//!
//! Keys need not arrive in ascending order: the engine's canonical keys
//! (src-tile ∥ per-tile counter) can reach the queue out of key order
//! at a given cycle, and the level-0 insert restores the contract.
//!
//! # Allocation discipline
//!
//! Entries live in a slab (`pool`) threaded by a free list; the
//! intrusive links mean pushes, pops, and cascades move no payloads and
//! allocate nothing once the pool has reached its high-water mark —
//! the engine loop's steady state stays heap-silent (see the
//! `zero_alloc` machine test).

use crate::Cycle;

/// Number of wheel levels; `LEVELS * BITS` must cover the 64-bit clock.
const LEVELS: usize = 8;
/// log2(slots per level).
const BITS: u32 = 8;
/// Slots per level.
const SLOTS: usize = 1 << BITS;
/// Digit mask.
const MASK: u64 = (SLOTS - 1) as u64;
/// Null slab index.
const NIL: u32 = u32::MAX;

#[derive(Debug)]
struct Node<E> {
    time: Cycle,
    seq: u64,
    /// Next entry in the slot list, or next free node when on the free
    /// list.
    next: u32,
    /// `None` only while the node sits on the free list.
    payload: Option<E>,
}

/// Head/tail of one slot's intrusive list.
#[derive(Debug, Clone, Copy)]
struct Slot {
    head: u32,
    tail: u32,
}

const EMPTY_SLOT: Slot = Slot {
    head: NIL,
    tail: NIL,
};

#[derive(Debug)]
struct Level {
    /// 256-bit occupancy bitmap: bit `i` set iff `slots[i]` is
    /// non-empty.
    occ: [u64; SLOTS / 64],
    slots: [Slot; SLOTS],
}

const EMPTY_LEVEL: Level = Level {
    occ: [0; SLOTS / 64],
    slots: [EMPTY_SLOT; SLOTS],
};

impl Level {
    /// Lowest occupied slot index `>= from`, if any.
    #[inline]
    fn first_occupied_from(&self, from: usize) -> Option<usize> {
        let mut word = from / 64;
        let mut bits = self.occ[word] & (!0u64 << (from % 64));
        loop {
            if bits != 0 {
                return Some(word * 64 + bits.trailing_zeros() as usize);
            }
            word += 1;
            if word == SLOTS / 64 {
                return None;
            }
            bits = self.occ[word];
        }
    }
}

/// The wheel itself. Time bookkeeping (`now`, `seq`, `processed`) and
/// the push-in-the-past / monotonicity checks live in the wrapping
/// [`crate::EventQueue`]; the wheel only stores entries and maintains
/// `pos <= min pending time`.
pub(crate) struct Wheel<E> {
    levels: Box<[Level; LEVELS]>,
    pool: Vec<Node<E>>,
    /// Free-list head into `pool`.
    free: u32,
    /// Wheel position: equals the last popped time between operations
    /// (it advances ahead only transiently, inside a cascade).
    pos: Cycle,
    len: usize,
}

impl<E> Wheel<E> {
    pub(crate) fn new() -> Self {
        Wheel {
            levels: Box::new([EMPTY_LEVEL; LEVELS]),
            pool: Vec::new(),
            free: NIL,
            pos: 0,
            len: 0,
        }
    }

    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// (level, slot) for `time`, relative to the current position.
    #[inline]
    fn locate(&self, time: Cycle) -> (usize, usize) {
        let diff = time ^ self.pos;
        let level = if diff == 0 {
            0
        } else {
            (63 - diff.leading_zeros() as usize) / BITS as usize
        };
        let slot = ((time >> (BITS * level as u32)) & MASK) as usize;
        (level, slot)
    }

    /// Insert slab node `idx` (whose `time` is given) into its slot
    /// list: appended at a higher level, inserted in `seq` order at
    /// level 0 (module docs, *Determinism*). The level-0 insert is O(1)
    /// when the new key is at least the tail's, a walk of that one
    /// cycle's entries otherwise.
    fn link(&mut self, idx: u32, time: Cycle) {
        let (level, slot) = self.locate(time);
        let seq = self.pool[idx as usize].seq;
        let s = self.levels[level].slots[slot];
        if s.tail == NIL {
            self.pool[idx as usize].next = NIL;
            self.levels[level].slots[slot].head = idx;
            self.levels[level].slots[slot].tail = idx;
        } else if level > 0 || seq >= self.pool[s.tail as usize].seq {
            self.pool[idx as usize].next = NIL;
            self.pool[s.tail as usize].next = idx;
            self.levels[level].slots[slot].tail = idx;
        } else {
            // Out-of-order key at one cycle: find the first node with a
            // greater key and splice in front of it.
            let mut prev = NIL;
            let mut cur = s.head;
            loop {
                let n = &self.pool[cur as usize];
                if n.seq > seq {
                    break;
                }
                prev = cur;
                cur = n.next;
                debug_assert_ne!(cur, NIL, "tail check guaranteed an insert point");
            }
            self.pool[idx as usize].next = cur;
            if prev == NIL {
                self.levels[level].slots[slot].head = idx;
            } else {
                self.pool[prev as usize].next = idx;
            }
        }
        self.levels[level].occ[slot / 64] |= 1 << (slot % 64);
    }

    /// Insert an entry. The caller guarantees `time >= pos` (enforced as
    /// `time >= now` by [`crate::EventQueue::push_at`]).
    pub(crate) fn push(&mut self, time: Cycle, seq: u64, payload: E) {
        debug_assert!(time >= self.pos, "wheel push behind position");
        let idx = if self.free != NIL {
            let idx = self.free;
            let n = &mut self.pool[idx as usize];
            self.free = n.next;
            n.time = time;
            n.seq = seq;
            n.payload = Some(payload);
            idx
        } else {
            assert!(self.pool.len() < NIL as usize, "wheel slab full");
            self.pool.push(Node {
                time,
                seq,
                next: NIL,
                payload: Some(payload),
            });
            (self.pool.len() - 1) as u32
        };
        self.link(idx, time);
        self.len += 1;
    }

    /// Remove and return the earliest entry as `(time, seq, payload)`.
    pub(crate) fn pop(&mut self) -> Option<(Cycle, u64, E)> {
        if self.len == 0 {
            return None;
        }
        loop {
            let start = (self.pos & MASK) as usize;
            if let Some(slot) = self.levels[0].first_occupied_from(start) {
                let idx = self.levels[0].slots[slot].head;
                let next = self.pool[idx as usize].next;
                self.levels[0].slots[slot].head = next;
                if next == NIL {
                    self.levels[0].slots[slot].tail = NIL;
                    self.levels[0].occ[slot / 64] &= !(1 << (slot % 64));
                }
                let node = &mut self.pool[idx as usize];
                let time = node.time;
                let seq = node.seq;
                let payload = node.payload.take().expect("wheel node already vacated");
                node.next = self.free;
                self.free = idx;
                self.pos = time;
                self.len -= 1;
                return Some((time, seq, payload));
            }
            self.cascade();
        }
    }

    /// The near horizon is empty: advance `pos` to the first occupied
    /// window of the lowest non-empty level and re-file that slot's
    /// entries into lower levels (through [`Wheel::link`], which puts
    /// the ones that reach level 0 in key order).
    fn cascade(&mut self) {
        for level in 1..LEVELS {
            let shift = BITS * level as u32;
            let start = ((self.pos >> shift) & MASK) as usize;
            let Some(slot) = self.levels[level].first_occupied_from(start) else {
                continue;
            };
            let mut idx = self.levels[level].slots[slot].head;
            self.levels[level].slots[slot] = EMPTY_SLOT;
            self.levels[level].occ[slot / 64] &= !(1 << (slot % 64));
            // Window base of the detached slot: digits above `level`
            // kept, digit `level` set to `slot`, lower digits zeroed.
            // Every entry in the slot (and every other pending entry)
            // has `time >=` this base, so it is a valid new position.
            let high = if shift + BITS == 64 {
                0
            } else {
                !0u64 << (shift + BITS)
            };
            self.pos = (self.pos & high) | ((slot as u64) << shift);
            while idx != NIL {
                let next = self.pool[idx as usize].next;
                let time = self.pool[idx as usize].time;
                self.link(idx, time);
                idx = next;
            }
            return;
        }
        unreachable!("wheel has {} entries but no occupied slot", self.len);
    }

    /// Timestamp of the earliest entry without popping it
    /// ([`Wheel::peek_key`]).
    pub(crate) fn peek_time(&self) -> Option<Cycle> {
        self.peek_key().map(|(t, _)| t)
    }

    /// `(time, seq)` of the entry [`Wheel::pop`] would return next.
    ///
    /// The first occupied slot of the lowest non-empty level holds the
    /// minimum: every other pending entry is in a later window of this
    /// or a higher level. Only level-0 slots are sorted, so this scans
    /// that one slot. Only tests call this; the engine never peeks.
    pub(crate) fn peek_key(&self) -> Option<(Cycle, u64)> {
        if self.len == 0 {
            return None;
        }
        for level in 0..LEVELS {
            let shift = BITS * level as u32;
            let start = ((self.pos >> shift) & MASK) as usize;
            let Some(slot) = self.levels[level].first_occupied_from(start) else {
                continue;
            };
            let mut idx = self.levels[level].slots[slot].head;
            let mut min = (Cycle::MAX, u64::MAX);
            while idx != NIL {
                let n = &self.pool[idx as usize];
                min = min.min((n.time, n.seq));
                idx = n.next;
            }
            return Some(min);
        }
        unreachable!("wheel has {} entries but no occupied slot", self.len);
    }
}

impl<E> std::fmt::Debug for Wheel<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wheel")
            .field("len", &self.len)
            .field("pos", &self.pos)
            .field("next", &self.peek_time())
            .field("slab", &self.pool.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locate_levels() {
        let w: Wheel<u8> = Wheel::new();
        assert_eq!(w.locate(0), (0, 0));
        assert_eq!(w.locate(255), (0, 255));
        assert_eq!(w.locate(256), (1, 1));
        assert_eq!(w.locate(0xFFFF), (1, 255));
        assert_eq!(w.locate(0x1_0000), (2, 1));
        assert_eq!(w.locate(u64::MAX), (7, 255));
    }

    #[test]
    fn cascade_preserves_fifo_within_a_cycle() {
        let mut w = Wheel::new();
        // Both land in the same far-future level-1 slot, then cascade
        // together into one level-0 slot: pop order must be push order.
        w.push(300, 0, "first");
        w.push(300, 1, "second");
        w.push(5, 2, "near");
        assert_eq!(w.pop(), Some((5, 2, "near")));
        assert_eq!(w.pop(), Some((300, 0, "first")));
        assert_eq!(w.pop(), Some((300, 1, "second")));
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn cascade_files_a_window_into_key_order() {
        let mut w = Wheel::new();
        // One level-1 window collects two cycles with keys out of
        // order; peek scans the unordered slot, and the cascade sorts
        // each cycle by key.
        for (t, k) in [(300, 9), (260, 4), (300, 2), (300, 5), (260, 1)] {
            w.push(t, k, k);
        }
        assert_eq!(w.peek_key(), Some((260, 1)));
        let order: Vec<_> = std::iter::from_fn(|| w.pop())
            .map(|(t, k, _)| (t, k))
            .collect();
        assert_eq!(order, [(260, 1), (260, 4), (300, 2), (300, 5), (300, 9)]);
    }

    #[test]
    fn slab_is_recycled() {
        let mut w = Wheel::new();
        for round in 0..10u64 {
            for i in 0..8u64 {
                w.push(round * 100 + i, round * 8 + i, i);
            }
            for _ in 0..8 {
                w.pop().unwrap();
            }
        }
        assert!(
            w.pool.len() <= 8,
            "slab grew past high-water: {}",
            w.pool.len()
        );
    }

    #[test]
    fn far_future_multi_level_cascade() {
        let mut w = Wheel::new();
        let times = [u64::MAX, 1 << 40, 1 << 16, 70_000, 20_000, 3, 0];
        for (seq, &t) in times.iter().enumerate() {
            w.push(t, seq as u64, t);
        }
        let mut sorted = times;
        sorted.sort_unstable();
        for &t in &sorted {
            assert_eq!(
                w.pop(),
                Some((t, times.iter().position(|&x| x == t).unwrap() as u64, t))
            );
        }
        assert_eq!(w.pop(), None);
    }
}
