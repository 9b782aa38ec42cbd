//! The compact directory: what an L2 way stores about its line, and the
//! home tile's store of sharer bitmaps.
//!
//! An L2 way holds a [`DirEntry`] of at most 8 bytes. A Shared line's
//! sharer bitmap lives in the home tile's [`SharerRows`], one row of
//! `ceil(num_cores / 64)` words per Shared line. Rows are recycled
//! through a free list, so directory memory follows the lines actually
//! shared rather than cores × L2 ways × the largest machine's width.

use lr_sim_core::CoreId;

/// Handle of one sharer row in a tile's [`SharerRows`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Row(u32);

/// Directory knowledge about one line, as stored in its home L2 way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DirEntry {
    /// No L1 holds the line; L2/DRAM data is current.
    Uncached,
    /// The cores in this row of the home's [`SharerRows`] hold the line
    /// in Shared state. The row is never empty.
    Shared(Row),
    /// One core holds the line in Modified (or, under MESI, Exclusive)
    /// state.
    Modified(CoreId),
}

// Every L2 way of every tile stores one entry: keep it a word.
const _: () = assert!(std::mem::size_of::<DirEntry>() <= 8);

/// Sharer bitmaps of the Shared lines homed at one tile. Bit `c` of a
/// row is set when core `c` holds a Shared copy. Freed rows are zeroed
/// and reused before the store grows, so a line cycling between Shared
/// and Modified allocates nothing once the store has reached its peak.
#[derive(Debug)]
pub(crate) struct SharerRows {
    /// Words per row.
    width: usize,
    /// Row `r` occupies `words[r * width..(r + 1) * width]`.
    words: Vec<u64>,
    /// Freed (all-zero) rows, reused last-in first-out.
    free: Vec<Row>,
}

impl SharerRows {
    /// An empty store for a machine of `num_cores` cores.
    pub fn new(num_cores: usize) -> Self {
        SharerRows {
            width: num_cores.div_ceil(64),
            words: Vec::new(),
            free: Vec::new(),
        }
    }

    #[inline]
    fn row(&self, r: Row) -> &[u64] {
        let s = r.0 as usize * self.width;
        &self.words[s..s + self.width]
    }

    #[inline]
    fn row_mut(&mut self, r: Row) -> &mut [u64] {
        let s = r.0 as usize * self.width;
        &mut self.words[s..s + self.width]
    }

    /// A new row holding just `c`.
    pub fn alloc(&mut self, c: CoreId) -> Row {
        let r = match self.free.pop() {
            Some(r) => r,
            None => {
                let id = u32::try_from(self.words.len() / self.width)
                    .expect("sharer row ids exceed u32");
                self.words.resize(self.words.len() + self.width, 0);
                Row(id)
            }
        };
        self.insert(r, c);
        r
    }

    /// Return `r` to the free list, clearing its members.
    pub fn free(&mut self, r: Row) {
        self.row_mut(r).fill(0);
        self.free.push(r);
    }

    /// Add `c` to row `r`.
    #[inline]
    pub fn insert(&mut self, r: Row, c: CoreId) {
        self.row_mut(r)[c.idx() / 64] |= 1 << (c.idx() % 64);
    }

    /// Remove `c` from row `r`; true if the row is now empty.
    #[inline]
    pub fn remove(&mut self, r: Row, c: CoreId) -> bool {
        let row = self.row_mut(r);
        row[c.idx() / 64] &= !(1 << (c.idx() % 64));
        row.iter().all(|&w| w == 0)
    }

    /// Is `c` a member of row `r`?
    #[inline]
    pub fn contains(&self, r: Row, c: CoreId) -> bool {
        self.row(r)[c.idx() / 64] & (1 << (c.idx() % 64)) != 0
    }

    /// Is row `r` empty?
    pub fn is_empty(&self, r: Row) -> bool {
        self.row(r).iter().all(|&w| w == 0)
    }

    /// The smallest member of row `r` that is at least `from`. Fan-out
    /// loops that send a message per sharer step with this instead of
    /// holding an iterator, because sending needs the engine mutably.
    #[inline]
    pub fn next_member(&self, r: Row, from: usize) -> Option<CoreId> {
        let row = self.row(r);
        let mut w = from / 64;
        let mut bits = *row.get(w)? & (!0u64 << (from % 64));
        loop {
            if bits != 0 {
                return Some(CoreId((w * 64 + bits.trailing_zeros() as usize) as u16));
            }
            w += 1;
            bits = *row.get(w)?;
        }
    }

    /// Members of row `r` in ascending core order.
    pub fn members(&self, r: Row) -> impl Iterator<Item = CoreId> + '_ {
        let mut from = 0;
        std::iter::from_fn(move || {
            let c = self.next_member(r, from)?;
            from = c.idx() + 1;
            Some(c)
        })
    }

    /// Rows currently allocated (not on the free list).
    pub fn live(&self) -> usize {
        self.words.len() / self.width - self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CoreSet;
    use lr_sim_core::SplitMix64;

    /// Drive one store with a seeded mix of add/remove/contains/
    /// iterate/free steps, checking every result against a `CoreSet`
    /// oracle per live row.
    fn drive(num_cores: usize, seed: u64, steps: usize) {
        let mut rows = SharerRows::new(num_cores);
        let mut rng = SplitMix64::new(seed);
        let mut live: Vec<(Row, CoreSet)> = Vec::new();
        for step in 0..steps {
            let c = CoreId(rng.gen_range(0..num_cores) as u16);
            let i = rng.gen_range(0..live.len().max(1));
            match rng.gen_range(0..5u32) {
                0 => {
                    let (words, reuse) = (rows.words.len(), !rows.free.is_empty());
                    let r = rows.alloc(c);
                    assert!(
                        live.iter().all(|&(l, _)| l != r),
                        "step {step}: row {r:?} handed out twice"
                    );
                    assert!(
                        !reuse || rows.words.len() == words,
                        "step {step}: the store grew while freed rows were available"
                    );
                    live.push((r, CoreSet::only(c)));
                }
                _ if live.is_empty() => {}
                1 => {
                    rows.insert(live[i].0, c);
                    live[i].1 = live[i].1.with(c);
                }
                2 => {
                    // Remove a member half the time, a random core else.
                    let c = match live[i].1.iter().next() {
                        Some(m) if rng.gen_bool(0.5) => m,
                        _ => c,
                    };
                    let empty = rows.remove(live[i].0, c);
                    live[i].1 = live[i].1.without(c);
                    assert_eq!(empty, live[i].1.is_empty(), "step {step}: remove {c}");
                }
                3 => assert_eq!(
                    rows.contains(live[i].0, c),
                    live[i].1.contains(c),
                    "step {step}: contains {c}"
                ),
                _ => rows.free(live.swap_remove(i).0),
            }
            // Every live row matches its oracle member for member, in
            // ascending order: that order is the invalidation fan-out
            // order, which fixes the event keys.
            for &(r, set) in &live {
                let got: Vec<CoreId> = rows.members(r).collect();
                assert_eq!(got, set.iter().collect::<Vec<_>>(), "step {step}");
                assert!(got.windows(2).all(|w| w[0] < w[1]), "step {step}");
                assert_eq!(rows.is_empty(r), set.is_empty(), "step {step}");
            }
            assert_eq!(rows.live(), live.len(), "step {step}");
        }
    }

    #[test]
    fn rows_match_a_bitset_oracle() {
        // Row widths of 1, 2 and 16 words: the single-socket default,
        // a two-word machine and the largest supported one.
        for (num_cores, width) in [(64, 1), (100, 2), (128, 2), (lr_sim_core::MAX_CORES, 16)] {
            assert_eq!(SharerRows::new(num_cores).width, width);
            for seed in 0..6 {
                drive(num_cores, seed, 800);
            }
        }
    }
}
