//! The engine's event store: one [`EventQueue`] ordered by
//! `(time, canonical per-tile key)`.
//!
//! Every push is stamped with a **canonical key**
//! `(src_tile << 48) | per-src-tile push counter`. Tile `s`'s pushes
//! happen during `s`'s own events, in `s`'s deterministic event order,
//! in fixed code order within each event, so the k-th push by tile `s`
//! is a pure function of simulated causality at that tile. Ties at one
//! cycle therefore break by source tile first, then by that tile's own
//! push order — not by global insertion order.
//!
//! The key stays for two reasons. It is the order every recorded
//! result was produced under: the queue's own insertion counter breaks
//! same-cycle ties differently, so switching to it would move every
//! golden, corpus trace and `BENCH_*.json`. And because it depends only
//! on per-tile causality, it keeps event order independent of how the
//! tiles' handlers are scheduled — the property the per-tile handler
//! discipline of `lr-coherence` is written against.
//!
//! A key can land at the current cycle *below* the last popped key (a
//! lower source tile pushing for the same cycle after a higher tile's
//! event ran); the wheel files it in key order, and in strict builds
//! `EventQueue`'s reference check confirms every pop against the
//! pending minimum.
//!
//! The type keeps its partitioned-era name, plus the
//! [`ShardedQueue::with_kind`] constructor and [`ShardedQueue::pop_global`],
//! because the host-performance benchmark (`perfbench/`) calls them;
//! exactly one partition is supported.

use crate::event::{EventQueue, EventQueueKind};
use crate::Cycle;

/// Bits of the canonical key holding the per-src-tile push counter.
const KEY_CTR_BITS: u32 = 48;

/// One [`EventQueue`] plus the per-tile push counters that stamp
/// canonical keys (module docs).
#[derive(Debug)]
pub struct ShardedQueue<E> {
    queue: EventQueue<E>,
    /// Per-src-tile push counters — the low 48 key bits.
    tile_ctr: Vec<u64>,
}

impl<E> ShardedQueue<E> {
    /// An empty queue over `tiles` tiles.
    pub fn new(tiles: usize) -> Self {
        assert!(tiles >= 1, "event store over zero tiles");
        ShardedQueue {
            queue: EventQueue::new(),
            tile_ctr: vec![0; tiles],
        }
    }

    /// [`ShardedQueue::new`]. `kind` has one value, `parts` must be 1
    /// and `lookahead` is ignored: kept for the benchmark's calls.
    pub fn with_kind(_kind: EventQueueKind, tiles: usize, parts: usize, _lookahead: Cycle) -> Self {
        assert_eq!(parts, 1, "the event store has exactly one partition");
        Self::new(tiles)
    }

    /// Current simulated time: the timestamp of the last popped event.
    #[inline]
    pub fn now(&self) -> Cycle {
        self.queue.now()
    }

    /// Total events popped so far.
    #[inline]
    pub fn processed(&self) -> u64 {
        self.queue.processed()
    }

    /// Pending events.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Schedule `payload` at `time` for `dest_tile`, pushed by the
    /// handler of an event at tile `src_tile` whose timestamp is
    /// `send_now` (pre-run setup passes `src_tile == dest_tile`,
    /// `send_now == 0`). The push is stamped with the canonical key
    /// derived from `src_tile` (module docs).
    pub fn push(
        &mut self,
        src_tile: usize,
        send_now: Cycle,
        dest_tile: usize,
        time: Cycle,
        payload: E,
    ) {
        assert!(
            time >= send_now,
            "event scheduled in the past: t={time} < send time {send_now}"
        );
        debug_assert!(
            dest_tile < self.tile_ctr.len(),
            "tile {dest_tile} out of range"
        );
        let ctr = self.tile_ctr[src_tile];
        self.tile_ctr[src_tile] = ctr + 1;
        assert!(
            ctr < 1u64 << KEY_CTR_BITS,
            "canonical key counter overflow at tile {src_tile}"
        );
        let key = ((src_tile as u64) << KEY_CTR_BITS) | ctr;
        self.queue.push_at_seq(time, key, payload);
    }

    /// Pop the earliest event by `(time, key)`. Returns
    /// `(time, partition, payload)`; the partition is always 0.
    pub fn pop_global(&mut self) -> Option<(Cycle, usize, E)> {
        self.queue.pop().map(|(time, payload)| (time, 0, payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_key_orders_same_time_pushes_by_src_tile_not_push_order() {
        // Tile 2 pushes first, tile 1 second, both for tile 0 at t=5:
        // tile 1's event must pop first, regardless of push order.
        let mut q: ShardedQueue<&str> = ShardedQueue::new(4);
        q.push(2, 0, 0, 5, "from-tile-2");
        q.push(1, 0, 0, 5, "from-tile-1");
        assert_eq!(q.pop_global(), Some((5, 0, "from-tile-1")));
        assert_eq!(q.pop_global(), Some((5, 0, "from-tile-2")));
    }

    #[test]
    #[should_panic(expected = "exactly one partition")]
    fn more_than_one_partition_is_rejected() {
        let _q: ShardedQueue<u32> = ShardedQueue::with_kind(EventQueueKind::Wheel, 4, 2, 1);
    }
}
