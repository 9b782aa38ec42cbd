//! Structured protocol tracing.
//!
//! Debugging a coherence protocol from a bare `assert!` panic means
//! reconstructing thousands of cycles of event history by hand. This
//! module provides the observability layer instead: protocol layers emit
//! typed [`TraceEvent`]s (no `format!` on the hot path — records are
//! plain `Copy` data, rendered lazily only when a report is printed), a
//! bounded [`TraceRing`] keeps the last N of them, and watchdog/invariant
//! failures dump the window as part of one coherent report.
//!
//! Tracing is off by default and zero-cost when off: emitters check a
//! cached boolean before even constructing an event.

use crate::{CoreId, Cycle, LineAddr};
use std::collections::VecDeque;

/// Access permission a traced request asked for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceAccess {
    /// Shared (read) permission.
    Load,
    /// Exclusive (write/RMW) permission.
    Exclusive,
}

/// One structured protocol/machine event.
///
/// Field meanings: `xact` is the coherence transaction id, `core` the
/// requester, `owner` the core holding the line exclusively, `tid` the
/// worker thread (== core id) at the machine layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A miss entered the protocol at the requesting core.
    MissIssued {
        xact: u64,
        core: CoreId,
        line: LineAddr,
        kind: TraceAccess,
        lease_intent: bool,
    },
    /// A request message reached its home directory and is serviced.
    DirArrive { xact: u64, line: LineAddr },
    /// A request message reached a busy directory channel and queued.
    DirQueued {
        xact: u64,
        line: LineAddr,
        depth: usize,
    },
    /// The directory finished a transaction and unlocked the line.
    DirUnlock { line: LineAddr },
    /// A downgrade/forward probe reached the exclusive owner.
    ProbeArrive {
        xact: u64,
        owner: CoreId,
        line: LineAddr,
    },
    /// The probe found a valid lease and stalled behind it.
    ProbeStalled {
        xact: u64,
        owner: CoreId,
        line: LineAddr,
    },
    /// A stalled probe resumed after the lease ended; `waited` is the
    /// queued interval in cycles.
    ProbeResumed {
        owner: CoreId,
        line: LineAddr,
        waited: Cycle,
    },
    /// Data/permission arrived at the requester and was installed.
    GrantArrive {
        xact: u64,
        core: CoreId,
        line: LineAddr,
        exclusive: bool,
    },
    /// A line was evicted from a core's L1 (`dirty` = writeback).
    L1Evict {
        core: CoreId,
        line: LineAddr,
        dirty: bool,
    },
    /// A lease ended (`voluntary` = explicit release, else expiry/forced).
    LeaseReleased {
        core: CoreId,
        line: LineAddr,
        voluntary: bool,
    },
    /// A lease counter expired at the machine layer.
    LeaseExpired { core: CoreId, line: LineAddr },
    /// A worker's instruction reached its issue time.
    OpStart { tid: usize },
    /// A worker's instruction completed.
    OpComplete { tid: usize },
}

/// A trace record: the simulated instant plus the event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Simulated cycle the event happened at.
    pub t: Cycle,
    /// The event.
    pub ev: TraceEvent,
}

/// Bounded ring of the most recent trace records.
#[derive(Debug, Default)]
pub struct TraceRing {
    depth: usize,
    ring: VecDeque<TraceRecord>,
    recorded: u64,
}

impl TraceRing {
    /// Ring keeping the last `depth` records (0 = tracing off).
    pub fn new(depth: usize) -> Self {
        TraceRing {
            depth,
            ring: VecDeque::with_capacity(depth.min(4096)),
            recorded: 0,
        }
    }

    /// Is this ring recording at all?
    #[inline]
    pub fn enabled(&self) -> bool {
        self.depth > 0
    }

    /// Record `ev` at simulated time `t`.
    #[inline]
    pub fn record(&mut self, t: Cycle, ev: TraceEvent) {
        if self.depth == 0 {
            return;
        }
        if self.ring.len() == self.depth {
            self.ring.pop_front();
        }
        self.ring.push_back(TraceRecord { t, ev });
        self.recorded += 1;
    }

    /// Total events recorded over the ring's lifetime (including those
    /// that have since been dropped from the window).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// The retained window, oldest first.
    pub fn window(&self) -> impl Iterator<Item = &TraceRecord> {
        self.ring.iter()
    }

    /// Number of records currently retained.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True if nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Render the window as an aligned, human-readable block (one line
    /// per record). Used by the watchdog report; intentionally lazy —
    /// nothing is formatted until a report is actually needed.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        if self.recorded > self.ring.len() as u64 {
            let _ = writeln!(
                s,
                "  ... {} earlier events dropped (window = {})",
                self.recorded - self.ring.len() as u64,
                self.depth
            );
        }
        for r in &self.ring {
            let _ = writeln!(s, "  t={:<10} {:?}", r.t, r.ev);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_last_n() {
        let mut r = TraceRing::new(3);
        assert!(r.enabled());
        for i in 0..5u64 {
            r.record(i, TraceEvent::DirUnlock { line: LineAddr(i) });
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.recorded(), 5);
        let ts: Vec<Cycle> = r.window().map(|x| x.t).collect();
        assert_eq!(ts, vec![2, 3, 4]);
        let rendered = r.render();
        assert!(rendered.contains("2 earlier events dropped"));
        assert!(rendered.contains("DirUnlock"));
    }

    #[test]
    fn depth_zero_records_nothing() {
        let mut r = TraceRing::new(0);
        assert!(!r.enabled());
        r.record(1, TraceEvent::OpStart { tid: 0 });
        assert!(r.is_empty());
        assert_eq!(r.recorded(), 0);
    }
}
