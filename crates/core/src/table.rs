//! The per-core lease table (Algorithm 1 and 2 of the paper).
//!
//! The table is pure state: it decides *what* should happen (which lines
//! to release, when counters expire). [`crate::LeaseController`] drives
//! one table per core and hands the coherence-visible effects back to
//! its embedder.

use lr_sim_core::{Cycle, LeaseConfig, LineAddr};

/// One lease-table entry.
#[derive(Debug, Clone)]
struct Entry {
    line: LineAddr,
    /// Clamped duration (`min(time, MAX_LEASE_TIME)`).
    duration: Cycle,
    /// Absolute expiry time once the counter has started.
    expires: Option<Cycle>,
    /// Exclusive ownership has been granted for this entry. Probes are
    /// delayed only on granted entries: a core may still own a *stale*
    /// copy of a group line it has not re-acquired yet, and delaying
    /// probes on it would recreate exactly the deadlock that sorted
    /// acquisition order exists to prevent (Proposition 3: "p1 must have
    /// acquired R0 as part of its current MultiLease call").
    granted: bool,
    /// Insertion number: the FIFO order of `MAX_NUM_LEASES` replacement,
    /// and the token that tells a stale expiry event from a current one.
    generation: u64,
    /// Member of the MultiLease group. A table holds at most one group:
    /// a group is admitted only into an empty table.
    grouped: bool,
}

/// Probe-relevant state of a line in the table (see
/// [`LeaseTable::state`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeaseState {
    /// No entry: probes proceed normally.
    NotLeased,
    /// Entry exists but ownership has not been (re-)acquired under it:
    /// probes proceed — the line is only *stale-owned*, not leased.
    Pending,
    /// A live lease: probes are queued (or break it, under
    /// prioritization).
    Active,
    /// The counter ran out but the expiry event has not fired yet (tie at
    /// the same cycle): complete the involuntary release in place.
    Expired,
}

/// A started lease counter the machine must arm an expiry event for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArmedCounter {
    /// Leased line.
    pub line: LineAddr,
    /// Absolute expiry time.
    pub expires: Cycle,
    /// Generation token to pass back to [`LeaseTable::on_expiry_into`].
    pub generation: u64,
}

/// The per-core lease table.
#[derive(Debug)]
pub struct LeaseTable {
    cfg: LeaseConfig,
    entries: Vec<Entry>,
    next_gen: u64,
}

impl LeaseTable {
    /// Empty table with the given configuration.
    pub fn new(cfg: LeaseConfig) -> Self {
        assert!(cfg.max_num_leases >= 1);
        LeaseTable {
            cfg,
            entries: Vec::new(),
            next_gen: 0,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no leases are held.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lines currently leased, in FIFO order.
    pub fn lines(&self) -> Vec<LineAddr> {
        let mut v: Vec<&Entry> = self.entries.iter().collect();
        v.sort_by_key(|e| e.generation);
        v.into_iter().map(|e| e.line).collect()
    }

    /// The oldest lease (FIFO order) whose line is in `sorted` — the
    /// replacement victim among a pinned set. `sorted` must be sorted
    /// ascending; membership is a binary search, so the whole scan is
    /// O(leases · log |sorted|) and allocation-free.
    pub fn oldest_member(&self, sorted: &[LineAddr]) -> Option<LineAddr> {
        self.entries
            .iter()
            .filter(|e| sorted.binary_search(&e.line).is_ok())
            .min_by_key(|e| e.generation)
            .map(|e| e.line)
    }

    fn find(&self, line: LineAddr) -> Option<usize> {
        self.entries.iter().position(|e| e.line == line)
    }

    /// A MultiLease group is being acquired: some member is not granted.
    fn acquiring(&self) -> bool {
        self.entries.iter().any(|e| e.grouped && !e.granted)
    }

    /// Is `line` actively leased at time `now`? True for granted entries
    /// whose counter has not expired — including granted group lines
    /// whose joint countdown has not started yet (the "transition to
    /// lease" load-buffer state of Section 5): those must delay probes
    /// for Proposition 3's sorted-order argument to go through.
    pub fn is_leased(&self, line: LineAddr, now: Cycle) -> bool {
        self.state(line, now) == LeaseState::Active
    }

    /// Full probe-relevant state of `line` (see [`LeaseState`]).
    pub fn state(&self, line: LineAddr, now: Cycle) -> LeaseState {
        match self.find(line) {
            None => LeaseState::NotLeased,
            Some(i) => {
                let e = &self.entries[i];
                if !e.granted {
                    LeaseState::Pending
                } else if e.expires.is_none_or(|x| now < x) {
                    LeaseState::Active
                } else {
                    LeaseState::Expired
                }
            }
        }
    }

    /// Algorithm 1 `LEASE`: admit a lease on `line` for `time` cycles.
    /// Returns false, and creates no entry, if `line` is leased already
    /// (footnote 1: leases are never extended).
    ///
    /// The table must have room: a caller with a full table first ends
    /// the lease [`LeaseTable::displaced_by`] names (FIFO replacement,
    /// as [`crate::LeaseController::lease`] does). It then requests
    /// `line` in Exclusive state with lease intent and calls
    /// [`LeaseTable::on_exclusive_granted_into`] when ownership arrives.
    pub fn begin_lease(&mut self, line: LineAddr, time: Cycle) -> bool {
        assert!(
            !self.acquiring(),
            "single leases may not be taken during a MultiLease acquisition"
        );
        if self.find(line).is_some() {
            return false;
        }
        assert!(
            self.entries.len() < self.cfg.max_num_leases,
            "lease table full: end the displaced_by victim before begin_lease"
        );
        self.insert_entry(line, time, false);
        true
    }

    /// The lease that [`LeaseTable::begin_lease`] on `line` needs ended
    /// first: the oldest (FIFO), if the table is full and `line` is not
    /// leased already. If it is a MultiLease member, ending it ends its
    /// whole group.
    pub fn displaced_by(&self, line: LineAddr) -> Option<LineAddr> {
        if self.entries.len() < self.cfg.max_num_leases || self.find(line).is_some() {
            return None;
        }
        self.entries
            .iter()
            .min_by_key(|e| e.generation)
            .map(|e| e.line)
    }

    fn insert_entry(&mut self, line: LineAddr, time: Cycle, grouped: bool) {
        self.entries.push(Entry {
            line,
            duration: time.min(self.cfg.max_lease_time),
            expires: None,
            granted: false,
            generation: self.next_gen,
            grouped,
        });
        self.next_gen += 1;
    }

    /// Exclusive ownership of `line` arrived at `now`: start the counter
    /// (single leases) or record the grant (MultiLease groups, whose
    /// counters start jointly). Clears `out` and appends the counters to
    /// arm.
    pub fn on_exclusive_granted_into(
        &mut self,
        line: LineAddr,
        now: Cycle,
        out: &mut Vec<ArmedCounter>,
    ) {
        out.clear();
        let Some(i) = self.find(line) else {
            // The lease was displaced/broken while its ownership request
            // was in flight; nothing to start.
            return;
        };
        let start = |e: &mut Entry| {
            let expires = now + e.duration;
            e.expires = Some(expires);
            ArmedCounter {
                line: e.line,
                expires,
                generation: e.generation,
            }
        };
        let e = &mut self.entries[i];
        if !e.grouped {
            e.granted = true;
            out.push(start(e));
            return;
        }
        if e.granted {
            // Duplicate grant (stale notification): ignore.
            return;
        }
        e.granted = true;
        if self.acquiring() {
            return;
        }
        // Last line granted: start every counter in the group jointly
        // (Section 5, "all corresponding counters are allocated and
        // started").
        out.extend(self.entries.iter_mut().filter(|e| e.grouped).map(start));
    }

    /// Algorithm 2 `MULTILEASE`: admit a joint lease on `lines` for
    /// `time` cycles.
    ///
    /// The table must hold no lease: Algorithm 2 line 2 releases them
    /// all first ([`LeaseTable::release_all_into`]). `lines` is sorted
    /// and deduplicated in place (one cache line reached through several
    /// addresses counts once) into the fixed global acquisition order.
    /// Returns false, admitting nothing, if the group would exceed
    /// `MAX_NUM_LEASES` (Algorithm 2 line 5). Once admitted, the caller
    /// acquires `lines` in order with lease intent.
    pub fn begin_multilease(&mut self, lines: &mut Vec<LineAddr>, time: Cycle) -> bool {
        assert!(
            self.entries.is_empty(),
            "MultiLease admitted over held leases (Algorithm 2 releases them first)"
        );
        lines.sort_unstable();
        lines.dedup();
        if lines.len() > self.cfg.max_num_leases {
            return false;
        }
        for &l in lines.iter() {
            self.insert_entry(l, time, true);
        }
        true
    }

    /// Release of `line` (Algorithm 1 `RELEASE` / Algorithm 2
    /// `MULTIRELEASE`): removes the entry — and its whole group, for
    /// MultiLease members ("a release on any address in the group causes
    /// all others to be canceled"). Clears `out`, appends the released
    /// lines, and returns whether a lease was found.
    pub fn release_into(&mut self, line: LineAddr, out: &mut Vec<LineAddr>) -> bool {
        out.clear();
        let Some(i) = self.find(line) else {
            return false;
        };
        if self.entries[i].grouped {
            self.entries.retain(|e| {
                if e.grouped {
                    out.push(e.line);
                }
                !e.grouped
            });
        } else {
            self.entries.swap_remove(i);
            out.push(line);
        }
        true
    }

    /// `RELEASEALL`: drop every lease. Clears `out` and appends every
    /// released line.
    pub fn release_all_into(&mut self, out: &mut Vec<LineAddr>) {
        out.clear();
        out.extend(self.entries.drain(..).map(|e| e.line));
    }

    /// Diagnostic dump of the table's entries in FIFO order (one line per
    /// entry), for the machine's watchdog/deadlock report.
    pub fn debug_dump(&self) -> String {
        use std::fmt::Write;
        if self.entries.is_empty() {
            return String::from("  (empty)\n");
        }
        let mut s = String::new();
        let mut entries: Vec<&Entry> = self.entries.iter().collect();
        entries.sort_by_key(|e| e.generation);
        for e in entries {
            let _ = writeln!(
                s,
                "  {} duration={} expires={:?} granted={} gen={} grouped={}",
                e.line, e.duration, e.expires, e.granted, e.generation, e.grouped
            );
        }
        s
    }

    /// A lease-counter expiry event fired. Clears `out`, appends the
    /// lines involuntarily released, and returns whether the event was
    /// still valid (false for a stale generation: the lease was already
    /// released and possibly replaced).
    pub fn on_expiry_into(
        &mut self,
        line: LineAddr,
        generation: u64,
        out: &mut Vec<LineAddr>,
    ) -> bool {
        out.clear();
        let valid = self
            .find(line)
            .is_some_and(|i| self.entries[i].generation == generation);
        if !valid {
            return false;
        }
        let found = self.release_into(line, out);
        debug_assert!(found, "valid expiry must release its lease");
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(max_leases: usize) -> LeaseConfig {
        LeaseConfig {
            max_num_leases: max_leases,
            ..LeaseConfig::default()
        }
    }

    fn table(max_leases: usize) -> LeaseTable {
        LeaseTable::new(cfg(max_leases))
    }

    const A: LineAddr = LineAddr(1);
    const B: LineAddr = LineAddr(2);
    const C: LineAddr = LineAddr(3);

    #[test]
    fn lease_then_grant_then_expiry() {
        let mut t = table(4);
        assert!(t.begin_lease(A, 500));
        assert_eq!(
            t.state(A, 0),
            LeaseState::Pending,
            "entry exists but no ownership yet: probes must not be delayed"
        );
        assert!(!t.is_leased(A, 0));
        let mut armed = Vec::new();
        t.on_exclusive_granted_into(A, 100, &mut armed);
        assert_eq!(armed.len(), 1);
        assert_eq!(armed[0].expires, 600);
        assert!(t.is_leased(A, 599));
        assert!(!t.is_leased(A, 600));
        let mut released = Vec::new();
        t.on_expiry_into(A, armed[0].generation, &mut released);
        assert_eq!(released, vec![A]);
        assert!(t.is_empty());
    }

    #[test]
    fn duration_clamped_to_max_lease_time() {
        let mut t = table(4);
        t.begin_lease(A, u64::MAX);
        let mut armed = Vec::new();
        t.on_exclusive_granted_into(A, 0, &mut armed);
        assert_eq!(armed[0].expires, LeaseConfig::default().max_lease_time);
    }

    #[test]
    fn no_lease_extension_on_released_line() {
        let mut t = table(4);
        t.begin_lease(A, 100);
        t.on_exclusive_granted_into(A, 0, &mut Vec::new());
        // Footnote 1: a second lease on a leased line does nothing.
        assert!(!t.begin_lease(A, 1_000_000));
        assert!(!t.is_leased(A, 100));
    }

    #[test]
    fn displaced_by_names_the_victim_only_when_full() {
        let mut t = table(2);
        t.begin_lease(A, 10);
        assert_eq!(t.displaced_by(C), None, "room left");
        t.begin_lease(B, 10);
        assert_eq!(t.displaced_by(C), Some(A), "oldest first");
        assert_eq!(t.displaced_by(B), None, "already leased: nothing moves");
    }

    #[test]
    fn voluntary_release_is_reported() {
        let mut t = table(4);
        t.begin_lease(A, 10);
        t.on_exclusive_granted_into(A, 0, &mut Vec::new());
        let mut released = Vec::new();
        assert!(t.release_into(A, &mut released));
        assert_eq!(released, vec![A]);
        assert!(!t.release_into(A, &mut released));
    }

    #[test]
    fn stale_expiry_event_is_ignored() {
        let mut t = table(4);
        t.begin_lease(A, 10);
        let mut armed = Vec::new();
        t.on_exclusive_granted_into(A, 0, &mut armed);
        let stale = armed[0].generation;
        let mut released = Vec::new();
        t.release_into(A, &mut released);
        // The lease was re-taken: old expiry must not kill the new lease.
        t.begin_lease(A, 10);
        t.on_exclusive_granted_into(A, 5, &mut armed);
        t.on_expiry_into(A, stale, &mut released);
        assert!(released.is_empty());
        assert!(t.is_leased(A, 6));
    }

    #[test]
    fn multilease_sorts_and_dedups() {
        let mut t = table(4);
        let mut released = Vec::new();
        t.release_all_into(&mut released);
        let mut lines = vec![C, A, B, A];
        assert!(t.begin_multilease(&mut lines, 50));
        assert!(released.is_empty());
        assert_eq!(lines, vec![A, B, C]);
        // Counters start only when the LAST line is granted.
        let mut armed = Vec::new();
        t.on_exclusive_granted_into(A, 10, &mut armed);
        assert!(armed.is_empty());
        t.on_exclusive_granted_into(B, 20, &mut armed);
        assert!(armed.is_empty());
        t.on_exclusive_granted_into(C, 30, &mut armed);
        assert_eq!(armed.len(), 3);
        for a in &armed {
            assert_eq!(a.expires, 80, "joint start at the last grant time");
        }
    }

    #[test]
    fn multilease_releases_held_leases_first() {
        let mut t = table(4);
        t.begin_lease(A, 10);
        t.on_exclusive_granted_into(A, 0, &mut Vec::new());
        let mut released = Vec::new();
        t.release_all_into(&mut released);
        assert!(t.begin_multilease(&mut vec![B, C], 50));
        assert_eq!(released, vec![A]);
        assert_eq!(t.lines(), vec![B, C]);
    }

    #[test]
    #[should_panic(expected = "MultiLease admitted over held leases")]
    fn multilease_over_held_leases_panics() {
        let mut t = table(4);
        t.begin_lease(A, 10);
        t.begin_multilease(&mut vec![B, C], 50);
    }

    #[test]
    fn multilease_over_capacity_rejected() {
        let mut t = table(2);
        let mut released = Vec::new();
        t.release_all_into(&mut released);
        assert!(!t.begin_multilease(&mut vec![A, B, C], 50));
        assert!(released.is_empty());
        assert!(t.is_empty());
    }

    #[test]
    fn group_release_cancels_all_members() {
        let mut t = table(4);
        t.begin_multilease(&mut vec![A, B], 50);
        t.on_exclusive_granted_into(A, 0, &mut Vec::new());
        t.on_exclusive_granted_into(B, 10, &mut Vec::new());
        let mut released = Vec::new();
        assert!(t.release_into(B, &mut released));
        released.sort_unstable();
        assert_eq!(released, vec![A, B]);
        assert!(t.is_empty());
    }

    #[test]
    fn group_expiry_cancels_all_members() {
        let mut t = table(4);
        t.begin_multilease(&mut vec![A, B], 50);
        let mut armed = Vec::new();
        t.on_exclusive_granted_into(A, 0, &mut armed);
        t.on_exclusive_granted_into(B, 10, &mut armed);
        let gen_a = armed.iter().find(|c| c.line == A).unwrap().generation;
        let mut released = Vec::new();
        t.on_expiry_into(A, gen_a, &mut released);
        released.sort_unstable();
        assert_eq!(released, vec![A, B]);
        // The sibling expiry event is now stale.
        let gen_b = armed.iter().find(|c| c.line == B).unwrap().generation;
        t.on_expiry_into(B, gen_b, &mut released);
        assert!(released.is_empty());
    }

    #[test]
    fn unstarted_group_lines_count_as_leased() {
        // Proposition 3 relies on lines acquired mid-MultiLease delaying
        // incoming probes even before the joint counters start.
        let mut t = table(4);
        t.begin_multilease(&mut vec![A, B], 50);
        t.on_exclusive_granted_into(A, 0, &mut Vec::new());
        assert!(t.is_leased(A, 1_000_000), "no expiry before joint start");
    }

    #[test]
    fn grant_for_displaced_lease_is_ignored() {
        let mut t = table(1);
        t.begin_lease(A, 10);
        // A is displaced before its ownership arrives.
        assert_eq!(t.displaced_by(B), Some(A));
        assert!(t.release_into(A, &mut Vec::new()));
        t.begin_lease(B, 10);
        let mut armed = Vec::new();
        t.on_exclusive_granted_into(A, 5, &mut armed);
        assert!(armed.is_empty());
        assert!(!t.is_leased(A, 5));
    }

    #[test]
    #[should_panic(expected = "single leases may not be taken")]
    fn single_lease_during_multilease_panics() {
        let mut t = table(4);
        t.begin_multilease(&mut vec![A, B], 50);
        t.begin_lease(C, 10);
    }

    #[test]
    fn lines_reports_fifo_order() {
        let mut t = table(4);
        t.begin_lease(B, 10);
        t.begin_lease(A, 10);
        t.begin_lease(C, 10);
        assert_eq!(t.lines(), vec![B, A, C]);
    }
}
