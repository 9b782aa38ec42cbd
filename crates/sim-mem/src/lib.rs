//! # lr-sim-mem
//!
//! The simulated 64-bit address space backing the Lease/Release multicore
//! simulator.
//!
//! The simulator is *timing-first*: caches and the coherence protocol model
//! timing and permission state only, while the data itself lives in one
//! authoritative word store ([`SimMemory`]) and is read/written at the
//! simulated completion instant of each access. This module provides that
//! store plus a size-class allocator with cache-line-aligned allocation
//! (the paper's §7 notes that leased variables must be allocated
//! cache-aligned to avoid false sharing).
//!
//! ## Paged storage
//!
//! The word store is paged ([`PAGE_WORDS`] words per page) rather than one
//! flat `Vec`: absent pages read as zero. Pages hang off a fixed-shape
//! two-level radix of owned slots (root → chunk → page); a page is
//! allocated zeroed on its first write and freed with its memory. The
//! radix never reallocates.
//!
//! ## Snapshot/restore
//!
//! [`SimMemory::snapshot`] captures the heap contents *and* the exact
//! allocator state into a plain-data [`MemImage`] (the record/replay trace
//! format of `lr-sim-core`); [`SimMemory::restore`] reconstructs a memory
//! that behaves identically — including the addresses future `malloc`
//! calls return, because free-list stack order is preserved.

#![forbid(unsafe_code)]

mod alloc;

pub use alloc::Allocator;

use lr_sim_core::tracefmt::MemImage;
use lr_sim_core::{Addr, LINE_SIZE};

/// Base of the simulated heap. Address 0 stays unmapped so that `Addr(0)`
/// can serve as the null pointer.
pub const HEAP_BASE: u64 = 0x1000;

/// Size of one socket memory arena (and of the address region the
/// socket-aware directory home map hashes over): 1 GiB. Socket `s ≥ 1`
/// bump-allocates from byte `s * SOCKET_REGION_BYTES`; socket 0 owns
/// the flat heap in region 0.
pub const SOCKET_REGION_BYTES: u64 = 1 << 30;

/// Socket arenas must fit under the simulated heap ceiling (16 GiB).
const MAX_SOCKET_ARENAS: usize = 16;

/// Words per storage page (4 KiB pages).
pub const PAGE_WORDS: usize = 512;

/// Root radix fan-out (chunks).
const ROOT_SLOTS: usize = 4096;

/// Pages per chunk. `ROOT_SLOTS × CHUNK_PAGES × PAGE_WORDS` words =
/// 16 GiB of simulated heap, far above any workload here.
const CHUNK_PAGES: usize = 1024;

type Page = Box<[u64; PAGE_WORDS]>;

/// Middle radix level: page slots, installed on first touch.
struct Chunk {
    pages: [Option<Page>; CHUNK_PAGES],
}

impl Chunk {
    fn new() -> Box<Chunk> {
        Box::new(Chunk {
            pages: std::array::from_fn(|_| None),
        })
    }
}

/// A zeroed page, straight from the allocator.
fn zeroed_page() -> Page {
    vec![0u64; PAGE_WORDS]
        .into_boxed_slice()
        .try_into()
        .expect("page size mismatch")
}

/// Authoritative simulated memory: a paged, zero-initialized word store
/// plus the heap allocator. Cheap to construct: the radix root is one
/// 32 KiB table of empty slots, chunks and pages materialize on first
/// write.
pub struct SimMemory {
    root: Box<[Option<Box<Chunk>>]>,
    alloc: Allocator,
    /// Bump pointer of each socket arena (index = socket id; 0 unused —
    /// socket 0 is the flat heap). Lazily sized; 0 = arena untouched.
    socket_brk: Vec<u64>,
}

impl std::fmt::Debug for SimMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimMemory")
            .field("alloc", &self.alloc)
            .finish_non_exhaustive()
    }
}

impl Default for SimMemory {
    fn default() -> Self {
        Self::new()
    }
}

impl SimMemory {
    /// An empty memory with an empty heap.
    pub fn new() -> Self {
        SimMemory {
            root: std::iter::repeat_with(|| None).take(ROOT_SLOTS).collect(),
            alloc: Allocator::new(HEAP_BASE),
            socket_brk: Vec::new(),
        }
    }

    #[inline]
    fn word_index(addr: Addr) -> usize {
        assert!(
            addr.0 >= HEAP_BASE,
            "access below heap base: {addr} (null deref?)"
        );
        assert!(addr.0.is_multiple_of(8), "unaligned word access at {addr}");
        let i = ((addr.0 - HEAP_BASE) / 8) as usize;
        assert!(
            i < ROOT_SLOTS * CHUNK_PAGES * PAGE_WORDS,
            "access beyond the simulated heap ceiling: {addr}"
        );
        i
    }

    /// Resident page holding word index `i`, if any.
    #[inline]
    fn page(&self, i: usize) -> Option<&Page> {
        let pi = i / PAGE_WORDS;
        self.root[pi / CHUNK_PAGES].as_ref()?.pages[pi % CHUNK_PAGES].as_ref()
    }

    /// Resident page holding word index `i`, if any, for writing.
    #[inline]
    fn page_mut(&mut self, i: usize) -> Option<&mut Page> {
        let pi = i / PAGE_WORDS;
        self.root[pi / CHUNK_PAGES].as_mut()?.pages[pi % CHUNK_PAGES].as_mut()
    }

    /// Resident page holding word index `i`, faulting the chunk and a
    /// zeroed page in on first touch.
    fn ensure_page(&mut self, i: usize) -> &mut Page {
        let pi = i / PAGE_WORDS;
        let chunk = self.root[pi / CHUNK_PAGES].get_or_insert_with(Chunk::new);
        chunk.pages[pi % CHUNK_PAGES].get_or_insert_with(zeroed_page)
    }

    /// Read the 64-bit word at `addr` (8-byte aligned). Unwritten memory
    /// reads as zero.
    pub fn read_word(&self, addr: Addr) -> u64 {
        let i = Self::word_index(addr);
        self.page(i).map_or(0, |page| page[i % PAGE_WORDS])
    }

    /// Write the 64-bit word at `addr` (8-byte aligned).
    pub fn write_word(&mut self, addr: Addr, value: u64) {
        let i = Self::word_index(addr);
        self.ensure_page(i)[i % PAGE_WORDS] = value;
    }

    /// Zero `[start, start + words)`; only touches resident pages
    /// (absent pages already read as zero).
    fn zero_words(&mut self, start: usize, words: usize) {
        let mut i = start;
        let end = start + words;
        while i < end {
            let off = i % PAGE_WORDS;
            let run = (PAGE_WORDS - off).min(end - i);
            if let Some(page) = self.page_mut(i) {
                page[off..off + run].fill(0);
            }
            i += run;
        }
    }

    /// Allocate `size` bytes with the given power-of-two alignment
    /// (at least 8). Memory is zeroed.
    pub fn alloc(&mut self, size: u64, align: u64) -> Addr {
        let a = self.alloc.alloc(size, align);
        // Freshly allocated memory must read as zero even if the block is
        // being reused.
        self.zero_words(Self::word_index(a), size.div_ceil(8) as usize);
        a
    }

    /// Allocate a cache-line-aligned block (the false-sharing-safe way to
    /// allocate anything that will be leased).
    pub fn alloc_line_aligned(&mut self, size: u64) -> Addr {
        self.alloc(size, LINE_SIZE)
    }

    /// Allocate `size` bytes with the given power-of-two alignment from
    /// socket `socket`'s memory arena. Socket 0 is the flat heap (a
    /// plain [`SimMemory::alloc`]); higher sockets bump-allocate from
    /// the `socket`-th [`SOCKET_REGION_BYTES`] region, whose lines the
    /// socket-aware directory home map (`lr-coherence`) homes on that
    /// socket's L2 slices — this is how NUMA-aware structures place
    /// per-socket replicas next to their readers. Arena blocks are
    /// permanent: passing one to [`SimMemory::free`] panics.
    pub fn alloc_in_socket(&mut self, size: u64, align: u64, socket: usize) -> Addr {
        if socket == 0 {
            return self.alloc(size, align);
        }
        assert!(size > 0, "zero-sized allocation");
        assert!(
            align.is_power_of_two() && align >= 8,
            "bad alignment {align}"
        );
        assert!(
            socket < MAX_SOCKET_ARENAS,
            "socket {socket} arena beyond the simulated address space"
        );
        // Match the flat allocator's false-sharing discipline: blocks of
        // a line or more never share a cache line.
        let align = if size >= LINE_SIZE {
            align.max(LINE_SIZE)
        } else {
            align
        };
        let base = socket as u64 * SOCKET_REGION_BYTES;
        assert!(
            self.alloc.high_water() < SOCKET_REGION_BYTES - HEAP_BASE,
            "flat heap grew into the socket arenas"
        );
        if self.socket_brk.len() <= socket {
            self.socket_brk.resize(socket + 1, 0);
        }
        let brk = &mut self.socket_brk[socket];
        if *brk == 0 {
            *brk = base;
        }
        let a = brk.next_multiple_of(align);
        let end = a + size;
        assert!(
            end <= base + SOCKET_REGION_BYTES,
            "socket {socket} arena exhausted"
        );
        *brk = end;
        self.alloc.register_extern(Addr(a), size);
        // Arena addresses are never recycled, so the words are already
        // zero (unwritten memory reads as zero).
        Addr(a)
    }

    /// Return a block to the allocator.
    pub fn free(&mut self, addr: Addr) {
        assert!(
            addr.0 < SOCKET_REGION_BYTES,
            "socket-arena blocks are permanent: free({addr})"
        );
        self.alloc.free(addr);
    }

    /// Bytes currently live in the heap.
    pub fn live_bytes(&self) -> u64 {
        self.alloc.live_bytes()
    }

    /// Highest heap address ever used (bump pointer).
    pub fn high_water(&self) -> u64 {
        self.alloc.high_water()
    }

    /// Capture heap contents and allocator state as plain data (the
    /// record/replay [`MemImage`]). Deterministic: pages ascend by
    /// index with trailing zeros trimmed, allocator maps are emitted in
    /// sorted order with free-list stack order preserved.
    pub fn snapshot(&self) -> MemImage {
        let mut image = self.alloc.snapshot();
        for (ri, chunk) in self.root.iter().enumerate() {
            let Some(chunk) = chunk else { continue };
            for (ci, page) in chunk.pages.iter().enumerate() {
                let Some(page) = page else { continue };
                let used = page.len() - page.iter().rev().take_while(|&&w| w == 0).count();
                if used > 0 {
                    let idx = (ri * CHUNK_PAGES + ci) as u64;
                    image.pages.push((idx, page[..used].to_vec()));
                }
            }
        }
        image
    }

    /// Reconstruct a memory from a [`snapshot`](SimMemory::snapshot)
    /// image. The result is behaviorally identical to the snapshotted
    /// memory: same reads everywhere, same future allocation addresses.
    pub fn restore(image: &MemImage) -> Self {
        let mut mem = SimMemory::new();
        mem.alloc = Allocator::restore(HEAP_BASE, image);
        // Arena bump pointers are recovered from the live map: every
        // arena block is live forever, so each arena's high-water mark
        // is the end of its highest block.
        for &(addr, size) in &image.live {
            if addr >= SOCKET_REGION_BYTES {
                let s = (addr / SOCKET_REGION_BYTES) as usize;
                if mem.socket_brk.len() <= s {
                    mem.socket_brk.resize(s + 1, 0);
                }
                mem.socket_brk[s] = mem.socket_brk[s].max(addr + size);
            }
        }
        for (idx, words) in &image.pages {
            let page = mem.ensure_page(*idx as usize * PAGE_WORDS);
            page[..words.len()].copy_from_slice(words);
        }
        mem
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_memory_reads_zero() {
        let m = SimMemory::new();
        assert_eq!(m.read_word(Addr(HEAP_BASE)), 0);
        assert_eq!(m.read_word(Addr(HEAP_BASE + 8 * 1000)), 0);
    }

    #[test]
    fn write_then_read() {
        let mut m = SimMemory::new();
        let a = Addr(HEAP_BASE + 16);
        m.write_word(a, 0xdead_beef);
        assert_eq!(m.read_word(a), 0xdead_beef);
        assert_eq!(m.read_word(Addr(HEAP_BASE + 8)), 0);
    }

    #[test]
    fn writes_across_page_boundaries() {
        let mut m = SimMemory::new();
        let stride = (PAGE_WORDS as u64) * 8;
        for p in 0..5u64 {
            // Last word of page p and first word of page p+1.
            m.write_word(Addr(HEAP_BASE + (p + 1) * stride - 8), p + 1);
            m.write_word(Addr(HEAP_BASE + (p + 1) * stride), 100 + p);
        }
        for p in 0..5u64 {
            assert_eq!(m.read_word(Addr(HEAP_BASE + (p + 1) * stride - 8)), p + 1);
            assert_eq!(m.read_word(Addr(HEAP_BASE + (p + 1) * stride)), 100 + p);
        }
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn unaligned_access_panics() {
        let m = SimMemory::new();
        m.read_word(Addr(HEAP_BASE + 3));
    }

    #[test]
    #[should_panic(expected = "below heap base")]
    fn null_deref_panics() {
        let m = SimMemory::new();
        m.read_word(Addr::NULL);
    }

    #[test]
    fn alloc_zeroes_reused_memory() {
        let mut m = SimMemory::new();
        let a = m.alloc(64, 64);
        m.write_word(a, 77);
        m.free(a);
        let b = m.alloc(64, 64);
        // Size-class reuse should hand back the same block, now zeroed.
        assert_eq!(a, b);
        assert_eq!(m.read_word(b), 0);
    }

    #[test]
    fn line_aligned_allocations_do_not_share_lines() {
        let mut m = SimMemory::new();
        let a = m.alloc_line_aligned(8);
        let b = m.alloc_line_aligned(8);
        assert_ne!(a.line(), b.line());
        assert_eq!(a.line_offset(), 0);
        assert_eq!(b.line_offset(), 0);
    }

    #[test]
    fn snapshot_restore_preserves_contents_and_allocator() {
        let mut m = SimMemory::new();
        let a = m.alloc_line_aligned(64);
        let b = m.alloc(16, 8);
        let c = m.alloc(16, 8);
        m.write_word(a, 11);
        m.write_word(a.offset(56), 12);
        m.write_word(b, 13);
        m.free(c);
        m.free(b);
        let image = m.snapshot();

        let mut r = SimMemory::restore(&image);
        assert_eq!(r.read_word(a), 11);
        assert_eq!(r.read_word(a.offset(56)), 12);
        assert_eq!(r.read_word(b), 13);
        assert_eq!(r.live_bytes(), m.live_bytes());
        assert_eq!(r.high_water(), m.high_water());
        // Future allocations must come out in the same (LIFO) order.
        assert_eq!(r.alloc(16, 8), m.alloc(16, 8));
        assert_eq!(r.alloc(16, 8), m.alloc(16, 8));
        assert_eq!(r.alloc(8, 8), m.alloc(8, 8));
    }

    #[test]
    fn snapshot_is_deterministic_and_trims_zeros() {
        let mut m = SimMemory::new();
        m.write_word(Addr(HEAP_BASE), 5);
        m.write_word(Addr(HEAP_BASE + 8), 0); // explicit zero: trimmed
        let s1 = m.snapshot();
        let s2 = m.snapshot();
        assert_eq!(s1, s2);
        assert_eq!(s1.pages.len(), 1);
        assert_eq!(s1.pages[0].1, vec![5]);
    }

    #[test]
    fn socket_arenas_allocate_from_their_region() {
        let mut m = SimMemory::new();
        let flat = m.alloc_in_socket(64, 8, 0);
        assert!(flat.0 < SOCKET_REGION_BYTES, "socket 0 is the flat heap");
        let a = m.alloc_in_socket(64, 8, 1);
        let b = m.alloc_in_socket(24, 8, 1);
        let c = m.alloc_in_socket(64, 8, 3);
        assert_eq!(a.0, SOCKET_REGION_BYTES);
        assert!(b.0 >= a.0 + 64, "line-sized blocks never share a line");
        assert_eq!(c.0, 3 * SOCKET_REGION_BYTES);
        // Arena memory is zero, writable, and counted as live.
        assert_eq!(m.read_word(a), 0);
        m.write_word(a, 7);
        m.write_word(c, 9);
        assert_eq!(m.read_word(a), 7);
        assert!(m.live_bytes() >= 64 + 24 + 64);
    }

    #[test]
    fn socket_arenas_survive_snapshot_restore() {
        let mut m = SimMemory::new();
        let a = m.alloc_in_socket(64, 64, 2);
        m.write_word(a, 42);
        let image = m.snapshot();
        let mut r = SimMemory::restore(&image);
        assert_eq!(r.read_word(a), 42);
        assert_eq!(r.live_bytes(), m.live_bytes());
        // Future arena allocations continue where the original left off.
        assert_eq!(r.alloc_in_socket(32, 8, 2), m.alloc_in_socket(32, 8, 2));
        assert_eq!(r.alloc_in_socket(8, 8, 1), m.alloc_in_socket(8, 8, 1));
        assert_eq!(r.alloc(16, 8), m.alloc(16, 8));
    }

    #[test]
    #[should_panic(expected = "permanent")]
    fn freeing_an_arena_block_panics() {
        let mut m = SimMemory::new();
        let a = m.alloc_in_socket(64, 8, 1);
        m.free(a);
    }
}
