//! Set-associative cache state with true LRU replacement.
//!
//! This module models cache *contents* (hit/miss behavior, dirty state,
//! evictions); timing (latencies, bus occupancy) is composed on top by
//! [`crate::memory`].

use crate::config::CacheParams;

/// Outcome of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the block was present.
    pub hit: bool,
    /// Block address of a dirty line evicted to make room (write-back
    /// traffic the caller must account for).
    pub writeback: Option<u64>,
}

/// Top bit of [`Line::meta`]: the line holds data not yet written back.
const DIRTY: u64 = 1 << 63;

/// One way of a set, in 16 bytes.
#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: u64,
    /// Monotonic last-use stamp for LRU, with [`DIRTY`] folded into the
    /// top bit. Stamps start at 1, so 0 marks an invalid way. Folding the
    /// flags into the stamp rather than the tag keeps every tag exact,
    /// whatever the block size.
    meta: u64,
}

impl Line {
    fn holds(&self, tag: u64) -> bool {
        self.meta != 0 && self.tag == tag
    }
}

/// A set-associative cache with true-LRU replacement.
#[derive(Debug, Clone)]
pub struct Cache {
    lines: Vec<Line>,
    sets: u64,
    ways: usize,
    block_shift: u32,
    stamp: u64,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Builds an empty cache from parameters.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid; validate via
    /// [`CacheParams::geometry`] first (the simulator's config derivation
    /// does this).
    pub fn new(params: CacheParams) -> Self {
        let geometry = params.geometry().expect("validated geometry");
        let sets = geometry.sets();
        let ways = params.associativity as usize;
        Self {
            lines: vec![Line::default(); (sets as usize) * ways],
            sets,
            ways,
            block_shift: params.block_bytes.trailing_zeros(),
            stamp: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Block address (address with offset bits cleared) of `addr`.
    #[inline]
    pub fn block_of(&self, addr: u64) -> u64 {
        addr >> self.block_shift << self.block_shift
    }

    /// Line size in bytes.
    #[inline]
    pub fn block_bytes(&self) -> u64 {
        1 << self.block_shift
    }

    #[inline]
    fn set_of(&self, addr: u64) -> u64 {
        (addr >> self.block_shift) % self.sets
    }

    #[inline]
    fn tag_of(&self, addr: u64) -> u64 {
        addr >> self.block_shift
    }

    /// Looks up `addr` without modifying replacement or content state.
    pub fn probe(&self, addr: u64) -> bool {
        let set = self.set_of(addr) as usize;
        let tag = self.tag_of(addr);
        self.lines[set * self.ways..(set + 1) * self.ways]
            .iter()
            .any(|l| l.holds(tag))
    }

    /// Accesses `addr`. On a miss with `allocate`, fills the block (evicting
    /// LRU). `write` marks the line dirty when it ends up present.
    pub fn access(&mut self, addr: u64, write: bool, allocate: bool) -> AccessOutcome {
        self.stamp += 1;
        debug_assert!(self.stamp < DIRTY, "LRU stamp overflow");
        let dirty = if write { DIRTY } else { 0 };
        let set = self.set_of(addr) as usize;
        let tag = self.tag_of(addr);
        let base = set * self.ways;
        let set_lines = &mut self.lines[base..base + self.ways];

        if let Some(line) = set_lines.iter_mut().find(|l| l.holds(tag)) {
            line.meta = self.stamp | (line.meta & DIRTY) | dirty;
            self.hits += 1;
            return AccessOutcome {
                hit: true,
                writeback: None,
            };
        }
        self.misses += 1;
        if !allocate {
            return AccessOutcome {
                hit: false,
                writeback: None,
            };
        }
        // Victim: an invalid way (stamp 0) if any, else true LRU.
        let victim = set_lines
            .iter()
            .enumerate()
            .min_by_key(|(_, l)| l.meta & !DIRTY)
            .map(|(i, _)| i)
            .expect("nonzero ways");
        let line = &mut set_lines[victim];
        let writeback = if line.meta & DIRTY != 0 {
            Some(line.tag << self.block_shift)
        } else {
            None
        };
        *line = Line {
            tag,
            meta: self.stamp | dirty,
        };
        AccessOutcome {
            hit: false,
            writeback,
        }
    }

    /// Fills `addr`'s block without touching the hit/miss counters —
    /// prefetch fills are not demand accesses. Returns a dirty victim's
    /// block address, as [`Cache::access`] does.
    pub fn fill(&mut self, addr: u64) -> Option<u64> {
        let hits = self.hits;
        let misses = self.misses;
        let outcome = self.access(addr, false, true);
        self.hits = hits;
        self.misses = misses;
        outcome.writeback
    }

    /// Invalidates `addr` if present, returning whether it was dirty.
    pub fn invalidate(&mut self, addr: u64) -> bool {
        let set = self.set_of(addr) as usize;
        let tag = self.tag_of(addr);
        let base = set * self.ways;
        for line in &mut self.lines[base..base + self.ways] {
            if line.holds(tag) {
                let dirty = line.meta & DIRTY != 0;
                line.meta = 0;
                return dirty;
            }
        }
        false
    }

    /// Hits recorded so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses recorded so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CacheParams, WritePolicy};

    fn tiny(ways: u32) -> Cache {
        // 4 sets x `ways` x 32B blocks.
        Cache::new(CacheParams {
            capacity_bytes: 4 * ways as u64 * 32,
            associativity: ways,
            block_bytes: 32,
            write_policy: WritePolicy::WriteBack,
        })
    }

    #[test]
    fn miss_then_hit_after_fill() {
        let mut c = tiny(2);
        assert!(!c.access(0x1000, false, true).hit);
        assert!(c.access(0x1000, false, true).hit);
        assert!(c.access(0x101f, false, true).hit, "same 32B block");
        assert!(!c.access(0x1020, false, true).hit, "next block");
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny(2);
        // Three conflicting blocks in set 0 (set stride = 4 sets * 32B = 128B).
        let (a, b, d) = (0x0000, 0x0080, 0x0100);
        c.access(a, false, true);
        c.access(b, false, true);
        c.access(a, false, true); // a most recent
        c.access(d, false, true); // evicts b
        assert!(c.probe(a));
        assert!(!c.probe(b));
        assert!(c.probe(d));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = tiny(1);
        c.access(0x0000, true, true); // dirty fill
        let out = c.access(0x0080, false, true); // conflicts, evicts dirty
        assert_eq!(out.writeback, Some(0x0000));
        // Clean eviction reports none.
        let out = c.access(0x0100, false, true);
        assert_eq!(out.writeback, None);
    }

    #[test]
    fn no_allocate_leaves_cache_unchanged() {
        let mut c = tiny(2);
        let out = c.access(0x2000, true, false);
        assert!(!out.hit);
        assert!(!c.probe(0x2000));
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = tiny(1);
        c.access(0x0000, false, true); // clean fill
        c.access(0x0008, true, true); // write hit -> dirty
        let out = c.access(0x0080, false, true);
        assert_eq!(out.writeback, Some(0x0000));
    }

    #[test]
    fn invalidate_removes_and_reports_dirty() {
        let mut c = tiny(2);
        c.access(0x0000, true, true);
        assert!(c.invalidate(0x0000));
        assert!(!c.probe(0x0000));
        assert!(!c.invalidate(0x0000), "already gone");
    }

    #[test]
    fn probe_does_not_touch_lru() {
        let mut c = tiny(2);
        let (a, b, d) = (0x0000, 0x0080, 0x0100);
        c.access(a, false, true);
        c.access(b, false, true);
        // Probing `a` must not refresh it: next fill still evicts `a`.
        assert!(c.probe(a));
        c.access(d, false, true);
        assert!(!c.probe(a));
        assert!(c.probe(b));
    }

    #[test]
    fn lines_are_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Line>(), 16);
    }

    #[test]
    fn block_of_masks_offset() {
        let c = tiny(2);
        assert_eq!(c.block_of(0x1234), 0x1220);
    }
}
