//! LRU buffer cache with I/O accounting.
//!
//! Every page touch in the engine goes through this cache. A touch is a
//! *logical read*; if the page is not resident it also costs a *physical
//! read*. Writes dirty the resident page; evicting or flushing a dirty page
//! costs a *physical write*. These counters let the experiment harness
//! report the paper's I/O-reduction claims (e.g. §3.2.1: "Reduced I/O
//! because of no temporary result table") as numbers rather than prose.
//!
//! The cache stores no page bytes — row data lives in the segment
//! structures — it is purely the residency/accounting model, which is all
//! the reproduction's experiments need.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use parking_lot::Mutex;

use crate::page::SegmentId;

/// A page address: segment plus page number.
pub type PageAddr = (SegmentId, u32);

/// Snapshot of cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Page touches (every read or write access).
    pub logical_reads: u64,
    /// Touches that missed the cache and had to "go to disk".
    pub physical_reads: u64,
    /// Dirty pages written back (on eviction or flush).
    pub physical_writes: u64,
}

impl CacheStats {
    /// Difference between two snapshots (`self` later, `earlier` first).
    ///
    /// Saturating: if `reset_stats` landed between the two snapshots the
    /// later counters can be *smaller* than the earlier ones, and a plain
    /// subtraction would panic in debug builds (and wrap to garbage in
    /// release). A clamped-to-zero delta is the only sensible answer.
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            logical_reads: self.logical_reads.saturating_sub(earlier.logical_reads),
            physical_reads: self.physical_reads.saturating_sub(earlier.physical_reads),
            physical_writes: self.physical_writes.saturating_sub(earlier.physical_writes),
        }
    }
}

/// A multiply-rotate hash for page addresses: two integer words, so the
/// default SipHash's DoS resistance buys nothing and costs most of a
/// probe.
#[derive(Default)]
struct PageHasher(u64);

impl PageHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for PageHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.add(b as u64));
    }

    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// End of the LRU list.
const NIL: u32 = u32::MAX;

/// One resident page: a node of the LRU list, linked by frame index.
#[derive(Clone, Copy)]
struct Frame {
    addr: PageAddr,
    dirty: bool,
    /// The next less recently used frame.
    older: u32,
    /// The next more recently used frame.
    newer: u32,
}

struct CacheInner {
    /// Resident pages: address → frame.
    resident: HashMap<PageAddr, u32, BuildHasherDefault<PageHasher>>,
    /// Every frame ever allocated; at most `capacity` of them, so a full
    /// cache evicts into the victim's frame.
    frames: Vec<Frame>,
    /// Frames a discard emptied.
    free: Vec<u32>,
    /// Least and most recently used resident frames (`NIL` when empty).
    lru: u32,
    mru: u32,
    capacity: usize,
    stats: CacheStats,
}

impl CacheInner {
    /// Take frame `f` out of the LRU list.
    fn unlink(&mut self, f: u32) {
        let Frame { older, newer, .. } = self.frames[f as usize];
        match older {
            NIL => self.lru = newer,
            o => self.frames[o as usize].newer = newer,
        }
        match newer {
            NIL => self.mru = older,
            n => self.frames[n as usize].older = older,
        }
    }

    /// Put unlinked frame `f` at the most recently used end.
    fn push_mru(&mut self, f: u32) {
        self.frames[f as usize].older = self.mru;
        self.frames[f as usize].newer = NIL;
        match self.mru {
            NIL => self.lru = f,
            m => self.frames[m as usize].newer = f,
        }
        self.mru = f;
    }

    /// Drop every resident page, keeping the counters.
    fn clear(&mut self) {
        self.resident.clear();
        self.frames.clear();
        self.free.clear();
        self.lru = NIL;
        self.mru = NIL;
    }
}

/// The buffer cache. Interior-mutable so that read paths can take `&self`.
///
/// Exact LRU at O(1) a touch: one hash probe finds the page's frame, and
/// the frames form a doubly linked list in recency order, so a hit is a
/// splice to the most recently used end and a miss on a full cache evicts
/// the least recently used frame and reuses it.
pub struct BufferCache {
    inner: Mutex<CacheInner>,
}

impl BufferCache {
    /// Create a cache holding at most `capacity` pages.
    pub fn new(capacity: usize) -> Self {
        BufferCache {
            inner: Mutex::new(CacheInner {
                resident: HashMap::default(),
                frames: Vec::new(),
                free: Vec::new(),
                lru: NIL,
                mru: NIL,
                capacity: capacity.max(1),
                stats: CacheStats::default(),
            }),
        }
    }

    /// Touch a page for reading.
    pub fn read(&self, addr: PageAddr) {
        self.touch(addr, false);
    }

    /// Touch a page for writing (marks it dirty).
    pub fn write(&self, addr: PageAddr) {
        self.touch(addr, true);
    }

    fn touch(&self, addr: PageAddr, dirty: bool) {
        let g = &mut *self.inner.lock();
        g.stats.logical_reads += 1;
        if let Some(&f) = g.resident.get(&addr) {
            g.frames[f as usize].dirty |= dirty;
            if g.mru != f {
                g.unlink(f);
                g.push_mru(f);
            }
            return;
        }
        g.stats.physical_reads += 1;
        let frame = Frame { addr, dirty, older: NIL, newer: NIL };
        let f = if g.resident.len() >= g.capacity {
            // Evict the least recently used page into its own frame.
            let victim = g.lru;
            g.unlink(victim);
            let old = std::mem::replace(&mut g.frames[victim as usize], frame);
            g.resident.remove(&old.addr);
            if old.dirty {
                g.stats.physical_writes += 1;
            }
            victim
        } else if let Some(f) = g.free.pop() {
            g.frames[f as usize] = frame;
            f
        } else {
            g.frames.push(frame);
            (g.frames.len() - 1) as u32
        };
        g.resident.insert(addr, f);
        g.push_mru(f);
    }

    /// Drop all pages of a segment (table drop/truncate). Dirty pages of a
    /// dropped segment are discarded without a write, like Oracle
    /// invalidating buffers on TRUNCATE.
    pub fn discard_segment(&self, seg: SegmentId) {
        let g = &mut *self.inner.lock();
        let mut f = g.lru;
        while f != NIL {
            let Frame { addr, newer, .. } = g.frames[f as usize];
            if addr.0 == seg {
                g.unlink(f);
                g.resident.remove(&addr);
                g.free.push(f);
            }
            f = newer;
        }
    }

    /// Write back every dirty page (checkpoint).
    pub fn flush_all(&self) {
        let g = &mut *self.inner.lock();
        let mut writes = 0;
        for &f in g.resident.values() {
            let frame = &mut g.frames[f as usize];
            writes += u64::from(std::mem::take(&mut frame.dirty));
        }
        g.stats.physical_writes += writes;
    }

    /// Empty the cache entirely (cold-start simulation). Dirty pages are
    /// written back first.
    pub fn invalidate_all(&self) {
        self.flush_all();
        self.inner.lock().clear();
    }

    /// Current counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.inner.lock().stats
    }

    /// Zero all counters (residency is kept).
    pub fn reset_stats(&self) {
        self.inner.lock().stats = CacheStats::default();
    }

    /// Number of resident pages.
    pub fn resident_pages(&self) -> usize {
        self.inner.lock().resident.len()
    }

    /// Configured capacity in pages.
    pub fn capacity(&self) -> usize {
        self.inner.lock().capacity
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use proptest::prelude::*;

    use super::*;

    const SEG: SegmentId = SegmentId(1);

    /// The reference LRU: every resident page carries the stamp of its
    /// last touch, and a stamp-ordered map finds the oldest. Slow, and
    /// exact by construction.
    #[derive(Default)]
    struct StampLru {
        resident: HashMap<PageAddr, (u64, bool)>,
        lru: BTreeMap<u64, PageAddr>,
        next_stamp: u64,
        capacity: usize,
        stats: CacheStats,
    }

    impl StampLru {
        fn new(capacity: usize) -> Self {
            StampLru { capacity: capacity.max(1), ..StampLru::default() }
        }

        fn touch(&mut self, addr: PageAddr, dirty: bool) {
            self.stats.logical_reads += 1;
            let stamp = self.next_stamp;
            self.next_stamp += 1;
            match self.resident.get_mut(&addr) {
                Some((old_stamp, was_dirty)) => {
                    self.lru.remove(old_stamp);
                    *old_stamp = stamp;
                    *was_dirty |= dirty;
                    self.lru.insert(stamp, addr);
                }
                None => {
                    self.stats.physical_reads += 1;
                    self.resident.insert(addr, (stamp, dirty));
                    self.lru.insert(stamp, addr);
                    if self.resident.len() > self.capacity {
                        let (_, victim) = self.lru.pop_first().expect("over capacity");
                        if self.resident.remove(&victim).is_some_and(|(_, d)| d) {
                            self.stats.physical_writes += 1;
                        }
                    }
                }
            }
        }

        fn discard_segment(&mut self, seg: SegmentId) {
            let lru = &mut self.lru;
            self.resident.retain(|addr, (stamp, _)| {
                addr.0 != seg || {
                    lru.remove(stamp);
                    false
                }
            });
        }

        fn flush_all(&mut self) {
            for (_, dirty) in self.resident.values_mut() {
                self.stats.physical_writes += u64::from(std::mem::take(dirty));
            }
        }

        fn invalidate_all(&mut self) {
            self.flush_all();
            self.resident.clear();
            self.lru.clear();
        }
    }

    #[derive(Debug, Clone)]
    enum CacheOp {
        Read(u32, u32),
        Write(u32, u32),
        DiscardSegment(u32),
        FlushAll,
        InvalidateAll,
        ResetStats,
    }

    /// Touches over three segments of twelve pages each, so capacities 1–8
    /// both hit and evict; the whole-cache operations come rarely.
    fn arb_cache_ops() -> impl Strategy<Value = Vec<CacheOp>> {
        prop::collection::vec(
            prop_oneof![
                (0u32..3, 0u32..12).prop_map(|(s, p)| CacheOp::Read(s, p)),
                (0u32..3, 0u32..12).prop_map(|(s, p)| CacheOp::Read(s, p)),
                (0u32..3, 0u32..12).prop_map(|(s, p)| CacheOp::Write(s, p)),
                (0u32..3, 0u32..12).prop_map(|(s, p)| CacheOp::Write(s, p)),
                (0u32..3).prop_map(CacheOp::DiscardSegment),
                Just(CacheOp::FlushAll),
                Just(CacheOp::InvalidateAll),
                Just(CacheOp::ResetStats),
            ],
            0..200,
        )
    }

    proptest! {
        /// The list LRU is the stamp-map LRU: after every step of a random
        /// stream the counters and the resident count agree, at every
        /// capacity from one page to eight.
        #[test]
        fn list_lru_matches_the_stamp_model(capacity in 1usize..9, ops in arb_cache_ops()) {
            let cache = BufferCache::new(capacity);
            let mut model = StampLru::new(capacity);
            for op in ops {
                match op {
                    CacheOp::Read(s, p) => {
                        cache.read((SegmentId(s), p));
                        model.touch((SegmentId(s), p), false);
                    }
                    CacheOp::Write(s, p) => {
                        cache.write((SegmentId(s), p));
                        model.touch((SegmentId(s), p), true);
                    }
                    CacheOp::DiscardSegment(s) => {
                        cache.discard_segment(SegmentId(s));
                        model.discard_segment(SegmentId(s));
                    }
                    CacheOp::FlushAll => {
                        cache.flush_all();
                        model.flush_all();
                    }
                    CacheOp::InvalidateAll => {
                        cache.invalidate_all();
                        model.invalidate_all();
                    }
                    CacheOp::ResetStats => {
                        cache.reset_stats();
                        model.stats = CacheStats::default();
                    }
                }
                prop_assert_eq!(cache.stats(), model.stats);
                prop_assert_eq!(cache.resident_pages(), model.resident.len());
            }
        }
    }

    #[test]
    fn hit_and_miss_accounting() {
        let c = BufferCache::new(8);
        c.read((SEG, 0));
        c.read((SEG, 0));
        c.read((SEG, 1));
        let s = c.stats();
        assert_eq!(s.logical_reads, 3);
        assert_eq!(s.physical_reads, 2);
        assert_eq!(s.physical_writes, 0);
    }

    #[test]
    fn lru_eviction_writes_dirty_page() {
        let c = BufferCache::new(2);
        c.write((SEG, 0)); // dirty
        c.read((SEG, 1));
        c.read((SEG, 2)); // evicts page 0 (LRU) → physical write
        let s = c.stats();
        assert_eq!(s.physical_writes, 1);
        assert_eq!(c.resident_pages(), 2);
    }

    #[test]
    fn touch_refreshes_lru_position() {
        let c = BufferCache::new(2);
        c.read((SEG, 0));
        c.read((SEG, 1));
        c.read((SEG, 0)); // page 0 now MRU
        c.read((SEG, 2)); // evicts page 1, not page 0
        c.read((SEG, 0)); // should still be a hit
        let s = c.stats();
        assert_eq!(s.physical_reads, 3); // pages 0, 1, 2 each faulted once
    }

    #[test]
    fn discard_segment_drops_without_write() {
        let c = BufferCache::new(8);
        c.write((SEG, 0));
        c.discard_segment(SEG);
        assert_eq!(c.resident_pages(), 0);
        assert_eq!(c.stats().physical_writes, 0);
    }

    #[test]
    fn flush_all_writes_each_dirty_page_once() {
        let c = BufferCache::new(8);
        c.write((SEG, 0));
        c.write((SEG, 0));
        c.write((SEG, 1));
        c.flush_all();
        assert_eq!(c.stats().physical_writes, 2);
        c.flush_all();
        assert_eq!(c.stats().physical_writes, 2);
    }

    #[test]
    fn invalidate_all_cold_starts() {
        let c = BufferCache::new(8);
        c.read((SEG, 0));
        c.invalidate_all();
        c.reset_stats();
        c.read((SEG, 0));
        assert_eq!(c.stats().physical_reads, 1);
    }

    #[test]
    fn stats_since_survives_reset_between_snapshots() {
        // Regression: `reset_stats` between two snapshots used to make
        // `since` underflow (debug panic / release wraparound). It must
        // saturate to zero instead.
        let c = BufferCache::new(8);
        c.read((SEG, 0));
        c.read((SEG, 1));
        let before = c.stats();
        c.reset_stats();
        c.read((SEG, 0));
        let delta = c.stats().since(&before);
        assert_eq!(delta.logical_reads, 0);
        assert_eq!(delta.physical_reads, 0);
        assert_eq!(delta.physical_writes, 0);
    }

    #[test]
    fn stats_since() {
        let c = BufferCache::new(8);
        c.read((SEG, 0));
        let before = c.stats();
        c.read((SEG, 0));
        c.read((SEG, 1));
        let delta = c.stats().since(&before);
        assert_eq!(delta.logical_reads, 2);
        assert_eq!(delta.physical_reads, 1);
    }
}
