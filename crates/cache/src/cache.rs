//! A single set-associative cache.

use crate::config::{CacheConfig, WritePolicy};
use crate::replacement::ReplacementState;
use crate::stats::CacheStats;

/// Sentinel tag meaning "way is empty".
const EMPTY: u64 = u64::MAX;

/// Hints the host CPU to pull the cache line holding `p` into its own
/// cache. A pure performance hint: no simulated state is read or
/// written, so callers stay byte-identical with and without it.
#[inline]
pub(crate) fn host_prefetch<T>(p: &T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `prefetch` never dereferences architecturally; any
    // address is allowed, and `p` is a valid reference besides.
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(
            std::ptr::from_ref(p).cast::<i8>(),
        );
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

const FLAG_DIRTY: u8 = 1 << 0;
/// The owning core may write this line silently (MESI E or M).
const FLAG_WRITABLE: u8 = 1 << 1;
/// The line was brought in by a prefetch and has not been used yet.
const FLAG_PREFETCHED: u8 = 1 << 2;

/// A line evicted to make room for a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EvictedLine {
    /// The evicted line number.
    pub line: u64,
    /// Whether the line was dirty (requires a writeback transaction).
    pub dirty: bool,
}

/// Result of a demand access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The line was present.
    Hit {
        /// True when a *write* hit a line the core did not have write
        /// permission for (MESI S state). The caller must broadcast an
        /// upgrade (read-for-ownership) on the bus. Always false for reads.
        upgrade: bool,
    },
    /// The line was absent.
    Miss {
        /// The victim evicted to make room, if the set was full and the
        /// write policy allocates. `None` for cold fills into empty ways
        /// and for non-allocating write misses.
        evicted: Option<EvictedLine>,
    },
}

impl AccessOutcome {
    /// Whether the access hit.
    pub const fn is_hit(&self) -> bool {
        matches!(self, AccessOutcome::Hit { .. })
    }
}

/// One set-associative cache with configurable geometry and policies.
///
/// The cache operates on *line numbers* (`address / line_size`); address
/// to line conversion happens at the hierarchy layer so that a single
/// cache is agnostic to the line size it is indexed with.
///
/// # Example
///
/// ```
/// use cmpsim_cache::{CacheConfig, SetAssocCache, AccessOutcome};
/// let mut c = SetAssocCache::new(CacheConfig::lru(4096, 64, 2)?);
/// assert!(!c.access(7, false).is_hit());
/// assert!(c.access(7, false).is_hit());
/// # Ok::<(), cmpsim_cache::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    cfg: CacheConfig,
    ways: usize,
    /// `num_sets - 1`, cached so the per-access set index is a single
    /// AND instead of re-deriving the set count (two integer divisions)
    /// from the geometry on every lookup.
    set_mask: u64,
    tags: Vec<u64>,
    flags: Vec<u8>,
    repl: ReplacementState,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Builds an empty cache for `cfg`. Allocates tag and metadata arrays
    /// eagerly: a 256 MB, 64 B-line LRU cache allocates ~68 MB of host
    /// memory (8 B tag + 1 B flags + 8 B replacement timestamp per way).
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.num_sets() as usize;
        let ways = cfg.associativity() as usize;
        SetAssocCache {
            cfg,
            ways,
            set_mask: cfg.num_sets() - 1,
            tags: vec![EMPTY; sets * ways],
            flags: vec![0; sets * ways],
            repl: ReplacementState::new(cfg.replacement(), sets, ways, 0xD5A6_0000 ^ sets as u64),
            stats: CacheStats::default(),
        }
    }

    /// The configuration this cache was built with.
    pub const fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Counters accumulated so far.
    pub const fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets all counters (contents are preserved). Used to discard
    /// cache-warmup transients before a measurement interval.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    #[inline]
    fn slot(&self, set: usize, way: usize) -> usize {
        set * self.ways + way
    }

    #[inline]
    fn find(&self, set: usize, line: u64) -> Option<usize> {
        let base = set * self.ways;
        self.tags[base..base + self.ways]
            .iter()
            .position(|&t| t == line)
    }

    /// Hints the host CPU to pull `line`'s set metadata (tags, flags,
    /// replacement state) into its own cache ahead of a future
    /// [`access`](Self::access). The simulated caches are far larger
    /// than the host's, so a demand access to a random set otherwise
    /// stalls on host DRAM; replay loops issue this a few transactions
    /// ahead to hide that latency. Touches no simulated state — results
    /// are byte-identical with or without priming.
    #[inline]
    pub fn prime_host_cache(&self, line: u64) {
        let set = (line & self.set_mask) as usize;
        let base = set * self.ways;
        host_prefetch(&self.tags[base]);
        if self.ways > 8 {
            // Tags are 8 bytes; sets wider than 8 ways span a second
            // 64-byte host line.
            host_prefetch(&self.tags[base + 8]);
        }
        host_prefetch(&self.flags[base]);
        self.repl.prime_host_cache(set, self.ways);
    }

    /// Performs a demand access (read if `write` is false, write
    /// otherwise), allocating on miss according to the write policy.
    pub fn access(&mut self, line: u64, write: bool) -> AccessOutcome {
        self.access_filling(line, write, 0)
    }

    /// Like [`access`](Self::access), but a clean (read) fill is
    /// installed writable (MESI E): for a cache whose lines no other
    /// cache can hold, so a later write hit needs no upgrade.
    pub(crate) fn access_exclusive(&mut self, line: u64, write: bool) -> AccessOutcome {
        self.access_filling(line, write, FLAG_WRITABLE)
    }

    /// The demand access behind both entry points; `clean_fill` is the
    /// flag set a read fill is installed with.
    #[inline(always)]
    fn access_filling(&mut self, line: u64, write: bool, clean_fill: u8) -> AccessOutcome {
        let set = (line & self.set_mask) as usize;
        self.stats.accesses += 1;
        if write {
            self.stats.write_accesses += 1;
        }
        if let Some(way) = self.find(set, line) {
            self.stats.hits += 1;
            let slot = self.slot(set, way);
            if self.flags[slot] & FLAG_PREFETCHED != 0 {
                self.flags[slot] &= !FLAG_PREFETCHED;
                self.stats.prefetch_used += 1;
            }
            self.repl.touch(set, self.ways, way);
            let mut upgrade = false;
            if write {
                match self.cfg.write_policy() {
                    WritePolicy::WritebackAllocate => {
                        if self.flags[slot] & FLAG_WRITABLE == 0 {
                            upgrade = true;
                            self.flags[slot] |= FLAG_WRITABLE;
                            self.stats.upgrades += 1;
                        }
                        self.flags[slot] |= FLAG_DIRTY;
                    }
                    WritePolicy::WritethroughNoAllocate => {
                        // Write-through: the store propagates; line stays
                        // clean.
                    }
                }
            }
            return AccessOutcome::Hit { upgrade };
        }

        // Miss path.
        self.stats.misses += 1;
        if write {
            self.stats.write_misses += 1;
        } else {
            self.stats.read_misses += 1;
        }
        let allocate = match self.cfg.write_policy() {
            WritePolicy::WritebackAllocate => true,
            WritePolicy::WritethroughNoAllocate => !write,
        };
        if !allocate {
            return AccessOutcome::Miss { evicted: None };
        }
        let flags = if write {
            // A write fill arrives via read-for-ownership: M state.
            FLAG_DIRTY | FLAG_WRITABLE
        } else {
            clean_fill
        };
        AccessOutcome::Miss {
            evicted: self.fill_line(set, line, flags),
        }
    }

    /// Inserts `line` with `flags` (choosing a victim if the set is full)
    /// and marks it MRU. Returns the evicted line, if any.
    fn fill_line(&mut self, set: usize, line: u64, flags: u8) -> Option<EvictedLine> {
        let (way, evicted) = match self.find(set, EMPTY) {
            Some(w) => (w, None),
            None => {
                let w = self.repl.victim(set, self.ways);
                let slot = self.slot(set, w);
                let dirty = self.flags[slot] & FLAG_DIRTY != 0;
                let victim = EvictedLine {
                    line: self.tags[slot],
                    dirty,
                };
                self.stats.evictions += 1;
                if dirty {
                    self.stats.writebacks += 1;
                }
                (w, Some(victim))
            }
        };
        let slot = self.slot(set, way);
        self.tags[slot] = line;
        self.flags[slot] = flags;
        self.repl.fill(set, self.ways, way);
        evicted
    }

    /// Fills `line` on behalf of a hardware prefetcher. Does nothing if
    /// the line is already present. Not counted as a demand access.
    pub fn prefetch_fill(&mut self, line: u64) -> Option<EvictedLine> {
        let set = (line & self.set_mask) as usize;
        if self.find(set, line).is_some() {
            return None;
        }
        self.stats.prefetch_fills += 1;
        self.fill_line(set, line, FLAG_PREFETCHED)
    }

    /// Absorbs a dirty victim evicted from an upper cache level: if the
    /// line is present it is marked dirty (and becomes MRU) and `true` is
    /// returned; otherwise `false`, and the caller must send the writeback
    /// further down (ultimately to the bus).
    pub fn receive_writeback(&mut self, line: u64) -> bool {
        let set = (line & self.set_mask) as usize;
        match self.find(set, line) {
            Some(way) => {
                let slot = self.slot(set, way);
                self.flags[slot] |= FLAG_DIRTY | FLAG_WRITABLE;
                self.repl.touch(set, self.ways, way);
                true
            }
            None => false,
        }
    }

    /// Whether `line` is present, without disturbing replacement state.
    pub fn contains(&self, line: u64) -> bool {
        let set = (line & self.set_mask) as usize;
        self.find(set, line).is_some()
    }

    /// Removes `line` if present (an inclusion back-invalidation),
    /// returning it.
    pub fn invalidate(&mut self, line: u64) -> Option<EvictedLine> {
        let set = (line & self.set_mask) as usize;
        let way = self.find(set, line)?;
        let slot = self.slot(set, way);
        let dirty = self.flags[slot] & FLAG_DIRTY != 0;
        self.tags[slot] = EMPTY;
        self.flags[slot] = 0;
        self.stats.invalidations += 1;
        Some(EvictedLine { line, dirty })
    }

    /// Number of valid lines currently resident.
    pub fn resident_lines(&self) -> u64 {
        self.tags.iter().filter(|&&t| t != EMPTY).count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheConfig;
    use crate::replacement::ReplacementPolicy;

    fn tiny(ways: u32) -> SetAssocCache {
        // 4 sets x `ways` ways x 64B lines.
        SetAssocCache::new(CacheConfig::lru(4 * u64::from(ways) * 64, 64, ways).unwrap())
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny(2);
        assert!(!c.access(5, false).is_hit());
        assert!(c.access(5, false).is_hit());
        assert_eq!(c.stats().accesses, 2);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn conflict_eviction_lru_order() {
        let mut c = tiny(2); // 4 sets; lines 0,4,8 map to set 0
        c.access(0, false);
        c.access(4, false);
        c.access(0, false); // 0 is now MRU, 4 is LRU
        let out = c.access(8, false); // evicts 4
        match out {
            AccessOutcome::Miss {
                evicted: Some(e), ..
            } => {
                assert_eq!(e.line, 4);
                assert!(!e.dirty);
            }
            other => panic!("expected eviction, got {other:?}"),
        }
        assert!(c.contains(0));
        assert!(c.contains(8));
        assert!(!c.contains(4));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = tiny(1); // direct mapped, 4 sets
        c.access(0, true);
        let out = c.access(4, false);
        match out {
            AccessOutcome::Miss {
                evicted: Some(e), ..
            } => {
                assert_eq!(e.line, 0);
                assert!(e.dirty);
            }
            other => panic!("expected dirty eviction, got {other:?}"),
        }
        assert_eq!(c.stats().writebacks, 1);
    }

    /// Evicts `line` from its set of a 4-set, 2-way cache by filling
    /// two other lines of that set, returning the victim.
    fn evict(c: &mut SetAssocCache, line: u64) -> EvictedLine {
        c.access(line + 4, false);
        match c.access(line + 8, false) {
            AccessOutcome::Miss {
                evicted: Some(e), ..
            } if e.line == line => e,
            other => panic!("expected {line} to be evicted, got {other:?}"),
        }
    }

    #[test]
    fn write_fill_is_writable_and_dirty() {
        let mut c = tiny(2);
        c.access(3, true);
        assert_eq!(c.access(3, true), AccessOutcome::Hit { upgrade: false });
        assert!(evict(&mut c, 3).dirty);
    }

    #[test]
    fn read_fill_needs_upgrade_to_write() {
        let mut c = tiny(2);
        c.access(3, false);
        match c.access(3, true) {
            AccessOutcome::Hit { upgrade } => assert!(upgrade),
            other => panic!("expected hit, got {other:?}"),
        }
        // Second write: silent.
        match c.access(3, true) {
            AccessOutcome::Hit { upgrade } => assert!(!upgrade),
            other => panic!("expected hit, got {other:?}"),
        }
        assert_eq!(c.stats().upgrades, 1);
        assert!(evict(&mut c, 3).dirty);
    }

    #[test]
    fn exclusive_clean_fill_writes_without_upgrade() {
        let mut c = tiny(2);
        c.access_exclusive(3, false);
        assert!(!evict(&mut c, 3).dirty);
        c.access_exclusive(3, false);
        assert_eq!(c.access(3, true), AccessOutcome::Hit { upgrade: false });
        assert_eq!(c.stats().upgrades, 0);
        assert!(evict(&mut c, 3).dirty);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = tiny(2);
        c.access(9, true);
        let ev = c.invalidate(9).unwrap();
        assert_eq!(ev.line, 9);
        assert!(ev.dirty);
        assert!(!c.contains(9));
        assert_eq!(c.invalidate(9), None);
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn capacity_never_exceeded() {
        let mut c = tiny(2); // 8 lines capacity
        for line in 0..100 {
            c.access(line, line % 3 == 0);
            assert!(c.resident_lines() <= 8);
        }
        assert_eq!(c.resident_lines(), 8);
    }

    #[test]
    fn writethrough_no_allocate_write_miss() {
        let cfg = CacheConfig::builder()
            .size_bytes(512)
            .line_bytes(64)
            .associativity(2)
            .write_policy(WritePolicy::WritethroughNoAllocate)
            .build()
            .unwrap();
        let mut c = SetAssocCache::new(cfg);
        match c.access(5, true) {
            AccessOutcome::Miss { evicted: None } => {}
            other => panic!("expected miss, got {other:?}"),
        }
        assert!(!c.contains(5));
        // Read miss still allocates.
        c.access(5, false);
        assert!(c.contains(5));
        // Write hit leaves the line clean.
        c.access(5, true);
        assert!(!evict(&mut c, 5).dirty);
    }

    #[test]
    fn prefetch_fill_and_use_accounting() {
        let mut c = tiny(2);
        assert!(c.prefetch_fill(7).is_none());
        assert!(c.contains(7));
        assert_eq!(c.stats().prefetch_fills, 1);
        assert_eq!(c.stats().prefetch_used, 0);
        assert!(c.access(7, false).is_hit());
        assert_eq!(c.stats().prefetch_used, 1);
        // Second hit does not double count.
        c.access(7, false);
        assert_eq!(c.stats().prefetch_used, 1);
    }

    #[test]
    fn prefetch_existing_line_is_noop() {
        let mut c = tiny(2);
        c.access(7, false);
        assert!(c.prefetch_fill(7).is_none());
        assert_eq!(c.stats().prefetch_fills, 0);
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut c = tiny(2);
        c.access(1, false);
        c.reset_stats();
        assert_eq!(c.stats().accesses, 0);
        assert!(c.contains(1));
    }

    #[test]
    fn stats_identity_hits_plus_misses() {
        let mut c = tiny(4);
        let mut rng = cmpsim_trace::Pcg32::seed(11);
        for _ in 0..10_000 {
            c.access(rng.below(64), rng.chance(0.3));
        }
        let s = c.stats();
        assert_eq!(s.hits + s.misses, s.accesses);
        assert_eq!(s.read_misses + s.write_misses, s.misses);
    }

    #[test]
    fn random_policy_runs() {
        let cfg = CacheConfig::builder()
            .size_bytes(1024)
            .line_bytes(64)
            .associativity(4)
            .replacement(ReplacementPolicy::Random)
            .build()
            .unwrap();
        let mut c = SetAssocCache::new(cfg);
        for line in 0..1000 {
            c.access(line % 37, false);
        }
        assert!(c.resident_lines() <= 16);
        assert!(c.stats().hits > 0);
    }

    #[test]
    fn lru_stack_property_small() {
        // With 4-way LRU and cyclic access to 4 lines in one set, all hits
        // after warmup; with 5 lines, all misses (classic LRU thrash).
        let cfg = CacheConfig::lru(4 * 64, 64, 4).unwrap(); // 1 set
        let mut c = SetAssocCache::new(cfg);
        for _ in 0..3 {
            for l in 0..4 {
                c.access(l, false);
            }
        }
        assert_eq!(c.stats().misses, 4); // only cold misses
        let mut c2 = SetAssocCache::new(CacheConfig::lru(4 * 64, 64, 4).unwrap());
        for _ in 0..3 {
            for l in 0..5 {
                c2.access(l, false);
            }
        }
        assert_eq!(c2.stats().hits, 0); // every access misses
    }
}
