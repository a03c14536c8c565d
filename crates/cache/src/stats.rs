//! Cache counters and working-set measurement.

use std::collections::HashSet;
use std::fmt;

/// Counters maintained by every [`SetAssocCache`](crate::SetAssocCache).
///
/// All identities hold at all times:
/// `hits + misses == accesses`, `read_misses + write_misses == misses`,
/// `writebacks <= evictions`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand accesses (reads + writes).
    pub accesses: u64,
    /// Demand accesses that were writes.
    pub write_accesses: u64,
    /// Demand hits.
    pub hits: u64,
    /// Demand misses.
    pub misses: u64,
    /// Demand misses caused by reads.
    pub read_misses: u64,
    /// Demand misses caused by writes.
    pub write_misses: u64,
    /// Lines evicted to make room for fills.
    pub evictions: u64,
    /// Evictions of dirty lines (each costs a bus writeback).
    pub writebacks: u64,
    /// Lines removed by invalidation (inclusion back-invalidations).
    pub invalidations: u64,
    /// Write hits that required a bus upgrade (line was shared).
    pub upgrades: u64,
    /// Lines brought in by the hardware prefetcher.
    pub prefetch_fills: u64,
    /// Prefetched lines later touched by a demand access (prefetch
    /// accuracy = `prefetch_used / prefetch_fills`).
    pub prefetch_used: u64,
}

impl CacheStats {
    /// Miss ratio in [0, 1]; 0 for an untouched cache.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Misses per 1000 instructions given an instruction count — the
    /// paper's y-axis for Figures 4–6.
    pub fn mpki(&self, instructions: u64) -> f64 {
        if instructions == 0 {
            0.0
        } else {
            self.misses as f64 * 1000.0 / instructions as f64
        }
    }

    /// Accesses per 1000 instructions (Table 2's "DL1 Accesses/1000 Inst").
    pub fn apki(&self, instructions: u64) -> f64 {
        if instructions == 0 {
            0.0
        } else {
            self.accesses as f64 * 1000.0 / instructions as f64
        }
    }

    /// Fraction of prefetched lines that were eventually used.
    pub fn prefetch_accuracy(&self) -> f64 {
        if self.prefetch_fills == 0 {
            0.0
        } else {
            self.prefetch_used as f64 / self.prefetch_fills as f64
        }
    }

    /// Adds another stats block into this one (used to merge per-core or
    /// per-bank counters).
    pub fn merge(&mut self, other: &CacheStats) {
        self.accesses += other.accesses;
        self.write_accesses += other.write_accesses;
        self.hits += other.hits;
        self.misses += other.misses;
        self.read_misses += other.read_misses;
        self.write_misses += other.write_misses;
        self.evictions += other.evictions;
        self.writebacks += other.writebacks;
        self.invalidations += other.invalidations;
        self.upgrades += other.upgrades;
        self.prefetch_fills += other.prefetch_fills;
        self.prefetch_used += other.prefetch_used;
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "accesses={} hits={} misses={} ({:.2}%) writebacks={}",
            self.accesses,
            self.hits,
            self.misses,
            self.miss_ratio() * 100.0,
            self.writebacks
        )
    }
}

/// Measures a reference stream's working set: the number of distinct cache
/// lines touched.
///
/// §4.3 of the paper reads working-set sizes off the MPKI-vs-size knees;
/// this estimator gives the direct measurement used by the integration
/// tests that validate the synthetic workloads' footprints.
#[derive(Debug, Clone, Default)]
pub struct WorkingSetEstimator {
    line_size: u64,
    lines: HashSet<u64>,
}

impl WorkingSetEstimator {
    /// Creates an estimator that counts distinct `line_size`-byte lines.
    ///
    /// # Panics
    ///
    /// Panics if `line_size` is not a power of two.
    pub fn new(line_size: u64) -> Self {
        assert!(line_size.is_power_of_two());
        WorkingSetEstimator {
            line_size,
            lines: HashSet::new(),
        }
    }

    /// Records a touched address.
    #[inline]
    pub fn touch(&mut self, addr: cmpsim_trace::Addr) {
        self.lines.insert(addr.line(self.line_size));
    }

    /// Records a touched line number directly.
    #[inline]
    pub fn touch_line(&mut self, line: u64) {
        self.lines.insert(line);
    }

    /// Number of distinct lines touched.
    pub fn unique_lines(&self) -> u64 {
        self.lines.len() as u64
    }

    /// Footprint in bytes (`unique_lines * line_size`).
    pub fn footprint_bytes(&self) -> u64 {
        self.unique_lines() * self.line_size
    }

    /// Clears the estimator for a new interval.
    pub fn reset(&mut self) {
        self.lines.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmpsim_trace::Addr;

    #[test]
    fn ratios_of_empty_stats_are_zero() {
        let s = CacheStats::default();
        assert_eq!(s.miss_ratio(), 0.0);
        assert_eq!(s.mpki(0), 0.0);
        assert_eq!(s.apki(0), 0.0);
        assert_eq!(s.prefetch_accuracy(), 0.0);
    }

    #[test]
    fn mpki_math() {
        let s = CacheStats {
            accesses: 500,
            misses: 12,
            hits: 488,
            ..Default::default()
        };
        assert!((s.mpki(1000) - 12.0).abs() < 1e-12);
        assert!((s.mpki(4000) - 3.0).abs() < 1e-12);
        assert!((s.apki(1000) - 500.0).abs() < 1e-12);
    }

    #[test]
    fn merge_sums_fields() {
        let a = CacheStats {
            accesses: 10,
            hits: 7,
            misses: 3,
            writebacks: 1,
            ..Default::default()
        };
        let mut b = a;
        b.merge(&a);
        assert_eq!(b.accesses, 20);
        assert_eq!(b.hits, 14);
        assert_eq!(b.writebacks, 2);
    }

    #[test]
    fn display_contains_percentages() {
        let s = CacheStats {
            accesses: 100,
            hits: 75,
            misses: 25,
            ..Default::default()
        };
        assert!(s.to_string().contains("25.00%"));
    }

    #[test]
    fn working_set_counts_lines_not_bytes() {
        let mut ws = WorkingSetEstimator::new(64);
        ws.touch(Addr::new(0));
        ws.touch(Addr::new(63)); // same line
        ws.touch(Addr::new(64)); // next line
        assert_eq!(ws.unique_lines(), 2);
        assert_eq!(ws.footprint_bytes(), 128);
    }

    #[test]
    fn working_set_reset() {
        let mut ws = WorkingSetEstimator::new(64);
        ws.touch_line(5);
        ws.reset();
        assert_eq!(ws.unique_lines(), 0);
    }

    #[test]
    fn working_set_sequential_region() {
        let mut ws = WorkingSetEstimator::new(64);
        for b in (0..4096).step_by(4) {
            ws.touch(Addr::new(b));
        }
        assert_eq!(ws.footprint_bytes(), 4096);
    }
}
