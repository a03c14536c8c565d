//! The physical private cache stack in front of the front-side bus.
//!
//! In the paper's setup the workload executes natively on a host CPU whose
//! private caches filter the reference stream; only misses and writebacks
//! appear on the front-side bus where Dragonhead snoops. DEX time-slices
//! every virtual core onto that one processor, so one [`PrivateHierarchy`]
//! (an L1(+L2) stack) filters every core's references and produces the
//! bus-event stream for the shared-LLC emulator.

use crate::cache::{AccessOutcome, SetAssocCache};
use crate::config::{CacheConfig, ConfigError};
use crate::stats::CacheStats;
use cmpsim_trace::{AccessKind, FsbKind, MemRef};

/// A bus-visible event produced by a private cache stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BusEvent {
    /// Line number (in units of the private line size).
    pub line: u64,
    /// Transaction type: `ReadLine` for clean fills,
    /// `ReadInvalidateLine` for ownership fills, `WriteLine` for
    /// writebacks.
    pub kind: FsbKind,
}

/// Geometry of one core's private stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// The (data) L1 cache.
    pub l1: CacheConfig,
    /// Optional unified private L2.
    pub l2: Option<CacheConfig>,
}

impl HierarchyConfig {
    /// The Pentium 4 configuration used for Table 2: 8 KB 4-way DL1 and a
    /// 512 KB 8-way L2, 64-byte lines.
    ///
    /// # Example
    ///
    /// ```
    /// let h = cmpsim_cache::HierarchyConfig::pentium4();
    /// assert_eq!(h.l1.size_bytes(), 8 * 1024);
    /// assert_eq!(h.l2.unwrap().size_bytes(), 512 * 1024);
    /// ```
    pub fn pentium4() -> Self {
        HierarchyConfig {
            l1: CacheConfig::lru(8 * 1024, 64, 4).expect("static config is valid"),
            l2: Some(CacheConfig::lru(512 * 1024, 64, 8).expect("static config is valid")),
        }
    }

    /// The per-core private stack assumed for the simulated CMPs: a 32 KB
    /// 8-way L1 and 512 KB 8-way L2 in front of the shared LLC.
    pub fn cmp_core() -> Self {
        HierarchyConfig {
            l1: CacheConfig::lru(32 * 1024, 64, 8).expect("static config is valid"),
            l2: Some(CacheConfig::lru(512 * 1024, 64, 8).expect("static config is valid")),
        }
    }

    /// L1-only stack (used by tests and the line-size ablation).
    pub fn l1_only(l1: CacheConfig) -> Self {
        HierarchyConfig { l1, l2: None }
    }

    /// The CMP per-core stack scaled by the global [`Scale`] knob so the
    /// private caches shrink together with the workloads and the LLC
    /// sweep. Without this, a scaled-down working set would fit entirely
    /// in an unscaled 512 KB L2 and the emulated LLC would only ever see
    /// cold misses — destroying every size-sensitivity shape.
    ///
    /// Floors: 1 KB L1 / 4 KB L2 (a cache must still hold several sets).
    ///
    /// [`Scale`]: cmpsim_trace::Scale
    pub fn cmp_core_scaled(scale: cmpsim_trace::Scale) -> Self {
        let l1_bytes = scale.pow2_bytes(32 * 1024, 1024);
        let l2_bytes = scale.pow2_bytes(512 * 1024, 4096);
        HierarchyConfig {
            l1: CacheConfig::lru(l1_bytes, 64, 8).expect("scaled L1 geometry is valid"),
            l2: Some(CacheConfig::lru(l2_bytes, 64, 8).expect("scaled L2 geometry is valid")),
        }
    }

    /// The Pentium 4 stack scaled by the global [`Scale`] knob (used by
    /// the Table 2 study at reduced scales).
    ///
    /// [`Scale`]: cmpsim_trace::Scale
    pub fn pentium4_scaled(scale: cmpsim_trace::Scale) -> Self {
        let l1_bytes = scale.pow2_bytes(8 * 1024, 1024);
        let l2_bytes = scale.pow2_bytes(512 * 1024, 4096);
        HierarchyConfig {
            l1: CacheConfig::lru(l1_bytes, 64, 4).expect("scaled L1 geometry is valid"),
            l2: Some(CacheConfig::lru(l2_bytes, 64, 8).expect("scaled L2 geometry is valid")),
        }
    }

    /// Validates that line sizes match across levels.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::Indivisible`] describing the mismatch if the
    /// L2 line size differs from the L1 line size (mixed private line
    /// sizes are not modeled).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if let Some(l2) = self.l2 {
            if l2.line_bytes() != self.l1.line_bytes() {
                return Err(ConfigError::Indivisible {
                    size: l2.size_bytes(),
                    line: l2.line_bytes(),
                    ways: l2.associativity(),
                });
            }
        }
        Ok(())
    }
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        Self::cmp_core()
    }
}

/// The processor's private L1(+L2) stack.
///
/// Instruction fetches are not simulated (the kernels do not emit them;
/// Dragonhead emulates a data-side LLC), and the stack is kept inclusive:
/// L1 fills pass through L2, and L2 evictions back-invalidate L1.
///
/// # Example
///
/// ```
/// use cmpsim_cache::{HierarchyConfig, PrivateHierarchy};
/// use cmpsim_trace::{Addr, MemRef};
///
/// let mut stack = PrivateHierarchy::new(HierarchyConfig::cmp_core());
/// let mut events = Vec::new();
/// stack.access(MemRef::read(Addr::new(0x1000), 8), |e| events.push(e));
/// stack.access(MemRef::write(Addr::new(0x1000), 8), |e| events.push(e));
/// assert_eq!(events.len(), 1); // one clean fill; the write is silent
/// ```
#[derive(Debug, Clone)]
pub struct PrivateHierarchy {
    l1: SetAssocCache,
    l2: Option<SetAssocCache>,
    /// log2 of the line size (validated a power of two), so a
    /// reference's lines are shifts rather than divisions.
    line_shift: u32,
}

impl PrivateHierarchy {
    /// Builds an empty private stack.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`HierarchyConfig::validate`].
    pub fn new(cfg: HierarchyConfig) -> Self {
        cfg.validate().expect("hierarchy config must be valid");
        PrivateHierarchy {
            line_shift: cfg.l1.line_bytes().trailing_zeros(),
            l1: SetAssocCache::new(cfg.l1),
            l2: cfg.l2.map(SetAssocCache::new),
        }
    }

    /// Private line size in bytes.
    pub const fn line_size(&self) -> u64 {
        1 << self.line_shift
    }

    /// L1 counters.
    pub fn l1_stats(&self) -> &CacheStats {
        self.l1.stats()
    }

    /// L2 counters, if an L2 is configured.
    pub fn l2_stats(&self) -> Option<&CacheStats> {
        self.l2.as_ref().map(|c| c.stats())
    }

    /// Runs one memory reference through the stack, reporting bus events
    /// (fills and writebacks) to `bus`. References that straddle
    /// line boundaries access each touched line.
    pub fn access(&mut self, r: MemRef, mut bus: impl FnMut(BusEvent)) {
        if r.kind == AccessKind::IFetch {
            return;
        }
        let write = r.kind == AccessKind::Write;
        let first = r.addr.raw() >> self.line_shift;
        let last = r.addr.offset(u64::from(r.size.max(1)) - 1).raw() >> self.line_shift;
        for line in first..=last {
            self.access_line(line, write, &mut bus);
        }
    }

    /// Runs one line-granular access through the stack.
    ///
    /// Fills go through [`SetAssocCache::access_exclusive`]: no other
    /// stack can hold a copy of a line, so every resident line is
    /// writable (MESI E or M) and a write hit never needs an upgrade.
    fn access_line(&mut self, line: u64, write: bool, bus: &mut impl FnMut(BusEvent)) {
        let AccessOutcome::Miss { evicted } = self.l1.access_exclusive(line, write) else {
            return;
        };
        // Victim first: a dirty L1 victim is absorbed by L2 or, if L2 no
        // longer holds it, written back to the bus.
        if let Some(v) = evicted.filter(|v| v.dirty) {
            let absorbed = self
                .l2
                .as_mut()
                .is_some_and(|l2| l2.receive_writeback(v.line));
            if !absorbed {
                bus(BusEvent {
                    line: v.line,
                    kind: FsbKind::WriteLine,
                });
            }
        }
        // Fill from L2 or the bus.
        if let Some(l2) = &mut self.l2 {
            let AccessOutcome::Miss { evicted } = l2.access_exclusive(line, write) else {
                return;
            };
            if let Some(v) = evicted {
                // Inclusion: the L1 copy must go too.
                let l1_dirty = self.l1.invalidate(v.line).is_some_and(|e| e.dirty);
                if v.dirty || l1_dirty {
                    bus(BusEvent {
                        line: v.line,
                        kind: FsbKind::WriteLine,
                    });
                }
            }
        }
        bus(BusEvent {
            line,
            kind: if write {
                FsbKind::ReadInvalidateLine
            } else {
                FsbKind::ReadLine
            },
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmpsim_trace::Addr;

    fn small_cfg() -> HierarchyConfig {
        HierarchyConfig {
            l1: CacheConfig::lru(512, 64, 2).unwrap(),
            l2: Some(CacheConfig::lru(2048, 64, 4).unwrap()),
        }
    }

    fn collect(h: &mut PrivateHierarchy, r: MemRef) -> Vec<BusEvent> {
        let mut v = Vec::new();
        h.access(r, |e| v.push(e));
        v
    }

    #[test]
    fn cold_read_misses_to_bus() {
        let mut h = PrivateHierarchy::new(small_cfg());
        let ev = collect(&mut h, MemRef::read(Addr::new(0x1000), 8));
        assert_eq!(
            ev,
            vec![BusEvent {
                line: 0x40,
                kind: FsbKind::ReadLine
            }]
        );
    }

    #[test]
    fn warm_read_is_filtered() {
        let mut h = PrivateHierarchy::new(small_cfg());
        collect(&mut h, MemRef::read(Addr::new(0x1000), 8));
        let ev = collect(&mut h, MemRef::read(Addr::new(0x1008), 8));
        assert!(ev.is_empty(), "hit should not reach the bus: {ev:?}");
    }

    #[test]
    fn write_miss_is_ownership_fill() {
        let mut h = PrivateHierarchy::new(small_cfg());
        let ev = collect(&mut h, MemRef::write(Addr::new(0x1000), 8));
        assert_eq!(ev[0].kind, FsbKind::ReadInvalidateLine);
    }

    #[test]
    fn l2_hit_filters_l1_miss() {
        // Touch enough lines to evict line 0 from the tiny L1 but not
        // from L2; re-access must stay on-chip.
        // L1 has 4 sets (2-way); L2 has 8 sets (4-way). Lines 0, 4, 8, 12
        // all map to L1 set 0 but alternate between L2 sets 0 and 4, so
        // line 0 is evicted from L1 while both L2 sets stay half full.
        let mut h = PrivateHierarchy::new(small_cfg());
        for line in [0u64, 4, 8, 12] {
            collect(&mut h, MemRef::read(Addr::new(line * 64), 8));
        }
        let ev = collect(&mut h, MemRef::read(Addr::new(0), 8));
        assert!(ev.is_empty(), "L2 should satisfy the refill: {ev:?}");
        assert!(h.l2_stats().unwrap().hits >= 1);
    }

    #[test]
    fn straddling_ref_accesses_two_lines() {
        let mut h = PrivateHierarchy::new(small_cfg());
        let ev = collect(&mut h, MemRef::read(Addr::new(0x103c), 8));
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[0].line + 1, ev[1].line);
    }

    #[test]
    fn ifetch_is_ignored() {
        let mut h = PrivateHierarchy::new(small_cfg());
        let ev = collect(&mut h, MemRef::ifetch(Addr::new(0x1000), 16));
        assert!(ev.is_empty());
        assert_eq!(h.l1_stats().accesses, 0);
    }

    #[test]
    fn dirty_l2_eviction_writes_back() {
        // L1-only stack for direct control.
        let cfg = HierarchyConfig::l1_only(CacheConfig::lru(128, 64, 1).unwrap()); // 2 sets
        let mut h = PrivateHierarchy::new(cfg);
        collect(&mut h, MemRef::write(Addr::new(0), 8)); // line 0 dirty, set 0
        let ev = collect(&mut h, MemRef::read(Addr::new(128), 8)); // line 2, set 0: evicts
        assert!(
            ev.contains(&BusEvent {
                line: 0,
                kind: FsbKind::WriteLine
            }),
            "dirty victim must be written back: {ev:?}"
        );
    }

    #[test]
    fn write_after_read_same_core_silent_when_exclusive() {
        // One stack: a clean fill is exclusive (MESI E), so the write
        // that follows it stays on-chip.
        let mut h = PrivateHierarchy::new(small_cfg());
        let a = Addr::new(0x2000);
        assert_eq!(collect(&mut h, MemRef::read(a, 8)).len(), 1);
        let ev = collect(&mut h, MemRef::write(a, 8));
        assert!(ev.is_empty(), "E-state write must be silent: {ev:?}");
        // The same after an L2-hit refill: lines 0, 4, 8, 12 push line 0
        // out of L1 set 0 but not out of L2 (see l2_hit_filters_l1_miss).
        for line in [0u64, 4, 8, 12] {
            collect(&mut h, MemRef::read(Addr::new(line * 64), 8));
        }
        assert!(collect(&mut h, MemRef::read(Addr::new(0), 8)).is_empty());
        let ev = collect(&mut h, MemRef::write(Addr::new(0), 8));
        assert!(ev.is_empty(), "write after an L2 refill: {ev:?}");
        assert_eq!(h.l1_stats().upgrades, 0);
        assert_eq!(h.l2_stats().unwrap().upgrades, 0);
    }

    #[test]
    fn dirty_l1_victim_is_absorbed_by_l2() {
        let mut h = PrivateHierarchy::new(small_cfg());
        collect(&mut h, MemRef::write(Addr::new(0), 8)); // line 0 dirty
        collect(&mut h, MemRef::read(Addr::new(4 * 64), 8));
        // Line 8 evicts dirty line 0 from L1 set 0; L2 still holds it.
        let ev = collect(&mut h, MemRef::read(Addr::new(8 * 64), 8));
        assert_eq!(
            ev,
            vec![BusEvent {
                line: 8,
                kind: FsbKind::ReadLine
            }]
        );
        assert_eq!(h.l1_stats().writebacks, 1);
    }

    #[test]
    fn l2_victim_dirty_only_in_l1_is_written_back_once() {
        // Line 0 is read (clean in both levels), then written: dirty in
        // L1 only. Re-touching it between fills keeps it in L1 while
        // lines 8, 16, 24 fill its L2 set; line 32 then evicts it from
        // L2, and inclusion flushes the dirty L1 copy.
        let mut h = PrivateHierarchy::new(small_cfg());
        let touch =
            |h: &mut PrivateHierarchy, line: u64| collect(h, MemRef::read(Addr::new(line * 64), 8));
        touch(&mut h, 0);
        assert!(collect(&mut h, MemRef::write(Addr::new(0), 8)).is_empty());
        for line in [8u64, 16, 24] {
            touch(&mut h, line);
            assert!(touch(&mut h, 0).is_empty(), "line 0 stays in L1");
        }
        let ev = touch(&mut h, 32);
        assert_eq!(
            ev,
            vec![
                BusEvent {
                    line: 0,
                    kind: FsbKind::WriteLine
                },
                BusEvent {
                    line: 32,
                    kind: FsbKind::ReadLine
                },
            ]
        );
        assert_eq!(h.l1_stats().invalidations, 1);
    }

    #[test]
    fn pentium4_profile_shapes() {
        let p4 = HierarchyConfig::pentium4();
        assert!(p4.validate().is_ok());
        assert_eq!(p4.l1.num_sets(), 32);
    }
}
