//! Per-core private cache stacks and the coherent multi-core front end.
//!
//! In the paper's setup the workload executes natively on a host CPU whose
//! private caches filter the reference stream; only misses and writebacks
//! appear on the front-side bus where Dragonhead snoops. [`PrivateHierarchy`]
//! models one core's L1(+L2) stack; [`CoherentCores`] models N of them kept
//! coherent with an invalidation-based (MSI/MESI-style) snoop protocol and
//! produces the bus-event stream for the shared-LLC emulator.

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
    /// `ReadInvalidateLine` for ownership fills and upgrades,
    /// `WriteLine` for writebacks.
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

/// One core's private L1(+L2) stack.
///
/// Instruction fetches are not simulated (the kernels do not emit them;
/// Dragonhead emulates a data-side LLC), and the stack is kept inclusive:
/// L1 fills pass through L2, and L2 evictions back-invalidate L1.
#[derive(Debug, Clone)]
pub struct PrivateHierarchy {
    l1: SetAssocCache,
    l2: Option<SetAssocCache>,
    line_size: u64,
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
            line_size: cfg.l1.line_bytes(),
            l1: SetAssocCache::new(cfg.l1),
            l2: cfg.l2.map(SetAssocCache::new),
        }
    }

    /// Private line size in bytes.
    pub const fn line_size(&self) -> u64 {
        self.line_size
    }

    /// L1 counters.
    pub fn l1_stats(&self) -> &CacheStats {
        self.l1.stats()
    }

    /// L2 counters, if an L2 is configured.
    pub fn l2_stats(&self) -> Option<&CacheStats> {
        self.l2.as_ref().map(|c| c.stats())
    }

    /// Resets all counters, preserving contents.
    pub fn reset_stats(&mut self) {
        self.l1.reset_stats();
        if let Some(l2) = &mut self.l2 {
            l2.reset_stats();
        }
    }

    /// Runs one memory reference through the stack, reporting bus events
    /// (fills, upgrades, writebacks) to `bus`. References that straddle
    /// line boundaries access each touched line.
    pub fn access(&mut self, r: MemRef, mut bus: impl FnMut(BusEvent)) {
        if r.kind == AccessKind::IFetch {
            return;
        }
        let write = r.kind == AccessKind::Write;
        let first = r.addr.line(self.line_size);
        let last = r
            .addr
            .offset(u64::from(r.size.max(1)) - 1)
            .line(self.line_size);
        for line in first..=last {
            self.access_line(line, write, &mut bus);
        }
    }

    /// Runs one line-granular access through the stack.
    pub fn access_line(&mut self, line: u64, write: bool, bus: &mut impl FnMut(BusEvent)) {
        match self.l1.access(line, write) {
            AccessOutcome::Hit { upgrade } => {
                if upgrade {
                    // Our L2 copy (if any) upgrades too, silently within
                    // the core; the bus sees one invalidation broadcast.
                    if let Some(l2) = &mut self.l2 {
                        l2.grant_writable(line);
                    }
                    bus(BusEvent {
                        line,
                        kind: FsbKind::ReadInvalidateLine,
                    });
                }
            }
            AccessOutcome::Miss { evicted, allocated } => {
                // Victim first: a dirty L1 victim is absorbed by L2 or, if
                // L2 no longer holds it, written back to the bus.
                if let Some(v) = evicted {
                    if v.dirty {
                        let absorbed = match &mut self.l2 {
                            Some(l2) => l2.receive_writeback(v.line),
                            None => false,
                        };
                        if !absorbed {
                            bus(BusEvent {
                                line: v.line,
                                kind: FsbKind::WriteLine,
                            });
                        }
                    }
                }
                // Fill from L2 or the bus.
                match &mut self.l2 {
                    Some(l2) => match l2.access(line, write) {
                        AccessOutcome::Hit { upgrade } => {
                            if upgrade {
                                bus(BusEvent {
                                    line,
                                    kind: FsbKind::ReadInvalidateLine,
                                });
                            }
                            if allocated && l2.is_writable(line) {
                                self.l1.grant_writable(line);
                            }
                        }
                        AccessOutcome::Miss { evicted, .. } => {
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
                            bus(BusEvent {
                                line,
                                kind: if write {
                                    FsbKind::ReadInvalidateLine
                                } else {
                                    FsbKind::ReadLine
                                },
                            });
                        }
                    },
                    None => {
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
            }
        }
    }

    /// Whether any private level holds `line`.
    pub fn holds(&self, line: u64) -> bool {
        self.l1.contains(line) || self.l2.as_ref().is_some_and(|l2| l2.contains(line))
    }

    /// Snoop invalidation from another core's ownership request. Returns
    /// `true` if a dirty copy was flushed (the flush itself is the data
    /// response on a real bus; we report it so the LLC can absorb it).
    pub fn snoop_invalidate(&mut self, line: u64) -> bool {
        let d1 = self.l1.invalidate(line).is_some_and(|e| e.dirty);
        let d2 = self
            .l2
            .as_mut()
            .and_then(|l2| l2.invalidate(line))
            .is_some_and(|e| e.dirty);
        d1 || d2
    }

    /// Snoop downgrade from another core's read. Returns `true` if a
    /// dirty copy was flushed.
    pub fn snoop_downgrade(&mut self, line: u64) -> bool {
        let d1 = self.l1.is_dirty(line);
        let d2 = self.l2.as_ref().is_some_and(|l2| l2.is_dirty(line));
        self.l1.downgrade(line);
        if let Some(l2) = &mut self.l2 {
            l2.downgrade(line);
        }
        d1 || d2
    }

    /// Grants exclusive (writable) state after a fill that no other core
    /// holds.
    pub fn grant_exclusive(&mut self, line: u64) {
        self.l1.grant_writable(line);
        if let Some(l2) = &mut self.l2 {
            l2.grant_writable(line);
        }
    }
}

/// N coherent private stacks in front of a shared bus.
///
/// This is the "SoftSDV side" memory model: each virtual core's references
/// are filtered by its private stack; misses, upgrades, and writebacks
/// become bus events, with MESI-style snooping between the stacks.
///
/// # Example
///
/// ```
/// use cmpsim_cache::{CoherentCores, HierarchyConfig};
/// use cmpsim_trace::{Addr, MemRef};
///
/// let mut cores = CoherentCores::new(2, HierarchyConfig::cmp_core());
/// let mut events = Vec::new();
/// cores.access(0, MemRef::write(Addr::new(0x1000), 8), |core, e| {
///     events.push((core, e));
/// });
/// assert_eq!(events.len(), 1); // one ownership fill on the bus
/// ```
#[derive(Debug, Clone)]
pub struct CoherentCores {
    cores: Vec<PrivateHierarchy>,
}

impl CoherentCores {
    /// Builds `n` empty private stacks of identical geometry.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or the config is invalid.
    pub fn new(n: usize, cfg: HierarchyConfig) -> Self {
        assert!(n > 0, "at least one core required");
        CoherentCores {
            cores: (0..n).map(|_| PrivateHierarchy::new(cfg)).collect(),
        }
    }

    /// Private line size in bytes.
    pub fn line_size(&self) -> u64 {
        self.cores[0].line_size()
    }

    /// The private stack of `core`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn core(&self, core: usize) -> &PrivateHierarchy {
        &self.cores[core]
    }

    /// Aggregated L1 stats across all cores.
    pub fn l1_stats_merged(&self) -> CacheStats {
        let mut s = CacheStats::default();
        for c in &self.cores {
            s.merge(c.l1_stats());
        }
        s
    }

    /// Aggregated L2 stats across all cores (zero if no L2 configured).
    pub fn l2_stats_merged(&self) -> CacheStats {
        let mut s = CacheStats::default();
        for c in &self.cores {
            if let Some(l2) = c.l2_stats() {
                s.merge(l2);
            }
        }
        s
    }

    /// Resets counters on every core.
    pub fn reset_stats(&mut self) {
        for c in &mut self.cores {
            c.reset_stats();
        }
    }

    /// Runs one reference from `core` through its private stack with
    /// snoop-based coherence, reporting bus events to `bus` as
    /// `(originating_core, event)`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn access(&mut self, core: usize, r: MemRef, mut bus: impl FnMut(u32, BusEvent)) {
        assert!(core < self.cores.len(), "core {core} out of range");
        // Collect this core's bus events first to avoid aliasing its
        // private stack while snooping the others.
        let mut events: Vec<BusEvent> = Vec::new();
        self.cores[core].access(r, |e| events.push(e));
        for e in events {
            self.snoop_others(core, e, &mut bus);
            bus(core as u32, e);
        }
    }

    fn snoop_others(&mut self, origin: usize, e: BusEvent, bus: &mut impl FnMut(u32, BusEvent)) {
        match e.kind {
            FsbKind::ReadInvalidateLine => {
                for (i, other) in self.cores.iter_mut().enumerate() {
                    if i != origin && other.snoop_invalidate(e.line) {
                        bus(
                            i as u32,
                            BusEvent {
                                line: e.line,
                                kind: FsbKind::WriteLine,
                            },
                        );
                    }
                }
            }
            FsbKind::ReadLine => {
                let mut shared = false;
                for (i, other) in self.cores.iter_mut().enumerate() {
                    if i == origin {
                        continue;
                    }
                    if other.holds(e.line) {
                        shared = true;
                        if other.snoop_downgrade(e.line) {
                            bus(
                                i as u32,
                                BusEvent {
                                    line: e.line,
                                    kind: FsbKind::WriteLine,
                                },
                            );
                        }
                    }
                }
                if !shared {
                    // MESI E state: silent upgrade permitted later.
                    self.cores[origin].grant_exclusive(e.line);
                }
            }
            FsbKind::WriteLine | FsbKind::Message => {}
        }
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
        let mut cores = CoherentCores::new(2, small_cfg());
        let r = Addr::new(0x2000);
        let mut n_events = 0;
        cores.access(0, MemRef::read(r, 8), |_, _| n_events += 1);
        assert_eq!(n_events, 1);
        // No other core holds the line -> E state -> silent write.
        let mut upgrades = Vec::new();
        cores.access(0, MemRef::write(r, 8), |c, e| upgrades.push((c, e)));
        assert!(
            upgrades.is_empty(),
            "E-state write must be silent: {upgrades:?}"
        );
    }

    #[test]
    fn write_to_shared_line_broadcasts_upgrade() {
        let mut cores = CoherentCores::new(2, small_cfg());
        let a = Addr::new(0x2000);
        cores.access(0, MemRef::read(a, 8), |_, _| {});
        cores.access(1, MemRef::read(a, 8), |_, _| {});
        // Core 0's copy was downgraded? No — reads keep it S in both.
        let mut events = Vec::new();
        cores.access(0, MemRef::write(a, 8), |c, e| events.push((c, e)));
        assert!(
            events
                .iter()
                .any(|(c, e)| *c == 0 && e.kind == FsbKind::ReadInvalidateLine),
            "upgrade must appear on the bus: {events:?}"
        );
        // Core 1 must have lost its copy.
        assert!(!cores.core(1).holds(a.line(64)));
    }

    #[test]
    fn read_of_modified_line_flushes_dirty_copy() {
        let mut cores = CoherentCores::new(2, small_cfg());
        let a = Addr::new(0x3000);
        cores.access(0, MemRef::write(a, 8), |_, _| {});
        let mut events = Vec::new();
        cores.access(1, MemRef::read(a, 8), |c, e| events.push((c, e)));
        assert!(
            events
                .iter()
                .any(|(c, e)| *c == 0 && e.kind == FsbKind::WriteLine),
            "dirty copy must be flushed: {events:?}"
        );
        // Subsequent write by core 0 needs an upgrade (its line is now S).
        let mut ev2 = Vec::new();
        cores.access(0, MemRef::write(a, 8), |c, e| ev2.push((c, e)));
        assert!(
            ev2.iter()
                .any(|(_, e)| e.kind == FsbKind::ReadInvalidateLine),
            "write to downgraded line needs upgrade: {ev2:?}"
        );
    }

    #[test]
    fn invalidated_core_misses_again() {
        let mut cores = CoherentCores::new(2, small_cfg());
        let a = Addr::new(0x4000);
        cores.access(1, MemRef::read(a, 8), |_, _| {});
        cores.access(0, MemRef::write(a, 8), |_, _| {});
        let mut events = Vec::new();
        cores.access(1, MemRef::read(a, 8), |c, e| events.push((c, e)));
        assert!(
            events
                .iter()
                .any(|(c, e)| *c == 1 && e.kind == FsbKind::ReadLine),
            "invalidated core must re-fetch: {events:?}"
        );
    }

    #[test]
    fn merged_stats_accumulate_across_cores() {
        let mut cores = CoherentCores::new(4, small_cfg());
        for c in 0..4 {
            cores.access(
                c,
                MemRef::read(Addr::new(0x1000 * (c as u64 + 1)), 8),
                |_, _| {},
            );
        }
        assert_eq!(cores.l1_stats_merged().accesses, 4);
        assert_eq!(cores.l1_stats_merged().misses, 4);
    }

    #[test]
    fn pentium4_profile_shapes() {
        let p4 = HierarchyConfig::pentium4();
        assert!(p4.validate().is_ok());
        assert_eq!(p4.l1.num_sets(), 32);
    }

    #[test]
    #[should_panic(expected = "core 5 out of range")]
    fn out_of_range_core_panics() {
        let mut cores = CoherentCores::new(2, small_cfg());
        cores.access(5, MemRef::read(Addr::new(0), 8), |_, _| {});
    }
}
