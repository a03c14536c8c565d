//! The paper's experiments, each reproducing one table or figure.
//!
//! Every study's `run` replays its boards through
//! [`CoSimulation::replay_boards`], one call per stream, and returns a
//! [`CoSimError`] for a geometry that cannot be built or a report that
//! fails validation — never a panic.

use crate::capture::CaptureBroker;
use crate::cosim::{CoSimConfig, CoSimReport, CoSimulation};
use crate::error::CoSimError;
use cmpsim_cache::{CacheConfig, CacheStats, HierarchyConfig, ReplacementPolicy};
use cmpsim_dragonhead::{DragonheadConfig, Sample};
use cmpsim_memsys::{MachineConfig, RunCounts};
use cmpsim_prefetch::StrideConfig;
use cmpsim_softsdv::RunSummary;
use cmpsim_workloads::{Scale, WorkloadId};
use std::fmt;

/// A study's outcome: its payload, or why the run cannot be trusted.
type Result<T> = std::result::Result<T, CoSimError>;

/// The three CMP sizes of the study (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpClass {
    /// Small-scale CMP: 8 cores.
    Small,
    /// Medium-scale CMP: 16 cores.
    Medium,
    /// Large-scale CMP: 32 cores.
    Large,
}

impl CmpClass {
    /// All three classes in paper order.
    pub const fn all() -> [CmpClass; 3] {
        [CmpClass::Small, CmpClass::Medium, CmpClass::Large]
    }

    /// Core count of the class.
    pub const fn cores(self) -> usize {
        match self {
            CmpClass::Small => 8,
            CmpClass::Medium => 16,
            CmpClass::Large => 32,
        }
    }

    /// Paper abbreviation.
    pub const fn name(self) -> &'static str {
        match self {
            CmpClass::Small => "SCMP",
            CmpClass::Medium => "MCMP",
            CmpClass::Large => "LCMP",
        }
    }
}

impl fmt::Display for CmpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for CmpClass {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        CmpClass::all()
            .into_iter()
            .find(|c| c.name() == s)
            .ok_or_else(|| format!("unknown CMP class `{s}` (expected SCMP, MCMP, or LCMP)"))
    }
}

/// The paper's LLC size sweep (Figures 4–6): 4 MB to 256 MB, scaled.
pub fn paper_cache_sizes(scale: Scale) -> Vec<u64> {
    [4u64, 8, 16, 32, 64, 128, 256]
        .iter()
        .map(|&mb| scale.pow2_bytes(mb << 20, 16 << 10))
        .collect()
}

/// The paper's line-size sweep (Figure 7): 64 B to 4096 B.
pub fn paper_line_sizes() -> Vec<u64> {
    vec![64, 128, 256, 512, 1024, 2048, 4096]
}

/// Builds an LRU LLC config of `size` bytes and `line`-byte lines,
/// clamping the associativity so the geometry stays valid for small
/// scaled-down caches with very large lines (each of the four Dragonhead
/// banks must still hold at least one full set).
///
/// The clamp works in three steps: the per-bank capacity (`size / 4`)
/// bounds how many `line`-byte ways a bank can hold at all
/// (`max_ways`); the preferred associativity is limited to that bound
/// and rounded to a power of two; and `min(1 << max_ways.ilog2())`
/// caps the rounded value at the largest power of two that still fits —
/// on the smallest scaled caches with 4096-byte lines this bottoms out
/// at direct-mapped (one way).
///
/// # Errors
///
/// Returns a [`ConfigError`] when no valid geometry exists even after
/// clamping — e.g. a capacity smaller than a single line, or a
/// non-power-of-two capacity.
pub fn llc_config(
    size: u64,
    line: u64,
    preferred_ways: u32,
) -> std::result::Result<CacheConfig, cmpsim_cache::ConfigError> {
    let per_bank = size / 4;
    let max_ways = (per_bank / line).max(1);
    let ways = u64::from(preferred_ways)
        .min(max_ways)
        .next_power_of_two()
        .min(1 << max_ways.ilog2()) as u32;
    CacheConfig::lru(size, line, ways.max(1))
}

/// One (cache size, MPKI) measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CachePoint {
    /// Emulated LLC capacity in bytes.
    pub llc_bytes: u64,
    /// LLC misses per 1000 instructions.
    pub mpki: f64,
    /// Raw miss count.
    pub misses: u64,
    /// Instructions retired by the run.
    pub instructions: u64,
}

/// The MPKI-vs-size curve of one workload on one CMP class.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheSizeCurve {
    /// Which workload.
    pub workload: WorkloadId,
    /// Which CMP class (8/16/32 cores).
    pub cmp: CmpClass,
    /// Points in ascending cache-size order.
    pub points: Vec<CachePoint>,
}

impl CacheSizeCurve {
    /// The smallest cache size at which MPKI has dropped below
    /// `fraction` of its smallest-cache value — the "working-set knee"
    /// §4.3 reads off the figures. `None` if the curve never drops that
    /// far (MDS's behaviour).
    pub fn knee(&self, fraction: f64) -> Option<u64> {
        let base = self.points.first()?.mpki;
        if base == 0.0 {
            return None;
        }
        self.points
            .iter()
            .find(|p| p.mpki <= base * fraction)
            .map(|p| p.llc_bytes)
    }

    /// Ratio of the last point's MPKI to the first point's (1.0 = flat).
    pub fn flatness(&self) -> f64 {
        match (self.points.first(), self.points.last()) {
            (Some(a), Some(b)) if a.mpki > 0.0 => b.mpki / a.mpki,
            _ => 1.0,
        }
    }
}

/// Figures 4–6: LLC miss-per-1000-instructions vs cache size.
#[derive(Debug, Clone, Copy)]
pub struct CacheSizeStudy {
    /// Scale knob applied to workloads *and* cache sizes.
    pub scale: Scale,
    /// CMP class (determines thread count).
    pub cmp: CmpClass,
    /// Dataset seed.
    pub seed: u64,
}

impl CacheSizeStudy {
    /// Study for one CMP class at the given scale.
    pub fn new(scale: Scale, cmp: CmpClass, seed: u64) -> Self {
        CacheSizeStudy { scale, cmp, seed }
    }

    /// Runs one workload across the full size sweep: the workload's
    /// stream comes from `broker` — captured at most once per process,
    /// or loaded from the broker's on-disk store — and every size is a
    /// board replaying it.
    pub fn run(&self, broker: &CaptureBroker, workload: WorkloadId) -> Result<CacheSizeCurve> {
        self.run_with_sizes(broker, workload, &paper_cache_sizes(self.scale))
    }

    /// Runs one workload across a custom size list.
    pub fn run_with_sizes(
        &self,
        broker: &CaptureBroker,
        workload: WorkloadId,
        sizes: &[u64],
    ) -> Result<CacheSizeCurve> {
        // The platform side only: every board brings its own LLC.
        let cfg = CoSimConfig::scaled(self.cmp.cores(), 1 << 20, self.scale)?;
        let boards = sizes
            .iter()
            .map(|&s| Ok(cfg.board_config(CacheConfig::lru(s, 64, 16)?)))
            .collect::<Result<Vec<_>>>()?;
        let sim = CoSimulation::new(cfg);
        let stream = sim.captured(broker, workload, self.scale, self.seed);
        let reports = CoSimulation::replay_boards(&stream, &boards)?;
        Ok(CacheSizeCurve {
            workload,
            cmp: self.cmp,
            points: reports.iter().map(point_of).collect(),
        })
    }
}

fn point_of(r: &CoSimReport) -> CachePoint {
    CachePoint {
        llc_bytes: r.llc_bytes,
        mpki: r.mpki,
        misses: r.llc.misses,
        instructions: r.run.instructions,
    }
}

/// One (line size, MPKI) measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinePoint {
    /// LLC line size in bytes.
    pub line_bytes: u64,
    /// LLC misses per 1000 instructions.
    pub mpki: f64,
}

/// The line-size sensitivity curve of one workload (Figure 7).
#[derive(Debug, Clone, PartialEq)]
pub struct LineSizeCurve {
    /// Which workload.
    pub workload: WorkloadId,
    /// Points in ascending line-size order.
    pub points: Vec<LinePoint>,
}

impl LineSizeCurve {
    /// MPKI improvement factor from the first line size to `line`.
    pub fn improvement_at(&self, line: u64) -> f64 {
        let base = self.points.first().map(|p| p.mpki).unwrap_or(0.0);
        let at = self
            .points
            .iter()
            .find(|p| p.line_bytes == line)
            .map(|p| p.mpki)
            .unwrap_or(base);
        if at == 0.0 {
            f64::INFINITY
        } else {
            base / at
        }
    }
}

/// Figure 7: line-size sensitivity on the LCMP with a 32 MB LLC.
#[derive(Debug, Clone, Copy)]
pub struct LineSizeStudy {
    /// Scale knob.
    pub scale: Scale,
    /// Dataset seed.
    pub seed: u64,
    /// Thread count (paper: 32 — LCMP).
    pub cores: usize,
    /// LLC capacity at paper scale (paper: 32 MB), scaled internally.
    pub llc_paper_bytes: u64,
}

impl LineSizeStudy {
    /// The paper's setup: 32 cores, 32 MB LLC.
    pub fn new(scale: Scale, seed: u64) -> Self {
        LineSizeStudy {
            scale,
            seed,
            cores: CmpClass::Large.cores(),
            llc_paper_bytes: 32 << 20,
        }
    }

    /// Runs one workload across the line-size sweep: one stream (shared
    /// with every other study at this `{workload, cores, scale, seed}`)
    /// drives one board per line size.
    pub fn run(&self, broker: &CaptureBroker, workload: WorkloadId) -> Result<LineSizeCurve> {
        let size = self.scale.pow2_bytes(self.llc_paper_bytes, 64 << 10);
        let cfg = CoSimConfig::scaled(self.cores, size, self.scale)?;
        let boards = paper_line_sizes()
            .iter()
            .map(|&line| Ok(cfg.board_config(llc_config(size, line, 16)?)))
            .collect::<Result<Vec<_>>>()?;
        let sim = CoSimulation::new(cfg);
        let stream = sim.captured(broker, workload, self.scale, self.seed);
        let reports = CoSimulation::replay_boards(&stream, &boards)?;
        Ok(LineSizeCurve {
            workload,
            points: reports
                .iter()
                .map(|r| LinePoint {
                    line_bytes: r.llc_line_bytes,
                    mpki: r.mpki,
                })
                .collect(),
        })
    }
}

/// Figure 8 result for one workload: prefetch speedups.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrefetchResult {
    /// Which workload.
    pub workload: WorkloadId,
    /// Speedup of prefetch-on over prefetch-off, single-threaded.
    pub serial_speedup: f64,
    /// Speedup of prefetch-on over prefetch-off, 16 threads.
    pub parallel_speedup: f64,
    /// Bus utilization of the parallel prefetch-on run.
    pub parallel_utilization: f64,
}

/// Figure 8: hardware-prefetching benefit on a 16-way Xeon-class SMP.
#[derive(Debug, Clone, Copy)]
pub struct PrefetchStudy {
    /// Scale knob.
    pub scale: Scale,
    /// Dataset seed.
    pub seed: u64,
    /// Timing model of the measured machine.
    pub machine: MachineConfig,
    /// Parallel thread count (paper: 16).
    pub parallel_threads: usize,
    /// Per-processor cache capacity at paper scale (the Unisys Xeon's
    /// ~1 MB), scaled internally.
    pub cache_paper_bytes: u64,
}

impl PrefetchStudy {
    /// The paper's setup: 16-way Xeon with a stride prefetcher.
    pub fn new(scale: Scale, seed: u64) -> Self {
        PrefetchStudy {
            scale,
            seed,
            machine: MachineConfig::xeon_2007(),
            parallel_threads: 16,
            cache_paper_bytes: 1 << 20,
        }
    }

    /// Runs one workload in serial and parallel mode, prefetch off/on,
    /// and evaluates the timing model. The serial and parallel streams
    /// come from `broker`; each replays into a prefetch-off and a
    /// prefetch-on board.
    pub fn run(&self, broker: &CaptureBroker, workload: WorkloadId) -> Result<PrefetchResult> {
        let llc_bytes = self.scale.pow2_bytes(self.cache_paper_bytes, 16 << 10);
        let (serial_speedup, _s_util) = self.speedup(broker, workload, 1, llc_bytes)?;
        let (parallel_speedup, parallel_utilization) =
            self.speedup(broker, workload, self.parallel_threads, llc_bytes)?;
        Ok(PrefetchResult {
            workload,
            serial_speedup,
            parallel_speedup,
            parallel_utilization,
        })
    }

    /// The era-accurate prefetcher of the prefetch-on board: a small
    /// stream table (concurrent parallel streams compete for entries,
    /// one of the reasons the paper's parallel runs see different gains
    /// than serial ones), conservative degree and distance.
    const PREFETCHER: StrideConfig = StrideConfig {
        table_entries: 64,
        region_lines: 64,
        degree: 1,
        distance: 2,
        train_threshold: 2,
    };

    /// Speedup of prefetch-on over prefetch-off at `threads`, and the
    /// prefetch-on run's bus utilization.
    fn speedup(
        &self,
        broker: &CaptureBroker,
        workload: WorkloadId,
        threads: usize,
        llc_bytes: u64,
    ) -> Result<(f64, f64)> {
        let cfg = CoSimConfig::scaled(threads, llc_bytes, self.scale)?;
        let off = cfg.board_config(CacheConfig::lru(llc_bytes, 64, 16)?);
        let sim = CoSimulation::new(cfg);
        let stream = sim.captured(broker, workload, self.scale, self.seed);
        let boards = [off, off.with_prefetch(Self::PREFETCHER)];
        let reports = CoSimulation::replay_boards(&stream, &boards)?;
        let t_off = self.machine.evaluate(&reports[0].run_counts());
        let t_on = self.machine.evaluate(&reports[1].run_counts());
        Ok((t_on.speedup_over(&t_off), t_on.utilization))
    }
}

/// One row of Table 2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table2Row {
    /// Which workload.
    pub workload: WorkloadId,
    /// Modeled IPC on the P4-class machine.
    pub ipc: f64,
    /// Instructions retired (run to completion at this scale).
    pub instructions: u64,
    /// Fraction of instructions referencing memory.
    pub memory_fraction: f64,
    /// Fraction of instructions that are memory reads.
    pub read_fraction: f64,
    /// DL1 accesses per 1000 instructions.
    pub dl1_apki: f64,
    /// DL1 misses per 1000 instructions.
    pub dl1_mpki: f64,
    /// DL2 misses per 1000 instructions.
    pub dl2_mpki: f64,
}

/// Table 2: single-threaded workload characterization on a Pentium 4
/// class machine (8 KB DL1, 512 KB L2).
#[derive(Debug, Clone, Copy)]
pub struct Table2Study {
    /// Scale knob.
    pub scale: Scale,
    /// Dataset seed.
    pub seed: u64,
    /// Timing model for the IPC column.
    pub machine: MachineConfig,
}

impl Table2Study {
    /// The paper's measurement setup.
    pub fn new(scale: Scale, seed: u64) -> Self {
        // The P4's memory latency was long relative to its issue rate;
        // model it with the default Xeon-class parameters.
        Table2Study {
            scale,
            seed,
            machine: MachineConfig::xeon_2007(),
        }
    }

    /// Characterizes one workload. Every Table 2 column is
    /// platform-side, so this needs only the stream's run summary — no
    /// board is even replayed.
    pub fn run(&self, broker: &CaptureBroker, workload: WorkloadId) -> Result<Table2Row> {
        let mut cfg = CoSimConfig::new(1, 1 << 20)?;
        cfg.hierarchy = HierarchyConfig::pentium4_scaled(self.scale);
        let sim = CoSimulation::new(cfg);
        let stream = sim.captured(broker, workload, self.scale, self.seed);
        Ok(self.row_of(workload, stream.run()))
    }

    fn row_of(&self, workload: WorkloadId, run: &RunSummary) -> Table2Row {
        // The P4 has no LLC: memory traffic = DL2 misses.
        let counts = RunCounts {
            instructions: run.instructions,
            l2_hits: run.l2.hits,
            llc_hits: 0,
            mem_fills: run.l2.misses,
            prefetch_fills: 0,
            mem_writebacks: run.l2.writebacks,
            threads: 1,
        };
        let timing = self.machine.evaluate(&counts);
        Table2Row {
            workload,
            ipc: timing.ipc,
            instructions: run.instructions,
            memory_fraction: run.memory_fraction(),
            read_fraction: run.loads as f64 / run.instructions.max(1) as f64,
            dl1_apki: run.l1.apki(run.instructions),
            dl1_mpki: run.l1.mpki(run.instructions),
            dl2_mpki: run.l2.mpki(run.instructions),
        }
    }
}

/// E-X1: sharing-category ablation — the thread-scaling miss ratio at a
/// fixed LLC distinguishes category (a) (shared primary structure, flat)
/// from category (b) (private per-thread data, growing).
#[derive(Debug, Clone, Copy)]
pub struct SharingStudy {
    /// Scale knob.
    pub scale: Scale,
    /// Dataset seed.
    pub seed: u64,
    /// LLC capacity at paper scale (default 32 MB).
    pub llc_paper_bytes: u64,
}

/// Result of the sharing ablation for one workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SharingResult {
    /// Which workload.
    pub workload: WorkloadId,
    /// LLC misses with 8 threads / LLC misses with 1 thread.
    pub miss_growth_8x: f64,
    /// Whether the paper classifies this workload as sharing a primary
    /// structure (category (a)).
    pub paper_category_shared: bool,
}

impl SharingStudy {
    /// Default setup (32 MB LLC at paper scale).
    pub fn new(scale: Scale, seed: u64) -> Self {
        SharingStudy {
            scale,
            seed,
            llc_paper_bytes: 32 << 20,
        }
    }

    /// Runs the ablation for one workload. The two thread counts are two
    /// *different* streams (thread count is platform-side), but each is
    /// shared with every other study at the same configuration.
    pub fn run(&self, broker: &CaptureBroker, workload: WorkloadId) -> Result<SharingResult> {
        let llc = self.scale.pow2_bytes(self.llc_paper_bytes, 64 << 10);
        // Normalized by instructions: the ratio is of MPKI.
        let mpki = |threads: usize| -> Result<f64> {
            let sim = CoSimulation::new(CoSimConfig::scaled(threads, llc, self.scale)?);
            let stream = sim.captured(broker, workload, self.scale, self.seed);
            Ok(sim.replay(&stream)?.mpki)
        };
        let (single, eight) = (mpki(1)?, mpki(8)?);
        Ok(SharingResult {
            workload,
            miss_growth_8x: if single > 0.0 { eight / single } else { 1.0 },
            paper_category_shared: workload.shares_primary_structure(),
        })
    }
}

/// E-X2: replacement-policy ablation on the Figure 4 sweep.
#[derive(Debug, Clone, Copy)]
pub struct ReplacementStudy {
    /// Scale knob.
    pub scale: Scale,
    /// Dataset seed.
    pub seed: u64,
}

impl ReplacementStudy {
    /// Runs one workload on the SCMP size sweep under each policy,
    /// returning `(policy, curve)` pairs. Replacement policy is purely
    /// board-side, so all four policies (28 boards in total) replay one
    /// stream in one pass.
    pub fn run(
        &self,
        broker: &CaptureBroker,
        workload: WorkloadId,
    ) -> Result<Vec<(ReplacementPolicy, CacheSizeCurve)>> {
        const POLICIES: [ReplacementPolicy; 4] = [
            ReplacementPolicy::Lru,
            ReplacementPolicy::TreePlru,
            ReplacementPolicy::Fifo,
            ReplacementPolicy::Random,
        ];
        let sizes = paper_cache_sizes(self.scale);
        // The platform side only: every board brings its own LLC.
        let cfg = CoSimConfig::scaled(CmpClass::Small.cores(), 1 << 20, self.scale)?;
        let mut boards = Vec::with_capacity(POLICIES.len() * sizes.len());
        for policy in POLICIES {
            for &s in &sizes {
                let llc = CacheConfig::builder()
                    .size_bytes(s)
                    .line_bytes(64)
                    .associativity(16)
                    .replacement(policy)
                    .build()?;
                boards.push(cfg.board_config(llc));
            }
        }
        let sim = CoSimulation::new(cfg);
        let stream = sim.captured(broker, workload, self.scale, self.seed);
        let reports = CoSimulation::replay_boards(&stream, &boards)?;
        Ok(POLICIES
            .into_iter()
            .zip(reports.chunks(sizes.len()))
            .map(|(policy, reports)| {
                let curve = CacheSizeCurve {
                    workload,
                    cmp: CmpClass::Small,
                    points: reports.iter().map(point_of).collect(),
                };
                (policy, curve)
            })
            .collect())
    }
}

/// E-X3: thread-scaling projection beyond the paper's 32 cores (§4.3
/// speculates about 128-core behaviour).
#[derive(Debug, Clone, Copy)]
pub struct ProjectionStudy {
    /// Scale knob.
    pub scale: Scale,
    /// Dataset seed.
    pub seed: u64,
    /// LLC capacity at paper scale (default 32 MB).
    pub llc_paper_bytes: u64,
}

impl ProjectionStudy {
    /// Default setup.
    pub fn new(scale: Scale, seed: u64) -> Self {
        ProjectionStudy {
            scale,
            seed,
            llc_paper_bytes: 32 << 20,
        }
    }

    /// MPKI at a fixed LLC for each core count in `cores`. Each core
    /// count is its own stream (platform-side), replayed into the fixed
    /// LLC.
    pub fn run(
        &self,
        broker: &CaptureBroker,
        workload: WorkloadId,
        cores: &[usize],
    ) -> Result<Vec<(usize, f64)>> {
        let llc = self.scale.pow2_bytes(self.llc_paper_bytes, 64 << 10);
        cores
            .iter()
            .map(|&n| {
                let sim = CoSimulation::new(CoSimConfig::scaled(n, llc, self.scale)?);
                let stream = sim.captured(broker, workload, self.scale, self.seed);
                Ok((n, sim.replay(&stream)?.mpki))
            })
            .collect()
    }
}

/// E-X4: shared vs private LLC organization.
///
/// The paper's related work (§5) points at the shared/private LLC
/// trade-off (Liu et al., Nurvitadhi et al.); this study runs the same
/// workload against one shared LLC of capacity `C` and against per-core
/// private slices of `C / cores`, both passively emulated on one bus.
/// Category (a) workloads (shared primary structure) lose badly with
/// private slices — every core re-fetches the same lines; category (b)
/// workloads are largely indifferent.
#[derive(Debug, Clone, Copy)]
pub struct LlcOrganizationStudy {
    /// Scale knob.
    pub scale: Scale,
    /// Dataset seed.
    pub seed: u64,
    /// Core count.
    pub cores: usize,
    /// Total LLC capacity at paper scale, scaled internally.
    pub llc_paper_bytes: u64,
}

/// Result of the organization study for one workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LlcOrganizationResult {
    /// Which workload.
    pub workload: WorkloadId,
    /// MPKI with one shared LLC.
    pub shared_mpki: f64,
    /// MPKI with per-core private slices of the same total capacity.
    pub private_mpki: f64,
}

impl LlcOrganizationResult {
    /// Private/shared miss ratio (> 1 means sharing wins).
    pub fn private_penalty(&self) -> f64 {
        if self.shared_mpki == 0.0 {
            1.0
        } else {
            self.private_mpki / self.shared_mpki
        }
    }
}

impl LlcOrganizationStudy {
    /// Default setup: 8 cores, 32 MB-class total capacity.
    pub fn new(scale: Scale, seed: u64) -> Self {
        LlcOrganizationStudy {
            scale,
            seed,
            cores: CmpClass::Small.cores(),
            llc_paper_bytes: 32 << 20,
        }
    }

    /// Runs one workload under both organizations: one stream drives
    /// the shared board and one private slice per core, each slice a
    /// board whose core filter keeps only the data its AF attributes to
    /// that core.
    pub fn run(
        &self,
        broker: &CaptureBroker,
        workload: WorkloadId,
    ) -> Result<LlcOrganizationResult> {
        let total = self.scale.pow2_bytes(self.llc_paper_bytes, 64 << 10);
        let slice = (total / self.cores as u64).max(16 << 10);
        let cfg = CoSimConfig::scaled(self.cores, total, self.scale)?;
        let shared = cfg.board_config(llc_config(total, 64, 16)?);
        let private = cfg.board_config(llc_config(slice, 64, 16)?);
        let boards: Vec<DragonheadConfig> = std::iter::once(shared)
            .chain((0..self.cores as u32).map(|core| DragonheadConfig {
                core_filter: Some(core),
                ..private
            }))
            .collect();
        let sim = CoSimulation::new(cfg);
        let stream = sim.captured(broker, workload, self.scale, self.seed);
        let reports = CoSimulation::replay_boards(&stream, &boards)?;
        let slices = CacheStats {
            misses: reports[1..].iter().map(|s| s.llc.misses).sum(),
            ..Default::default()
        };
        Ok(LlcOrganizationResult {
            workload,
            shared_mpki: reports[0].mpki,
            private_mpki: slices.mpki(stream.run().instructions),
        })
    }
}

/// Phase-behavior study: MPKI over time from the 500 µs samples.
///
/// §1 of the paper argues for *run-to-completion* simulation precisely
/// because "it supports changing application phase behavior and also
/// helps choose representative regions for detailed simulation" — this
/// study exposes that time series.
#[derive(Debug, Clone, Copy)]
pub struct PhaseStudy {
    /// Scale knob.
    pub scale: Scale,
    /// Dataset seed.
    pub seed: u64,
    /// Core count.
    pub cores: usize,
    /// LLC capacity at paper scale, scaled internally.
    pub llc_paper_bytes: u64,
    /// Sampling period in bus cycles.
    pub sample_period: u64,
}

/// One interval of the phase series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhasePoint {
    /// End cycle of the interval.
    pub cycle: u64,
    /// Misses per 1000 instructions within the interval.
    pub interval_mpki: f64,
}

impl PhaseStudy {
    /// Default setup: 8 cores, 32 MB-class LLC, fine sampling.
    pub fn new(scale: Scale, seed: u64) -> Self {
        PhaseStudy {
            scale,
            seed,
            cores: CmpClass::Small.cores(),
            llc_paper_bytes: 32 << 20,
            sample_period: 20_000,
        }
    }

    /// Runs one workload to completion and returns its MPKI-over-time
    /// series. The sampler runs during replay (sampling is board-side).
    pub fn run(&self, broker: &CaptureBroker, workload: WorkloadId) -> Result<Vec<PhasePoint>> {
        let llc = self.scale.pow2_bytes(self.llc_paper_bytes, 64 << 10);
        let mut cfg = CoSimConfig::scaled(self.cores, llc, self.scale)?;
        cfg.sample_period = self.sample_period;
        let sim = CoSimulation::new(cfg);
        let stream = sim.captured(broker, workload, self.scale, self.seed);
        Ok(Self::series_of(&sim.replay(&stream)?.samples))
    }

    fn series_of(samples: &[Sample]) -> Vec<PhasePoint> {
        let mut out = Vec::with_capacity(samples.len());
        let mut prev = Sample::default();
        for s in samples {
            out.push(PhasePoint {
                cycle: s.cycle,
                interval_mpki: s.interval_mpki(&prev),
            });
            prev = *s;
        }
        out
    }

    /// Coefficient of variation of the interval MPKI — a scalar measure
    /// of how much phase behavior a workload has (0 = perfectly steady).
    pub fn phase_variability(series: &[PhasePoint]) -> f64 {
        let vals: Vec<f64> = series
            .iter()
            .map(|p| p.interval_mpki)
            .filter(|v| v.is_finite())
            .collect();
        if vals.len() < 2 {
            return 0.0;
        }
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        if mean == 0.0 {
            return 0.0;
        }
        let var = vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / vals.len() as f64;
        var.sqrt() / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY_SIZES: [u64; 4] = [16 << 10, 64 << 10, 256 << 10, 1 << 20];

    #[test]
    fn llc_config_clamps_ways() {
        // Plenty of room: preferred associativity kept.
        assert_eq!(llc_config(1 << 20, 64, 16).unwrap().associativity(), 16);
        // 32 KB per bank with 4 KB lines leaves 8 lines: ways clamp to 8.
        let tight = llc_config(128 << 10, 4096, 16).unwrap();
        assert_eq!(tight.associativity(), 8);
        assert!(tight.num_sets() >= 1);
        // Degenerate: one line per bank.
        let degenerate = llc_config(16 << 10, 4096, 16).unwrap();
        assert_eq!(degenerate.associativity(), 1);
    }

    #[test]
    fn llc_config_4k_lines_on_smallest_scaled_caches() {
        // The tiny-scale floor of the Figures 4-6 sweep is 16 KB; with
        // the Figure 7 maximum line of 4096 B a bank (size/4) holds
        // exactly one line, so `max_ways` bottoms out at 1 and the
        // `min(1 << max_ways.ilog2())` clamp forces direct-mapped.
        let smallest = *paper_cache_sizes(Scale::tiny()).first().unwrap();
        assert_eq!(smallest, 16 << 10);
        let cfg = llc_config(smallest, 4096, 16).unwrap();
        assert_eq!(cfg.associativity(), 1);
        assert_eq!(cfg.line_bytes(), 4096);
        assert_eq!(cfg.num_sets(), 4);
        // One line *total* per bank (8 KB cache): still valid, still
        // direct-mapped, via the same clamp path (per_bank < line).
        let one_line_banks = llc_config(8 << 10, 4096, 16).unwrap();
        assert_eq!(one_line_banks.associativity(), 1);
        assert_eq!(one_line_banks.num_sets(), 2);
        // Every (scaled size, paper line) pair of the Figure 7 grid
        // clamps to a buildable geometry.
        for &size in &paper_cache_sizes(Scale::tiny()) {
            for &line in &paper_line_sizes() {
                let cfg = llc_config(size, line, 16).unwrap();
                assert!(cfg.associativity() >= 1);
                assert!(u64::from(cfg.associativity()) * line <= size / 4);
            }
        }
    }

    #[test]
    fn llc_config_surfaces_impossible_geometries_as_errors() {
        // Capacity below a single line: no clamp can save this.
        assert!(llc_config(2 << 10, 4096, 16).is_err());
        // Non-power-of-two capacity is a builder error, not a panic.
        assert!(llc_config(3 << 20, 64, 16).is_err());
    }

    #[test]
    fn cmp_classes() {
        assert_eq!(CmpClass::Small.cores(), 8);
        assert_eq!(CmpClass::Medium.cores(), 16);
        assert_eq!(CmpClass::Large.cores(), 32);
        assert_eq!(CmpClass::Large.to_string(), "LCMP");
        for c in CmpClass::all() {
            assert_eq!(c.name().parse::<CmpClass>().unwrap(), c);
        }
        assert!("XCMP".parse::<CmpClass>().is_err());
    }

    #[test]
    fn paper_sizes_scale_together() {
        let paper = paper_cache_sizes(Scale::paper());
        assert_eq!(paper[0], 4 << 20);
        assert_eq!(paper[6], 256 << 20);
        let ci = paper_cache_sizes(Scale::ci());
        assert_eq!(ci[0], 256 << 10);
        assert_eq!(ci[6], 16 << 20);
    }

    #[test]
    fn svmrfe_curve_has_knee() {
        let study = CacheSizeStudy::new(Scale::tiny(), CmpClass::Small, 1);
        let broker = CaptureBroker::in_memory();
        let curve = study
            .run_with_sizes(&broker, WorkloadId::SvmRfe, &TINY_SIZES)
            .unwrap();
        assert_eq!(curve.points.len(), TINY_SIZES.len());
        // One execution feeds the whole sweep.
        assert_eq!(broker.counters().captures, 1);
        // MPKI decreases with size and drops substantially once the
        // blocked working set fits.
        assert!(curve.flatness() < 0.6, "flatness {}", curve.flatness());
    }

    #[test]
    fn bad_sweep_geometry_is_a_config_error() {
        let study = CacheSizeStudy::new(Scale::tiny(), CmpClass::Small, 1);
        let broker = CaptureBroker::in_memory();
        let err = study
            .run_with_sizes(&broker, WorkloadId::Fimi, &[48 << 10])
            .unwrap_err();
        assert!(
            matches!(&err, CoSimError::Invariant { name, .. } if name == "config"),
            "{err}"
        );
    }

    #[test]
    fn knee_detection() {
        let curve = CacheSizeCurve {
            workload: WorkloadId::SvmRfe,
            cmp: CmpClass::Small,
            points: vec![
                CachePoint {
                    llc_bytes: 1,
                    mpki: 10.0,
                    misses: 0,
                    instructions: 0,
                },
                CachePoint {
                    llc_bytes: 2,
                    mpki: 9.0,
                    misses: 0,
                    instructions: 0,
                },
                CachePoint {
                    llc_bytes: 4,
                    mpki: 2.0,
                    misses: 0,
                    instructions: 0,
                },
            ],
        };
        assert_eq!(curve.knee(0.5), Some(4));
        assert_eq!(curve.knee(0.05), None);
    }

    #[test]
    fn line_size_improves_streaming_workload() {
        let mut study = LineSizeStudy::new(Scale::tiny(), 2);
        study.cores = 4; // keep the test fast
        let curve = study
            .run(&CaptureBroker::in_memory(), WorkloadId::Shot)
            .unwrap();
        assert_eq!(curve.points.len(), paper_line_sizes().len());
        assert!(
            curve.improvement_at(256) > 1.5,
            "SHOT should gain from 256B lines: {:?}",
            curve.points
        );
    }

    #[test]
    fn prefetch_speeds_up_streaming_workload() {
        let mut study = PrefetchStudy::new(Scale::tiny(), 3);
        study.parallel_threads = 4;
        let r = study
            .run(&CaptureBroker::in_memory(), WorkloadId::Shot)
            .unwrap();
        assert!(r.serial_speedup > 1.0, "serial {}", r.serial_speedup);
        assert!(r.parallel_speedup > 1.0, "parallel {}", r.parallel_speedup);
    }

    #[test]
    fn table2_plsa_row_matches_paper_shape() {
        let study = Table2Study::new(Scale::tiny(), 4);
        let row = study
            .run(&CaptureBroker::in_memory(), WorkloadId::Plsa)
            .unwrap();
        assert!((row.memory_fraction - 0.831).abs() < 0.02);
        assert!(row.dl1_apki > 700.0, "PLSA DL1 APKI {}", row.dl1_apki);
        // PLSA has the lowest L2 MPKI in the paper (0.18).
        assert!(row.dl2_mpki < 5.0, "PLSA DL2 MPKI {}", row.dl2_mpki);
        assert!(row.ipc > 0.5, "PLSA IPC {}", row.ipc);
    }

    #[test]
    fn private_slices_hurt_shared_structure_workloads_more() {
        let study = LlcOrganizationStudy {
            cores: 4,
            ..LlcOrganizationStudy::new(Scale::tiny(), 8)
        };
        let broker = CaptureBroker::in_memory();
        let svm = study.run(&broker, WorkloadId::SvmRfe).unwrap(); // category (a)
        let shot = study.run(&broker, WorkloadId::Shot).unwrap(); // category (b)
        assert!(
            svm.private_penalty() > 1.0,
            "shared-structure workload must lose with private slices: {:?}",
            svm
        );
        assert!(
            svm.private_penalty() > shot.private_penalty() * 0.9,
            "category (a) penalty {} should be at least category (b)'s {}",
            svm.private_penalty(),
            shot.private_penalty()
        );
    }

    #[test]
    fn phase_series_is_produced_and_fimi_has_phases() {
        let mut study = PhaseStudy::new(Scale::tiny(), 6);
        study.sample_period = 5_000;
        let series = study
            .run(&CaptureBroker::in_memory(), WorkloadId::Fimi)
            .unwrap();
        assert!(series.len() >= 4, "too few samples: {}", series.len());
        // FIMI's three stages (scan, build, mine) have distinct miss
        // behavior; the series must show real variability.
        let cv = PhaseStudy::phase_variability(&series);
        assert!(cv > 0.1, "FIMI phase variability {cv}");
    }

    #[test]
    fn phase_variability_of_constant_series_is_zero() {
        let series = vec![
            PhasePoint {
                cycle: 1,
                interval_mpki: 2.0,
            },
            PhasePoint {
                cycle: 2,
                interval_mpki: 2.0,
            },
        ];
        assert_eq!(PhaseStudy::phase_variability(&series), 0.0);
        assert_eq!(PhaseStudy::phase_variability(&[]), 0.0);
    }

    #[test]
    fn replacement_study_replays_one_stream_for_every_policy() {
        let broker = CaptureBroker::in_memory();
        let rp = ReplacementStudy {
            scale: Scale::tiny(),
            seed: 2,
        };
        let curves = rp.run(&broker, WorkloadId::Fimi).unwrap();
        // Replacement policy is board-side: four policies, one capture.
        assert_eq!(broker.counters().captures, 1);
        assert_eq!(curves.len(), 4);
        assert!(curves.iter().all(|(_, c)| c.points.len() == 7));
        // The LRU curve is exactly Figure 4's, from the same stream.
        let fig4 = CacheSizeStudy::new(Scale::tiny(), CmpClass::Small, 2);
        assert_eq!(curves[0].1, fig4.run(&broker, WorkloadId::Fimi).unwrap());
        assert_eq!(broker.counters().captures, 1);
    }

    #[test]
    fn sharing_study_separates_categories() {
        let study = SharingStudy::new(Scale::tiny(), 5);
        let broker = CaptureBroker::in_memory();
        let shot = study.run(&broker, WorkloadId::Shot).unwrap();
        let svm = study.run(&broker, WorkloadId::SvmRfe).unwrap();
        assert!(!shot.paper_category_shared);
        assert!(svm.paper_category_shared);
        assert!(
            shot.miss_growth_8x > svm.miss_growth_8x,
            "SHOT {} vs SVM-RFE {}",
            shot.miss_growth_8x,
            svm.miss_growth_8x
        );
    }
}
