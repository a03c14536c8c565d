//! The assembled Dragonhead board.

use crate::af::{AddressFilter, FilterOutcome};
use crate::cc::BankedCache;
use crate::sampler::{Sampler, SamplerError};
use cmpsim_cache::{CacheConfig, CacheStats, ConfigError};
use cmpsim_prefetch::{Prefetcher, StrideConfig, StridePrefetcher};
use cmpsim_telemetry::{Labels, MetricRegistry};
use cmpsim_trace::{FsbKind, FsbTransaction};

/// Dragonhead configuration: the emulated cache plus board parameters.
#[derive(Debug, Clone, Copy)]
pub struct DragonheadConfig {
    /// Geometry and policies of the emulated shared LLC. The hardware
    /// supports 1 MB–256 MB, 64 B–4096 B lines, LRU.
    pub cache: CacheConfig,
    /// Cache-controller FPGAs the LLC is interleaved across (CC0–CC3).
    pub banks: u32,
    /// Host sampling period in bus cycles (500 µs at 100 MHz = 50 000).
    pub sample_period: u64,
    /// Attach a stride prefetcher in front of the emulated LLC.
    pub prefetch: Option<StrideConfig>,
    /// Emulate only the data the AF attributes to this core: a private
    /// LLC slice. The board still observes every transaction, so its AF
    /// tracks the same window, core-id and counter messages as an
    /// unfiltered board; other cores' data never reaches the cache or
    /// the sampler. `None` emulates every core's data.
    pub core_filter: Option<u32>,
}

impl DragonheadConfig {
    /// Default board setup for a given emulated cache: 4 banks, 500 µs
    /// sampling, no prefetcher.
    pub fn new(cache: CacheConfig) -> Self {
        DragonheadConfig {
            cache,
            banks: 4,
            sample_period: crate::sampler::DEFAULT_PERIOD_CYCLES,
            prefetch: None,
            core_filter: None,
        }
    }

    /// Enables the stride prefetcher.
    pub fn with_prefetch(mut self, cfg: StrideConfig) -> Self {
        self.prefetch = Some(cfg);
        self
    }
}

/// Per-core demand counters, as the CB reports them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreCounters {
    /// Demand LLC accesses attributed to this core.
    pub accesses: u64,
    /// Demand LLC misses attributed to this core.
    pub misses: u64,
}

/// The whole emulator: AF → CC0..CC3 → CB, with host sampling.
///
/// Feed it every bus transaction via [`observe`](Dragonhead::observe);
/// read totals via [`stats`](Dragonhead::stats), per-core counters via
/// [`per_core`](Dragonhead::per_core), and the 500 µs time series via
/// [`samples`](Dragonhead::samples).
#[derive(Debug)]
pub struct Dragonhead {
    cfg: DragonheadConfig,
    af: AddressFilter,
    cc: BankedCache,
    sampler: Sampler,
    per_core: Vec<CoreCounters>,
    prefetcher: Option<StridePrefetcher>,
    prefetch_buf: Vec<u64>,
    prefetch_issued_to_memory: u64,
    wb_absorbed: u64,
    wb_to_memory: u64,
    data_path_messages: u64,
}

impl Dragonhead {
    /// Builds the emulator.
    ///
    /// # Panics
    ///
    /// Panics if the per-bank cache geometry is invalid; use
    /// [`try_new`](Dragonhead::try_new) to handle that structurally.
    pub fn new(cfg: DragonheadConfig) -> Self {
        Self::try_new(cfg).expect("bank geometry must divide")
    }

    /// Builds the emulator, reporting an invalid per-bank cache geometry
    /// (e.g. a size that does not divide evenly across banks, or zero
    /// banks) as an error instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns the [`ConfigError`] from the banked-cache construction.
    pub fn try_new(cfg: DragonheadConfig) -> Result<Self, ConfigError> {
        Ok(Dragonhead {
            af: AddressFilter::new(),
            cc: BankedCache::new(cfg.cache, cfg.banks)?,
            sampler: Sampler::new(cfg.sample_period),
            per_core: Vec::new(),
            prefetcher: cfg.prefetch.map(StridePrefetcher::new),
            prefetch_buf: Vec::new(),
            prefetch_issued_to_memory: 0,
            wb_absorbed: 0,
            wb_to_memory: 0,
            data_path_messages: 0,
            cfg,
        })
    }

    /// The configuration the board was built with.
    pub const fn config(&self) -> &DragonheadConfig {
        &self.cfg
    }

    /// Observes one FSB transaction (the snoop port).
    pub fn observe(&mut self, txn: &FsbTransaction) {
        match self.af.filter(txn) {
            FilterOutcome::Control(_)
            | FilterOutcome::Malformed(_)
            | FilterOutcome::Quarantined(_) => {}
            FilterOutcome::Excluded => {}
            FilterOutcome::Emulate { core } if self.emulates(core) => {
                let line = txn.addr.line(self.cfg.cache.line_bytes());
                self.emulate_line(core, txn, line);
            }
            FilterOutcome::Emulate { .. } => {}
        }
    }

    /// Whether this board emulates data the AF attributed to `core`.
    #[inline]
    fn emulates(&self, core: u32) -> bool {
        self.cfg.core_filter.is_none_or(|k| k == core)
    }

    /// Observes a whole batch of transactions — the replay fast path.
    ///
    /// Byte-identical to calling [`observe`](Dragonhead::observe) once
    /// per transaction; the batch form exists so per-batch constants
    /// (the line-size shift) are hoisted out of the per-transaction
    /// loop, and so sweep replay can keep one board's working set hot
    /// across a whole batch instead of round-robining boards on every
    /// transaction.
    pub fn observe_batch(&mut self, batch: &[FsbTransaction]) {
        let line_shift = self.cfg.cache.line_bytes().trailing_zeros();
        // Emulated LLCs dwarf the host's caches, so the tag lookup for a
        // random set is a host-DRAM stall — the dominant cost of replay.
        // Prime the set metadata a fixed distance ahead so the loads
        // overlap with emulation of the current transactions. The hint
        // touches no simulated state (messages prime a meaningless but
        // in-bounds set), so results stay byte-identical.
        const PRIME_AHEAD: usize = 16;
        for (i, txn) in batch.iter().enumerate() {
            if let Some(ahead) = batch.get(i + PRIME_AHEAD) {
                self.cc.prime_host_cache(ahead.addr.raw() >> line_shift);
            }
            match self.af.filter(txn) {
                FilterOutcome::Control(_)
                | FilterOutcome::Malformed(_)
                | FilterOutcome::Quarantined(_) => {}
                FilterOutcome::Excluded => {}
                // Line size is a power of two (enforced at config
                // build), so the shift equals `addr.line(line_bytes)`.
                FilterOutcome::Emulate { core } if self.emulates(core) => {
                    self.emulate_line(core, txn, txn.addr.raw() >> line_shift);
                }
                FilterOutcome::Emulate { .. } => {}
            }
        }
    }

    fn emulate_line(&mut self, core: u32, txn: &FsbTransaction, line: u64) {
        match txn.kind {
            FsbKind::ReadLine | FsbKind::ReadInvalidateLine => {
                let write = txn.kind == FsbKind::ReadInvalidateLine;
                let hit = self.cc.access_line(line, write);
                let c = self.core_mut(core);
                c.accesses += 1;
                c.misses += u64::from(!hit);
                if let Some(pf) = &mut self.prefetcher {
                    self.prefetch_buf.clear();
                    pf.observe(line, hit, &mut self.prefetch_buf);
                    for i in 0..self.prefetch_buf.len() {
                        let target = self.prefetch_buf[i];
                        if self.cc.prefetch_line(target) {
                            self.prefetch_issued_to_memory += 1;
                        }
                    }
                }
            }
            FsbKind::WriteLine => {
                if self.cc.receive_writeback(line) {
                    self.wb_absorbed += 1;
                } else {
                    self.wb_to_memory += 1;
                }
            }
            // The AF routes every message-window transaction to the
            // codec, so this arm fires only if the filter and the data
            // path ever disagree on classification — a protocol bug a
            // degraded channel must surface as a counter, not a panic.
            FsbKind::Message => {
                self.data_path_messages += 1;
                return;
            }
        }
        // Merging per-bank counters for the sampler is the single most
        // expensive step of a quiet transaction, so it only happens when
        // the tick would actually record a sample.
        if self.sampler.due(txn.cycle) {
            let s = self.stats();
            self.sampler
                .tick(txn.cycle, self.af.instructions(), s.accesses, s.misses);
        }
    }

    fn core_mut(&mut self, core: u32) -> &mut CoreCounters {
        let idx = core as usize;
        if idx >= self.per_core.len() {
            self.per_core.resize(idx + 1, CoreCounters::default());
        }
        &mut self.per_core[idx]
    }

    /// Demand counters merged across banks.
    pub fn stats(&self) -> CacheStats {
        self.cc.stats()
    }

    /// LLC misses per 1000 instructions, using the instruction count
    /// SoftSDV last reported — the y-axis of Figures 4–6.
    pub fn mpki(&self) -> f64 {
        self.stats().mpki(self.af.instructions())
    }

    /// Per-core demand counters.
    pub fn per_core(&self) -> &[CoreCounters] {
        &self.per_core
    }

    /// The 500 µs counter time series.
    pub fn samples(&self) -> &[crate::sampler::Sample] {
        self.sampler.samples()
    }

    /// The address filter (window state, exclusion counters).
    pub fn address_filter(&self) -> &AddressFilter {
        &self.af
    }

    /// Writebacks absorbed by the emulated LLC.
    pub fn writebacks_absorbed(&self) -> u64 {
        self.wb_absorbed
    }

    /// Writebacks that missed the LLC and went to memory.
    pub fn writebacks_to_memory(&self) -> u64 {
        self.wb_to_memory
    }

    /// Prefetch fills that caused memory traffic.
    pub fn prefetch_fills(&self) -> u64 {
        self.prefetch_issued_to_memory
    }

    /// Per-bank counters, as the CB reads each cache controller.
    pub fn bank_stats(&self) -> Vec<CacheStats> {
        self.cc.bank_stats()
    }

    /// Total lines resident across the LLC banks (for occupancy
    /// invariants: residency can never exceed capacity).
    pub fn resident_lines(&self) -> u64 {
        self.cc.resident_lines()
    }

    /// Desynchronizations the protocol decoder detected and recovered
    /// from (orphan payload halves).
    pub fn desyncs_detected(&self) -> u64 {
        self.af.protocol_stats().desyncs
    }

    /// Transactions quarantined anywhere on the board: undefined message
    /// kinds at the decoder, implausible decoded messages at the filter,
    /// and message-kind transactions that leaked into the data path.
    pub fn transactions_quarantined(&self) -> u64 {
        self.af.protocol_stats().quarantined + self.af.quarantined() + self.data_path_messages
    }

    /// Message transactions whose cycle stamps ran backwards.
    pub fn cycle_regressions(&self) -> u64 {
        self.af.protocol_stats().cycle_regressions
    }

    /// Closes out the sampler's trailing partial interval at `cycle`
    /// (see [`Sampler::flush`]); call once when the run ends so the tail
    /// of the 500 µs time series is not lost.
    ///
    /// # Errors
    ///
    /// Returns the [`SamplerError`] if `cycle` is behind the newest
    /// recorded sample (the host and emulator clocks desynchronized).
    pub fn flush(&mut self, cycle: u64) -> Result<(), SamplerError> {
        self.sampler.flush(
            cycle,
            self.af.instructions(),
            self.stats().accesses,
            self.stats().misses,
        )
    }

    /// Exports every board counter into `reg` as labeled series: the
    /// merged LLC demand counters, per-bank CC counters (`bank` label),
    /// per-core attribution (`core` label), AF window counters, and the
    /// writeback/prefetch memory-traffic split.
    pub fn export_metrics(&self, reg: &mut MetricRegistry) {
        let llc = self.stats();
        let none = Labels::none();
        reg.count("llc_accesses", &none, llc.accesses);
        reg.count("llc_hits", &none, llc.hits);
        reg.count("llc_misses", &none, llc.misses);
        reg.count("llc_evictions", &none, llc.evictions);
        reg.count("llc_writebacks", &none, llc.writebacks);
        for (i, b) in self.cc.bank_stats().iter().enumerate() {
            let l = Labels::none().with("bank", i.to_string());
            reg.count("llc_bank_accesses", &l, b.accesses);
            reg.count("llc_bank_misses", &l, b.misses);
        }
        for (i, c) in self.per_core.iter().enumerate() {
            let l = Labels::none().with("core", i.to_string());
            reg.count("core_llc_accesses", &l, c.accesses);
            reg.count("core_llc_misses", &l, c.misses);
        }
        reg.count("af_excluded", &none, self.af.excluded());
        reg.count("af_decode_errors", &none, self.af.decode_errors());
        reg.count("instructions_reported", &none, self.af.instructions());
        reg.count("writebacks_absorbed", &none, self.wb_absorbed);
        reg.count("writebacks_to_memory", &none, self.wb_to_memory);
        reg.count("prefetch_fills", &none, self.prefetch_issued_to_memory);
        // Channel-anomaly counters are exported only when an anomaly
        // occurred, so a clean run's telemetry is byte-identical to
        // builds that predate fault tolerance.
        for (name, v) in [
            ("desyncs_detected", self.desyncs_detected()),
            ("transactions_quarantined", self.transactions_quarantined()),
            ("cycle_regressions", self.cycle_regressions()),
        ] {
            if v > 0 {
                reg.count(name, &none, v);
            }
        }
        reg.gauge("llc_mpki", &none, self.mpki());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmpsim_trace::{Addr, Message, MessageCodec};

    fn board(size: u64, line: u64) -> Dragonhead {
        Dragonhead::new(DragonheadConfig::new(
            CacheConfig::lru(size, line, 16).unwrap(),
        ))
    }

    fn open(dh: &mut Dragonhead) {
        for t in MessageCodec::encode(Message::Start, 0) {
            dh.observe(&t);
        }
    }

    fn read(dh: &mut Dragonhead, cycle: u64, addr: u64) {
        dh.observe(&FsbTransaction::new(
            cycle,
            FsbKind::ReadLine,
            Addr::new(addr),
        ));
    }

    #[test]
    fn closed_window_emulates_nothing() {
        let mut dh = board(1 << 20, 64);
        read(&mut dh, 0, 0x1000);
        assert_eq!(dh.stats().accesses, 0);
        assert_eq!(dh.address_filter().excluded(), 1);
    }

    #[test]
    fn large_lines_turn_neighbor_misses_into_hits() {
        let mut small = board(1 << 20, 64);
        let mut large = board(1 << 20, 1024);
        open(&mut small);
        open(&mut large);
        // 16 sequential 64-byte transactions = 16 small lines, 1 large.
        for i in 0..16u64 {
            read(&mut small, i, i * 64);
            read(&mut large, i, i * 64);
        }
        assert_eq!(small.stats().misses, 16);
        assert_eq!(large.stats().misses, 1);
        assert_eq!(large.stats().hits, 15);
    }

    #[test]
    fn per_core_attribution_follows_core_id() {
        let mut dh = board(1 << 20, 64);
        open(&mut dh);
        for t in MessageCodec::encode(Message::CoreId(2), 0) {
            dh.observe(&t);
        }
        read(&mut dh, 1, 0x8000);
        for t in MessageCodec::encode(Message::CoreId(5), 0) {
            dh.observe(&t);
        }
        read(&mut dh, 2, 0x8000);
        let pc = dh.per_core();
        assert_eq!(pc[2].accesses, 1);
        assert_eq!(pc[2].misses, 1);
        assert_eq!(pc[5].accesses, 1);
        assert_eq!(pc[5].misses, 0, "second read hits");
    }

    #[test]
    fn mpki_uses_reported_instructions() {
        let mut dh = board(1 << 20, 64);
        open(&mut dh);
        for i in 0..10u64 {
            read(&mut dh, i, i * 4096 * 64); // all misses (distinct sets)
        }
        for t in MessageCodec::encode(Message::InstructionsRetired(10_000), 10) {
            dh.observe(&t);
        }
        assert!((dh.mpki() - 1.0).abs() < 1e-9, "mpki {}", dh.mpki());
    }

    #[test]
    fn sampler_produces_series() {
        let mut dh = Dragonhead::new(DragonheadConfig {
            sample_period: 10,
            ..DragonheadConfig::new(CacheConfig::lru(1 << 20, 64, 16).unwrap())
        });
        open(&mut dh);
        for i in 0..100u64 {
            read(&mut dh, i, i * 64);
        }
        assert!(dh.samples().len() >= 9, "samples {}", dh.samples().len());
    }

    #[test]
    fn prefetcher_reduces_streaming_misses() {
        let base_cfg = CacheConfig::lru(1 << 20, 64, 16).unwrap();
        let mut off = Dragonhead::new(DragonheadConfig::new(base_cfg));
        let mut on =
            Dragonhead::new(DragonheadConfig::new(base_cfg).with_prefetch(StrideConfig::default()));
        open(&mut off);
        open(&mut on);
        for i in 0..2000u64 {
            read(&mut off, i, i * 64);
            read(&mut on, i, i * 64);
        }
        assert!(
            on.stats().misses * 2 < off.stats().misses,
            "prefetch on {} vs off {}",
            on.stats().misses,
            off.stats().misses
        );
        assert!(on.prefetch_fills() > 0);
    }

    #[test]
    fn flush_closes_trailing_interval() {
        let mut dh = Dragonhead::new(DragonheadConfig {
            sample_period: 100,
            ..DragonheadConfig::new(CacheConfig::lru(1 << 20, 64, 16).unwrap())
        });
        open(&mut dh);
        for i in 0..25u64 {
            read(&mut dh, i * 10, i * 64); // last access at cycle 240
        }
        assert_eq!(dh.samples().len(), 2, "boundaries at 100 and 200");
        dh.flush(240).unwrap();
        assert_eq!(dh.samples().len(), 3);
        let tail = dh.samples().last().unwrap();
        assert_eq!(tail.cycle, 240);
        assert_eq!(tail.accesses, 25);
    }

    #[test]
    fn export_metrics_partitions_by_core_and_bank() {
        let mut dh = board(1 << 20, 64);
        open(&mut dh);
        for t in MessageCodec::encode(Message::CoreId(1), 0) {
            dh.observe(&t);
        }
        for i in 0..8u64 {
            read(&mut dh, i, i * 64);
        }
        let mut reg = cmpsim_telemetry::MetricRegistry::new();
        dh.export_metrics(&mut reg);
        assert_eq!(reg.counter_total("llc_accesses"), 8);
        assert_eq!(reg.counter_total("llc_bank_accesses"), 8);
        assert_eq!(reg.counter_total("core_llc_accesses"), 8);
        assert_eq!(
            reg.counter_value(
                "core_llc_accesses",
                &cmpsim_telemetry::Labels::none().with("core", "1")
            ),
            8
        );
    }

    #[test]
    fn writeback_paths_accounted() {
        let mut dh = board(1 << 20, 64);
        open(&mut dh);
        read(&mut dh, 0, 0x4000);
        dh.observe(&FsbTransaction::new(
            1,
            FsbKind::WriteLine,
            Addr::new(0x4000),
        ));
        dh.observe(&FsbTransaction::new(
            2,
            FsbKind::WriteLine,
            Addr::new(0xF000_0000),
        ));
        assert_eq!(dh.writebacks_absorbed(), 1);
        assert_eq!(dh.writebacks_to_memory(), 1);
    }
}
