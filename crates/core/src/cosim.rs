//! The SoftSDV ↔ Dragonhead binding.

use crate::capture::{CaptureBroker, CapturedStream};
use crate::error::CoSimError;
use crate::validate::Validator;
use cmpsim_cache::{CacheConfig, CacheStats, ConfigError, HierarchyConfig};
use cmpsim_dragonhead::{Dragonhead, DragonheadConfig, Sample};
use cmpsim_faults::FaultInjector;
use cmpsim_memsys::RunCounts;
use cmpsim_prefetch::StrideConfig;
use cmpsim_runner::JobKey;
use cmpsim_softsdv::{FsbListener, HostNoiseConfig, PlatformConfig, RunSummary, VirtualPlatform};
use cmpsim_telemetry::trace as ftrace;
use cmpsim_telemetry::{Labels, MetricRegistry};
use cmpsim_trace::file::TraceWriter;
use cmpsim_trace::FsbTransaction;
use cmpsim_workloads::{Scale, Workload, WorkloadId};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Process-wide replay shard count, default 1 (serial).
///
/// Boards are built inside the experiment types, far from any
/// CLI, and sharding never changes results (byte-identical at any
/// count — `tests/replay_equivalence.rs` pins it), so the shard count
/// is ambient tuning state rather than threaded through every
/// experiment constructor. Binaries set it once from `--replay-shards`.
static REPLAY_SHARDS: AtomicUsize = AtomicUsize::new(1);

/// Sets the process-wide shard count used by
/// [`CoSimulation::replay_boards`]. Zero and one both mean serial.
pub fn set_replay_shards(shards: usize) {
    REPLAY_SHARDS.store(shards.max(1), Ordering::Relaxed);
}

/// The process-wide replay shard count (see
/// [`set_replay_shards`]).
pub fn replay_shards() -> usize {
    REPLAY_SHARDS.load(Ordering::Relaxed).max(1)
}

/// Full co-simulation configuration: the virtual platform plus the
/// emulated LLC.
#[derive(Debug, Clone, Copy)]
pub struct CoSimConfig {
    /// Virtual cores exposed by the platform (= workload threads).
    pub cores: usize,
    /// The private stack in front of the bus, which every virtual core
    /// shares (DEX runs them all on one physical processor).
    pub hierarchy: HierarchyConfig,
    /// The LLC Dragonhead emulates.
    pub llc: CacheConfig,
    /// Cache-controller banks.
    pub banks: u32,
    /// Host sampling period (bus cycles).
    pub sample_period: u64,
    /// Optional stride prefetcher in front of the LLC.
    pub prefetch: Option<StrideConfig>,
    /// Optional host/OS interference traffic (excluded by the AF).
    pub host_noise: Option<HostNoiseConfig>,
}

impl CoSimConfig {
    /// A default setup: `cores` virtual cores with the standard CMP
    /// private stack and an LRU 16-way LLC of `llc_bytes` with 64-byte
    /// lines.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if `llc_bytes` is not a valid cache
    /// geometry.
    pub fn new(cores: usize, llc_bytes: u64) -> Result<Self, ConfigError> {
        Ok(CoSimConfig {
            cores,
            hierarchy: HierarchyConfig::cmp_core(),
            llc: CacheConfig::lru(llc_bytes, 64, 16)?,
            banks: 4,
            sample_period: cmpsim_dragonhead::sampler::DEFAULT_PERIOD_CYCLES,
            prefetch: None,
            host_noise: None,
        })
    }

    /// Like [`CoSimConfig::new`], but with the private hierarchy scaled
    /// by the same [`Scale`](cmpsim_workloads::Scale) knob as the
    /// workloads and the LLC sweep — the configuration every experiment
    /// uses, so that all three layers shrink together and the paper's
    /// shapes survive scaling.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if `llc_bytes` is not a valid geometry.
    pub fn scaled(
        cores: usize,
        llc_bytes: u64,
        scale: cmpsim_workloads::Scale,
    ) -> Result<Self, ConfigError> {
        let mut cfg = Self::new(cores, llc_bytes)?;
        cfg.hierarchy = HierarchyConfig::cmp_core_scaled(scale);
        Ok(cfg)
    }

    /// Replaces the emulated LLC configuration.
    pub fn with_llc(mut self, llc: CacheConfig) -> Self {
        self.llc = llc;
        self
    }

    /// Attaches a stride prefetcher.
    pub fn with_prefetch(mut self, pf: StrideConfig) -> Self {
        self.prefetch = Some(pf);
        self
    }

    fn platform_config(&self) -> PlatformConfig {
        let mut p = PlatformConfig::new(self.cores).with_hierarchy(self.hierarchy);
        if let Some(noise) = self.host_noise {
            p = p.with_host_noise(noise);
        }
        p
    }

    /// The board emulating `llc` behind this configuration's bus: the
    /// one place a board inherits the banks, sample period and
    /// prefetcher, whether it is the single board of a replay or one of
    /// a study's many.
    pub(crate) fn board_config(&self, llc: CacheConfig) -> DragonheadConfig {
        let mut d = DragonheadConfig::new(llc);
        d.banks = self.banks;
        d.sample_period = self.sample_period;
        d.prefetch = self.prefetch;
        d
    }
}

/// Everything one co-simulated run produced.
#[derive(Debug, Clone)]
pub struct CoSimReport {
    /// Platform-side summary (instructions, private-cache stats).
    pub run: RunSummary,
    /// Emulated-LLC demand counters.
    pub llc: CacheStats,
    /// LLC misses per 1000 instructions — the paper's Figures 4–6 metric.
    pub mpki: f64,
    /// Per-core LLC counters (from core-id attribution).
    pub per_core_llc: Vec<cmpsim_dragonhead::emulator::CoreCounters>,
    /// 500 µs counter samples.
    pub samples: Vec<Sample>,
    /// Prefetch fills that reached memory.
    pub prefetch_fills: u64,
    /// Writebacks that missed the LLC and went to memory.
    pub writebacks_to_memory: u64,
    /// The LLC size this report is for.
    pub llc_bytes: u64,
    /// The LLC line size this report is for.
    pub llc_line_bytes: u64,
    /// Distinct lines resident in the LLC at end of run (for the
    /// occupancy invariant: never more than capacity).
    pub llc_resident_lines: u64,
    /// Every counter from both sides of the bus as labeled series: the
    /// platform's retirement/private-cache counters and the board's
    /// per-bank, per-core LLC counters.
    pub metrics: MetricRegistry,
}

impl CoSimReport {
    /// Converts the report into timing-model inputs.
    ///
    /// Memory traffic = LLC demand misses (fills) plus dirty-eviction
    /// writebacks plus prefetch fills.
    pub fn run_counts(&self) -> RunCounts {
        RunCounts {
            instructions: self.run.instructions,
            l2_hits: self.run.l2.hits,
            llc_hits: self.llc.hits,
            mem_fills: self.llc.misses,
            prefetch_fills: self.prefetch_fills,
            mem_writebacks: self.llc.writebacks + self.writebacks_to_memory,
            threads: self.run.per_core.len() as u32,
        }
    }
}

/// A configured co-simulation, ready to run workloads.
///
/// Every run has one shape: the platform executes the workload once
/// while [`capture`](CoSimulation::capture) records the FSB stream, and
/// the boards see that stream only by replay. Because Dragonhead is
/// passive, replay is observationally identical to snooping the live
/// bus; the direct-snoop oracle test in this module pins that.
#[derive(Debug, Clone, Copy)]
pub struct CoSimulation {
    cfg: CoSimConfig,
}

/// The tape deck: a listener that records the exact FSB stream in the
/// compact trace encoding.
struct Recorder {
    writer: TraceWriter<Vec<u8>>,
    /// Transactions whose address was not 64-byte aligned. The trace
    /// codec works at 64-byte line granularity, so an unaligned address
    /// would be silently truncated — a lossy capture. Every current
    /// platform source is aligned (private lines are 64 B, host noise
    /// is masked, message addresses are shift-aligned); this counter
    /// turns a future regression into a loud capture-time failure
    /// instead of a subtly wrong replay.
    unaligned: u64,
}

impl FsbListener for Recorder {
    #[inline]
    fn transaction(&mut self, txn: &FsbTransaction) {
        if !txn.addr.raw().is_multiple_of(64) {
            self.unaligned += 1;
        }
        self.writer
            .write(txn)
            .expect("writing a trace to memory cannot fail");
    }
}

impl CoSimulation {
    /// Creates a co-simulation from a config.
    pub fn new(cfg: CoSimConfig) -> Self {
        CoSimulation { cfg }
    }

    /// The content-addressed identity of the FSB stream this
    /// configuration produces for `{workload, scale, seed}`.
    ///
    /// Only platform-side parameters participate: the emulated LLC, its
    /// banks, the sample period, and the prefetcher all sit *behind*
    /// the bus and cannot change what crosses it, so every cell of a
    /// cache-size, line-size, or replacement sweep shares one key — the
    /// fact the capture-once / replay-many pipeline rests on.
    pub fn stream_key(&self, workload: WorkloadId, scale: Scale, seed: u64) -> JobKey {
        JobKey::new("fsb-stream")
            .field("version", env!("CARGO_PKG_VERSION"))
            .field("workload", workload)
            .field("scale", scale)
            .field("seed", seed)
            .field("cores", self.cfg.cores)
            .field("hierarchy", format!("{:?}", self.cfg.hierarchy))
            .field("noise", format!("{:?}", self.cfg.host_noise))
    }

    /// Runs the platform once with a recording listener on the bus,
    /// returning the captured stream (no board is emulated).
    pub fn capture(&self, workload: WorkloadId, scale: Scale, seed: u64) -> CapturedStream {
        let _t = ftrace::span("capture");
        let wl = {
            let _b = ftrace::span("build");
            workload.build(scale, seed)
        };
        self.record(wl.as_ref(), scale, seed)
    }

    /// Like [`capture`](CoSimulation::capture), but runs a workload
    /// instance the caller already built, so the caller can read the
    /// instance's own outputs (an alignment score, detected shot
    /// boundaries) after the run. The stream is keyed as
    /// `workload.id()` at `{scale, seed}`, so `workload` must be what
    /// `workload.id().build(scale, seed)` returns.
    pub fn capture_workload(
        &self,
        workload: &dyn Workload,
        scale: Scale,
        seed: u64,
    ) -> CapturedStream {
        let _t = ftrace::span("capture");
        self.record(workload, scale, seed)
    }

    /// Runs `wl` to completion with a [`Recorder`] on the bus and seals
    /// the stream, refusing a lossy capture: a clamped cycle or a
    /// sub-line address would replay differently from the live bus.
    fn record(&self, wl: &dyn Workload, scale: Scale, seed: u64) -> CapturedStream {
        let mut platform = VirtualPlatform::new(self.cfg.platform_config(), wl);
        let mut rec = Recorder {
            writer: TraceWriter::new(Vec::new()).expect("writing a trace to memory cannot fail"),
            unaligned: 0,
        };
        let run = {
            let _r = ftrace::span("record");
            platform.run(&mut rec)
        };
        let _s = ftrace::span("seal");
        assert_eq!(
            rec.writer.clamped(),
            0,
            "platform cycles are monotone; a clamped capture would not replay faithfully"
        );
        assert_eq!(
            rec.unaligned, 0,
            "platform emitted sub-line addresses; the line-granular trace \
             codec would capture them lossily"
        );
        let transactions = rec.writer.count();
        let bytes = rec
            .writer
            .finish()
            .expect("writing a trace to memory cannot fail");
        let key = self.stream_key(wl.id(), scale, seed);
        CapturedStream::new(&key, bytes, transactions, run)
    }

    /// Returns the stream for `{workload, scale, seed}` via `broker`:
    /// captured at most once per key per process, reused (from memory
    /// or the broker's on-disk store) everywhere else.
    pub fn captured(
        &self,
        broker: &CaptureBroker,
        workload: WorkloadId,
        scale: Scale,
        seed: u64,
    ) -> Arc<CapturedStream> {
        broker.stream(&self.stream_key(workload, scale, seed), || {
            self.capture(workload, scale, seed)
        })
    }

    /// Replays a captured stream into this configuration's board,
    /// producing the validated report a board snooping the live bus
    /// would have.
    ///
    /// # Errors
    ///
    /// As [`replay_boards`](CoSimulation::replay_boards).
    pub fn replay(&self, stream: &CapturedStream) -> Result<CoSimReport, CoSimError> {
        Ok(Self::replay_boards(stream, &[self.cfg.board_config(self.cfg.llc)])?.remove(0))
    }

    /// Replays a captured stream into one board per configuration in
    /// `boards`, returning one validated report per board, in order —
    /// every board a study needs from a single platform execution.
    ///
    /// This is the one place boards meet a stream. Replay is sharded
    /// across worker threads per the process-wide [`replay_shards`]
    /// setting, clamped to the number of boards. At one shard the stream
    /// is decoded lazily and every board is driven on the calling
    /// thread. With more, the stream is decoded once into
    /// [`BATCH_TRANSACTIONS`]-sized chunks shared read-only, the boards
    /// are split into contiguous groups, and scoped worker threads drive
    /// one group each, batch by batch. Either way each board observes
    /// the full stream in order over fixed batch boundaries, so the
    /// shard count can never change a byte of output
    /// (`tests/replay_equivalence.rs` pins this).
    ///
    /// # Errors
    ///
    /// [`CoSimError::Invariant`] named `config` for a board geometry
    /// that cannot be built, or named after the broken invariant for a
    /// report that fails [`Validator`]; [`CoSimError::Protocol`] if a
    /// board's sampler clock ran backwards at the final flush.
    ///
    /// [`BATCH_TRANSACTIONS`]: cmpsim_dragonhead::BATCH_TRANSACTIONS
    pub fn replay_boards(
        stream: &CapturedStream,
        boards: &[DragonheadConfig],
    ) -> Result<Vec<CoSimReport>, CoSimError> {
        drive(stream, boards, replay_shards(), None)
    }

    /// Replays a captured stream into one board per LLC in `llcs` at an
    /// explicit shard count (see
    /// [`replay_boards`](CoSimulation::replay_boards)), one report per
    /// configuration in order.
    ///
    /// # Panics
    ///
    /// Panics if a board cannot be built or a report fails validation;
    /// [`replay_boards`](CoSimulation::replay_boards) returns those as
    /// errors instead.
    pub fn replay_sweep_sharded(
        &self,
        stream: &CapturedStream,
        llcs: &[CacheConfig],
        shards: usize,
    ) -> Vec<CoSimReport> {
        let boards: Vec<DragonheadConfig> =
            llcs.iter().map(|&llc| self.cfg.board_config(llc)).collect();
        drive(stream, &boards, shards, None).expect("sweep boards build and their reports validate")
    }

    /// Replays a captured stream into this configuration's board with
    /// `injector` perturbing it between decode and the board — the chaos
    /// path.
    ///
    /// The platform is never faulted (the capture's [`RunSummary`] is
    /// ground truth); only what the board *observes* is. The faulted
    /// transactions go straight to the board and are never re-encoded:
    /// the trace codec would clamp jittered cycle stamps that run
    /// backwards, hiding exactly the anomaly under test. Like every
    /// replay, the report is checked against the full invariant
    /// catalogue, so an unrecovered corruption surfaces as a named
    /// invariant violation, never a silently wrong figure. It also
    /// carries the injection census in `metrics` (`faults_injected`,
    /// plus a per-`class` breakdown) next to the board's own anomaly
    /// counters.
    ///
    /// # Errors
    ///
    /// As [`replay_boards`](CoSimulation::replay_boards).
    pub fn replay_with_faults(
        &self,
        stream: &CapturedStream,
        injector: &mut dyn FaultInjector,
    ) -> Result<CoSimReport, CoSimError> {
        let board = [self.cfg.board_config(self.cfg.llc)];
        // The stream through the injector, via one reused buffer.
        let (mut txns, mut out, mut next, mut done) = (stream.iter(), Vec::new(), 0, false);
        let mut faulted = std::iter::from_fn(|| {
            while next == out.len() {
                if done {
                    return None;
                }
                out.clear();
                next = 0;
                match txns.next() {
                    Some(txn) => injector.inject(&txn, &mut out),
                    // Release what the injector still holds back (e.g.
                    // the second half of a reorder swap).
                    None => {
                        injector.finish(&mut out);
                        done = true;
                    }
                }
            }
            next += 1;
            Some(out[next - 1])
        });
        let mut report = drive(stream, &board, 1, Some(&mut faulted))?.remove(0);
        count_faults(&mut report.metrics, injector);
        Ok(report)
    }

    fn report(run: RunSummary, dh: &Dragonhead) -> CoSimReport {
        let llc = dh.stats();
        let mpki = llc.mpki(run.instructions);
        let mut metrics = MetricRegistry::new();
        run.export_metrics(&mut metrics);
        dh.export_metrics(&mut metrics);
        CoSimReport {
            mpki,
            llc,
            per_core_llc: dh.per_core().to_vec(),
            samples: dh.samples().to_vec(),
            prefetch_fills: dh.prefetch_fills(),
            writebacks_to_memory: dh.writebacks_to_memory(),
            llc_bytes: dh.config().cache.size_bytes(),
            llc_line_bytes: dh.config().cache.line_bytes(),
            llc_resident_lines: dh.resident_lines(),
            metrics,
            run,
        }
    }
}

/// Adds `injector`'s census to `metrics`: the `faults_injected` total
/// and one `faults_injected_class` row per class that fired. A run with
/// no faults gains no rows, so its registry matches a clean replay's.
fn count_faults(metrics: &mut MetricRegistry, injector: &dyn FaultInjector) {
    let injected = injector.faults_injected();
    if injected == 0 {
        return;
    }
    metrics.count("faults_injected", &Labels::none(), injected);
    for (class, v) in injector.fault_counters().by_class() {
        if v > 0 {
            let labels = Labels::none().with("class", class);
            metrics.count("faults_injected_class", &labels, v);
        }
    }
}

/// The replay engine behind every public replay call: it builds one
/// board per config, drives them all over `stream`, flushes each at the
/// run's final cycle, and builds and validates one report per board.
///
/// `serial` replaces the lazily decoded stream as the transaction
/// source (the chaos path feeds the stream through a fault injector).
/// Such a source runs only on the one-shard leg, so `shards` must be 1
/// with it. Without one, more than one shard decodes the stream into
/// shared chunks instead.
fn drive(
    stream: &CapturedStream,
    configs: &[DragonheadConfig],
    shards: usize,
    serial: Option<&mut dyn Iterator<Item = FsbTransaction>>,
) -> Result<Vec<CoSimReport>, CoSimError> {
    debug_assert!(
        serial.is_none() || shards == 1,
        "a replacement serial source runs on the one-shard leg only"
    );
    let _t = ftrace::span("replay");
    let mut boards = {
        let _b = ftrace::span("build");
        configs
            .iter()
            .map(|&c| Dragonhead::try_new(c))
            .collect::<Result<Vec<_>, _>>()?
    };
    let final_cycle = stream.run().cycles;
    {
        let _s = ftrace::span("simulate");
        let shards = shards.clamp(1, boards.len().max(1));
        if let Some(txns) = serial {
            cmpsim_dragonhead::replay(txns, &mut boards, final_cycle)?;
        } else if shards == 1 {
            cmpsim_dragonhead::replay(stream.iter(), &mut boards, final_cycle)?;
        } else {
            let chunks = stream.decode_chunks(cmpsim_dragonhead::BATCH_TRANSACTIONS);
            let ctx = ftrace::snapshot();
            // `shards` contiguous groups whose sizes differ by at most
            // one board, so every shard has work (9 boards on 4 shards
            // are 3+2+2+2, not 3+3+3).
            let (base, extra) = (boards.len() / shards, boards.len() % shards);
            let mut groups = Vec::with_capacity(shards);
            let mut rest = boards.as_mut_slice();
            for shard in 0..shards {
                let (group, tail) = rest.split_at_mut(base + usize::from(shard < extra));
                groups.push(group);
                rest = tail;
            }
            let mut errors = vec![None; shards];
            cmpsim_runner::scoped_shards(
                groups.into_iter().zip(&mut errors).collect(),
                |shard, (group, error): (&mut [Dragonhead], _)| {
                    // Each shard opens its own `board-replay` span on
                    // the captured lane (`Lane` clones share one
                    // buffer), parented under the `simulate` span, so
                    // `cmpsim report` shows per-shard replay
                    // utilization.
                    let _span = ctx.as_ref().map(|(lane, cell, parent)| {
                        let mut s = lane.begin("board-replay", cell, *parent);
                        s.arg("shard", shard as u64);
                        s.arg("boards", group.len() as u64);
                        s
                    });
                    *error =
                        cmpsim_dragonhead::replay_chunks(chunks.iter(), group, final_cycle).err();
                },
            );
            if let Some(e) = errors.into_iter().flatten().next() {
                return Err(e.into());
            }
        }
    }
    let reports: Vec<CoSimReport> = {
        let _r = ftrace::span("report");
        boards
            .iter()
            .map(|dh| CoSimulation::report(stream.run().clone(), dh))
            .collect()
    };
    let _v = ftrace::span("validate");
    for (report, cfg) in reports.iter().zip(configs) {
        Validator::new(cfg.sample_period).validate(report)?;
    }
    Ok(reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmpsim_workloads::{Scale, WorkloadId};

    /// Captures `id` at tiny scale and replays it into `cfg`'s board.
    fn capture_and_replay(cfg: CoSimConfig, id: WorkloadId, seed: u64) -> CoSimReport {
        let sim = CoSimulation::new(cfg);
        sim.replay(&sim.capture(id, Scale::tiny(), seed)).unwrap()
    }

    /// Every field a replayed report must share with its reference.
    fn assert_same_report(tag: &str, a: &CoSimReport, b: &CoSimReport) {
        assert_eq!(a.llc, b.llc, "{tag}: llc differs");
        assert_eq!(a.samples, b.samples, "{tag}: samples differ");
        assert_eq!(
            a.per_core_llc, b.per_core_llc,
            "{tag}: per-core llc differs"
        );
        assert_eq!(a.mpki.to_bits(), b.mpki.to_bits(), "{tag}: mpki differs");
        assert_eq!(a.llc_resident_lines, b.llc_resident_lines, "{tag}");
        // The full metric registries — every platform, per-bank and
        // per-core counter — serialize identically.
        assert_eq!(a.metrics.to_json(), b.metrics.to_json(), "{tag}: metrics");
    }

    #[test]
    fn single_run_produces_consistent_report() {
        let cfg = CoSimConfig::new(2, 1 << 20).unwrap();
        let r = capture_and_replay(cfg, WorkloadId::Plsa, 1);
        assert!(r.run.instructions > 0);
        assert_eq!(r.llc.hits + r.llc.misses, r.llc.accesses);
        // Per-core LLC accesses sum to the total.
        let per_core_sum: u64 = r.per_core_llc.iter().map(|c| c.accesses).sum();
        assert_eq!(per_core_sum, r.llc.accesses);
        assert!(r.mpki >= 0.0);
    }

    #[test]
    fn sweep_matches_individual_runs() {
        let cfg = CoSimConfig::new(2, 1 << 20).unwrap();
        let sizes: Vec<CacheConfig> = [1u64 << 18, 1 << 20]
            .iter()
            .map(|&s| CacheConfig::lru(s, 64, 16).unwrap())
            .collect();
        let sim = CoSimulation::new(cfg);
        let stream = sim.capture(WorkloadId::Viewtype, Scale::tiny(), 2);
        let boards: Vec<DragonheadConfig> = sizes.iter().map(|&l| cfg.board_config(l)).collect();
        let sweep = CoSimulation::replay_boards(&stream, &boards).unwrap();
        // A board-side change keeps the stream key, so the single-board
        // replay reuses the sweep's capture.
        let single = CoSimulation::new(cfg.with_llc(sizes[1]))
            .replay(&stream)
            .unwrap();
        assert_eq!(sweep[1].llc.misses, single.llc.misses);
        assert_eq!(sweep[1].llc.hits, single.llc.hits);
    }

    #[test]
    fn bigger_cache_never_increases_misses_much() {
        // LRU is a stack algorithm: with identical line size and
        // associativity scaling, larger caches should not miss more
        // (allowing a tiny tolerance for set-mapping effects).
        let sim = CoSimulation::new(CoSimConfig::new(2, 1 << 20).unwrap());
        let sizes: Vec<CacheConfig> = [1u64 << 18, 1 << 19, 1 << 20, 1 << 21]
            .iter()
            .map(|&s| CacheConfig::lru(s, 64, 16).unwrap())
            .collect();
        let stream = sim.capture(WorkloadId::SvmRfe, Scale::tiny(), 3);
        let sweep = sim.replay_sweep_sharded(&stream, &sizes, 1);
        for w in sweep.windows(2) {
            assert!(
                w[1].llc.misses as f64 <= w[0].llc.misses as f64 * 1.05,
                "misses grew with size: {} -> {}",
                w[0].llc.misses,
                w[1].llc.misses
            );
        }
    }

    #[test]
    fn report_carries_metrics_and_flushed_samples() {
        let mut cfg = CoSimConfig::new(2, 1 << 20).unwrap();
        cfg.sample_period = 1000;
        let sim = CoSimulation::new(cfg);
        let rec = cmpsim_telemetry::FlightRecorder::new();
        let r = {
            let _ctx = ftrace::install(rec.lane("test"), "", 0);
            sim.replay(&sim.capture(WorkloadId::Fimi, Scale::tiny(), 1))
                .unwrap()
        };
        // The flush guarantees the series covers the end of the run.
        assert!(!r.samples.is_empty());
        assert_eq!(r.samples.last().unwrap().cycle, r.run.cycles);
        assert_eq!(r.samples.last().unwrap().accesses, r.llc.accesses);
        // Counters from both sides of the bus landed in the registry.
        assert_eq!(r.metrics.counter_total("instructions"), r.run.instructions);
        assert_eq!(r.metrics.counter_total("llc_misses"), r.llc.misses);
        assert_eq!(r.metrics.counter_total("core_llc_accesses"), r.llc.accesses);
        // Every capture and replay stage was timed.
        let events = rec.drain_sorted();
        let names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
        for stage in [
            "capture", "build", "record", "seal", "replay", "simulate", "report", "validate",
        ] {
            assert!(names.contains(&stage), "missing span {stage}");
        }
    }

    /// The reference implementation every replay is held to: boards
    /// snooping the live platform bus directly, as the paper's FPGA
    /// did, behind an optional faulty channel.
    struct DirectSnoop<'a> {
        boards: Vec<Dragonhead>,
        faults: &'a mut dyn FaultInjector,
        buf: Vec<FsbTransaction>,
    }

    impl DirectSnoop<'_> {
        fn deliver(&mut self) {
            for txn in self.buf.drain(..) {
                for dh in &mut self.boards {
                    dh.observe(&txn);
                }
            }
        }
    }

    impl FsbListener for DirectSnoop<'_> {
        fn transaction(&mut self, txn: &FsbTransaction) {
            self.faults.inject(txn, &mut self.buf);
            self.deliver();
        }
    }

    /// Runs `id` live with one directly snooping board per LLC in
    /// `llcs`, finishing each report the way a checked chaos replay
    /// does: flush, census, validation.
    fn direct_snoop(
        sim: &CoSimulation,
        id: WorkloadId,
        llcs: &[CacheConfig],
        faults: &mut dyn FaultInjector,
    ) -> Vec<Result<CoSimReport, CoSimError>> {
        let wl = id.build(Scale::tiny(), 1);
        let mut platform = VirtualPlatform::new(sim.cfg.platform_config(), wl.as_ref());
        let mut snoop = DirectSnoop {
            boards: llcs
                .iter()
                .map(|&l| Dragonhead::new(sim.cfg.board_config(l)))
                .collect(),
            faults,
            buf: Vec::new(),
        };
        let run = platform.run(&mut snoop);
        snoop.faults.finish(&mut snoop.buf);
        snoop.deliver();
        let DirectSnoop {
            mut boards, faults, ..
        } = snoop;
        let validator = Validator::new(sim.cfg.sample_period);
        boards
            .iter_mut()
            .map(|dh| {
                dh.flush(run.cycles)?;
                let mut r = CoSimulation::report(run.clone(), dh);
                count_faults(&mut r.metrics, faults);
                validator.validate(&r)?;
                Ok(r)
            })
            .collect()
    }

    /// The direct-snoop oracle: for every workload, capture plus sweep
    /// replay at one and two shards reproduces the live boards exactly,
    /// and a combined-chaos fault plan injected between the live
    /// platform and the board matches the same plan injected between
    /// decode and the board by `replay_with_faults`.
    #[test]
    fn replay_of_capture_matches_live_run() {
        let mut cfg = CoSimConfig::scaled(2, 1 << 16, Scale::tiny()).unwrap();
        cfg.sample_period = 1000;
        let sim = CoSimulation::new(cfg);
        let llcs: Vec<CacheConfig> = [1u64 << 16, 1 << 18, 1 << 20]
            .iter()
            .map(|&s| CacheConfig::lru(s, 64, 16).unwrap())
            .collect();
        std::thread::scope(|scope| {
            for id in WorkloadId::all() {
                let (sim, llcs) = (&sim, &llcs);
                scope.spawn(move || {
                    let live = direct_snoop(sim, id, llcs, &mut cmpsim_faults::NoFaults);
                    let stream = sim.capture(id, Scale::tiny(), 1);
                    for shards in [1, 2] {
                        let replayed = sim.replay_sweep_sharded(&stream, llcs, shards);
                        assert_eq!(replayed.len(), live.len());
                        for (r, l) in replayed.iter().zip(&live) {
                            let l = l.as_ref().expect("a clean live run validates");
                            assert_same_report(&format!("{id}, {shards} shards"), r, l);
                        }
                    }
                });
            }
        });

        let plan = cmpsim_faults::FaultPlan::none(88)
            .with_drop(0.02)
            .with_duplicate(0.02)
            .with_reorder(0.02)
            .with_corrupt_addr(0.02)
            .with_tear_pair(0.2)
            .with_wrong_core(0.05)
            .with_cycle_jitter(0.05, 200);
        let (mut live_faults, mut replay_faults) = (plan.build(), plan.build());
        let live = direct_snoop(&sim, WorkloadId::Fimi, &[cfg.llc], &mut live_faults);
        let stream = sim.capture(WorkloadId::Fimi, Scale::tiny(), 1);
        let replayed = sim.replay_with_faults(&stream, &mut replay_faults);
        assert!(live_faults.faults_injected() > 0, "chaos plan never fired");
        assert_eq!(live_faults.counters(), replay_faults.counters());
        // This plan recovers, so every field of the report is compared.
        let live = live[0].as_ref().expect("combined chaos recovers live");
        let replayed = replayed.expect("combined chaos recovers on replay");
        assert_same_report("combined chaos", &replayed, live);
    }

    #[test]
    fn sharded_replay_matches_serial_at_any_shard_count() {
        let mut cfg = CoSimConfig::new(2, 1 << 20).unwrap();
        cfg.sample_period = 1000;
        let sim = CoSimulation::new(cfg);
        let sizes: Vec<CacheConfig> = [1u64 << 18, 1 << 19, 1 << 20, 1 << 21]
            .iter()
            .map(|&s| CacheConfig::lru(s, 64, 16).unwrap())
            .collect();
        let stream = sim.capture(WorkloadId::Viewtype, Scale::tiny(), 2);
        let serial = sim.replay_sweep_sharded(&stream, &sizes, 1);
        // 2 = even groups, 3 = uneven groups, 4 = one board per shard,
        // 9 > boards = clamped. All must reproduce the serial reports
        // exactly.
        for shards in [2usize, 3, 4, 9] {
            let sharded = sim.replay_sweep_sharded(&stream, &sizes, shards);
            assert_eq!(sharded.len(), serial.len());
            for (s, r) in sharded.iter().zip(&serial) {
                assert_same_report(&format!("{shards} shards"), s, r);
            }
        }
    }

    #[test]
    fn shard_count_never_changes_protocol_anomaly_counters() {
        // A fault-injected stream exercises the board's quarantine and
        // desync machinery; the shard count must not move a single
        // anomaly counter (every board still sees the full stream in
        // order, whatever thread drives it).
        let mut cfg = CoSimConfig::new(2, 1 << 20).unwrap();
        cfg.sample_period = 1000;
        let sim = CoSimulation::new(cfg);
        let clean = sim.capture(WorkloadId::Fimi, Scale::tiny(), 1);
        // Drops tear message pairs; corrupted addresses quarantine.
        // Neither perturbs cycle stamps, so the re-encoded stream stays
        // monotone and decodes exactly as written.
        let mut faults = cmpsim_faults::FaultPlan::none(44)
            .with_drop(0.03)
            .with_corrupt_addr(0.03)
            .build();
        let mut w = TraceWriter::new(Vec::new()).unwrap();
        let mut out = Vec::new();
        for txn in clean.iter() {
            faults.inject(&txn, &mut out);
            for t in out.drain(..) {
                w.write(&t).unwrap();
            }
        }
        faults.finish(&mut out);
        for t in out.drain(..) {
            w.write(&t).unwrap();
        }
        assert!(faults.faults_injected() > 0, "chaos plan never fired");
        let n = w.count();
        let bytes = w.finish().unwrap();
        let key = JobKey::new("chaos-shards").field("workload", "FIMI");
        let faulted = CapturedStream::new(&key, bytes, n, clean.run().clone());

        let sizes: Vec<CacheConfig> = [1u64 << 18, 1 << 19, 1 << 20]
            .iter()
            .map(|&s| CacheConfig::lru(s, 64, 16).unwrap())
            .collect();
        let serial = sim.replay_sweep_sharded(&faulted, &sizes, 1);
        let anomalies = |r: &CoSimReport| {
            r.metrics.counter_total("desyncs_detected")
                + r.metrics.counter_total("transactions_quarantined")
                + r.metrics.counter_total("cycle_regressions")
        };
        assert!(
            serial.iter().any(|r| anomalies(r) > 0),
            "fault plan produced no counted anomalies — the test is vacuous"
        );
        for shards in [2usize, 3, 7] {
            let sharded = sim.replay_sweep_sharded(&faulted, &sizes, shards);
            for (s, r) in sharded.iter().zip(&serial) {
                assert_eq!(
                    anomalies(s),
                    anomalies(r),
                    "{shards} shards moved anomalies"
                );
                assert_eq!(s.llc, r.llc);
                assert_eq!(s.samples, r.samples);
                assert_eq!(s.metrics.to_json(), r.metrics.to_json());
            }
        }
    }

    #[test]
    fn stream_key_ignores_board_side_parameters() {
        let base = CoSimConfig::new(2, 1 << 20).unwrap();
        let sim = CoSimulation::new(base);
        let key = sim.stream_key(WorkloadId::Fimi, Scale::tiny(), 1);
        // Board-side knobs (LLC geometry, banks, sampling, prefetch)
        // cannot change what crosses the bus: same key.
        let mut board_side = base.with_llc(CacheConfig::lru(1 << 22, 128, 8).unwrap());
        board_side.banks = 8;
        board_side.sample_period = 123;
        let same = CoSimulation::new(board_side).stream_key(WorkloadId::Fimi, Scale::tiny(), 1);
        assert_eq!(key.canonical(), same.canonical());
        // Platform-side knobs do: different key.
        let mut noisy = base;
        noisy.host_noise = Some(HostNoiseConfig {
            transactions_per_switch: 4,
        });
        let diff = CoSimulation::new(noisy).stream_key(WorkloadId::Fimi, Scale::tiny(), 1);
        assert_ne!(key.canonical(), diff.canonical());
        assert_ne!(
            key.canonical(),
            sim.stream_key(WorkloadId::Fimi, Scale::tiny(), 2)
                .canonical()
        );
    }

    #[test]
    fn broker_reuses_one_capture_across_replays() {
        let cfg = CoSimConfig::new(1, 1 << 20).unwrap();
        let sim = CoSimulation::new(cfg);
        let broker = crate::capture::CaptureBroker::in_memory();
        let a = sim.captured(&broker, WorkloadId::Fimi, Scale::tiny(), 1);
        let b = sim.captured(&broker, WorkloadId::Fimi, Scale::tiny(), 1);
        assert!(Arc::ptr_eq(&a, &b));
        let counters = broker.counters();
        assert_eq!((counters.captures, counters.memory_reuses), (1, 1));
    }

    #[test]
    fn engine_errors_are_structured_at_any_shard_count() {
        let mut cfg = CoSimConfig::new(2, 1 << 20).unwrap();
        cfg.sample_period = 1000;
        let stream = CoSimulation::new(cfg).capture(WorkloadId::Plsa, Scale::tiny(), 1);
        let boards = [cfg.board_config(cfg.llc); 3];
        let bad = DragonheadConfig {
            banks: 0,
            ..boards[0]
        };
        let err = CoSimulation::replay_boards(&stream, &[boards[0], bad]).unwrap_err();
        assert!(matches!(&err, CoSimError::Invariant { name, .. } if name == "config"));
        // A run that claims to end before the stream's last sample
        // fails every board's final flush, whichever leg drove it.
        let mut run = stream.run().clone();
        run.cycles = 1;
        let bytes = stream.encoded_bytes().to_vec();
        let short = CapturedStream::new(&JobKey::new("short"), bytes, stream.transactions(), run);
        for shards in [1, 3] {
            let err = drive(&short, &boards, shards, None).unwrap_err();
            assert!(
                matches!(err, CoSimError::Protocol { .. }),
                "{shards}: {err}"
            );
        }
    }

    #[test]
    fn run_counts_wiring() {
        let cfg = CoSimConfig::new(1, 1 << 20).unwrap();
        let r = capture_and_replay(cfg, WorkloadId::Plsa, 4);
        let c = r.run_counts();
        assert_eq!(c.instructions, r.run.instructions);
        assert_eq!(c.mem_fills, r.llc.misses);
        assert_eq!(c.threads, 1);
    }
}
