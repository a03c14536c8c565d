//! The virtual platform: workload kernels over the physical processor's
//! private caches, producing the FSB transaction stream.

use crate::dex::{DexScheduler, SliceDecision};
use cmpsim_cache::{CacheStats, HierarchyConfig, PrivateHierarchy};
use cmpsim_trace::{
    Addr, FsbKind, FsbTransaction, MemRef, Message, MessageCodec, Pcg32, TraceSink, Tracer,
};
use cmpsim_workloads::{ThreadKernel, Workload};

/// A consumer of front-side-bus transactions (Dragonhead, a trace file
/// writer, a test counter, ...).
pub trait FsbListener {
    /// Observes one bus transaction.
    fn transaction(&mut self, txn: &FsbTransaction);
}

impl<L: FsbListener + ?Sized> FsbListener for &mut L {
    #[inline]
    fn transaction(&mut self, txn: &FsbTransaction) {
        (**self).transaction(txn);
    }
}

/// A listener that only counts, for tests and examples.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountingListener {
    /// Data transactions (fills + writebacks) seen.
    pub data_transactions: u64,
    /// Message-window transactions seen.
    pub message_transactions: u64,
}

impl FsbListener for CountingListener {
    fn transaction(&mut self, txn: &FsbTransaction) {
        if txn.is_message() {
            self.message_transactions += 1;
        } else {
            self.data_transactions += 1;
        }
    }
}

/// Host/OS interference model: when enabled, the platform emits bursts of
/// non-workload bus traffic *outside* the start/stop message window at
/// every slice switch — the accesses a real co-simulation host (SoftSDV
/// itself plus the host OS) puts on the bus, which Dragonhead must
/// exclude (§3.3: "the SoftSDV code and the host OS will also execute
/// during the simulation, and by restricting the emulation to the window
/// between start and stop, these accesses are excluded").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostNoiseConfig {
    /// Bus transactions injected per slice switch.
    pub transactions_per_switch: u32,
}

/// Platform configuration.
#[derive(Debug, Clone, Copy)]
pub struct PlatformConfig {
    /// Number of virtual cores (= workload threads).
    pub cores: usize,
    /// Geometry of the physical processor's cache stack. DEX
    /// time-slices every virtual core onto that one processor, so one
    /// stack filters all of their references, and slice switches thrash
    /// it as they did in the paper's rig.
    pub hierarchy: HierarchyConfig,
    /// Kernel steps executed per DEX time slice.
    pub quantum_steps: usize,
    /// Instructions between counter messages (instructions-retired and
    /// cycles-completed), the paper's instruction/time synchronization.
    pub counter_period: u64,
    /// Optional host/OS interference traffic.
    pub host_noise: Option<HostNoiseConfig>,
}

impl PlatformConfig {
    /// A platform with `cores` virtual cores and default settings: the
    /// CMP per-core stack, 4-step quanta, counters every 100 k
    /// instructions, no host noise.
    pub fn new(cores: usize) -> Self {
        PlatformConfig {
            cores,
            hierarchy: HierarchyConfig::cmp_core(),
            quantum_steps: 4,
            counter_period: 100_000,
            host_noise: None,
        }
    }

    /// Replaces the private hierarchy.
    pub fn with_hierarchy(mut self, h: HierarchyConfig) -> Self {
        self.hierarchy = h;
        self
    }

    /// Enables host-noise injection.
    pub fn with_host_noise(mut self, n: HostNoiseConfig) -> Self {
        self.host_noise = Some(n);
        self
    }
}

/// Per-core execution summary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreSummary {
    /// Instructions retired by this virtual core.
    pub instructions: u64,
    /// Memory instructions (loads + stores).
    pub memory_instructions: u64,
    /// Loads.
    pub loads: u64,
    /// Time slices this core received.
    pub slices: u64,
}

/// Whole-run summary returned by [`VirtualPlatform::run`].
#[derive(Debug, Clone, Default)]
pub struct RunSummary {
    /// Total instructions retired across all cores.
    pub instructions: u64,
    /// Total memory instructions.
    pub memory_instructions: u64,
    /// Total loads.
    pub loads: u64,
    /// Total stores.
    pub stores: u64,
    /// Final platform cycle count (functional time domain: one cycle per
    /// instruction).
    pub cycles: u64,
    /// Per-core breakdown.
    pub per_core: Vec<CoreSummary>,
    /// Private-L1 counters.
    pub l1: CacheStats,
    /// Private-L2 counters (zero if no L2 is configured).
    pub l2: CacheStats,
    /// Bus data transactions emitted (LLC demand traffic).
    pub bus_transactions: u64,
}

impl RunSummary {
    /// Fraction of instructions that reference memory.
    pub fn memory_fraction(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.memory_instructions as f64 / self.instructions as f64
        }
    }

    /// Exports the platform-side counters into `reg` as labeled series:
    /// run totals, private-cache counters (`level` label), and the
    /// per-core retirement breakdown (`core` label).
    pub fn export_metrics(&self, reg: &mut cmpsim_telemetry::MetricRegistry) {
        use cmpsim_telemetry::Labels;
        let none = Labels::none();
        reg.count("instructions", &none, self.instructions);
        reg.count("memory_instructions", &none, self.memory_instructions);
        reg.count("loads", &none, self.loads);
        reg.count("stores", &none, self.stores);
        reg.count("cycles", &none, self.cycles);
        reg.count("bus_transactions", &none, self.bus_transactions);
        for (level, stats) in [("l1", &self.l1), ("l2", &self.l2)] {
            let l = Labels::none().with("level", level);
            reg.count("private_accesses", &l, stats.accesses);
            reg.count("private_hits", &l, stats.hits);
            reg.count("private_misses", &l, stats.misses);
            reg.count("private_writebacks", &l, stats.writebacks);
        }
        for (i, c) in self.per_core.iter().enumerate() {
            let l = Labels::none().with("core", i.to_string());
            reg.count("core_instructions", &l, c.instructions);
            reg.count("core_memory_instructions", &l, c.memory_instructions);
            reg.count("core_loads", &l, c.loads);
            reg.count("core_slices", &l, c.slices);
        }
    }
}

/// The virtual platform: N virtual cores time-sliced onto one physical
/// cache stack, and the message-annotated FSB stream.
///
/// See the [crate docs](crate) for an end-to-end example.
#[derive(Debug)]
pub struct VirtualPlatform {
    cfg: PlatformConfig,
    kernels: Vec<Box<dyn ThreadKernel>>,
    caches: PrivateHierarchy,
    scheduler: DexScheduler,
    cycle: u64,
    per_core: Vec<CoreSummary>,
    noise_rng: Pcg32,
    bus_transactions: u64,
}

impl VirtualPlatform {
    /// Builds a platform running `workload` on `cfg.cores` virtual cores.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.cores == 0`.
    pub fn new(cfg: PlatformConfig, workload: &dyn Workload) -> Self {
        assert!(cfg.cores > 0, "at least one core");
        VirtualPlatform {
            kernels: workload.make_threads(cfg.cores),
            caches: PrivateHierarchy::new(cfg.hierarchy),
            scheduler: DexScheduler::new(cfg.cores),
            cycle: 0,
            per_core: vec![CoreSummary::default(); cfg.cores],
            noise_rng: Pcg32::seed(0x4057_0150),
            bus_transactions: 0,
            cfg,
        }
    }

    /// The current platform cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Runs the workload to completion, streaming every bus transaction
    /// (data + messages) to `listener`, and returns the run summary.
    pub fn run<L: FsbListener>(&mut self, listener: &mut L) -> RunSummary {
        self.emit_message(listener, Message::Start);
        let mut last_counter_emit = 0u64;
        let mut current_core = u32::MAX;
        loop {
            match self.scheduler.next_slice() {
                SliceDecision::AllDone => break,
                SliceDecision::Run(core) => {
                    // Host/OS interference between slices happens outside
                    // the start/stop window.
                    if self.cfg.host_noise.is_some() && current_core != u32::MAX {
                        self.emit_message(listener, Message::Stop);
                        self.emit_host_noise(listener);
                        self.emit_message(listener, Message::Start);
                    }
                    if core != current_core {
                        self.emit_message(listener, Message::CoreId(core));
                        current_core = core;
                    }
                    let live = self.run_slice(core, listener);
                    if !live {
                        self.scheduler.retire(core);
                    }
                    let total = self.total_instructions();
                    if total - last_counter_emit >= self.cfg.counter_period {
                        last_counter_emit = total;
                        self.emit_message(listener, Message::InstructionsRetired(total));
                        self.emit_message(listener, Message::CyclesCompleted(self.cycle));
                    }
                }
            }
        }
        let total = self.total_instructions();
        self.emit_message(listener, Message::InstructionsRetired(total));
        self.emit_message(listener, Message::CyclesCompleted(self.cycle));
        self.emit_message(listener, Message::Stop);
        self.summary()
    }

    /// Executes one time slice (quantum_steps kernel steps) on `core`.
    /// Returns whether the kernel still has work.
    fn run_slice<L: FsbListener>(&mut self, core: u32, listener: &mut L) -> bool {
        let mut live = true;
        self.per_core[core as usize].slices += 1;
        for _ in 0..self.cfg.quantum_steps {
            let mut sink = PlatformSink {
                caches: &mut self.caches,
                listener,
                cycle: &mut self.cycle,
                bus_transactions: &mut self.bus_transactions,
            };
            let mut tracer: Tracer<&mut dyn TraceSink> = Tracer::new(&mut sink);
            live = self.kernels[core as usize].step(&mut tracer);
            let cs = &mut self.per_core[core as usize];
            cs.instructions += tracer.instructions();
            cs.memory_instructions += tracer.memory_instructions();
            cs.loads += tracer.loads();
            // Advance the functional clock past this slice's work.
            self.cycle += tracer
                .instructions()
                .saturating_sub(tracer.memory_instructions());
            if !live {
                break;
            }
        }
        live
    }

    fn total_instructions(&self) -> u64 {
        self.per_core.iter().map(|c| c.instructions).sum()
    }

    fn emit_message<L: FsbListener>(&mut self, listener: &mut L, msg: Message) {
        for txn in MessageCodec::encode(msg, self.cycle) {
            listener.transaction(&txn);
        }
    }

    /// Injects host/OS traffic at low physical addresses (below any
    /// workload region).
    fn emit_host_noise<L: FsbListener>(&mut self, listener: &mut L) {
        let Some(noise) = self.cfg.host_noise else {
            return;
        };
        for _ in 0..noise.transactions_per_switch {
            let addr = Addr::new(self.noise_rng.below(0x100_0000) & !63);
            let kind = if self.noise_rng.chance(0.3) {
                FsbKind::WriteLine
            } else {
                FsbKind::ReadLine
            };
            listener.transaction(&FsbTransaction::new(self.cycle, kind, addr));
        }
    }

    fn summary(&self) -> RunSummary {
        let mut s = RunSummary {
            instructions: self.total_instructions(),
            memory_instructions: self.per_core.iter().map(|c| c.memory_instructions).sum(),
            loads: self.per_core.iter().map(|c| c.loads).sum(),
            stores: 0,
            cycles: self.cycle,
            per_core: self.per_core.clone(),
            l1: *self.caches.l1_stats(),
            l2: self.caches.l2_stats().copied().unwrap_or_default(),
            bus_transactions: self.bus_transactions,
        };
        s.stores = s.memory_instructions - s.loads;
        s
    }
}

/// The per-slice trace sink: feeds kernel references through the
/// physical cache stack and forwards the resulting bus events to the
/// listener.
struct PlatformSink<'a, L> {
    caches: &'a mut PrivateHierarchy,
    listener: &'a mut L,
    cycle: &'a mut u64,
    bus_transactions: &'a mut u64,
}

impl<L: FsbListener> TraceSink for PlatformSink<'_, L> {
    #[inline]
    fn record(&mut self, r: MemRef) {
        *self.cycle += 1;
        let cycle = *self.cycle;
        let line_size = self.caches.line_size();
        let listener = &mut *self.listener;
        let bus = &mut *self.bus_transactions;
        self.caches.access(r, |ev| {
            *bus += 1;
            listener.transaction(&FsbTransaction::new(
                cycle,
                ev.kind,
                Addr::new(ev.line * line_size),
            ));
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmpsim_trace::MessageDecodeError;
    use cmpsim_workloads::{Scale, WorkloadId};

    fn run_workload(id: WorkloadId, cores: usize) -> (RunSummary, CountingListener) {
        let wl = id.build(Scale::tiny(), 1);
        let mut p = VirtualPlatform::new(PlatformConfig::new(cores), wl.as_ref());
        let mut l = CountingListener::default();
        let s = p.run(&mut l);
        (s, l)
    }

    #[test]
    fn plsa_runs_on_four_cores() {
        let (s, l) = run_workload(WorkloadId::Plsa, 4);
        assert!(s.instructions > 0);
        assert_eq!(s.per_core.len(), 4);
        assert!(s.per_core.iter().all(|c| c.instructions > 0));
        assert!(l.data_transactions > 0);
        assert!(
            l.message_transactions >= 4,
            "start, core-ids, counters, stop"
        );
    }

    #[test]
    fn l1_filters_most_traffic() {
        let (s, _) = run_workload(WorkloadId::Plsa, 2);
        assert!(s.l1.accesses > 0);
        // The bus must see far fewer transactions than there were memory
        // instructions — that's the whole point of the private stack.
        assert!(
            s.bus_transactions * 5 < s.memory_instructions,
            "bus {} vs mem {}",
            s.bus_transactions,
            s.memory_instructions
        );
    }

    #[test]
    fn message_stream_is_decodable() {
        let wl = WorkloadId::Viewtype.build(Scale::tiny(), 2);
        let mut p = VirtualPlatform::new(PlatformConfig::new(2), wl.as_ref());

        #[derive(Default)]
        struct Decoder {
            codec: MessageCodec,
            messages: Vec<Message>,
            errors: Vec<MessageDecodeError>,
        }
        impl FsbListener for Decoder {
            fn transaction(&mut self, txn: &FsbTransaction) {
                if txn.is_message() {
                    match self.codec.decode(txn) {
                        Ok(Some(m)) => self.messages.push(m),
                        Ok(None) => {}
                        Err(e) => self.errors.push(e),
                    }
                }
            }
        }
        let mut d = Decoder::default();
        let s = p.run(&mut d);
        assert!(d.errors.is_empty(), "{:?}", d.errors);
        assert_eq!(d.messages.first(), Some(&Message::Start));
        assert_eq!(d.messages.last(), Some(&Message::Stop));
        assert!(d.messages.contains(&Message::CoreId(0)));
        assert!(d.messages.contains(&Message::CoreId(1)));
        // The final instructions-retired message matches the summary.
        let final_count = d
            .messages
            .iter()
            .rev()
            .find_map(|m| match m {
                Message::InstructionsRetired(v) => Some(*v),
                _ => None,
            })
            .expect("counter message present");
        assert_eq!(final_count, s.instructions);
    }

    #[test]
    fn cycles_are_monotonic_on_bus() {
        let wl = WorkloadId::Plsa.build(Scale::tiny(), 3);
        let mut p = VirtualPlatform::new(PlatformConfig::new(2), wl.as_ref());
        struct Monotone {
            last: u64,
            ok: bool,
        }
        impl FsbListener for Monotone {
            fn transaction(&mut self, txn: &FsbTransaction) {
                self.ok &= txn.cycle >= self.last;
                self.last = txn.cycle;
            }
        }
        let mut m = Monotone { last: 0, ok: true };
        p.run(&mut m);
        assert!(m.ok, "bus timestamps went backwards");
    }

    #[test]
    fn host_noise_is_outside_window() {
        let wl = WorkloadId::Plsa.build(Scale::tiny(), 4);
        let cfg = PlatformConfig::new(2).with_host_noise(HostNoiseConfig {
            transactions_per_switch: 3,
        });
        let mut p = VirtualPlatform::new(cfg, wl.as_ref());
        // Track whether any *low-address* (host) transaction arrives
        // while the window is open.
        struct WindowCheck {
            codec: MessageCodec,
            open: bool,
            violations: u64,
            noise_seen: u64,
        }
        impl FsbListener for WindowCheck {
            fn transaction(&mut self, txn: &FsbTransaction) {
                if txn.is_message() {
                    match self.codec.decode(txn) {
                        Ok(Some(Message::Start)) => self.open = true,
                        Ok(Some(Message::Stop)) => self.open = false,
                        _ => {}
                    }
                } else if txn.addr.raw() < 0x100_0000 {
                    self.noise_seen += 1;
                    if self.open {
                        self.violations += 1;
                    }
                }
            }
        }
        let mut w = WindowCheck {
            codec: MessageCodec::new(),
            open: false,
            violations: 0,
            noise_seen: 0,
        };
        p.run(&mut w);
        assert!(w.noise_seen > 0, "noise must be injected");
        assert_eq!(w.violations, 0, "host noise leaked into the window");
    }

    #[test]
    fn workload_results_survive_platform_run() {
        // The platform drives real kernels: FIMI still produces frequent
        // pairs when run through the whole platform stack.
        let wl = WorkloadId::Fimi.build(Scale::tiny(), 5);
        let mut p = VirtualPlatform::new(PlatformConfig::new(4), wl.as_ref());
        let mut l = CountingListener::default();
        let _ = p.run(&mut l);
        // Downcast via the known concrete type.
        let any: &dyn std::any::Any = &wl;
        let _ = any;
        // (Result inspection is covered in the workloads crate; here we
        // assert the run completed with traffic.)
        assert!(l.data_transactions > 0);
    }

    #[test]
    fn memory_fraction_matches_table2_shape() {
        let (s, _) = run_workload(WorkloadId::Plsa, 1);
        assert!((s.memory_fraction() - 0.831).abs() < 0.02);
        let (s2, _) = run_workload(WorkloadId::Rsearch, 1);
        assert!((s2.memory_fraction() - 0.423).abs() < 0.03);
    }
}
