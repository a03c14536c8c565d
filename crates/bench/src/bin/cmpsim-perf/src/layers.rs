//! The traced run: every layer's public functions fed the workload's own
//! inputs and timed call by call, plus the binary passes that price the
//! runner, the service hop and the flight recorder.
//!
//! Spans are recorded from this side of each call, into the repository's
//! `FlightRecorder`, so the run exports as one Perfetto timeline.

use crate::stats::median;
use crate::suite::{self, path_str, Ctx, Daemon, Local, Metric, Tally, Workload};
use cmpsim_core::cache::{CacheConfig, CacheStats, HierarchyConfig, ReplacementPolicy};
use cmpsim_core::dragonhead::{AddressFilter, Dragonhead, DragonheadConfig, FilterOutcome};
use cmpsim_core::prefetch::StrideConfig;
use cmpsim_core::runner::{JobKey, JobOutcome, JournalConfig, ResultCache, RunJournal};
use cmpsim_core::softsdv::{CountingListener, PlatformConfig, VirtualPlatform};
use cmpsim_core::tel::trace::OpenSpan;
use cmpsim_core::tel::{FlightRecorder, JsonValue, Lane};
use cmpsim_core::trace::file::TraceWriter;
use cmpsim_core::trace::{CountingSink, FsbTransaction, TraceSink, Tracer};
use cmpsim_core::workloads::ThreadKernel;
use cmpsim_core::{
    CmpClass, CoSimConfig, CoSimReport, CoSimulation, DecodedChunks, Scale, TraceStore, Validator,
    WorkloadId,
};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// LLC sizes in the paper's sweep.
const SIZES: usize = 7;
/// Warm passes (local and through the service) per traced run.
const WARM_REPS: usize = 10;
/// Result-cache and journal operations timed per traced run.
const RUNNER_OPS: usize = 32;

/// Spans recorded around layer calls, all children of one parent.
pub struct Spans {
    lane: Lane,
    cell: String,
    parent: u64,
}

impl Spans {
    /// Spans on `lane` under `parent`, labelled `cell`.
    pub fn new(lane: Lane, cell: &str, parent: u64) -> Spans {
        Spans {
            lane,
            cell: cell.to_owned(),
            parent,
        }
    }

    /// Runs `f` inside a span named `name`; returns its result and the
    /// host seconds it took.
    pub fn time<T>(&self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let span = self.lane.begin(name, &self.cell, self.parent);
        let t0 = Instant::now();
        let out = f();
        let secs = t0.elapsed().as_secs_f64();
        span.end();
        (out, secs)
    }

    /// Opens `name` and returns spans nested under it, with the open
    /// span, which records itself when dropped.
    pub fn scope(&self, name: &str) -> (Spans, OpenSpan) {
        let span = self.lane.begin(name, &self.cell, self.parent);
        let inner = Spans::new(self.lane.clone(), &self.cell, span.span_id());
        (inner, span)
    }
}

/// Host seconds and work counts of the layer pass, summed over inputs.
#[derive(Debug, Default, Clone)]
pub struct Sums {
    inputs: u64,
    build_s: f64,
    refs: u64,
    emit_s: f64,
    platform_s: f64,
    bus_txns: u64,
    capture_s: f64,
    txns: u64,
    bytes: u64,
    encode_s: f64,
    decode_s: f64,
    store_load_s: f64,
    decode_chunks_s: f64,
    /// Every sweep of the pass, at one and at two shards.
    replay_s: [f64; 2],
    reports: u64,
    validate_s: f64,
    af_s: f64,
    emulated: u64,
    lru_board_s: [f64; SIZES],
    lru_accesses: [u64; SIZES],
    lru_misses: [u64; SIZES],
    /// PLRU, FIFO, random and prefetching boards at the smallest size.
    policy_board_s: [f64; 4],
    flush_s: f64,
    flushes: u64,
}

fn add_all<T: Copy + std::ops::AddAssign>(a: &mut [T], b: &[T]) {
    for (x, &y) in a.iter_mut().zip(b) {
        *x += y;
    }
}

impl Sums {
    fn add(&mut self, o: &Sums) {
        self.inputs += o.inputs;
        self.build_s += o.build_s;
        self.refs += o.refs;
        self.emit_s += o.emit_s;
        self.platform_s += o.platform_s;
        self.bus_txns += o.bus_txns;
        self.capture_s += o.capture_s;
        self.txns += o.txns;
        self.bytes += o.bytes;
        self.encode_s += o.encode_s;
        self.decode_s += o.decode_s;
        self.store_load_s += o.store_load_s;
        self.decode_chunks_s += o.decode_chunks_s;
        add_all(&mut self.replay_s, &o.replay_s);
        self.reports += o.reports;
        self.validate_s += o.validate_s;
        self.af_s += o.af_s;
        self.emulated += o.emulated;
        add_all(&mut self.lru_board_s, &o.lru_board_s);
        add_all(&mut self.lru_accesses, &o.lru_accesses);
        add_all(&mut self.lru_misses, &o.lru_misses);
        add_all(&mut self.policy_board_s, &o.policy_board_s);
        self.flush_s += o.flush_s;
        self.flushes += o.flushes;
    }

    /// Host seconds a pass spends in the measured layers: capture (or
    /// the store load that replaces it), replay at the pass's shard
    /// count, and validation.
    fn pass_layers_s(&self, w: Workload) -> f64 {
        let front = if w.captures() {
            self.capture_s
        } else {
            self.store_load_s
        };
        front + self.replay_s[w.shards() - 1] + self.validate_s
    }
}

/// One simulator input through every layer.
#[derive(Debug)]
pub struct InputLayers {
    /// Its timings and counts.
    pub sums: Sums,
    /// Misses per board per sweep, as the replay reports them.
    pub misses: Vec<Vec<u64>>,
    /// Cross-checks between layers, with whether each held.
    pub checks: Vec<(&'static str, bool)>,
}

/// Feeds input `id` through each layer in turn: workload build and
/// emit, the platform, capture, decode, store, sweep replay, validation,
/// the address filter, and one board per sweep size and policy.
pub fn input_layers(
    id: WorkloadId,
    scale: Scale,
    seed: u64,
    sweeps: &[Vec<CacheConfig>],
    store_root: &Path,
    sp: &Spans,
) -> Result<InputLayers, String> {
    let lru = sweeps
        .first()
        .filter(|s| s.len() == SIZES)
        .ok_or("the first sweep must be the paper's seven LRU sizes")?;
    let cores = CmpClass::Small.cores();
    let mut s = Sums {
        inputs: 1,
        ..Sums::default()
    };
    let mut checks = Vec::new();

    let (built, build_s) = sp.time("workloads.build", || id.build(scale, seed));
    s.build_s = build_s;
    let mut threads = built.make_threads(cores);
    let (sink, emit_s) = sp.time("workloads.emit", || emit(&mut threads));
    (s.refs, s.emit_s) = (sink.total(), emit_s);
    drop(threads);

    let wl = id.build(scale, seed);
    let pcfg = PlatformConfig::new(cores).with_hierarchy(HierarchyConfig::cmp_core_scaled(scale));
    let mut platform = VirtualPlatform::new(pcfg, wl.as_ref());
    let mut counter = CountingListener::default();
    let (_, platform_s) = sp.time("softsdv.platform", || platform.run(&mut counter));
    (s.platform_s, s.bus_txns) = (platform_s, counter.data_transactions);
    drop(platform);

    let cfg = CoSimConfig::scaled(cores, lru[0].size_bytes(), scale).map_err(|e| e.to_string())?;
    let sim = CoSimulation::new(cfg);
    let (stream, capture_s) = sp.time("core.capture", || sim.capture(id, scale, seed));
    s.capture_s = capture_s;
    s.txns = stream.transactions();
    s.bytes = stream.encoded_bytes().len() as u64;
    let (decoded, decode_s) = sp.time("trace.decode", || stream.iter().count() as u64);
    s.decode_s = decode_s;
    checks.push((
        "streamed decode yields every captured transaction",
        decoded == s.txns,
    ));

    let store = TraceStore::new(store_root);
    let key = sim.stream_key(id, scale, seed);
    store
        .store(&key, &stream)
        .map_err(|e| format!("cannot store a trace under {}: {e}", store_root.display()))?;
    let (loaded, load_s) = sp.time("trace.store_load", || store.load(&key));
    s.store_load_s = load_s;
    checks.push((
        "the trace store returns the stored stream",
        loaded.is_some_and(|l| l.encoded_bytes() == stream.encoded_bytes()),
    ));

    let replay = |shards| -> Vec<Vec<CoSimReport>> {
        sweeps
            .iter()
            .map(|llcs| sim.replay_sweep_sharded(&stream, llcs, shards))
            .collect()
    };
    let (one, replay1_s) = sp.time("core.replay.shards1", || replay(1));
    let (two, replay2_s) = sp.time("core.replay.shards2", || replay(2));
    s.replay_s = [replay1_s, replay2_s];
    let misses = report_misses(&one);
    checks.push((
        "replay is identical at one and two shards",
        misses == report_misses(&two),
    ));
    drop(two);
    let validator = Validator::new(cfg.sample_period);
    let (invalid, validate_s) = sp.time("core.validate", || {
        one.iter()
            .flatten()
            .filter(|r| validator.validate(r).is_err())
            .count()
    });
    s.validate_s = validate_s;
    s.reports = one.iter().map(|sw| sw.len() as u64).sum();
    checks.push(("every replayed report validates", invalid == 0));

    let (chunks, decode_chunks_s) = sp.time("core.decode_chunks", || {
        stream.decode_chunks(cmpsim_core::dragonhead::BATCH_TRANSACTIONS)
    });
    s.decode_chunks_s = decode_chunks_s;
    let (bytes, encode_s) = sp.time("trace.encode", || encode(&chunks));
    s.encode_s = encode_s;
    checks.push((
        "encoding the decoded stream reproduces the capture",
        bytes == stream.encoded_bytes(),
    ));
    drop(bytes);
    let (emulated, af_s) = sp.time("dragonhead.af", || {
        let mut af = AddressFilter::new();
        chunks
            .iter()
            .flatten()
            .filter(|t| matches!(af.filter(t), FilterOutcome::Emulate { .. }))
            .count() as u64
    });
    (s.emulated, s.af_s) = (emulated, af_s);

    let final_cycle = stream.run().cycles;
    let mut board = |name: &str, cfg: DragonheadConfig| -> Result<(CacheStats, f64), String> {
        let mut b = Dragonhead::try_new(cfg).map_err(|e| e.to_string())?;
        let (_, observe_s) = sp.time(name, || {
            for c in chunks.iter() {
                b.observe_batch(c);
            }
        });
        let (flushed, flush_s) = sp.time("dragonhead.flush", || b.flush(final_cycle));
        flushed.map_err(|e| e.to_string())?;
        s.flush_s += flush_s;
        s.flushes += 1;
        Ok((b.stats(), observe_s))
    };
    let mut lru_stats = Vec::with_capacity(SIZES);
    for (i, llc) in lru.iter().enumerate() {
        lru_stats.push(board(
            &format!("dragonhead.board.lru.sz{i}"),
            DragonheadConfig::new(*llc),
        )?);
    }
    let sz0 = lru[0].size_bytes();
    let others = [
        (
            "plru",
            DragonheadConfig::new(suite::sweep_config(sz0, ReplacementPolicy::TreePlru)),
        ),
        (
            "fifo",
            DragonheadConfig::new(suite::sweep_config(sz0, ReplacementPolicy::Fifo)),
        ),
        (
            "random",
            DragonheadConfig::new(suite::sweep_config(sz0, ReplacementPolicy::Random)),
        ),
        (
            "prefetch",
            DragonheadConfig::new(lru[0]).with_prefetch(StrideConfig::default()),
        ),
    ];
    let mut policy_s = [0.0; 4];
    for (slot, (name, cfg)) in policy_s.iter_mut().zip(others) {
        *slot = board(&format!("dragonhead.board.{name}"), cfg)?.1;
    }
    s.policy_board_s = policy_s;
    for (i, (stats, observe_s)) in lru_stats.iter().enumerate() {
        s.lru_board_s[i] = *observe_s;
        s.lru_accesses[i] = stats.accesses;
        s.lru_misses[i] = stats.misses;
    }
    checks.push((
        "observe_batch misses equal the sweep replay's",
        misses[0] == s.lru_misses,
    ));
    Ok(InputLayers {
        sums: s,
        misses,
        checks,
    })
}

/// Steps every kernel thread round-robin into a counting sink: the
/// workload's memory references with no platform behind them.
fn emit(threads: &mut [Box<dyn ThreadKernel>]) -> CountingSink {
    let mut sink = CountingSink::new();
    let mut live = vec![true; threads.len()];
    while live.contains(&true) {
        for (th, live) in threads.iter_mut().zip(&mut live) {
            if *live {
                let mut t = Tracer::new(&mut sink as &mut dyn TraceSink);
                *live = th.step(&mut t);
            }
        }
    }
    sink
}

fn encode(chunks: &DecodedChunks) -> Vec<u8> {
    let mut w = TraceWriter::new(Vec::new()).expect("writing a trace to memory cannot fail");
    for t in chunks.iter().flatten() {
        w.write(t).expect("writing a trace to memory cannot fail");
    }
    w.finish().expect("writing a trace to memory cannot fail")
}

fn report_misses(sweeps: &[Vec<CoSimReport>]) -> Vec<Vec<u64>> {
    sweeps
        .iter()
        .map(|sw| sw.iter().map(|r| r.llc.misses).collect())
        .collect()
}

/// Median wall times of the traced run's binary passes, in seconds:
/// cold passes at the workload's scale with tracing off and on, then
/// the runner and service variants of its pass at 1:256, where their
/// per-cell costs are not lost in the noise of long cells.
#[derive(Debug, Default, Clone, Copy)]
pub struct PassFigures {
    /// Cells one pass computes.
    pub cells: usize,
    /// Cold pass, tracing off.
    pub untraced_s: f64,
    /// Cold pass with `--trace-out`.
    pub traced_s: f64,
    /// Cold 1:256 pass, inline.
    pub inline_s: f64,
    /// Cold 1:256 pass under `--isolate process --journal-dir`.
    pub isolate_s: f64,
    /// Warm 1:256 local pass.
    pub warm_local_s: f64,
    /// Cold 1:256 pass submitted to a fresh daemon.
    pub service_cold_s: f64,
    /// Warm 1:256 submission.
    pub service_warm_s: f64,
}

/// Microseconds per result-cache store and lookup, and per journal
/// append (fsync included).
#[derive(Debug, Default, Clone, Copy)]
pub struct RunnerOps {
    /// `ResultCache::lookup`.
    pub lookup_us: f64,
    /// `ResultCache::store`.
    pub store_us: f64,
    /// `RunJournal::job_done`.
    pub append_us: f64,
}

/// The per-layer metrics, in `BENCHMARK.json` order.
pub fn layer_metrics(s: &Sums, f: &PassFigures, ops: &RunnerOps, w: Workload) -> Vec<Metric> {
    let ns = |secs: f64, n: u64| secs * 1e9 / n as f64;
    let ratio = |a: u64, b: u64| a as f64 / b as f64;
    let cells = f.cells as u64;
    let per_cell_ms = |secs: f64| secs * 1e3 / f.cells as f64;
    let mut m = vec![
        Metric::new("workloads.build_ms", "ms", s.build_s * 1e3, s.inputs),
        Metric::new("workloads.refs", "count", s.refs as f64, s.refs),
        Metric::new(
            "workloads.emit_ns_per_ref",
            "ns",
            ns(s.emit_s, s.refs),
            s.refs,
        ),
        Metric::new(
            "softsdv.platform_ns_per_ref",
            "ns",
            ns(s.platform_s, s.refs),
            s.refs,
        ),
        Metric::new(
            "softsdv.filter_ns_per_ref",
            "ns",
            ns(s.platform_s - s.emit_s, s.refs),
            s.refs,
        ),
        Metric::new(
            "softsdv.bus_txns_per_kref",
            "count",
            1e3 * ratio(s.bus_txns, s.refs),
            s.refs,
        ),
        Metric::new(
            "trace.encode_ns_per_txn",
            "ns",
            ns(s.encode_s, s.txns),
            s.txns,
        ),
        Metric::new("trace.bytes_per_txn", "B", ratio(s.bytes, s.txns), s.txns),
        Metric::new(
            "trace.decode_ns_per_txn",
            "ns",
            ns(s.decode_s, s.txns),
            s.txns,
        ),
        Metric::new("trace.store_load_ms", "ms", s.store_load_s * 1e3, s.inputs),
        Metric::new("core.capture_s", "s", s.capture_s, s.inputs),
        Metric::new(
            "core.capture_gap_pct",
            "%",
            100.0 * (s.capture_s - s.build_s - s.platform_s - s.encode_s) / s.capture_s,
            s.inputs,
        ),
        Metric::new(
            "core.decode_chunks_ms",
            "ms",
            s.decode_chunks_s * 1e3,
            s.txns,
        ),
        Metric::new(
            "core.decode_chunks_mb",
            "MB",
            (s.txns * std::mem::size_of::<FsbTransaction>() as u64) as f64 / (1u64 << 20) as f64,
            s.txns,
        ),
        Metric::new("core.replay_s.shards1", "s", s.replay_s[0], s.reports),
        Metric::new("core.replay_s.shards2", "s", s.replay_s[1], s.reports),
        Metric::new(
            "core.validate_us_per_report",
            "us",
            s.validate_s * 1e6 / s.reports as f64,
            s.reports,
        ),
        Metric::new(
            "core.unexplained_pct",
            "%",
            100.0 * (f.untraced_s - s.pass_layers_s(w)) / f.untraced_s,
            cells,
        ),
        Metric::new("dragonhead.af_ns_per_txn", "ns", ns(s.af_s, s.txns), s.txns),
        Metric::new(
            "dragonhead.emulated_ratio",
            "ratio",
            ratio(s.emulated, s.txns),
            s.txns,
        ),
    ];
    for (i, &secs) in s.lru_board_s.iter().enumerate() {
        let name = format!("dragonhead.board_ns_per_txn.lru.sz{i}");
        m.push(Metric::new(name, "ns", ns(secs, s.txns), s.txns));
    }
    for (name, &secs) in ["plru", "fifo", "random", "prefetch"]
        .iter()
        .zip(&s.policy_board_s)
    {
        let name = format!("dragonhead.board_ns_per_txn.{name}");
        m.push(Metric::new(name, "ns", ns(secs, s.txns), s.txns));
    }
    for (i, (&miss, &acc)) in s.lru_misses.iter().zip(&s.lru_accesses).enumerate() {
        let name = format!("dragonhead.llc_miss_ratio.sz{i}");
        m.push(Metric::new(name, "ratio", ratio(miss, acc), acc));
    }
    m.extend([
        Metric::new(
            "dragonhead.flush_us",
            "us",
            s.flush_s * 1e6 / s.flushes as f64,
            s.flushes,
        ),
        Metric::new(
            "runner.cache_lookup_us",
            "us",
            ops.lookup_us,
            RUNNER_OPS as u64,
        ),
        Metric::new(
            "runner.cache_store_us",
            "us",
            ops.store_us,
            RUNNER_OPS as u64,
        ),
        Metric::new(
            "runner.journal_append_us",
            "us",
            ops.append_us,
            RUNNER_OPS as u64,
        ),
        Metric::new(
            "runner.hit_ms_per_cell",
            "ms",
            per_cell_ms(f.warm_local_s),
            cells,
        ),
        Metric::new(
            "runner.isolate_ms_per_cell",
            "ms",
            per_cell_ms(f.isolate_s - f.inline_s),
            cells,
        ),
        Metric::new(
            "service.warm_ms_per_cell",
            "ms",
            per_cell_ms(f.service_warm_s),
            cells,
        ),
        Metric::new(
            "service.hop_ms_per_cell",
            "ms",
            per_cell_ms(f.service_warm_s - f.warm_local_s),
            cells,
        ),
        Metric::new(
            "service.cold_overhead_ms_per_cell",
            "ms",
            per_cell_ms(f.service_cold_s - f.inline_s),
            cells,
        ),
        Metric::new(
            "telemetry.trace_overhead_pct",
            "%",
            100.0 * (f.traced_s - f.untraced_s) / f.untraced_s,
            cells,
        ),
    ]);
    m
}

/// Measures one traced run of `w`: its per-layer metrics.
pub fn measure(
    ctx: &Ctx,
    w: Workload,
    rec: &Arc<FlightRecorder>,
    tally: &mut Tally,
) -> Result<Vec<Metric>, String> {
    let lane = rec.lane(w.name());
    let root = lane.begin("layers", w.name(), 0);
    let sp = Spans::new(lane, w.name(), root.span_id());
    let (ids, scale) = w.inputs();
    let (figs, payloads) = binary_passes(ctx, w, &sp, tally)?;

    let sweeps = w.sweeps(scale);
    let mut sums = Sums::default();
    let mut misses = Vec::new();
    for &id in &ids {
        let (inner, _span) = sp.scope(id.name());
        let r = input_layers(
            id,
            scale,
            ctx.seed,
            &sweeps,
            &ctx.fresh("layer-store"),
            &inner,
        )?;
        for (what, ok) in &r.checks {
            tally.op(&format!("{id}: {what}"), *ok);
        }
        sums.add(&r.sums);
        misses.push(r.misses);
    }
    let printed: Vec<Vec<Vec<u64>>> = payloads.iter().map(suite::payload_misses).collect();
    tally.op(
        "the layer pass computes the misses the binary printed",
        printed == misses,
    );
    let ops = runner_ops(ctx, &payloads, &sp, tally)?;

    let layers_s = sums.pass_layers_s(w);
    eprintln!(
        "cmpsim-perf: {}: layer time {layers_s:.3} s vs wall_s {:.3} s",
        w.name(),
        figs.untraced_s
    );
    Ok(layer_metrics(&sums, &figs, &ops, w))
}

/// The binary passes of a traced run (see [`PassFigures`]); returns the
/// figures and the payloads of a cold pass at the workload's scale.
fn binary_passes(
    ctx: &Ctx,
    w: Workload,
    sp: &Spans,
    tally: &mut Tally,
) -> Result<(PassFigures, Vec<JsonValue>), String> {
    let run = |name: &str, l: &Local, tally: &mut Tally, expect: &mut Option<Vec<String>>| {
        let (p, _) = sp.time(name, || ctx.pass(l));
        let p = p?;
        tally.cells(&format!("{} {name}", w.name()), &p, expect);
        Ok::<_, String>(p)
    };
    let store_for = |scale: Scale, tally: &mut Tally| -> Result<std::path::PathBuf, String> {
        let store = ctx.fresh("store");
        if !w.captures() {
            let capture = w.capture_pass(ctx.seed, &store, scale);
            run("e2e.setup_capture", &capture, tally, &mut None)?;
        }
        Ok(store)
    };
    let med = |xs: &[f64]| median(xs).unwrap_or(f64::NAN);

    let scale = w.inputs().1;
    let local = w.local_pass(ctx.seed, &store_for(scale, tally)?, scale);
    let mut expect = ctx.golden_for(w);
    let trace_out = path_str(&ctx.fresh("trace-out").with_extension("json"));
    let cold = local.with(&["--no-cache"]);
    let traced = local.with(&["--no-cache", "--trace-out", &trace_out]);
    let (mut untraced_s, mut traced_s, mut payloads) = (Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    while untraced_s.len() < suite::MIN_REPS || started.elapsed().as_secs_f64() < ctx.seconds {
        let p = run("e2e.untraced", &cold, tally, &mut expect)?;
        untraced_s.push(p.wall_s());
        payloads = p.payloads;
        traced_s.push(run("e2e.traced", &traced, tally, &mut expect)?.wall_s());
    }

    let tiny = w.local_pass(ctx.seed, &store_for(Scale::tiny(), tally)?, Scale::tiny());
    let tiny_cold = tiny.with(&["--no-cache"]);
    let mut expect = None;
    let (mut inline, mut isolated, mut warm_local) = (Vec::new(), Vec::new(), Vec::new());
    let (mut service_cold, mut service_warm) = (Vec::new(), Vec::new());
    for rep in 0..suite::MIN_REPS {
        inline.push(run("runner.inline", &tiny_cold, tally, &mut expect)?.wall_s());
        let cache = path_str(&ctx.fresh("cache"));
        let journal = path_str(&ctx.fresh("journal"));
        let iso = tiny.with(&[
            "--isolate",
            "process",
            "--journal-dir",
            &journal,
            "--cache-dir",
            &cache,
        ]);
        isolated.push(run("runner.isolate", &iso, tally, &mut expect)?.wall_s());
        // Warm samples once, on the first rep's cache and daemon.
        let warm_reps = if rep == 0 { WARM_REPS } else { 0 };
        let warm = tiny.with(&["--cache-dir", &cache]);
        for _ in 0..warm_reps {
            let p = run("runner.warm", &warm, tally, &mut expect)?;
            tally.op(
                "warm local pass served every cell from the cache",
                p.cached == tiny.cells,
            );
            warm_local.push(p.wall_s());
        }
        let (daemon, _) = sp.time("service.start", || Daemon::start(ctx, None));
        let daemon = daemon?;
        let remote = tiny.with(&["--connect", &daemon.addr]);
        service_cold.push(run("service.cold", &remote, tally, &mut expect)?.wall_s());
        for _ in 0..warm_reps {
            let p = run("service.warm", &remote, tally, &mut expect)?;
            tally.op(
                "warm submission served every cell from the cache",
                p.cached == tiny.cells,
            );
            service_warm.push(p.wall_s());
        }
        tally.op("cmpsim serve drained cleanly", daemon.stop()?.ok);
    }
    let figs = PassFigures {
        cells: tiny.cells,
        untraced_s: med(&untraced_s),
        traced_s: med(&traced_s),
        inline_s: med(&inline),
        isolate_s: med(&isolated),
        warm_local_s: med(&warm_local),
        service_cold_s: med(&service_cold),
        service_warm_s: med(&service_warm),
    };
    Ok((figs, payloads))
}

/// Times the runner's result cache and journal on the pass's payloads.
fn runner_ops(
    ctx: &Ctx,
    payloads: &[JsonValue],
    sp: &Spans,
    tally: &mut Tally,
) -> Result<RunnerOps, String> {
    let fallback = [JsonValue::Null];
    let payloads = if payloads.is_empty() {
        &fallback[..]
    } else {
        payloads
    };
    let payload = |i: usize| &payloads[i % payloads.len()];
    let keys: Vec<JobKey> = (0..RUNNER_OPS)
        .map(|i| JobKey::new("cmpsim-perf").field("op", i))
        .collect();
    let cache = ResultCache::new(ctx.fresh("result-cache"));
    let (stored, store_s) = sp.time("runner.cache_store", || {
        keys.iter()
            .enumerate()
            .all(|(i, k)| cache.store(k, payload(i)).is_ok())
    });
    let (found, lookup_s) = sp.time("runner.cache_lookup", || {
        keys.iter()
            .enumerate()
            .all(|(i, k)| cache.lookup(k).as_ref() == Some(payload(i)))
    });
    tally.op("result cache returns what it stored", stored && found);
    let cfg = JournalConfig::new(ctx.fresh("layer-journal"), "layers");
    let (journal, _) = RunJournal::open(&cfg).map_err(|e| format!("cannot open a journal: {e}"))?;
    let outcomes: Vec<JobOutcome> = (0..RUNNER_OPS)
        .map(|i| JobOutcome::Ok(payload(i).clone()))
        .collect();
    let (_, append_s) = sp.time("runner.journal_append", || {
        for (i, (k, o)) in keys.iter().zip(&outcomes).enumerate() {
            journal.job_done(i, &k.canonical(), "cell", o, 1);
        }
    });
    tally.op("every journal append reached the disk", !journal.degraded());
    let us = |secs: f64| secs * 1e6 / RUNNER_OPS as f64;
    Ok(RunnerOps {
        lookup_us: us(lookup_s),
        store_us: us(store_s),
        append_us: us(append_s),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::declared;

    /// A 1:256 layer pass on PLSA and SVM-RFE: the layers agree with
    /// each other, and every declared per-layer metric comes out finite.
    #[test]
    fn tiny_layer_pass_cross_checks_and_fills_every_metric() {
        let rec = FlightRecorder::new();
        let sp = Spans::new(rec.lane("test"), "test", 0);
        let scale = Scale::tiny();
        let sweeps = Workload::Fig4Fimi.sweeps(scale);
        let root = std::env::temp_dir().join(format!("cmpsim-perf-layers-{}", std::process::id()));
        let mut sums = Sums::default();
        for id in [WorkloadId::Plsa, WorkloadId::SvmRfe] {
            let r = input_layers(id, scale, 7, &sweeps, &root.join(id.name()), &sp).unwrap();
            for (what, ok) in &r.checks {
                assert!(ok, "{id}: {what}");
            }
            assert_eq!(r.misses[0], r.sums.lru_misses);
            sums.add(&r.sums);
        }
        let _ = std::fs::remove_dir_all(&root);
        let figs = PassFigures {
            cells: 2,
            untraced_s: 1.0,
            traced_s: 1.01,
            inline_s: 0.1,
            isolate_s: 0.12,
            warm_local_s: 0.002,
            service_cold_s: 1.1,
            service_warm_s: 0.05,
        };
        let ops = RunnerOps {
            lookup_us: 30.0,
            store_us: 60.0,
            append_us: 900.0,
        };
        let metrics = layer_metrics(&sums, &figs, &ops, Workload::Fig4Mix);
        let names: Vec<(String, String)> = metrics
            .iter()
            .map(|m| (m.name.clone(), m.unit.to_owned()))
            .collect();
        assert_eq!(names, declared("per_layer"));
        for m in &metrics {
            assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
        }
        assert!(rec.drain_sorted().iter().any(|e| e.name == "core.capture"));
    }
}
