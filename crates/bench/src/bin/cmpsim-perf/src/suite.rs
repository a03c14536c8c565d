//! The benchmark's four workloads, the passes of the shipped binaries
//! that run them, the checks on every pass's output, and the
//! end-to-end measurement.

use crate::proc::{self, Exit, Proc};
use crate::stats::{median, percentile_with_tail};
use cmpsim_core::cache::{CacheConfig, ReplacementPolicy};
use cmpsim_core::experiment::paper_cache_sizes;
use cmpsim_core::runner::hash::fnv1a64;
use cmpsim_core::tel::{parse, JsonValue};
use cmpsim_core::{Scale, WorkloadId};
use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Cold passes every run makes at least, whatever `--seconds` says.
pub const MIN_REPS: usize = 3;
/// Set-up is repeated at least this many times, and for at least
/// [`SETUP_MIN_S`]; `setup_s` is the median.
const SETUP_REPS: usize = 3;
const SETUP_MIN_S: f64 = 1.0;
/// Warm submissions behind `warm_p50_ms`/`warm_p90_ms`: enough for ten
/// samples beyond the 90th percentile.
const WARM_SAMPLES: usize = 100;
/// The seed `perf/golden.json` was generated at.
pub const GOLDEN_SEED: u64 = 2007;
/// Upper bound on any one child process.
const CHILD_DEADLINE: Duration = Duration::from_secs(120);

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The 7-size FIMI sweep: one heavy capture, two-shard replay.
    Fig4Fimi,
    /// Seven platform-bound workloads, one cell at a time, inline replay.
    Fig4Mix,
    /// The replacement ablation replayed from a trace store: no capture.
    Retrace,
    /// Tiny grids through the `cmpsim serve` daemon.
    ServiceGrid,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::Fig4Fimi,
        Workload::Fig4Mix,
        Workload::Retrace,
        Workload::ServiceGrid,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig4Fimi => "fig4-fimi",
            Workload::Fig4Mix => "fig4-mix",
            Workload::Retrace => "replacement-retrace",
            Workload::ServiceGrid => "service-grid",
        }
    }

    /// Parses a `--workload` value.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The simulator inputs one pass computes, and their scale.
    ///
    /// Scales are chosen so one cold pass takes two to five seconds on
    /// a 2-CPU host, which keeps a run near 20 s (a stability check is
    /// 92 runs within 3420 s) while each workload still loads the layers
    /// it was chosen for. Every pass computes one cell at a time: a pass
    /// that needs both CPUs throughout slowed by half whenever anything
    /// else ran, which no bound could absorb.
    pub fn inputs(self) -> (Vec<WorkloadId>, Scale) {
        use WorkloadId::*;
        match self {
            Workload::Fig4Fimi => (vec![Fimi], Scale::with_shift(6)),
            Workload::Fig4Mix => (
                vec![Snp, SvmRfe, Mds, Shot, Viewtype, Plsa, Rsearch],
                Scale::with_shift(5),
            ),
            Workload::Retrace => (vec![Fimi], Scale::with_shift(7)),
            Workload::ServiceGrid => (WorkloadId::all().to_vec(), Scale::tiny()),
        }
    }

    /// Replay shards per cell.
    pub fn shards(self) -> usize {
        match self {
            Workload::Fig4Fimi | Workload::Retrace => 2,
            Workload::Fig4Mix | Workload::ServiceGrid => 1,
        }
    }

    /// Whether a pass captures its streams (every workload but the
    /// retrace, which loads them from the store).
    pub fn captures(self) -> bool {
        self != Workload::Retrace
    }

    /// The board sweeps each input's stream drives: the paper's seven
    /// LRU sizes, plus PLRU, FIFO and random for the retrace.
    pub fn sweeps(self, scale: Scale) -> Vec<Vec<CacheConfig>> {
        let policies: &[ReplacementPolicy] = match self {
            Workload::Retrace => &[
                ReplacementPolicy::Lru,
                ReplacementPolicy::TreePlru,
                ReplacementPolicy::Fifo,
                ReplacementPolicy::Random,
            ],
            _ => &[ReplacementPolicy::Lru],
        };
        policies
            .iter()
            .map(|&p| {
                paper_cache_sizes(scale)
                    .into_iter()
                    .map(|s| sweep_config(s, p))
                    .collect()
            })
            .collect()
    }

    fn common_args(self, seed: u64, scale: Scale) -> Vec<String> {
        let names: Vec<String> = self.inputs().0.iter().map(ToString::to_string).collect();
        strings(&[
            "--workloads",
            &names.join(","),
            "--scale",
            &format!("1/{}", scale.divisor()),
            "--seed",
            &seed.to_string(),
            "--jobs",
            "1",
            "--replay-shards",
            &self.shards().to_string(),
        ])
    }

    /// The store-populating capture that precedes every retrace pass.
    pub fn capture_pass(self, seed: u64, store: &Path, scale: Scale) -> Local {
        let mut args = self.common_args(seed, scale);
        args.extend(strings(&["--trace-dir", &path_str(store), "--no-cache"]));
        Local {
            bin: "fig4_scmp",
            args,
            cells: 1,
        }
    }

    /// The pass that computes this workload's cells on the local runner
    /// at `scale`, without cache flags. `store` is the retrace's trace
    /// store; the service grid's local pass is the grid of `seed` alone.
    pub fn local_pass(self, seed: u64, store: &Path, scale: Scale) -> Local {
        let ids = self.inputs().0;
        match self {
            Workload::Fig4Fimi | Workload::Fig4Mix => Local {
                bin: "fig4_scmp",
                args: self.common_args(seed, scale),
                cells: ids.len(),
            },
            Workload::Retrace => {
                let mut args = self.common_args(seed, scale);
                args.extend(strings(&["--trace-dir", &path_str(store)]));
                Local {
                    bin: "ablation_replacement",
                    args,
                    cells: ids.len(),
                }
            }
            Workload::ServiceGrid => Local {
                bin: "cmpsim",
                args: strings(&[
                    "grid",
                    "--cores",
                    "8",
                    "--scale",
                    &format!("1/{}", scale.divisor()),
                    "--seed",
                    &seed.to_string(),
                    "--jobs",
                    "1",
                    "--replay-shards",
                    "1",
                ]),
                cells: ids.len(),
            },
        }
    }
}

/// One LLC of a sweep: the paper's 64-byte-line, 16-way geometry.
pub fn sweep_config(size: u64, policy: ReplacementPolicy) -> CacheConfig {
    CacheConfig::builder()
        .size_bytes(size)
        .line_bytes(64)
        .associativity(16)
        .replacement(policy)
        .build()
        .expect("paper sizes are valid geometries")
}

/// A binary invocation computing some cells.
#[derive(Debug, Clone)]
pub struct Local {
    /// Binary name in the build directory.
    pub bin: &'static str,
    /// Arguments, without cache or output flags.
    pub args: Vec<String>,
    /// Cells the invocation computes.
    pub cells: usize,
}

impl Local {
    /// The same invocation with `extra` appended.
    pub fn with(&self, extra: &[&str]) -> Local {
        let mut l = self.clone();
        l.args.extend(strings(extra));
        l
    }
}

/// What one pass of a binary produced.
#[derive(Debug)]
pub struct Pass {
    /// How the process ended.
    pub exit: Exit,
    /// The `results` payloads, one per cell, in cell order.
    pub payloads: Vec<JsonValue>,
    /// Cells that did not complete: failed, poisoned or skipped by the
    /// runner, or missing because the process failed.
    pub bad: usize,
    /// Cells served from the result cache.
    pub cached: usize,
}

impl Pass {
    /// Wall time in seconds.
    pub fn wall_s(&self) -> f64 {
        self.exit.wall.as_secs_f64()
    }

    /// Guest instructions summed over every figure point of the pass.
    pub fn instructions(&self) -> u64 {
        self.payloads.iter().map(point_instructions).sum()
    }
}

/// Operations attempted and failed in one run.
#[derive(Debug, Default)]
pub struct Tally {
    /// Cells computed or served, plus in-process checks.
    pub attempted: u64,
    /// Those that failed or produced a wrong result.
    pub failed: u64,
}

impl Tally {
    /// Counts `pass`'s cells, failing each one the runner did not
    /// complete or whose payload digest differs from `expect`. The first
    /// clean pass fills an empty `expect`, so later passes must agree
    /// with it.
    pub fn cells(&mut self, what: &str, pass: &Pass, expect: &mut Option<Vec<String>>) {
        let cells = pass.payloads.len() + pass.bad;
        let got: Vec<String> = pass.payloads.iter().map(digest).collect();
        let wrong = match expect {
            Some(e) => e.iter().zip(&got).filter(|(a, b)| a != b).count(),
            None => {
                if pass.bad == 0 {
                    *expect = Some(got);
                }
                0
            }
        };
        let bad = (pass.bad + wrong).min(cells);
        self.attempted += cells as u64;
        self.failed += bad as u64;
        if bad > 0 {
            eprintln!("cmpsim-perf: check failed: {what}: {bad} of {cells} cells");
        }
    }

    /// Counts one in-process check or process-level operation.
    pub fn op(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("cmpsim-perf: check failed: {what}");
        }
    }
}

/// Where the binaries live and where a run may write.
#[derive(Debug)]
pub struct Ctx {
    /// Directory holding `fig4_scmp`, `ablation_replacement`, `cmpsim`.
    pub bins: PathBuf,
    /// Scratch directory for caches, stores, journals and pass output.
    pub scratch: PathBuf,
    /// Input seed.
    pub seed: u64,
    /// Minimum measuring time of a run.
    pub seconds: f64,
    /// `perf/golden.json`, when present.
    pub golden: Option<JsonValue>,
    next: Cell<u64>,
}

impl Ctx {
    /// A context; `scratch` must exist.
    pub fn new(bins: PathBuf, scratch: PathBuf, seed: u64, seconds: f64) -> Ctx {
        Ctx {
            bins,
            scratch,
            seed,
            seconds,
            golden: None,
            next: Cell::new(0),
        }
    }

    /// A fresh path under the scratch directory.
    pub fn fresh(&self, tag: &str) -> PathBuf {
        let n = self.next.get();
        self.next.set(n + 1);
        self.scratch.join(format!("{tag}-{n}"))
    }

    fn log(&self) -> PathBuf {
        self.scratch.join("children.log")
    }

    /// The seed-2007 digests of `w`'s passes, when this run is at that
    /// seed and `perf/golden.json` has them.
    pub fn golden_for(&self, w: Workload) -> Option<Vec<String>> {
        if self.seed != GOLDEN_SEED {
            return None;
        }
        let list = self.golden.as_ref()?.get_path(&["digests", w.name()])?;
        list.as_array()?
            .iter()
            .map(|d| d.as_str().map(str::to_owned))
            .collect()
    }

    /// Runs one pass of `local` with `--quiet --metrics-out`, and reads
    /// back its payloads and runner outcome.
    pub fn pass(&self, local: &Local) -> Result<Pass, String> {
        let out = self.fresh("pass").with_extension("json");
        let mut args = local.args.clone();
        args.extend(strings(&["--quiet", "--metrics-out", &path_str(&out)]));
        let exit = self.child(local.bin, &args)?;
        let doc = std::fs::read_to_string(&out)
            .ok()
            .and_then(|t| parse(&t).ok());
        let _ = std::fs::remove_file(&out);
        let (payloads, bad, cached) = match (&doc, exit.ok) {
            (Some(doc), true) => read_runner(doc, local.cells),
            _ => (Vec::new(), local.cells, 0),
        };
        if !exit.ok {
            eprintln!(
                "cmpsim-perf: {} {} failed; its stderr ends with:\n{}",
                local.bin,
                local.args.join(" "),
                log_tail(&self.log())
            );
        }
        Ok(Pass {
            exit,
            payloads,
            bad,
            cached,
        })
    }

    fn child(&self, bin: &str, args: &[String]) -> Result<Exit, String> {
        proc::run(
            &self.bins.join(bin),
            args,
            &self.scratch,
            &self.log(),
            CHILD_DEADLINE,
        )
        .map_err(|e| format!("cannot run {bin}: {e}"))
    }
}

/// A `cmpsim serve` daemon with its own cache and journal; killed with
/// its workers if dropped without [`Daemon::stop`].
#[derive(Debug)]
pub struct Daemon {
    proc: Option<Proc>,
    /// The address it listens on.
    pub addr: String,
    /// Spawn to the first `status` reply: the service's set-up time.
    pub ready: Duration,
}

impl Daemon {
    /// Starts a daemon with one worker and waits until it answers. It
    /// gets a fresh result cache unless `cache` names one: the daemon
    /// and a local run key their caches alike, so a cache a local pass
    /// filled serves the same cells through the daemon.
    pub fn start(ctx: &Ctx, cache: Option<&Path>) -> Result<Daemon, String> {
        let dir = ctx.fresh("daemon");
        let port = dir.join("port");
        let cache = cache.map_or_else(|| dir.join("cache"), Path::to_path_buf);
        let args = strings(&[
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--workers",
            "1",
            "--cache-dir",
            &path_str(&cache),
            "--journal-dir",
            &path_str(&dir.join("journal")),
            "--port-file",
            &path_str(&port),
        ]);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let started = Instant::now();
        let p = proc::spawn(&ctx.bins.join("cmpsim"), &args, &ctx.scratch, &ctx.log())
            .map_err(|e| format!("cannot start cmpsim serve: {e}"))?;
        let mut d = Daemon {
            proc: Some(p),
            addr: String::new(),
            ready: Duration::ZERO,
        };
        while d.addr.is_empty() {
            if started.elapsed() > Duration::from_secs(30) {
                return Err(format!(
                    "cmpsim serve wrote no port file:\n{}",
                    log_tail(&ctx.log())
                ));
            }
            std::thread::sleep(Duration::from_millis(1));
            d.addr = std::fs::read_to_string(&port).unwrap_or_default();
        }
        let status = strings(&["status", "--connect", &d.addr, "--json"]);
        while !ctx.child("cmpsim", &status)?.ok {
            if started.elapsed() > Duration::from_secs(30) {
                return Err(format!(
                    "cmpsim serve never answered status:\n{}",
                    log_tail(&ctx.log())
                ));
            }
        }
        d.ready = started.elapsed();
        Ok(d)
    }

    /// Drains the daemon with SIGTERM and reaps it.
    pub fn stop(mut self) -> Result<Exit, String> {
        let p = self.proc.take().expect("a running daemon");
        p.signal(proc::SIGTERM);
        p.wait(Duration::from_secs(30))
            .map_err(|e| format!("cannot reap cmpsim serve: {e}"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(p) = self.proc.take() {
            p.kill_group();
            let _ = p.wait(Duration::from_secs(10));
        }
    }
}

/// The samples behind one run's end-to-end metrics.
#[derive(Debug, Default)]
pub struct E2e {
    walls: Vec<f64>,
    rss_kb: Vec<f64>,
    setup: Vec<f64>,
    warm_ms: Vec<f64>,
    instructions: u64,
}

/// One reported metric: name, unit, value, and how many work units the
/// value covers (the ledger's unit count).
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as declared in `BENCHMARK.json`.
    pub name: String,
    /// Unit as declared in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
    /// Work units behind the value.
    pub count: u64,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64, count: u64) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
            count,
        }
    }
}

impl E2e {
    /// The end-to-end metrics, in `BENCHMARK.json` order. Each covers
    /// the guest instructions one pass simulates.
    pub fn metrics(&self) -> Vec<Metric> {
        let wall = median(&self.walls).unwrap_or(f64::NAN);
        let ins = self.instructions;
        let metric = |name, unit, value| Metric::new(name, unit, value, ins);
        vec![
            metric("wall_s", "s", wall),
            metric("minst_per_s", "Minst/s", ins as f64 / wall / 1e6),
            metric(
                "peak_rss_mb",
                "MB",
                median(&self.rss_kb).unwrap_or(f64::NAN) / 1024.0,
            ),
            metric("setup_s", "s", median(&self.setup).unwrap_or(f64::NAN)),
            metric(
                "warm_p50_ms",
                "ms",
                percentile_with_tail(&self.warm_ms, 50).unwrap_or(f64::NAN),
            ),
            metric(
                "warm_p90_ms",
                "ms",
                percentile_with_tail(&self.warm_ms, 90).unwrap_or(f64::NAN),
            ),
        ]
    }

    /// Whether the cold passes have not yet reached [`MIN_REPS`] and
    /// `seconds` of measured time.
    fn cold_pending(&self, seconds: f64) -> bool {
        self.walls.len() < MIN_REPS || self.walls.iter().sum::<f64>() < seconds
    }

    fn setup_pending(&self) -> bool {
        self.setup.len() < SETUP_REPS || self.setup.iter().sum::<f64>() < SETUP_MIN_S
    }

    fn cold(&mut self, pass: &Pass) {
        self.walls.push(pass.wall_s());
        self.rss_kb.push(pass.exit.peak_rss_kb as f64);
        if pass.bad == 0 {
            self.instructions = pass.instructions();
        }
    }
}

/// Measures one run of `w`'s end-to-end metrics.
pub fn measure(ctx: &Ctx, w: Workload, tally: &mut Tally) -> Result<Vec<Metric>, String> {
    let e = match w {
        Workload::Fig4Fimi | Workload::Fig4Mix => fig4(ctx, w, tally)?,
        Workload::Retrace => retrace(ctx, tally)?,
        Workload::ServiceGrid => service(ctx, tally)?,
    };
    Ok(e.metrics())
}

/// `fig4-*`: set-up is building the workload inputs, which the
/// binary does inside every pass.
fn fig4(ctx: &Ctx, w: Workload, tally: &mut Tally) -> Result<E2e, String> {
    let mut e = E2e::default();
    let (ids, scale) = w.inputs();
    while e.setup_pending() {
        let t0 = Instant::now();
        let built: Vec<_> = ids.iter().map(|id| id.build(scale, ctx.seed)).collect();
        e.setup.push(t0.elapsed().as_secs_f64());
        drop(built);
    }
    let local = w.local_pass(ctx.seed, Path::new(""), scale);
    cold_and_warm(ctx, w, tally, e, &local, |_, _| {})
}

/// `replacement-retrace`: set-up is the capture that fills the trace
/// store the passes read; its payload is the LRU curve every pass must
/// reproduce.
fn retrace(ctx: &Ctx, tally: &mut Tally) -> Result<E2e, String> {
    let w = Workload::Retrace;
    let scale = w.inputs().1;
    let mut e = E2e::default();
    let mut lru = None;
    let mut store = PathBuf::new();
    while e.setup_pending() {
        let _ = std::fs::remove_dir_all(&store);
        store = ctx.fresh("store");
        let p = ctx.pass(&w.capture_pass(ctx.seed, &store, scale))?;
        tally.cells("retrace set-up capture", &p, &mut lru);
        e.setup.push(p.wall_s());
    }
    let local = w.local_pass(ctx.seed, &store, scale);
    cold_and_warm(ctx, w, tally, e, &local, |tally, pass| {
        for p in &pass.payloads {
            let curve = lru_curve(p).map(digest);
            let ok = lru.as_ref().is_some_and(|l| curve.as_ref() == l.first());
            tally.op("retrace LRU curve equals its set-up capture's", ok);
        }
    })
}

/// Cold passes, each against a fresh cache, until they add up to
/// `--seconds` (at least [`MIN_REPS`]); then [`WARM_SAMPLES`]
/// resubmissions of the pass to a daemon serving the first one's cache.
/// `extra` adds workload-specific checks.
fn cold_and_warm(
    ctx: &Ctx,
    w: Workload,
    tally: &mut Tally,
    mut e: E2e,
    local: &Local,
    extra: impl Fn(&mut Tally, &Pass),
) -> Result<E2e, String> {
    let mut expect = ctx.golden_for(w);
    let mut first_cache = None;
    while e.cold_pending(ctx.seconds) {
        let cache = ctx.fresh("cache");
        let pass = ctx.pass(&local.with(&["--cache-dir", &path_str(&cache)]))?;
        tally.cells(&format!("{} cold pass", w.name()), &pass, &mut expect);
        extra(tally, &pass);
        e.cold(&pass);
        if first_cache.is_none() {
            first_cache = Some(cache);
        } else {
            let _ = std::fs::remove_dir_all(&cache);
        }
    }
    let daemon = Daemon::start(ctx, first_cache.as_deref())?;
    let remote = [local.with(&["--connect", &daemon.addr])];
    warm_submits(
        ctx,
        tally,
        &mut e,
        &remote,
        std::slice::from_mut(&mut expect),
    )?;
    tally.op("cmpsim serve drained cleanly", daemon.stop()?.ok);
    Ok(e)
}

/// [`WARM_SAMPLES`] submissions to a daemon whose cache holds every
/// cell, cycling through `subs`; `expect[i]` is the oracle of `subs[i]`.
fn warm_submits(
    ctx: &Ctx,
    tally: &mut Tally,
    e: &mut E2e,
    subs: &[Local],
    expect: &mut [Option<Vec<String>>],
) -> Result<(), String> {
    for k in 0..WARM_SAMPLES {
        let i = k % subs.len();
        let pass = ctx.pass(&subs[i])?;
        tally.cells("warm submission", &pass, &mut expect[i]);
        tally.op(
            "warm submission served every cell from the cache",
            pass.cached == subs[i].cells,
        );
        e.warm_ms.push(pass.wall_s() * 1e3);
    }
    Ok(())
}

/// `service-grid`: each cold rep starts a fresh daemon and submits the
/// tiny grids of four consecutive seeds from one client; after the
/// first, the client resubmits them to the warm cache.
fn service(ctx: &Ctx, tally: &mut Tally) -> Result<E2e, String> {
    let w = Workload::ServiceGrid;
    let scale = w.inputs().1;
    let seeds: Vec<u64> = (0..4).map(|k| ctx.seed.wrapping_add(k)).collect();
    let submits = |addr: &str| -> Vec<Local> {
        seeds
            .iter()
            .map(|&seed| {
                let mut l = w.local_pass(seed, Path::new(""), scale);
                l.args[0] = "submit".to_owned();
                l.with(&["--connect", addr])
            })
            .collect()
    };
    // The oracle: the first grid computed by a local `cmpsim grid`.
    let mut expect: Vec<Option<Vec<String>>> = vec![None; seeds.len()];
    let local = w.local_pass(seeds[0], Path::new(""), scale);
    let local = ctx.pass(&local.with(&["--no-cache"]))?;
    tally.cells("local cmpsim grid", &local, &mut expect[0]);
    let mut e = E2e::default();
    while e.cold_pending(ctx.seconds) {
        let daemon = Daemon::start(ctx, None)?;
        e.setup.push(daemon.ready.as_secs_f64());
        let subs = submits(&daemon.addr);
        let t0 = Instant::now();
        let mut instructions = 0;
        for (sub, expect) in subs.iter().zip(&mut expect) {
            let pass = ctx.pass(sub)?;
            tally.cells("service cold submit", &pass, expect);
            instructions += pass.instructions();
        }
        e.walls.push(t0.elapsed().as_secs_f64());
        e.instructions = instructions;
        if e.warm_ms.is_empty() {
            warm_submits(ctx, tally, &mut e, &subs, &mut expect)?;
        }
        let exit = daemon.stop()?;
        tally.op("cmpsim serve drained cleanly", exit.ok);
        e.rss_kb.push(exit.peak_rss_kb as f64);
    }
    Ok(e)
}

/// The seed-2007 payload digests of each sweep workload's pass, for
/// `perf/golden.json`.
pub fn golden_digests(ctx: &Ctx, w: Workload) -> Result<Vec<String>, String> {
    let scale = w.inputs().1;
    let store = ctx.fresh("store");
    if w == Workload::Retrace {
        ctx.pass(&w.capture_pass(ctx.seed, &store, scale))?;
    }
    let pass = ctx.pass(&w.local_pass(ctx.seed, &store, scale).with(&["--no-cache"]))?;
    if pass.bad > 0 {
        return Err(format!("{} pass failed", w.name()));
    }
    Ok(pass.payloads.iter().map(digest).collect())
}

fn read_runner(doc: &JsonValue, cells: usize) -> (Vec<JsonValue>, usize, usize) {
    let payloads = doc
        .get("results")
        .and_then(JsonValue::as_array)
        .map(<[JsonValue]>::to_vec)
        .unwrap_or_default();
    let outcomes: Vec<&str> = doc
        .get_path(&["runner", "jobs"])
        .and_then(JsonValue::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(|j| j.get("outcome")?.as_str())
        .collect();
    let done = outcomes
        .iter()
        .filter(|o| matches!(**o, "ok" | "cached"))
        .count();
    let cached = outcomes.iter().filter(|o| **o == "cached").count();
    let bad = cells.saturating_sub(done.min(payloads.len()));
    (payloads, bad, cached)
}

/// The digest a payload is checked by: FNV-1a over its canonical JSON.
pub fn digest(payload: &JsonValue) -> String {
    format!("{:016x}", fnv1a64(payload.to_json().as_bytes()))
}

/// Guest instructions over every figure point in `v` (a fig4 curve, or
/// the four curves of a replacement sweep).
pub fn point_instructions(v: &JsonValue) -> u64 {
    match v {
        JsonValue::Object(fields) => fields
            .iter()
            .map(|(k, v)| match (k.as_str(), v) {
                ("points", JsonValue::Array(points)) => points
                    .iter()
                    .filter_map(|p| p.get("instructions")?.as_u64())
                    .sum(),
                _ => point_instructions(v),
            })
            .sum(),
        JsonValue::Array(items) => items.iter().map(point_instructions).sum(),
        _ => 0,
    }
}

/// The LRU curve inside a replacement-sweep payload.
pub fn lru_curve(payload: &JsonValue) -> Option<&JsonValue> {
    payload
        .get("policies")?
        .as_array()?
        .iter()
        .find(|p| p.get("policy").and_then(JsonValue::as_str) == Some("LRU"))?
        .get("curve")?
        .as_array()?
        .first()
}

/// Misses per board, per sweep, as a payload reports them: one sweep
/// for a fig4 curve, four (LRU, PLRU, FIFO, random) for a replacement
/// sweep.
pub fn payload_misses(payload: &JsonValue) -> Vec<Vec<u64>> {
    let curve_misses = |c: &JsonValue| -> Vec<u64> {
        c.get("points")
            .and_then(JsonValue::as_array)
            .unwrap_or_default()
            .iter()
            .filter_map(|p| p.get("misses")?.as_u64())
            .collect()
    };
    match payload.get("policies").and_then(JsonValue::as_array) {
        Some(policies) => policies
            .iter()
            .filter_map(|p| p.get("curve")?.as_array()?.first())
            .map(curve_misses)
            .collect(),
        None => vec![curve_misses(payload)],
    }
}

fn log_tail(log: &Path) -> String {
    let text = std::fs::read_to_string(log).unwrap_or_default();
    let lines: Vec<&str> = text.lines().collect();
    lines[lines.len().saturating_sub(20)..].join("\n")
}

/// Owned copies of string arguments.
pub fn strings(args: &[&str]) -> Vec<String> {
    args.iter().map(|s| (*s).to_owned()).collect()
}

/// A path as a command-line argument.
pub fn path_str(p: &Path) -> String {
    p.to_string_lossy().into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_stable() {
        let p = JsonValue::object([
            ("workload", JsonValue::from("FIMI")),
            ("mpki", JsonValue::F64(133.39807057595687)),
            ("misses", JsonValue::U64(1_021_512)),
        ]);
        // Pinned (FNV-1a of the compact JSON, checked independently): a
        // change here invalidates perf/golden.json.
        assert_eq!(digest(&p), digest(&parse(&p.to_json()).unwrap()));
        assert_eq!(digest(&p), "5ab199a4860d7224");
    }

    #[test]
    fn instructions_and_misses_read_both_payload_shapes() {
        let curve = parse(
            r#"{"workload":"FIMI","points":[{"misses":5,"instructions":100},{"misses":3,"instructions":100}]}"#,
        )
        .unwrap();
        assert_eq!(point_instructions(&curve), 200);
        assert_eq!(payload_misses(&curve), vec![vec![5, 3]]);
        let sweep = JsonValue::object([(
            "policies",
            JsonValue::array(["LRU", "FIFO"].map(|p| {
                JsonValue::object([
                    ("policy", JsonValue::from(p)),
                    ("curve", JsonValue::array([curve.clone()])),
                ])
            })),
        )]);
        assert_eq!(point_instructions(&sweep), 400);
        assert_eq!(payload_misses(&sweep), vec![vec![5, 3], vec![5, 3]]);
        assert_eq!(lru_curve(&sweep), Some(&curve));
    }

    #[test]
    fn a_pass_agreeing_with_its_oracle_fails_nothing() {
        let exit = Exit {
            wall: Duration::from_millis(5),
            peak_rss_kb: 1,
            ok: true,
        };
        let pass = |v: u64| Pass {
            exit,
            payloads: vec![JsonValue::U64(v)],
            bad: 0,
            cached: 0,
        };
        let mut t = Tally::default();
        let mut expect = None;
        t.cells("first", &pass(1), &mut expect);
        t.cells("same", &pass(1), &mut expect);
        assert_eq!((t.attempted, t.failed), (2, 0));
        t.cells("different", &pass(2), &mut expect);
        assert_eq!((t.attempted, t.failed), (3, 1));
        let failed = Pass {
            exit,
            payloads: Vec::new(),
            bad: 1,
            cached: 0,
        };
        t.cells("crashed", &failed, &mut expect);
        assert_eq!((t.attempted, t.failed), (4, 2));
    }
}
