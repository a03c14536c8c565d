#![warn(missing_docs)]

//! Shared plumbing for the figure/table regeneration binaries.
//!
//! Every binary in this crate regenerates one table or figure of the
//! paper (see `DESIGN.md`'s per-experiment index). They share a tiny
//! command-line convention:
//!
//! * `--scale tiny|ci|paper|1/N` — the global scale knob
//!   (default `ci`; `tiny` for smoke runs, `paper` for the full-size
//!   reproduction),
//! * `--seed N` — dataset seed (default 2007),
//! * `--workloads A,B,C` — restrict to a subset (default: all eight),
//! * `--json` — also write the results as `results/<name>.json`, a
//!   machine-readable twin of the text output,
//! * `--metrics-out FILE` — like `--json` but to an explicit path,
//! * `--jobs N` — worker threads for the experiment grid (default 1,
//!   `0` = one per CPU); output is byte-identical at any job count,
//! * `--cache-dir DIR` — content-addressed result cache root (default
//!   `results/cache`),
//! * `--no-cache` — disable the result cache for this run,
//! * `--journal-dir DIR` — enable the crash-safe write-ahead run
//!   journal, storing `<run-id>.jsonl` under `DIR`,
//! * `--run-id ID` — name this run's journal (implies `--journal-dir
//!   results/journal` unless one is given),
//! * `--resume ID` — resume the journalled run `ID`: completed cells
//!   are replayed from the journal, in-flight ones re-execute,
//! * `--isolate inline|process` — where grid cells execute; `process`
//!   re-execs the binary per cell (hidden `__run-job` entrypoint) so
//!   aborts and OOM kills are contained and retried,
//! * `--retries N` — extra attempts for a crashed/hung cell (default 1),
//! * `--trace-dir DIR` — persist captured FSB streams content-addressed
//!   under `DIR`, so later runs (and other binaries sharing a platform
//!   configuration) replay from disk instead of re-executing,
//! * `--replay-shards N` — worker threads sharding each cell's sweep
//!   replay across its boards (default: follow `--jobs`, `0` = one per
//!   CPU); output is byte-identical at any shard count,
//! * `--connect ADDR` — submit the grid to a running `cmpsim serve`
//!   coordinator instead of executing locally: cells execute on the
//!   daemon's worker fleet against its shared result cache, results
//!   stream back, and the rendered output is byte-identical to a local
//!   run. `--run-id`/`--resume` name the *server-side* journal; the
//!   daemon owns journalling, caching, and the trace sidecar in this
//!   mode.
//!
//! Every cell captures its FSB stream once (or loads it from
//! `--trace-dir`) and replays it into each board the study needs; there
//! is no execute-per-configuration mode.
//!
//! The JSON twin carries a run manifest (producer, version, scale, seed,
//! workloads, wall time) plus a `results` payload built by the
//! [`results_json`] converters, so a plot script never has to parse the
//! aligned text tables.
//!
//! Every binary funnels its per-workload cells through
//! [`try_run_grid`] and renders text by parsing the JSON
//! payloads back (see [`results_json`]'s `parse_*` functions) — the one
//! code path guarantees serial, parallel, cold, and warm runs print the
//! same bytes.

use cmpsim_core::grid::{self, GridSpec};
use cmpsim_core::runner::{
    fresh_run_id, shutdown, IsolateMode, JobError, JournalConfig, RunReport, RunnerConfig,
    CHILD_ENTRY,
};
use cmpsim_core::{CaptureBroker, CaptureCounters};
use cmpsim_service::{CellSpec, Submission};
use cmpsim_telemetry::trace::{self as ftrace, FlightRecorder};
use cmpsim_telemetry::{JsonValue, RunManifest};
use cmpsim_workloads::{Scale, WorkloadId};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

pub mod results_json;

/// Parsed common options.
#[derive(Debug, Clone)]
pub struct Options {
    /// Global scale knob.
    pub scale: Scale,
    /// Dataset seed.
    pub seed: u64,
    /// Workloads to run.
    pub workloads: Vec<WorkloadId>,
    /// Write a `results/<name>.json` twin next to the text output.
    pub json: bool,
    /// Explicit output path for the JSON twin (implies `--json`).
    pub metrics_out: Option<PathBuf>,
    /// Worker threads for the experiment grid (`0` = one per CPU).
    pub jobs: usize,
    /// Result-cache root; `None` disables caching.
    pub cache_dir: Option<PathBuf>,
    /// Per-job watchdog deadline in seconds; `None` waits forever.
    pub job_timeout: Option<u64>,
    /// Write-ahead journal directory; `None` runs un-journalled unless
    /// `--run-id`/`--resume` imply the default directory.
    pub journal_dir: Option<PathBuf>,
    /// Explicit journal run id for a fresh run.
    pub run_id: Option<String>,
    /// Run id of a journalled run to resume.
    pub resume: Option<String>,
    /// Where grid cells execute.
    pub isolate: IsolateMode,
    /// Extra attempts for a crashed/hung cell; `None` = the default 1.
    pub retries: Option<u32>,
    /// On-disk trace store root for captured FSB streams; `None` keeps
    /// captures in memory only.
    pub trace_dir: Option<PathBuf>,
    /// Worker threads sharding each cell's sweep replay across boards
    /// (`0` = one per CPU). `None` follows `--jobs`. Sharding never
    /// changes output bytes — see `CoSimulation::replay_sweep_sharded`.
    pub replay_shards: Option<usize>,
    /// Chrome trace-event JSON output path (Perfetto-loadable); also
    /// enables the flight recorder for this run.
    pub trace_out: Option<PathBuf>,
    /// Suppress the live progress line on stderr.
    pub quiet: bool,
    /// Submit the grid to a `cmpsim serve` coordinator at this address
    /// instead of executing locally.
    pub connect: Option<String>,
    /// Hidden child mode: compute exactly this one cell and print the
    /// supervisor marker line (`__run-job <WORKLOAD>`).
    pub run_job: Option<WorkloadId>,
    /// The run's flight recorder; `Some` when `--trace-out` or
    /// journalling asked for a timeline, never in child mode (children
    /// record into their own recorder and ship events over the marker
    /// protocol).
    recorder: Option<Arc<FlightRecorder>>,
    /// The raw argument list as parsed — the base from which child argv
    /// is derived.
    raw: Vec<String>,
    started: Instant,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            scale: Scale::ci(),
            seed: 2007,
            workloads: WorkloadId::all().to_vec(),
            json: false,
            metrics_out: None,
            jobs: 1,
            cache_dir: Some(PathBuf::from("results/cache")),
            job_timeout: None,
            journal_dir: None,
            run_id: None,
            resume: None,
            isolate: IsolateMode::Inline,
            retries: None,
            trace_dir: None,
            replay_shards: None,
            trace_out: None,
            quiet: false,
            connect: None,
            run_job: None,
            recorder: None,
            raw: Vec::new(),
            started: Instant::now(),
        }
    }
}

impl Options {
    /// Parses `std::env::args`, exiting with a usage message on errors.
    ///
    /// Also publishes the resolved replay shard count to
    /// [`cmpsim_core::set_replay_shards`], so every sweep replay in the
    /// process — including ones built deep inside a study, far from any
    /// CLI plumbing — picks it up ambiently.
    pub fn from_args() -> Self {
        match Options::parse(std::env::args().skip(1)) {
            Ok(opts) => {
                cmpsim_core::set_replay_shards(opts.effective_replay_shards());
                opts
            }
            Err(e) => usage(&e),
        }
    }

    /// The replay shard count these options describe: an explicit
    /// `--replay-shards` wins, otherwise the sweep replay follows
    /// `--jobs`; `0` for either means one shard per CPU.
    pub fn effective_replay_shards(&self) -> usize {
        match self.replay_shards.unwrap_or(self.jobs) {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        }
    }

    /// Parses an argument list. Any token that is not a recognized flag
    /// (or a recognized flag's value) is an error — a typo like
    /// `--sclae` must not silently run the default sweep.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut opts = Options {
            raw: args.into_iter().collect(),
            ..Options::default()
        };
        let mut args = opts.raw.clone().into_iter();
        // The hidden child entrypoint only counts in first position —
        // exactly where the supervisor puts it.
        if opts.raw.first().map(String::as_str) == Some(CHILD_ENTRY) {
            args.next();
            let w = args.next().ok_or("missing __run-job workload")?;
            opts.run_job = Some(
                w.parse()
                    .map_err(|_| format!("unknown workload `{w}` after {CHILD_ENTRY}"))?,
            );
        }
        while let Some(arg) = args.next() {
            let mut val = || args.next().ok_or_else(|| format!("missing {arg} value"));
            match arg.as_str() {
                "--scale" => {
                    opts.scale = parse_scale(&val()?).ok_or("bad --scale value")?;
                }
                "--seed" => {
                    opts.seed = val()?.parse().map_err(|_| "bad --seed value")?;
                }
                "--workloads" => {
                    opts.workloads = val()?
                        .split(',')
                        .map(|s| s.parse().map_err(|_| format!("unknown workload `{s}`")))
                        .collect::<Result<_, _>>()?;
                }
                "--json" => opts.json = true,
                "--metrics-out" => {
                    opts.metrics_out = Some(PathBuf::from(val()?));
                    opts.json = true;
                }
                "--jobs" => {
                    opts.jobs = val()?.parse().map_err(|_| "bad --jobs value")?;
                }
                "--cache-dir" => opts.cache_dir = Some(PathBuf::from(val()?)),
                "--no-cache" => opts.cache_dir = None,
                "--job-timeout" => {
                    let secs: u64 = val()?.parse().map_err(|_| "bad --job-timeout value")?;
                    if secs == 0 {
                        return Err("bad --job-timeout value".to_owned());
                    }
                    opts.job_timeout = Some(secs);
                }
                "--journal-dir" => opts.journal_dir = Some(PathBuf::from(val()?)),
                "--run-id" => opts.run_id = Some(val()?),
                "--resume" => opts.resume = Some(val()?),
                "--isolate" => opts.isolate = val()?.parse()?,
                "--retries" => {
                    opts.retries = Some(val()?.parse().map_err(|_| "bad --retries value")?);
                }
                "--trace-dir" => opts.trace_dir = Some(PathBuf::from(val()?)),
                "--replay-shards" => {
                    opts.replay_shards =
                        Some(val()?.parse().map_err(|_| "bad --replay-shards value")?);
                }
                "--trace-out" => opts.trace_out = Some(PathBuf::from(val()?)),
                "--quiet" => opts.quiet = true,
                "--connect" => opts.connect = Some(val()?),
                "--help" | "-h" => return Err(String::new()),
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        // The recorder exists whenever someone will consume a timeline:
        // an explicit `--trace-out`, or a journalled run (which gets the
        // JSONL sidecar next to its journal). A child never records here
        // — it ships events to its supervisor over the marker protocol —
        // and neither does a service client: the coordinator records the
        // run and writes the sidecar next to *its* journal (a client-side
        // recorder would clobber it with an empty timeline).
        let journalling =
            opts.resume.is_some() || opts.journal_dir.is_some() || opts.run_id.is_some();
        if opts.run_job.is_none()
            && opts.connect.is_none()
            && (opts.trace_out.is_some() || journalling)
        {
            opts.recorder = Some(FlightRecorder::new());
        }
        Ok(opts)
    }

    /// The run's flight recorder, if tracing is enabled.
    pub fn recorder(&self) -> Option<&Arc<FlightRecorder>> {
        self.recorder.as_ref()
    }

    /// The runner configuration these options describe. The live
    /// progress line adapts to where stderr goes (carriage-return
    /// updates on a terminal, one complete line per update into a
    /// pipe), so only `--quiet` turns it off.
    pub fn runner(&self) -> RunnerConfig {
        RunnerConfig {
            workers: self.jobs,
            cache_dir: self.cache_dir.clone(),
            retries: self.retries.unwrap_or(1),
            progress: !self.quiet,
            job_timeout: self.job_timeout.map(std::time::Duration::from_secs),
            isolate: self.isolate,
            tracer: self.recorder.clone(),
            ..RunnerConfig::default()
        }
    }

    /// Like [`runner`](Options::runner), but wired for a crash-safe grid
    /// run of `experiment`: when journalling is requested
    /// (`--journal-dir`/`--run-id`/`--resume`), the config carries the
    /// journal and the process-global SIGINT/SIGTERM drain flag.
    pub fn runner_grid(&self, experiment: &str) -> RunnerConfig {
        let mut cfg = self.runner();
        if let Some(journal) = self.journal_config(experiment) {
            cfg.journal = Some(journal);
            cfg.shutdown = Some(shutdown::install());
        }
        cfg
    }

    /// The journal configuration these options describe, or `None` when
    /// journalling is off (the default: a plain run writes nothing).
    pub fn journal_config(&self, experiment: &str) -> Option<JournalConfig> {
        journal_config(
            self.journal_dir.as_deref(),
            self.run_id.as_deref(),
            self.resume.as_deref(),
            experiment,
        )
    }

    /// The capture broker these options describe: disk-backed under
    /// `--trace-dir`, in-memory otherwise. Wrapped in an [`Arc`] so
    /// grid-cell closures can share one broker.
    pub fn capture_broker(&self) -> Arc<CaptureBroker> {
        Arc::new(CaptureBroker::new(self.trace_dir.clone()))
    }

    /// The argv a supervised child uses to recompute one cell (minus the
    /// leading `__run-job <WORKLOAD>` pair, which the grid attaches):
    /// the original arguments with every parent-only concern stripped —
    /// parallelism, caching, journalling, isolation (a child must never
    /// recurse), timeouts (the parent enforces the deadline by killing
    /// the child), and output paths. The child always runs uncached:
    /// the parent stores the result it reports.
    pub fn child_args(&self) -> Vec<String> {
        let own = match self.raw.first().map(String::as_str) {
            Some(CHILD_ENTRY) => self.raw.get(2..).unwrap_or_default(),
            _ => &self.raw,
        };
        child_argv(own, self.effective_replay_shards())
    }

    /// The exact command that resumes this run after an interruption or
    /// a crash: the original invocation with the journal identity pinned
    /// via `--resume`.
    pub fn resume_command(&self, run_id: &str) -> String {
        let bin = std::env::args().next().unwrap_or_else(|| "<bin>".into());
        resume_command(&bin, &self.raw, run_id)
    }

    /// Where the JSON twin goes: `--metrics-out` wins, otherwise
    /// `results/<name>.json` under `--json`, otherwise nowhere.
    pub fn json_path(&self, name: &str) -> Option<PathBuf> {
        match (&self.metrics_out, self.json) {
            (Some(p), _) => Some(p.clone()),
            (None, true) => Some(PathBuf::from("results").join(format!("{name}.json"))),
            (None, false) => None,
        }
    }

    /// The manifest stamped into every JSON twin.
    pub fn manifest(&self, name: &str) -> RunManifest {
        let mut m = RunManifest::new(name, env!("CARGO_PKG_VERSION"))
            .with_workloads(self.workloads.iter().copied())
            .with_scale_seed(self.scale, self.seed);
        m.wall_ms = self.started.elapsed().as_secs_f64() * 1e3;
        m
    }

    /// Writes `{manifest, results, runner}` to the JSON twin path, if
    /// one was requested: `results` holds the cells' payloads in grid
    /// order, the manifest records the runner counters, and the document
    /// carries the full per-job [`RunReport`] under `runner`. Text output
    /// on stdout is unaffected; the path note goes to stderr.
    pub fn emit_json_runner(&self, name: &str, report: &RunReport) {
        self.emit_json_traced(name, report, CaptureCounters::default());
    }

    /// Like [`emit_json_runner`](Options::emit_json_runner), but also
    /// stamps the capture pipeline's counters into the manifest —
    /// how many FSB streams were captured live, reused from memory, and
    /// loaded from the `--trace-dir` store. Counters appear only when
    /// nonzero, so a run where nothing was captured (every cell served
    /// from the result cache) produces the exact manifest it always did.
    pub fn emit_json_traced(&self, name: &str, report: &RunReport, trace: CaptureCounters) {
        let Some(path) = self.json_path(name) else {
            return;
        };
        if let Err(e) = write_twin(&path, self.manifest(name), report, trace) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }

    /// Drains the flight recorder into the run's timeline files (see
    /// [`export_trace`]); a no-op when tracing is off.
    pub fn export_trace(&self, spec: &GridSpec, report: &RunReport) {
        let Some(rec) = &self.recorder else {
            return;
        };
        let (out, dir) = (self.trace_out.as_deref(), self.journal_dir.as_deref());
        if let Err(e) = export_trace(rec, spec, report, out, dir) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// The argv a supervised child recomputes one cell from, after the
/// `__run-job <WORKLOAD>` pair: `args` with every parent-only concern
/// stripped — parallelism, caching, journalling, isolation (a child must
/// never recurse), timeouts (the parent kills a child at the deadline),
/// workload selection and output paths — then `--no-cache` (the parent
/// stores what the child reports) and the parent's resolved
/// `--replay-shards` (its default follows the stripped `--jobs`).
pub fn child_argv(args: &[String], replay_shards: usize) -> Vec<String> {
    let mut out = Vec::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--jobs" | "--cache-dir" | "--metrics-out" | "--journal-dir" | "--run-id"
            | "--resume" | "--isolate" | "--job-timeout" | "--retries" | "--workloads"
            | "--trace-out" | "--connect" | "--replay-shards" => {
                args.next();
            }
            "--json" | "--no-cache" | "--quiet" => {}
            other => out.push(other.to_owned()),
        }
    }
    out.extend(["--no-cache".to_owned(), "--replay-shards".to_owned()]);
    out.push(replay_shards.to_string());
    out
}

/// `command` and then `args` with the journal identity pinned to
/// `--resume <run_id>`: the command that resumes a journalled run.
pub fn resume_command(command: &str, args: &[String], run_id: &str) -> String {
    let mut out = vec![command.to_owned()];
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--resume" | "--run-id" => {
                args.next();
            }
            other => out.push(other.to_owned()),
        }
    }
    out.extend(["--resume".to_owned(), run_id.to_owned()]);
    out.join(" ")
}

/// The journal configuration of a grid run, or `None` when journalling
/// is off (the default: a plain run writes nothing). `--resume` wins;
/// otherwise a fresh run is named `run_id` or a fresh id, in `dir`
/// (default `results/journal`).
pub fn journal_config(
    dir: Option<&Path>,
    run_id: Option<&str>,
    resume: Option<&str>,
    experiment: &str,
) -> Option<JournalConfig> {
    if resume.is_none() && dir.is_none() && run_id.is_none() {
        return None;
    }
    let dir = dir.unwrap_or(Path::new("results/journal")).to_path_buf();
    Some(match resume {
        Some(id) => JournalConfig::new(dir, id).resuming(),
        None => JournalConfig::new(
            dir,
            run_id.map_or_else(|| fresh_run_id(experiment), str::to_owned),
        ),
    })
}

/// Writes the `{manifest, results, runner}` JSON twin to `path`, with
/// the cells' payloads in grid order as `results`: the manifest gains
/// the runner counters, then the capture pipeline's
/// (recovery and capture counters only when nonzero, so a clean run's
/// manifest never changes). The path note goes to stderr.
///
/// # Errors
///
/// The write failure, naming the path.
pub fn write_twin(
    path: &Path,
    manifest: RunManifest,
    report: &RunReport,
    trace: CaptureCounters,
) -> Result<(), String> {
    let mut manifest = manifest
        .config_entry("runner_jobs", report.workers)
        .config_entry("runner_ok", report.ok_count())
        .config_entry("runner_cached", report.cached_count())
        .config_entry("runner_failed", report.failed_count());
    let backoff_ms = report.backoff_ms() as u64;
    for (key, n) in [
        ("runner_replayed", report.replayed_count() as u64),
        ("runner_recovered", report.recovered as u64),
        ("runner_skipped", report.skipped_count() as u64),
        ("runner_poisoned", report.poisoned_count() as u64),
        ("runner_backoff_ms", backoff_ms),
        ("runner_interrupted", u64::from(report.interrupted)),
        ("trace_captures", trace.captures),
        ("trace_reuses", trace.memory_reuses),
        ("trace_disk_loads", trace.disk_loads),
        ("trace_store_errors", trace.store_errors),
    ] {
        if n > 0 {
            manifest = manifest.config_entry(key, n);
        }
    }
    let doc = JsonValue::object([
        ("manifest", manifest.to_json()),
        (
            "results",
            JsonValue::Array(report.payloads().cloned().collect()),
        ),
        ("runner", report.to_json()),
    ]);
    cmpsim_telemetry::write_json_file(path, &doc)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

/// Drains `rec` and exports the grid run's timeline: the Chrome
/// trace-event document to `trace_out` (if given) and, for a journalled
/// run, the compact JSONL sidecar next to its journal under
/// `journal_dir` (default `results/journal`), where `cmpsim report
/// <run-id>` finds it.
///
/// # Errors
///
/// A write failure, naming the path.
pub fn export_trace(
    rec: &FlightRecorder,
    spec: &GridSpec,
    report: &RunReport,
    trace_out: Option<&Path>,
    journal_dir: Option<&Path>,
) -> Result<(), String> {
    let events = rec.drain_sorted();
    let lanes = rec.lane_names();
    let dropped = rec.dropped();
    let mut meta: Vec<(String, JsonValue)> = vec![
        (
            "experiment".to_owned(),
            JsonValue::from(spec.experiment.as_str()),
        ),
        ("seed".to_owned(), JsonValue::U64(spec.seed)),
        ("workers".to_owned(), JsonValue::U64(report.workers as u64)),
    ];
    if let Some(run_id) = &report.run_id {
        meta.push(("run_id".to_owned(), JsonValue::from(run_id.as_str())));
    }
    let cannot = |path: &Path, e| format!("cannot write {}: {e}", path.display());
    if let Some(path) = trace_out {
        let doc = cmpsim_telemetry::chrome_trace(&events, &lanes, &meta, dropped);
        cmpsim_telemetry::write_json_file(path, &doc).map_err(|e| cannot(path, e))?;
        eprintln!("wrote {}", path.display());
    }
    if let Some(run_id) = &report.run_id {
        let path = journal_dir
            .unwrap_or(Path::new("results/journal"))
            .join(format!("{run_id}.trace.jsonl"));
        ftrace::write_jsonl(&path, &meta, &lanes, &events, dropped)
            .map_err(|e| cannot(&path, e))?;
    }
    Ok(())
}

/// Runs `spec`'s grid with crash-safety wired up from `opts`: the
/// journalled, optionally process-isolated equivalent of
/// [`cmpsim_core::grid::try_run_grid`]. A cell's structured error is
/// recorded as `Errored`; in child mode it is reported over the marker
/// protocol (exit 0 — reporting a failed cell is a successful report),
/// so the parent records it the same way, not as a crash.
///
/// In the hidden `__run-job` child mode this computes exactly one cell,
/// prints the supervisor marker line, and **exits** — the caller's
/// rendering code after this call never runs in a child.
pub fn try_run_grid<F>(opts: &Options, spec: &GridSpec, f: F) -> RunReport
where
    F: Fn(WorkloadId) -> Result<JsonValue, JobError> + Send + Sync + Clone + 'static,
{
    if let Some(w) = opts.run_job {
        run_child_cell(w, &f);
    }
    if let Some(addr) = &opts.connect {
        return submit_grid(opts, addr, spec);
    }
    let base = child_base(opts);
    grid::try_run_grid_supervised(
        spec,
        &opts.runner_grid(&spec.experiment),
        base.as_deref(),
        f,
    )
}

/// Submits `spec`'s grid to the coordinator at `addr` and blocks until
/// the streamed report is complete. The cells carry the exact
/// `__run-job` argv a local process-isolated run would use, and the
/// same cache keys — so the daemon's shared cache and a local cache
/// interchangeably address the same results, and the caller renders
/// byte-identical output from the returned report.
pub fn submit_grid(opts: &Options, addr: &str, spec: &GridSpec) -> RunReport {
    let run_id = opts.resume.clone().or_else(|| opts.run_id.clone());
    let resume = opts.resume.is_some();
    match submit_cells(addr, spec, &opts.child_args(), run_id, resume, opts.quiet) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// Submits `spec`'s cells to the coordinator at `addr`, each carrying
/// the argv `__run-job <WORKLOAD> <base...>` of the current executable,
/// and blocks until the streamed report is complete. `run_id` names the
/// server-side journal (`resume` replays it).
///
/// # Errors
///
/// A human-readable message when the executable cannot be resolved or
/// the submission fails.
pub fn submit_cells(
    addr: &str,
    spec: &GridSpec,
    base: &[String],
    run_id: Option<String>,
    resume: bool,
    quiet: bool,
) -> Result<RunReport, String> {
    let exe = std::env::current_exe()
        .map_err(|e| format!("cannot resolve the current executable: {e}"))?;
    let cells = spec
        .workloads
        .iter()
        .enumerate()
        .map(|(seq, &w)| CellSpec {
            seq,
            key: spec.job_key(w).canonical(),
            label: w.to_string(),
            args: [CHILD_ENTRY.to_owned(), w.to_string()]
                .into_iter()
                .chain(base.iter().cloned())
                .collect(),
        })
        .collect();
    let sub = Submission {
        exe,
        experiment: spec.experiment.clone(),
        run_id,
        resume,
        cells,
    };
    let out = cmpsim_service::submit(addr, &sub)?;
    if !quiet {
        eprintln!("service: run {} on {addr}", out.run_id);
    }
    Ok(out.report)
}

fn child_base(opts: &Options) -> Option<Vec<String>> {
    (opts.isolate == IsolateMode::Process).then(|| opts.child_args())
}

/// Computes the one cell a `__run-job` child was spawned for, reports
/// it (and, when the supervisor is tracing, the cell's spans) over the
/// marker protocol, and exits.
pub fn run_child_cell(w: WorkloadId, f: &dyn Fn(WorkloadId) -> Result<JsonValue, JobError>) -> ! {
    use cmpsim_core::runner::{child_trace_requested, emit_result, emit_trace};
    if child_trace_requested() {
        // The supervisor is tracing: record this cell's spans into a
        // fresh recorder and ship them over the marker protocol, where
        // the parent grafts them under the cell's execute span.
        let rec = FlightRecorder::new();
        let lane = rec.lane("child");
        let res = {
            let _ctx = ftrace::install(lane, "", 0);
            f(w)
        };
        emit_trace(&rec.drain_sorted(), rec.dropped());
        emit_result(&res);
    } else {
        emit_result(&f(w));
    }
    std::process::exit(0);
}

/// Standard grid-run epilogue: prints the batch summary (and every
/// failure) to stderr, then exits non-zero if any job failed — after
/// the surviving results have been rendered and written. `--quiet`
/// drops the summary line; failures always print.
pub fn finish_runner(report: &RunReport, quiet: bool) {
    if !quiet {
        eprintln!("runner: {}", report.summary());
    }
    for (label, error) in report.failures() {
        eprintln!("runner: job `{label}` failed: {error}");
    }
    if report.failed_count() > 0 {
        std::process::exit(1);
    }
}

/// [`finish_runner`] for a crash-safe grid run: exports the run's
/// timeline (Chrome JSON under `--trace-out`, JSONL sidecar next to
/// the journal), and an interrupted batch additionally prints the
/// exact resume command before exiting non-zero.
pub fn finish_grid(opts: &Options, spec: &GridSpec, report: &RunReport) {
    opts.export_trace(spec, report);
    if report.interrupted {
        if let Some(run_id) = &report.run_id {
            eprintln!(
                "runner: interrupted — resume with: {}",
                opts.resume_command(run_id)
            );
        }
    }
    finish_runner(report, opts.quiet);
}

/// Parses a scale spec: `tiny`, `ci`, `paper`, or `1/N` with N a power
/// of two.
pub fn parse_scale(s: &str) -> Option<Scale> {
    match s {
        "tiny" => Some(Scale::tiny()),
        "ci" => Some(Scale::ci()),
        "paper" | "full" => Some(Scale::paper()),
        other => {
            let n: u64 = other.strip_prefix("1/")?.parse().ok()?;
            if n.is_power_of_two() {
                Some(Scale::with_shift(n.trailing_zeros()))
            } else {
                None
            }
        }
    }
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    eprintln!(
        "usage: <bin> [--scale tiny|ci|paper|1/N] [--seed N] [--workloads A,B,C]\n\
         \x20      [--json] [--metrics-out FILE] [--jobs N] [--cache-dir DIR] [--no-cache]\n\
         \x20      [--job-timeout SECONDS] [--journal-dir DIR] [--run-id ID] [--resume ID]\n\
         \x20      [--isolate inline|process] [--retries N] [--trace-dir DIR]\n\
         \x20      [--replay-shards N] [--trace-out FILE] [--quiet] [--connect ADDR]\n\
         workloads: SNP, SVM-RFE, MDS, SHOT, FIMI, VIEWTYPE, PLSA, RSEARCH"
    );
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_specs() {
        assert_eq!(parse_scale("tiny"), Some(Scale::tiny()));
        assert_eq!(parse_scale("ci"), Some(Scale::ci()));
        assert_eq!(parse_scale("paper"), Some(Scale::paper()));
        assert_eq!(parse_scale("1/64"), Some(Scale::with_shift(6)));
        assert_eq!(parse_scale("1/3"), None);
        assert_eq!(parse_scale("bogus"), None);
    }

    #[test]
    fn default_options_cover_all_workloads() {
        let o = Options::default();
        assert_eq!(o.workloads.len(), 8);
        assert_eq!(o.seed, 2007);
        assert!(!o.json);
        assert_eq!(o.jobs, 1);
        assert_eq!(o.cache_dir, Some(PathBuf::from("results/cache")));
    }

    fn parse(args: &[&str]) -> Result<Options, String> {
        Options::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn unknown_flags_are_rejected() {
        // A typo must not silently run the default sweep.
        let err = parse(&["--sclae", "ci"]).unwrap_err();
        assert!(err.contains("unknown argument `--sclae`"), "{err}");
        assert!(parse(&["ci"]).is_err());
        assert!(parse(&["--workloads", "FIMI,BOGUS"])
            .unwrap_err()
            .contains("unknown workload `BOGUS`"));
        assert!(parse(&["--scale"]).unwrap_err().contains("missing"));
    }

    #[test]
    fn runner_flags_parse() {
        let o = parse(&["--jobs", "4", "--cache-dir", "/tmp/c"]).unwrap();
        assert_eq!(o.jobs, 4);
        assert_eq!(o.cache_dir, Some(PathBuf::from("/tmp/c")));
        let cfg = o.runner();
        assert_eq!(cfg.workers, 4);
        assert_eq!(cfg.cache_dir, Some(PathBuf::from("/tmp/c")));
        // Last flag wins in either order.
        let o = parse(&["--cache-dir", "/tmp/c", "--no-cache"]).unwrap();
        assert_eq!(o.cache_dir, None);
        let o = parse(&["--no-cache", "--cache-dir", "/tmp/c"]).unwrap();
        assert_eq!(o.cache_dir, Some(PathBuf::from("/tmp/c")));
        assert!(parse(&["--jobs", "many"]).is_err());
    }

    #[test]
    fn capture_flags_parse() {
        // Default: in-memory broker.
        let o = parse(&[]).unwrap();
        assert_eq!(o.trace_dir, None);
        assert!(o.capture_broker().store().is_none());
        // --trace-dir: disk-backed broker.
        let o = parse(&["--trace-dir", "/tmp/t"]).unwrap();
        assert_eq!(o.trace_dir, Some(PathBuf::from("/tmp/t")));
        assert!(o.capture_broker().store().is_some());
        assert!(parse(&["--trace-dir"]).unwrap_err().contains("missing"));
        // Replay is the only execution path: the old escape hatch is an
        // unknown argument (`cmpsim grid` checks the same in its own
        // `capture_flags_parse`).
        let err = parse(&["--no-replay"]).unwrap_err();
        assert!(err.contains("unknown argument `--no-replay`"), "{err}");
    }

    #[test]
    fn connect_parses_and_never_reaches_children() {
        let o = parse(&["--connect", "127.0.0.1:7070", "--scale", "tiny"]).unwrap();
        assert_eq!(o.connect.as_deref(), Some("127.0.0.1:7070"));
        // A service client must not grow a local recorder even when the
        // run is journalled — the coordinator owns the trace sidecar.
        let o = parse(&["--connect", "127.0.0.1:7070", "--run-id", "x"]).unwrap();
        assert!(o.recorder().is_none());
        // A daemon worker's child must never try to reconnect.
        let child = o.child_args();
        assert!(!child.iter().any(|a| a == "--connect"));
        assert!(parse(&["--connect"]).unwrap_err().contains("missing"));
    }

    #[test]
    fn replay_shards_resolution() {
        // Default: the sweep replay follows --jobs.
        let o = parse(&["--jobs", "3"]).unwrap();
        assert_eq!(o.replay_shards, None);
        assert_eq!(o.effective_replay_shards(), 3);
        // Explicit --replay-shards wins over --jobs.
        let o = parse(&["--jobs", "3", "--replay-shards", "5"]).unwrap();
        assert_eq!(o.effective_replay_shards(), 5);
        // 0 means one shard per CPU, same convention as --jobs 0.
        let o = parse(&["--replay-shards", "0"]).unwrap();
        assert!(o.effective_replay_shards() >= 1);
        assert!(parse(&["--replay-shards", "many"]).is_err());
        assert!(parse(&["--replay-shards"]).unwrap_err().contains("missing"));
    }

    #[test]
    fn replay_shards_flow_to_children_resolved() {
        // The child's argv pins the parent's *effective* shard count:
        // the default follows --jobs, which child_args strips.
        let o = parse(&["--jobs", "4"]).unwrap();
        let child = o.child_args();
        assert!(child.windows(2).any(|w| w == ["--replay-shards", "4"]));
        assert!(!child.iter().any(|a| a == "--jobs"));
        // An explicit flag is stripped and re-appended resolved, not
        // duplicated.
        let o = parse(&["--replay-shards", "2", "--jobs", "8"]).unwrap();
        let child = o.child_args();
        let n = child.iter().filter(|a| *a == "--replay-shards").count();
        assert_eq!(n, 1);
        assert!(child.windows(2).any(|w| w == ["--replay-shards", "2"]));
    }

    #[test]
    fn capture_flags_flow_to_children() {
        // A supervised child must see the same capture configuration as
        // its parent, so a process-isolated cell replays from the same
        // on-disk store instead of silently re-executing.
        let o = parse(&["--trace-dir", "/tmp/t", "--jobs", "4"]).unwrap();
        let child = o.child_args();
        assert!(child.windows(2).any(|w| w == ["--trace-dir", "/tmp/t"]));
        assert!(!child.iter().any(|a| a == "--jobs"));
    }

    #[test]
    fn json_path_resolution() {
        let mut o = Options::default();
        assert_eq!(o.json_path("fig4"), None);
        o.json = true;
        assert_eq!(
            o.json_path("fig4"),
            Some(PathBuf::from("results/fig4.json"))
        );
        o.metrics_out = Some(PathBuf::from("/tmp/x.json"));
        assert_eq!(o.json_path("fig4"), Some(PathBuf::from("/tmp/x.json")));
    }

    #[test]
    fn manifest_carries_run_identity() {
        let o = Options::default();
        let m = o.manifest("table2");
        assert_eq!(m.experiment, "table2");
        assert_eq!(m.seed, 2007);
        assert_eq!(m.workloads.len(), 8);
        assert!(m.wall_ms >= 0.0);
    }
}
