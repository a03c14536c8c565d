//! The `cmpsim` command-line front end.
//!
//! ```text
//! cmpsim list
//! cmpsim run    --workload FIMI --cores 8 --llc 32MB [--line 64] [--scale ci] [--prefetch]
//! cmpsim grid   --cores 8 [--workloads FIMI,MDS] [--jobs 4] [--cache-dir DIR] [--no-cache]
//! cmpsim record --workload SHOT --cores 8 --out shot.cmpt [--scale tiny]
//! cmpsim replay --trace shot.cmpt --llc 4MB [--line 256]
//! ```
//!
//! `grid` runs the cache-size sweep for one CMP class on the experiment
//! runner: the per-workload cells fan out over `--jobs` workers and are
//! served from the content-addressed result cache when unchanged. Each
//! cell captures its FSB stream once and replays it into every LLC size
//! (`--trace-dir DIR` persists the streams content-addressed for later
//! runs). Within each cell, `--replay-shards N` (default: follow
//! `--jobs`, `0` = one per CPU) spreads the sweep's boards over N worker
//! threads — output bytes are identical at any shard count.
//!
//! `run` is one capture replayed into one board. `record` writes the
//! captured FSB transaction stream to a file and `replay` emulates it
//! against any cache configuration afterwards — the same decoupling the
//! FPGA rig offered (the bus trace does not depend on the emulated LLC
//! because the emulator is passive).
//!
//! `serve`/`submit`/`status` turn the grid runner into a long-running
//! service: `serve` starts a coordinator daemon that shards submitted
//! cells over a supervised worker fleet against one shared result
//! cache; `submit` sends a grid to it (same flags as `grid`, plus
//! `--connect ADDR`) and renders byte-identical output from the
//! streamed results; `status` prints the daemon's lifetime counters.

use cmpsim_bench::{
    child_argv, export_trace, journal_config, parse_scale, results_json, resume_command,
    run_child_cell, submit_cells, write_twin,
};
use cmpsim_core::cosim::{CoSimConfig, CoSimulation};
use cmpsim_core::experiment::{CacheSizeStudy, CmpClass};
use cmpsim_core::grid::{try_run_grid_supervised, GridSpec};
use cmpsim_core::report::{human_bytes, TextTable};
use cmpsim_core::runner::{record, shutdown, IsolateMode, RunnerConfig, CHILD_ENTRY};
use cmpsim_core::tel::trace::{self as ftrace, FlightRecorder, TraceSummary};
use cmpsim_core::tel::{scrub_path, write_json_file, JsonValue, RunManifest};
use cmpsim_core::{telemetry, CaptureBroker, Scale, WorkloadId};
use cmpsim_dragonhead::{Dragonhead, DragonheadConfig};
use cmpsim_service::{AgentConfig, Coordinator, ServeConfig};
use cmpsim_trace::file::TraceReader;
use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("list") => cmd_list(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("grid") => cmd_grid(&args[1..]),
        Some("record") => cmd_record(&args[1..]),
        Some("replay") => cmd_replay(&args[1..]),
        Some("report") => cmd_report(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("submit") => cmd_submit(&args[1..]),
        Some("status") => cmd_status(&args[1..]),
        Some("agent") => cmd_agent(&args[1..]),
        Some(entry) if entry == CHILD_ENTRY => cmd_child(&args[1..]),
        _ => {
            eprintln!(
                "usage: cmpsim <list|run|grid|record|replay|report|serve|submit|status|agent> [options]\n\
                 run    --workload NAME --cores N [--llc SIZE] [--line N] [--scale S] [--prefetch]\n\
                        [--json] [--metrics-out FILE]\n\
                 grid   --cores 8|16|32 [--workloads A,B,C] [--scale S] [--seed N] [--jobs N]\n\
                        [--cache-dir DIR] [--no-cache] [--json] [--metrics-out FILE]\n\
                        [--journal-dir DIR] [--run-id ID] [--resume ID]\n\
                        [--isolate inline|process] [--retries N]\n\
                        [--trace-dir DIR] [--replay-shards N] [--trace-out FILE]\n\
                        [--quiet] [--connect ADDR]\n\
                 record --workload NAME --cores N --out FILE [--scale S]\n\
                 replay --trace FILE [--llc SIZE] [--line N] [--json] [--metrics-out FILE]\n\
                 report <RUN-ID> [--journal-dir DIR] [--top K]\n\
                 report --compare <RUN-A> <RUN-B> [--journal-dir DIR]\n\
                 serve  [--listen ADDR] [--workers N] [--agents-only] [--cache-dir DIR]\n\
                        [--no-cache] [--journal-dir DIR] [--retries N] [--job-timeout SECONDS]\n\
                        [--heartbeat-ms N] [--port-file FILE] [--chaos-kill-label LABEL]\n\
                        [--chaos-crash-label LABEL]\n\
                 submit --connect ADDR <grid options>\n\
                 status --connect ADDR [--json]\n\
                 agent  --connect ADDR [--slots N] [--chaos-exit-label LABEL] [--no-redial]"
            );
            2
        }
    };
    std::process::exit(code);
}

#[derive(Debug, Default)]
struct Cli {
    workload: Option<WorkloadId>,
    workloads: Vec<WorkloadId>,
    cores: usize,
    llc: u64,
    line: u64,
    scale: Scale,
    seed: u64,
    prefetch: bool,
    out: Option<String>,
    trace: Option<String>,
    json: bool,
    metrics_out: Option<PathBuf>,
    jobs: usize,
    cache_dir: Option<PathBuf>,
    journal_dir: Option<PathBuf>,
    run_id: Option<String>,
    resume: Option<String>,
    isolate: IsolateMode,
    retries: Option<u32>,
    trace_dir: Option<PathBuf>,
    replay_shards: Option<usize>,
    trace_out: Option<PathBuf>,
    quiet: bool,
    connect: Option<String>,
}

impl Cli {
    /// Where the telemetry JSON goes: `--metrics-out` wins, `--json`
    /// falls back to `results/<name>.json`, otherwise no JSON is
    /// written.
    fn json_path(&self, name: &str) -> Option<PathBuf> {
        match &self.metrics_out {
            Some(p) => Some(p.clone()),
            None if self.json => Some(Path::new("results").join(format!("{name}.json"))),
            None => None,
        }
    }

    /// The replay shard count the grid flags describe: an explicit
    /// `--replay-shards` wins, otherwise the sweep replay follows
    /// `--jobs`; `0` for either means one shard per CPU.
    fn effective_replay_shards(&self) -> usize {
        match self.replay_shards.unwrap_or(self.jobs) {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        }
    }
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workloads: WorkloadId::all().to_vec(),
        cores: 8,
        llc: 32 << 20,
        line: 64,
        scale: Scale::ci(),
        seed: 2007,
        jobs: 1,
        cache_dir: Some(PathBuf::from("results/cache")),
        ..Cli::default()
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("missing value for {a}"))
        };
        match a.as_str() {
            "--workload" => cli.workload = Some(val()?.parse().map_err(|e| format!("{e}"))?),
            "--workloads" => {
                cli.workloads = val()?
                    .split(',')
                    .map(|s| s.parse().map_err(|_| format!("unknown workload `{s}`")))
                    .collect::<Result<_, _>>()?;
            }
            "--cores" => cli.cores = val()?.parse().map_err(|_| "bad --cores")?,
            "--llc" => cli.llc = parse_size(&val()?)?,
            "--line" => cli.line = val()?.parse().map_err(|_| "bad --line")?,
            "--scale" => cli.scale = parse_scale(&val()?).ok_or("bad --scale")?,
            "--seed" => cli.seed = val()?.parse().map_err(|_| "bad --seed")?,
            "--prefetch" => cli.prefetch = true,
            "--out" => cli.out = Some(val()?),
            "--trace" => cli.trace = Some(val()?),
            "--json" => cli.json = true,
            "--metrics-out" => {
                cli.metrics_out = Some(PathBuf::from(val()?));
                cli.json = true;
            }
            "--jobs" => cli.jobs = val()?.parse().map_err(|_| "bad --jobs")?,
            "--cache-dir" => cli.cache_dir = Some(PathBuf::from(val()?)),
            "--no-cache" => cli.cache_dir = None,
            "--journal-dir" => cli.journal_dir = Some(PathBuf::from(val()?)),
            "--run-id" => cli.run_id = Some(val()?),
            "--resume" => cli.resume = Some(val()?),
            "--isolate" => cli.isolate = val()?.parse()?,
            "--retries" => cli.retries = Some(val()?.parse().map_err(|_| "bad --retries")?),
            "--trace-dir" => cli.trace_dir = Some(PathBuf::from(val()?)),
            "--replay-shards" => {
                cli.replay_shards = Some(val()?.parse().map_err(|_| "bad --replay-shards")?);
            }
            "--trace-out" => cli.trace_out = Some(PathBuf::from(val()?)),
            "--quiet" => cli.quiet = true,
            "--connect" => cli.connect = Some(val()?),
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(cli)
}

/// Parses "32MB", "256KB", or plain bytes.
fn parse_size(s: &str) -> Result<u64, String> {
    let lower = s.to_ascii_lowercase();
    let (num, mult) = if let Some(n) = lower.strip_suffix("mb") {
        (n, 1u64 << 20)
    } else if let Some(n) = lower.strip_suffix("kb") {
        (n, 1 << 10)
    } else if let Some(n) = lower.strip_suffix("b") {
        (n, 1)
    } else {
        (lower.as_str(), 1)
    };
    num.trim()
        .parse::<u64>()
        .map(|v| v * mult)
        .map_err(|_| format!("bad size `{s}`"))
}

fn cmd_list(_args: &[String]) -> i32 {
    let mut t = TextTable::new(["Workload", "Algorithm", "Category"]);
    for id in WorkloadId::all() {
        let algo = match id {
            WorkloadId::Snp => "Bayesian-network hill climbing",
            WorkloadId::SvmRfe => "SVM recursive feature elimination",
            WorkloadId::Rsearch => "CYK/SCFG RNA homology search",
            WorkloadId::Fimi => "FP-growth frequent-itemset mining",
            WorkloadId::Plsa => "Smith-Waterman linear-space alignment",
            WorkloadId::Mds => "graph ranking + MMR summarization",
            WorkloadId::Shot => "shot-boundary detection",
            WorkloadId::Viewtype => "view-type classification",
        };
        t.row([
            id.to_string(),
            algo.to_owned(),
            if id.shares_primary_structure() {
                "(a) shared".to_owned()
            } else {
                "(b) private".to_owned()
            },
        ]);
    }
    println!("{}", t.render());
    0
}

fn cmd_run(args: &[String]) -> i32 {
    let cli = match parse(args) {
        Ok(c) => c,
        Err(e) => return fail(&e),
    };
    let Some(workload) = cli.workload else {
        return fail("run requires --workload");
    };
    let llc = match cmpsim_core::experiment::llc_config(
        cli.scale.pow2_bytes(cli.llc.next_power_of_two(), 16 << 10),
        cli.line,
        16,
    ) {
        Ok(c) => c,
        Err(e) => return fail(&format!("bad LLC geometry: {e}")),
    };
    let mut cfg = match CoSimConfig::scaled(cli.cores, llc.size_bytes(), cli.scale) {
        Ok(c) => c.with_llc(llc),
        Err(e) => return fail(&e.to_string()),
    };
    if cli.prefetch {
        cfg = cfg.with_prefetch(cmpsim_prefetch::StrideConfig::default());
    }
    let started = Instant::now();
    let sim = CoSimulation::new(cfg);
    // The flight recorder times every capture and replay stage under
    // one `cosim` span; `--json` writes them as the `spans` array.
    let rec = FlightRecorder::new();
    let replayed = {
        let _ctx = ftrace::install(rec.lane("cosim"), "", 0);
        let _t = ftrace::span("cosim");
        sim.replay(&sim.capture(workload, cli.scale, cli.seed))
    };
    let r = match replayed {
        Ok(r) => r,
        Err(e) => return fail(&e.to_string()),
    };
    println!(
        "{workload} on {} cores, {} LLC ({}B lines), scale {}:",
        cli.cores,
        human_bytes(r.llc_bytes),
        r.llc_line_bytes,
        cli.scale
    );
    println!("  instructions : {}", r.run.instructions);
    println!("  LLC accesses : {}", r.llc.accesses);
    println!("  LLC misses   : {}", r.llc.misses);
    println!("  LLC MPKI     : {:.3}", r.mpki);
    if cli.prefetch {
        println!("  prefetch fills: {}", r.prefetch_fills);
    }
    if let Some(path) = cli.json_path("cmpsim_run") {
        let mut manifest = telemetry::manifest("cmpsim", &cfg, workload, cli.scale, cli.seed);
        manifest.wall_ms = started.elapsed().as_secs_f64() * 1e3;
        let doc = telemetry::telemetry_report(manifest, &r, rec.drain_sorted());
        if let Err(e) = doc.write_json(&path) {
            return fail(&format!("cannot write {}: {e}", path.display()));
        }
        eprintln!("wrote {}", path.display());
    }
    0
}

fn cmd_grid(args: &[String]) -> i32 {
    let cli = match parse(args) {
        Ok(c) => c,
        Err(e) => return fail(&e),
    };
    let Some(cmp) = CmpClass::all().into_iter().find(|c| c.cores() == cli.cores) else {
        return fail("grid requires --cores 8, 16, or 32 (SCMP/MCMP/LCMP)");
    };
    // Publish the shard count ambiently: the study builds its replay
    // boards far from here, inside each grid cell.
    cmpsim_core::set_replay_shards(cli.effective_replay_shards());
    let study = CacheSizeStudy::new(cli.scale, cmp, cli.seed);
    println!(
        "Grid: LLC MPKI vs size on {cmp} ({} cores), 64B lines, scale {}\n",
        cmp.cores(),
        cli.scale
    );
    let spec = GridSpec::new("cmpsim_grid", cli.scale, cli.seed, cli.workloads.clone())
        .param("cmp", cmp)
        .param("line", 64);
    // The base argv a supervised child (local or on the service)
    // recomputes one cell from: `cmpsim __run-job <W> grid <base>` — the
    // grid arguments minus every parent-only concern (the parent owns
    // parallelism, caching, journalling, isolation, and output). The
    // shard count is resolved here: its default follows --jobs, which
    // the child never sees (a child must not recurse).
    let child_base: Vec<String> = std::iter::once("grid".to_owned())
        .chain(child_argv(args, cli.effective_replay_shards()))
        .collect();
    // In service-client mode the coordinator owns journalling, caching,
    // isolation, and the trace sidecar — locally there is nothing to
    // record, and the broker stays unused (its counters stay zero).
    let mut recorder = None;
    let broker = Arc::new(CaptureBroker::new(cli.trace_dir.clone()));
    let report = if let Some(addr) = &cli.connect {
        let run_id = cli.resume.clone().or_else(|| cli.run_id.clone());
        let resume = cli.resume.is_some();
        match submit_cells(addr, &spec, &child_base, run_id, resume, cli.quiet) {
            Ok(report) => report,
            Err(e) => return fail(&e),
        }
    } else {
        let journal = journal_config(
            cli.journal_dir.as_deref(),
            cli.run_id.as_deref(),
            cli.resume.as_deref(),
            "cmpsim_grid",
        );
        // Record a timeline whenever someone will consume it: an
        // explicit `--trace-out`, or a journalled run (JSONL sidecar
        // for `report`).
        recorder = (cli.trace_out.is_some() || journal.is_some())
            .then(cmpsim_core::tel::FlightRecorder::new);
        let runner = RunnerConfig {
            workers: cli.jobs,
            cache_dir: cli.cache_dir.clone(),
            retries: cli.retries.unwrap_or(1),
            progress: !cli.quiet,
            job_timeout: None,
            isolate: cli.isolate,
            shutdown: journal.as_ref().map(|_| shutdown::install()),
            journal,
            tracer: recorder.clone(),
            ..RunnerConfig::default()
        };
        let base = (cli.isolate == IsolateMode::Process).then_some(child_base.as_slice());
        let cell_broker = broker.clone();
        try_run_grid_supervised(&spec, &runner, base, move |w| {
            Ok(results_json::cache_size_curve(&study.run(&cell_broker, w)?))
        })
    };
    let curves: Vec<_> = report
        .payloads()
        .filter_map(results_json::parse_cache_size_curve)
        .collect();
    println!("{}", cmpsim_core::report::render_cache_size_figure(&curves));
    if let Some(rec) = &recorder {
        let (out, dir) = (cli.trace_out.as_deref(), cli.journal_dir.as_deref());
        if let Err(e) = export_trace(rec, &spec, &report, out, dir) {
            return fail(&e);
        }
    }
    if let Some(path) = cli.json_path("cmpsim_grid") {
        let manifest = RunManifest::new("cmpsim_grid", env!("CARGO_PKG_VERSION"))
            .with_workloads(cli.workloads.iter().copied())
            .with_scale_seed(cli.scale, cli.seed)
            .config_entry("cmp", cmp.to_string())
            .config_entry("cores", cmp.cores() as u64);
        if let Err(e) = write_twin(&path, manifest, &report, broker.counters()) {
            return fail(&e);
        }
    }
    if !cli.quiet {
        eprintln!("runner: {}", report.summary());
    }
    for (label, error) in report.failures() {
        eprintln!("runner: job `{label}` failed: {error}");
    }
    if let (true, Some(run_id)) = (report.interrupted, &report.run_id) {
        let resume = resume_command("cmpsim grid", args, run_id);
        eprintln!("runner: interrupted — resume with: {resume}");
    }
    i32::from(report.failed_count() > 0)
}

/// `cmpsim submit`: `cmpsim grid` executed on a coordinator. Exactly
/// the grid flags plus a mandatory `--connect ADDR`.
fn cmd_submit(args: &[String]) -> i32 {
    if !args.iter().any(|a| a == "--connect") {
        return fail("submit requires --connect ADDR (start one with `cmpsim serve`)");
    }
    cmd_grid(args)
}

/// `cmpsim serve`: run the coordinator daemon until SIGINT/SIGTERM.
fn cmd_serve(args: &[String]) -> i32 {
    let mut cfg = ServeConfig {
        workers: 2,
        cache_dir: Some(PathBuf::from("results/cache")),
        ..ServeConfig::default()
    };
    let mut port_file: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("missing value for {a}"))
        };
        let parsed: Result<(), String> = (|| {
            match a.as_str() {
                "--listen" => cfg.listen = val()?,
                "--workers" => {
                    cfg.workers = val()?.parse().map_err(|_| "bad --workers")?;
                    if cfg.workers == 0 {
                        cfg.workers = std::thread::available_parallelism().map_or(2, |n| n.get());
                    }
                }
                // Schedule-only coordinator: every cell executes on a
                // remote `cmpsim agent`.
                "--agents-only" => cfg.workers = 0,
                "--cache-dir" => cfg.cache_dir = Some(PathBuf::from(val()?)),
                "--no-cache" => cfg.cache_dir = None,
                "--journal-dir" => cfg.journal_dir = PathBuf::from(val()?),
                "--retries" => cfg.retries = val()?.parse().map_err(|_| "bad --retries")?,
                "--job-timeout" => {
                    let secs: u64 = val()?.parse().map_err(|_| "bad --job-timeout")?;
                    if secs == 0 {
                        return Err("bad --job-timeout".to_owned());
                    }
                    cfg.job_timeout = Some(std::time::Duration::from_secs(secs));
                }
                "--chaos-kill-label" => cfg.chaos_kill_label = Some(val()?),
                "--chaos-crash-label" => cfg.chaos_crash_label = Some(val()?),
                "--heartbeat-ms" => {
                    let ms: u64 = val()?.parse().map_err(|_| "bad --heartbeat-ms")?;
                    if ms == 0 {
                        return Err("bad --heartbeat-ms".to_owned());
                    }
                    cfg.heartbeat = std::time::Duration::from_millis(ms);
                }
                "--port-file" => port_file = Some(PathBuf::from(val()?)),
                other => return Err(format!("unknown option {other}")),
            }
            Ok(())
        })();
        if let Err(e) = parsed {
            return fail(&e);
        }
    }
    cfg.shutdown = Some(shutdown::install());
    let coord = match Coordinator::bind(cfg) {
        Ok(c) => c,
        Err(e) => return fail(&format!("cannot bind: {e}")),
    };
    let addr = match coord.local_addr() {
        Ok(a) => a.to_string(),
        Err(e) => return fail(&format!("cannot read the bound address: {e}")),
    };
    // The port file is how scripts and CI discover a `--listen :0`
    // daemon's address without parsing logs.
    if let Some(path) = &port_file {
        if let Err(e) = std::fs::write(path, &addr) {
            return fail(&format!("cannot write {}: {e}", path.display()));
        }
    }
    eprintln!("cmpsim serve: listening on {addr}");
    coord.run();
    eprintln!("cmpsim serve: drained");
    0
}

/// `cmpsim status --connect ADDR`: print the daemon's lifetime
/// counters as pretty JSON (or one machine-parsable line with
/// `--json`, for scripts and CI assertions).
fn cmd_status(args: &[String]) -> i32 {
    let cli = match parse(args) {
        Ok(c) => c,
        Err(e) => return fail(&e),
    };
    let Some(addr) = &cli.connect else {
        return fail("status requires --connect ADDR");
    };
    match cmpsim_service::status(addr) {
        Ok(counters) => {
            if cli.json {
                println!("{}", counters.to_json());
            } else {
                println!("{}", counters.to_json_pretty());
            }
            0
        }
        Err(e) => fail(&e),
    }
}

/// `cmpsim agent --connect ADDR`: a remote worker process. Dials the
/// coordinator, registers over the versioned handshake, and executes
/// dispatched cells under the process supervisor until drained,
/// redialing a lost coordinator with capped backoff (unless
/// `--no-redial`).
fn cmd_agent(args: &[String]) -> i32 {
    let mut cfg = AgentConfig::default();
    let mut connect: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("missing value for {a}"))
        };
        let parsed: Result<(), String> = (|| {
            match a.as_str() {
                "--connect" => connect = Some(val()?),
                "--slots" => cfg.slots = val()?.parse().map_err(|_| "bad --slots")?,
                "--chaos-exit-label" => cfg.chaos_exit_label = Some(val()?),
                // Exit on the first lost coordinator instead of
                // redialing — for scripts that manage the fleet.
                "--no-redial" => cfg.redial = false,
                other => return Err(format!("unknown option {other}")),
            }
            Ok(())
        })();
        if let Err(e) = parsed {
            return fail(&e);
        }
    }
    let Some(connect) = connect else {
        return fail("agent requires --connect ADDR (start one with `cmpsim serve`)");
    };
    cfg.connect = connect;
    cfg.shutdown = Some(shutdown::install());
    match cmpsim_service::run_agent(&cfg) {
        Ok(report) => {
            eprintln!(
                "cmpsim agent: drained (agent {}, {} cells done)",
                report.agent_id, report.cells_done
            );
            0
        }
        Err(e) => fail(&e),
    }
}

/// Hidden single-cell child mode: `cmpsim __run-job <W> grid <args>`
/// computes exactly one grid cell and reports it over the supervisor
/// marker protocol. Spawned by `--isolate process`; not part of the
/// public CLI.
fn cmd_child(args: &[String]) -> i32 {
    let Some(w) = args.first() else {
        return fail("__run-job requires a workload");
    };
    let workload: WorkloadId = match w.parse() {
        Ok(w) => w,
        Err(_) => return fail(&format!("unknown workload `{w}`")),
    };
    let rest = match args.get(1).map(String::as_str) {
        Some("grid") => &args[2..],
        _ => &args[1..],
    };
    let cli = match parse(rest) {
        Ok(c) => c,
        Err(e) => return fail(&e),
    };
    let Some(cmp) = CmpClass::all().into_iter().find(|c| c.cores() == cli.cores) else {
        return fail("grid requires --cores 8, 16, or 32 (SCMP/MCMP/LCMP)");
    };
    cmpsim_core::set_replay_shards(cli.effective_replay_shards());
    let study = CacheSizeStudy::new(cli.scale, cmp, cli.seed);
    let broker = CaptureBroker::new(cli.trace_dir.clone());
    run_child_cell(workload, &|w| {
        Ok(results_json::cache_size_curve(&study.run(&broker, w)?))
    })
}

fn cmd_record(args: &[String]) -> i32 {
    let cli = match parse(args) {
        Ok(c) => c,
        Err(e) => return fail(&e),
    };
    let (Some(workload), Some(out)) = (cli.workload, cli.out.as_ref()) else {
        return fail("record requires --workload and --out");
    };
    // The stream is platform-side: the LLC size never reaches it.
    let cfg = match CoSimConfig::scaled(cli.cores, 1 << 20, cli.scale) {
        Ok(c) => c,
        Err(e) => return fail(&e.to_string()),
    };
    let stream = CoSimulation::new(cfg).capture(workload, cli.scale, cli.seed);
    if let Err(e) = std::fs::write(out, stream.encoded_bytes()) {
        return fail(&format!("cannot write {out}: {e}"));
    }
    println!(
        "recorded {} transactions ({} instructions) to {out}",
        stream.transactions(),
        stream.run().instructions
    );
    0
}

fn cmd_replay(args: &[String]) -> i32 {
    let cli = match parse(args) {
        Ok(c) => c,
        Err(e) => return fail(&e),
    };
    let Some(path) = cli.trace.as_ref() else {
        return fail("replay requires --trace");
    };
    let file = match File::open(path) {
        Ok(f) => f,
        Err(e) => return fail(&format!("cannot open {path}: {e}")),
    };
    let reader = match TraceReader::new(BufReader::new(file)) {
        Ok(r) => r,
        Err(e) => return fail(&e.to_string()),
    };
    let llc = match cmpsim_core::experiment::llc_config(cli.llc.next_power_of_two(), cli.line, 16) {
        Ok(c) => c,
        Err(e) => return fail(&format!("bad LLC geometry: {e}")),
    };
    let mut board = match Dragonhead::try_new(DragonheadConfig::new(llc)) {
        Ok(b) => b,
        Err(e) => return fail(&format!("bad LLC geometry: {e}")),
    };
    let mut n = 0u64;
    let mut last_cycle = 0u64;
    for txn in reader {
        match txn {
            Ok(t) => {
                board.observe(&t);
                last_cycle = t.cycle;
                n += 1;
            }
            Err(e) => return fail(&format!("trace error after {n} transactions: {e}")),
        }
    }
    // A `.cmpt` file carries no run summary; the stream's last
    // transaction (the platform's closing stop message) is stamped with
    // the run's final cycle, so the sample series closes there.
    if let Err(e) = board.flush(last_cycle) {
        return fail(&format!("sampler flush failed: {e}"));
    }
    let s = board.stats();
    println!(
        "replayed {n} transactions against {} ({}B lines):",
        human_bytes(llc.size_bytes()),
        llc.line_bytes()
    );
    println!("  LLC accesses : {}", s.accesses);
    println!("  LLC misses   : {}", s.misses);
    println!("  miss ratio   : {:.2}%", s.miss_ratio() * 100.0);
    println!("  excluded     : {}", board.address_filter().excluded());
    println!("  MPKI         : {:.3}", board.mpki());
    if let Some(out) = cli.json_path("cmpsim_replay") {
        let mut metrics = cmpsim_core::tel::MetricRegistry::new();
        board.export_metrics(&mut metrics);
        let manifest = RunManifest::new("cmpsim_replay", env!("CARGO_PKG_VERSION"))
            .config_entry("trace", scrub_path(path))
            .config_entry("llc_bytes", llc.size_bytes())
            .config_entry("llc_line_bytes", llc.line_bytes())
            .config_entry("transactions", n);
        let doc = JsonValue::object([
            ("manifest", manifest.to_json()),
            ("metrics", metrics.to_json()),
        ]);
        if let Err(e) = write_json_file(&out, &doc) {
            return fail(&format!("cannot write {}: {e}", out.display()));
        }
        eprintln!("wrote {}", out.display());
    }
    0
}

/// One journalled run's loaded artifacts: the job outcomes from the
/// journal and the aggregated timeline from the trace sidecar.
struct RunData {
    id: String,
    /// `(label, outcome kind, attempts)` per `job_done` record.
    cells_done: Vec<(String, String, u64)>,
    summary: TraceSummary,
    lanes: Vec<(u32, String)>,
    has_trace: bool,
}

fn load_run(dir: &Path, id: &str) -> Result<RunData, String> {
    let journal = dir.join(format!("{id}.jsonl"));
    let trace = dir.join(format!("{id}.trace.jsonl"));
    let mut cells_done = Vec::new();
    let mut has_journal = false;
    if let Ok(text) = std::fs::read_to_string(&journal) {
        has_journal = true;
        for line in text.lines() {
            let Ok(doc) = cmpsim_core::tel::parse(line) else {
                continue;
            };
            let Some(rec) = record::verify(&doc, "record") else {
                continue;
            };
            if rec.get("kind").and_then(JsonValue::as_str) != Some("job_done") {
                continue;
            }
            cells_done.push((
                rec.get("label")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("?")
                    .to_owned(),
                rec.get_path(&["outcome", "kind"])
                    .and_then(JsonValue::as_str)
                    .unwrap_or("?")
                    .to_owned(),
                rec.get("attempts").and_then(JsonValue::as_u64).unwrap_or(0),
            ));
        }
    }
    let (summary, lanes, has_trace) = match ftrace::read_jsonl(&trace) {
        Ok(f) => (
            TraceSummary::from_events(&f.events, f.dropped),
            f.lanes,
            true,
        ),
        Err(_) => (TraceSummary::from_events(&[], 0), Vec::new(), false),
    };
    if !has_journal && !has_trace {
        return Err(format!(
            "run `{id}` not found under {}: neither {}.jsonl nor {}.trace.jsonl exists",
            dir.display(),
            id,
            id
        ));
    }
    Ok(RunData {
        id: id.to_owned(),
        cells_done,
        summary,
        lanes,
        has_trace,
    })
}

fn ms(ns: u64) -> String {
    format!("{:.2} ms", ns as f64 / 1e6)
}

/// Stage names sorted slowest-first (ties by name, for stable output).
fn by_duration(stages: &[(String, u64)]) -> Vec<(String, u64)> {
    let mut sorted = stages.to_vec();
    sorted.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    sorted
}

fn render_report(run: &RunData, top: usize) {
    println!("run {}", run.id);
    if !run.cells_done.is_empty() {
        let mut by_kind: std::collections::BTreeMap<&str, u64> = std::collections::BTreeMap::new();
        for (_, kind, _) in &run.cells_done {
            *by_kind.entry(kind).or_default() += 1;
        }
        let census: Vec<String> = by_kind.iter().map(|(k, n)| format!("{k} {n}")).collect();
        println!(
            "cells: {} done ({})",
            run.cells_done.len(),
            census.join(", ")
        );
        let retried: Vec<String> = run
            .cells_done
            .iter()
            .filter(|(_, _, attempts)| *attempts > 1)
            .map(|(label, kind, attempts)| format!("{label} x{attempts} ({kind})"))
            .collect();
        if !retried.is_empty() {
            println!("retried cells: {}", retried.join(", "));
        }
    }
    if !run.has_trace {
        println!(
            "no trace sidecar ({}.trace.jsonl): stage timings unavailable",
            run.id
        );
        return;
    }
    let s = &run.summary;
    println!("events: {} ({} dropped)", s.events, s.dropped);
    println!("\nstage breakdown:");
    let mut t = TextTable::new(["Stage", "Total"]);
    for (name, ns) in by_duration(&s.stage_ns) {
        t.row([name, ms(ns)]);
    }
    print!("{}", t.render());
    if !s.cells.is_empty() {
        println!("\nslowest cells (top {top}):");
        let mut t = TextTable::new(["Cell", "Total", "Breakdown"]);
        for c in s.cells.iter().take(top) {
            let breakdown: Vec<String> = by_duration(&c.stages)
                .iter()
                .take(3)
                .map(|(n, ns)| format!("{n} {}", ms(*ns)))
                .collect();
            t.row([c.label.clone(), ms(c.total_ns), breakdown.join(", ")]);
        }
        print!("{}", t.render());
    }
    if !s.markers.is_empty() {
        let markers: Vec<String> = s.markers.iter().map(|(n, c)| format!("{n} {c}")).collect();
        println!("\nmarkers: {}", markers.join(", "));
    }
    if s.journal_append.count > 0 {
        let j = &s.journal_append;
        println!(
            "journal append: {} records, p50 {}, p90 {}, max {}",
            j.count,
            ms(j.p50_ns),
            ms(j.p90_ns),
            ms(j.max_ns)
        );
    }
    if !s.utilization.is_empty() {
        let util: Vec<String> = s
            .utilization
            .iter()
            .map(|(lane, frac)| {
                let name = run
                    .lanes
                    .iter()
                    .find(|(id, _)| id == lane)
                    .map_or_else(|| format!("lane-{lane}"), |(_, n)| n.clone());
                format!("{name} {:.0}%", frac * 100.0)
            })
            .collect();
        println!("utilization: {}", util.join(", "));
    }
}

/// Cells per second, from the pool's `run` umbrella span.
fn throughput(run: &RunData) -> Option<f64> {
    let wall_ns = run.summary.stage_total_ns("run");
    let cells = run.summary.cells.len();
    (wall_ns > 0 && cells > 0).then(|| cells as f64 / (wall_ns as f64 / 1e9))
}

fn render_compare(a: &RunData, b: &RunData) {
    println!("comparing {} vs {}", a.id, b.id);
    let mut names: Vec<String> = a
        .summary
        .stage_ns
        .iter()
        .chain(b.summary.stage_ns.iter())
        .map(|(n, _)| n.clone())
        .collect();
    names.sort();
    names.dedup();
    let mut t = TextTable::new(["Stage", a.id.as_str(), b.id.as_str(), "Delta"]);
    for name in names {
        let x = a.summary.stage_total_ns(&name);
        let y = b.summary.stage_total_ns(&name);
        let delta = if x > 0 {
            format!("{:+.1}%", (y as f64 - x as f64) / x as f64 * 100.0)
        } else {
            "-".to_owned()
        };
        t.row([name, ms(x), ms(y), delta]);
    }
    print!("{}", t.render());
    if let (Some(ta), Some(tb)) = (throughput(a), throughput(b)) {
        println!(
            "\nthroughput: {} {ta:.2} cells/s, {} {tb:.2} cells/s ({:.2}x)",
            a.id,
            b.id,
            tb / ta
        );
    }
}

/// `cmpsim report <run-id>` / `cmpsim report --compare A B`: renders a
/// journalled run's flight-recorder timeline — per-stage breakdowns,
/// slowest cells, retry/poison census, journal-append latency — from
/// the `<run-id>.jsonl` journal and `<run-id>.trace.jsonl` sidecar.
fn cmd_report(args: &[String]) -> i32 {
    let mut dir = PathBuf::from("results/journal");
    let mut top = 5usize;
    let mut compare = false;
    let mut ids: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        let val = |i: usize| {
            args.get(i + 1)
                .cloned()
                .ok_or_else(|| format!("missing value for {a}"))
        };
        match a {
            "--journal-dir" => {
                match val(i) {
                    Ok(v) => dir = PathBuf::from(v),
                    Err(e) => return fail(&e),
                }
                i += 1;
            }
            "--top" => {
                match val(i).and_then(|v| v.parse().map_err(|_| "bad --top value".to_owned())) {
                    Ok(v) => top = v,
                    Err(e) => return fail(&e),
                }
                i += 1;
            }
            "--compare" => compare = true,
            flag if flag.starts_with("--") => return fail(&format!("unknown option {flag}")),
            id => ids.push(id.to_owned()),
        }
        i += 1;
    }
    if compare {
        if ids.len() != 2 {
            return fail("report --compare takes exactly two run ids");
        }
        let (a, b) = match (load_run(&dir, &ids[0]), load_run(&dir, &ids[1])) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(e), _) | (_, Err(e)) => return fail(&e),
        };
        render_compare(&a, &b);
        return 0;
    }
    if ids.len() != 1 {
        return fail("report takes exactly one run id (or --compare A B)");
    }
    match load_run(&dir, &ids[0]) {
        Ok(run) => {
            render_report(&run, top);
            0
        }
        Err(e) => fail(&e),
    }
}

fn fail(msg: &str) -> i32 {
    eprintln!("error: {msg}");
    1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_args(args: &[&str]) -> Result<Cli, String> {
        parse(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn capture_flags_parse() {
        let cli = parse_args(&["--cores", "8", "--trace-dir", "/tmp/t"]).unwrap();
        assert_eq!(cli.trace_dir, Some(PathBuf::from("/tmp/t")));
        // Replay is the only execution path: `cmpsim grid` rejects the
        // removed escape hatch like any other unknown flag.
        let err = parse_args(&["--cores", "8", "--no-replay"]).unwrap_err();
        assert_eq!(err, "unknown option --no-replay");
    }
}
