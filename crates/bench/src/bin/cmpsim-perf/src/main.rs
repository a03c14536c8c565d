//! `cmpsim-perf`: the repository's benchmark.
//!
//! ```text
//! cmpsim-perf run    [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! cmpsim-perf layers [--workload W] [--seed N] [--seconds S] [--out DIR]
//! cmpsim-perf compare <PARENT-RUNS-DIR> <CHANGE-RUNS-DIR>
//! cmpsim-perf ledger <RUNS-DIR>...
//! cmpsim-perf golden
//! ```
//!
//! Run it from the repository root. `run` builds the shipped binaries
//! next to itself, drives them from outside on one workload (all four
//! when `--workload` is omitted) and prints one JSON line per workload:
//! the end-to-end metrics, or with `--trace 1` (`layers`) the per-layer
//! metrics and a Perfetto timeline in `perf/out/layers.trace.json`.
//! Each run is also saved under `--out` (default `perf/out/runs`) for
//! `compare` and `ledger`. Every cache, store, journal and port file
//! lives in a scratch directory under `perf/out`, removed at exit.
//! `perf/README.md` defines the workloads and metrics.

mod compare;
mod layers;
mod proc;
mod stats;
mod suite;

use cmpsim_core::tel::{chrome_trace, write_json_file, FlightRecorder, JsonValue};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use suite::{Ctx, Metric, Tally, Workload};

const USAGE: &str =
    "usage: cmpsim-perf run [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
       cmpsim-perf layers [--workload W] [--seed N] [--seconds S] [--out DIR]
       cmpsim-perf compare <PARENT-RUNS-DIR> <CHANGE-RUNS-DIR>
       cmpsim-perf ledger <RUNS-DIR>...
       cmpsim-perf golden
workloads: fig4-fimi, fig4-mix, replacement-retrace, service-grid";

const GOLDEN: &str = "perf/golden.json";
const TRACE_OUT: &str = "perf/out/layers.trace.json";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or_default();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(rest, false),
        Some("layers") => cmd_run(rest, true),
        Some("compare") => compare::cmd_compare(rest),
        Some("ledger") => compare::cmd_ledger(rest),
        Some("golden") if rest.is_empty() => cmd_golden(),
        _ => Err(USAGE.to_owned()),
    };
    if let Err(e) = result {
        eprintln!("cmpsim-perf: {e}");
        std::process::exit(1);
    }
}

#[derive(Debug)]
struct RunOpts {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

impl RunOpts {
    fn parse(args: &[String], trace: bool) -> Result<RunOpts, String> {
        let mut o = RunOpts {
            workloads: Workload::ALL.to_vec(),
            seed: suite::GOLDEN_SEED,
            seconds: 12.0,
            trace,
            out: PathBuf::from("perf/out/runs"),
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let val = it
                .next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
            let bad = || format!("bad {flag} value `{val}`");
            match flag.as_str() {
                "--workload" => o.workloads = vec![Workload::parse(val).ok_or_else(bad)?],
                "--seed" => o.seed = val.parse().map_err(|_| bad())?,
                "--seconds" => {
                    o.seconds = val.parse().map_err(|_| bad())?;
                    if !(o.seconds.is_finite() && o.seconds >= 0.0) {
                        return Err(bad());
                    }
                }
                "--trace" => {
                    o.trace = match val.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                "--out" => o.out = PathBuf::from(val),
                _ => return Err(format!("unknown argument `{flag}`\n{USAGE}")),
            }
        }
        Ok(o)
    }
}

fn cmd_run(args: &[String], trace: bool) -> Result<(), String> {
    let opts = RunOpts::parse(args, trace)?;
    let ctx = context(opts.seed, opts.seconds)?;
    let result = run_workloads(&ctx, &opts);
    let _ = std::fs::remove_dir_all(&ctx.scratch);
    result
}

fn run_workloads(ctx: &Ctx, opts: &RunOpts) -> Result<(), String> {
    let rec = FlightRecorder::new();
    for &w in &opts.workloads {
        let mut tally = Tally::default();
        let metrics = if opts.trace {
            layers::measure(ctx, w, &rec, &mut tally)?
        } else {
            suite::measure(ctx, w, &mut tally)?
        };
        if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
            return Err(format!("{}: {} came out as {}", w.name(), m.name, m.value));
        }
        let line = result_json(&tally, &metrics);
        save_run(opts, w, &line, &metrics)?;
        println!("{}", line.to_json());
    }
    if opts.trace {
        let meta = [
            ("benchmark".to_owned(), JsonValue::from("cmpsim-perf")),
            ("seed".to_owned(), JsonValue::U64(opts.seed)),
        ];
        let doc = chrome_trace(&rec.drain_sorted(), &rec.lane_names(), &meta, rec.dropped());
        write_json_file(Path::new(TRACE_OUT), &doc)
            .map_err(|e| format!("cannot write {TRACE_OUT}: {e}"))?;
        eprintln!("cmpsim-perf: wrote {TRACE_OUT}");
    }
    Ok(())
}

/// The result line: the last line a run prints.
fn result_json(tally: &Tally, metrics: &[Metric]) -> JsonValue {
    let metrics = metrics.iter().map(|m| {
        let v = JsonValue::object([
            ("value", JsonValue::F64(m.value)),
            ("unit", JsonValue::from(m.unit)),
        ]);
        (m.name.clone(), v)
    });
    JsonValue::object([
        ("correct", JsonValue::Bool(tally.failed == 0)),
        ("attempted", JsonValue::U64(tally.attempted)),
        ("failed", JsonValue::U64(tally.failed)),
        ("metrics", JsonValue::Object(metrics.collect())),
    ])
}

/// Saves one run for `compare` and `ledger`.
fn save_run(
    opts: &RunOpts,
    w: Workload,
    line: &JsonValue,
    metrics: &[Metric],
) -> Result<(), String> {
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis());
    let path = opts.out.join(format!(
        "{}-s{}-t{}-{stamp}.json",
        w.name(),
        opts.seed,
        u8::from(opts.trace)
    ));
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let doc = JsonValue::object([
        ("workload", JsonValue::from(w.name())),
        ("seed", JsonValue::U64(opts.seed)),
        ("trace", JsonValue::Bool(opts.trace)),
        ("seconds", JsonValue::F64(opts.seconds)),
        ("nproc", JsonValue::U64(nproc as u64)),
        ("result", line.clone()),
        (
            "counts",
            JsonValue::Object(
                metrics
                    .iter()
                    .map(|m| (m.name.clone(), JsonValue::U64(m.count)))
                    .collect(),
            ),
        ),
    ]);
    write_json_file(&path, &doc).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Builds the binaries, makes the scratch directory and loads the
/// golden digests.
fn context(seed: u64, seconds: f64) -> Result<Ctx, String> {
    if !Path::new("crates/bench/Cargo.toml").is_file() {
        return Err("run cmpsim-perf from the repository root".to_owned());
    }
    let cwd = std::env::current_dir().map_err(|e| format!("no working directory: {e}"))?;
    let bins = build_binaries(&cwd)?;
    let scratch = cwd.join(format!("perf/out/tmp-{}", std::process::id()));
    std::fs::create_dir_all(&scratch)
        .map_err(|e| format!("cannot create {}: {e}", scratch.display()))?;
    let mut ctx = Ctx::new(bins, scratch, seed, seconds);
    ctx.golden = Path::new(GOLDEN)
        .is_file()
        .then(|| compare::read_json(Path::new(GOLDEN)))
        .transpose()?;
    Ok(ctx)
}

/// Builds `fig4_scmp`, `ablation_replacement` and `cmpsim` in the
/// workspace's own target directory (`$CARGO_TARGET_DIR`, else `target`;
/// a no-op when they are up to date) and returns the directory they
/// land in, absolute because the children run in scratch directories.
fn build_binaries(cwd: &Path) -> Result<PathBuf, String> {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .filter(|d| !d.is_empty())
        .map_or_else(|| cwd.join("target"), |d| cwd.join(d));
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--offline", "--quiet"])
        .args([
            "--bin",
            "fig4_scmp",
            "--bin",
            "ablation_replacement",
            "--bin",
            "cmpsim",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err("building the cmpsim binaries failed".to_owned());
    }
    Ok(target.join("release"))
}

/// `golden`: regenerates `perf/golden.json` from one seed-2007 pass of
/// each sweep workload.
fn cmd_golden() -> Result<(), String> {
    let ctx = context(suite::GOLDEN_SEED, 0.0)?;
    let digests: Result<Vec<(&str, JsonValue)>, String> =
        [Workload::Fig4Fimi, Workload::Fig4Mix, Workload::Retrace]
            .into_iter()
            .map(|w| {
                let d = suite::golden_digests(&ctx, w)?;
                Ok((
                    w.name(),
                    JsonValue::array(d.into_iter().map(JsonValue::Str)),
                ))
            })
            .collect();
    let _ = std::fs::remove_dir_all(&ctx.scratch);
    let doc = JsonValue::object([
        ("seed", JsonValue::U64(suite::GOLDEN_SEED)),
        ("digests", JsonValue::object(digests?)),
    ]);
    write_json_file(Path::new(GOLDEN), &doc).map_err(|e| format!("cannot write {GOLDEN}: {e}"))?;
    eprintln!("cmpsim-perf: wrote {GOLDEN}");
    Ok(())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// `(name, unit)` of every metric `BENCHMARK.json` declares under
    /// `key`.
    pub fn declared(key: &str) -> Vec<(String, String)> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../../../../BENCHMARK.json");
        let doc = compare::read_json(&path).unwrap();
        compare::declared(&doc)
            .into_iter()
            .filter(|s| s.layer == (key == "per_layer"))
            .map(|s| (s.name, s.unit))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_what_the_code_reports() {
        let e2e: Vec<(String, String)> = suite::E2e::default()
            .metrics()
            .into_iter()
            .map(|m| (m.name, m.unit.to_owned()))
            .collect();
        assert_eq!(e2e, declared("end_to_end"));
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../../../../BENCHMARK.json");
        let doc = compare::read_json(&path).unwrap();
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(JsonValue::as_array)
            .unwrap()
            .iter()
            .filter_map(|w| w.get("name")?.as_str())
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn run_flags_parse() {
        let args = |s: &str| s.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
        let o = RunOpts::parse(
            &args("--workload fig4-mix --seed 9 --seconds 12 --trace 1"),
            false,
        )
        .unwrap();
        assert_eq!(o.workloads, vec![Workload::Fig4Mix]);
        assert_eq!((o.seed, o.seconds, o.trace), (9, 12.0, true));
        assert!(RunOpts::parse(&args("--workload nope"), false).is_err());
        assert!(RunOpts::parse(&args("--trace 2"), false).is_err());
        assert!(RunOpts::parse(&args("--seed"), false).is_err());
        assert!(RunOpts::parse(&args("--seconds -1"), false).is_err());
        assert_eq!(RunOpts::parse(&[], true).unwrap().workloads.len(), 4);
    }
}
