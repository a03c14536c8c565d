//! Reading run files back: `compare A B` judges a change against its
//! parent, and `ledger` writes the committed baseline.

use crate::stats::{median, quartiles, relative_spread};
use cmpsim_core::tel::{parse, write_json_file, JsonValue};
use std::collections::BTreeSet;
use std::path::Path;

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Whether a larger value is better.
    pub higher_better: bool,
    /// Share of the parent's median by which the metric may worsen;
    /// `None` for per-layer metrics.
    pub bound: Option<f64>,
    /// Reported by traced runs rather than end-to-end runs.
    pub layer: bool,
}

/// The metrics declared under `end_to_end` and `per_layer`.
pub fn declared(doc: &JsonValue) -> Vec<Spec> {
    let list = |key: &str, layer: bool| -> Vec<Spec> {
        doc.get(key)
            .and_then(JsonValue::as_array)
            .unwrap_or_default()
            .iter()
            .filter_map(|m| {
                Some(Spec {
                    name: m.get("name")?.as_str()?.to_owned(),
                    unit: m.get("unit")?.as_str()?.to_owned(),
                    higher_better: m.get("better")?.as_str()? == "higher",
                    bound: m.get("bound").and_then(JsonValue::as_f64),
                    layer,
                })
            })
            .collect()
    };
    let mut specs = list("end_to_end", false);
    specs.extend(list("per_layer", true));
    specs
}

/// Reads and parses `path`.
pub fn read_json(path: &Path) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// One run file: which run it was and what it measured.
#[derive(Debug)]
struct Run {
    workload: String,
    seed: u64,
    trace: bool,
    nproc: u64,
    doc: JsonValue,
}

impl Run {
    fn value(&self, metric: &str) -> Option<f64> {
        self.doc
            .get_path(&["result", "metrics", metric, "value"])?
            .as_f64()
    }

    fn count(&self, metric: &str) -> Option<f64> {
        self.doc.get_path(&["counts", metric])?.as_f64()
    }
}

/// Every run file in `dirs`, in file-name order (names end in a
/// timestamp, so this is the order they ran in).
fn load_runs(dirs: &[String]) -> Result<Vec<Run>, String> {
    let mut paths = Vec::new();
    for dir in dirs {
        let entries = std::fs::read_dir(dir).map_err(|e| format!("cannot list {dir}: {e}"))?;
        for e in entries.flatten() {
            if e.path().extension().is_some_and(|x| x == "json") {
                paths.push(e.path());
            }
        }
    }
    paths.sort();
    paths
        .iter()
        .map(|p| {
            let doc = read_json(p)?;
            let field = |k: &str| {
                doc.get(k)
                    .ok_or_else(|| format!("{}: no `{k}`", p.display()))
            };
            Ok(Run {
                workload: field("workload")?.as_str().unwrap_or_default().to_owned(),
                seed: field("seed")?.as_u64().unwrap_or_default(),
                trace: field("trace")?.as_bool().unwrap_or_default(),
                nproc: doc.get("nproc").and_then(JsonValue::as_u64).unwrap_or(0),
                doc,
            })
        })
        .collect()
}

/// How a change's runs compare with its parent's on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Wins at least nine pairs in ten, by more than the parent's own
    /// interquartile spread.
    Better,
    /// Median worse than the parent's by more than the bound (or, with
    /// no bound, loses nine pairs in ten by more than the spread).
    Worse,
    /// Neither, with spreads inside the bound.
    WithinBound,
    /// Neither, with a spread too wide to call it unchanged.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::WithinBound => "within bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `b` (the change) against `a` (the parent), with `pairs` the
/// `(a, b)` values of runs made in pairs on the same seed.
pub fn verdict(
    a: &[f64],
    b: &[f64],
    pairs: &[(f64, f64)],
    higher_better: bool,
    bound: Option<f64>,
) -> Verdict {
    let (Some(ma), Some(mb)) = (median(a), median(b)) else {
        return Verdict::Unresolved;
    };
    let sign = if higher_better { 1.0 } else { -1.0 };
    let iqr = |xs: &[f64]| quartiles(xs).map_or(0.0, |(q1, q3)| q3 - q1);
    let share = |n: usize| n * 10 >= 9 * pairs.len() && !pairs.is_empty();
    let wins = pairs.iter().filter(|(x, y)| sign * (y - x) > 0.0).count();
    let losses = pairs.iter().filter(|(x, y)| sign * (y - x) < 0.0).count();
    let gain = sign * (mb - ma);
    if share(wins) && gain > iqr(a) {
        return Verdict::Better;
    }
    match bound {
        Some(bound) => {
            if -gain > bound * ma.abs() {
                return Verdict::Worse;
            }
            let spread = [a, b]
                .iter()
                .filter_map(|xs| relative_spread(xs))
                .fold(0.0, f64::max);
            let all_better = a.iter().all(|x| b.iter().all(|y| sign * (y - x) > 0.0));
            if spread > bound && !all_better {
                Verdict::Unresolved
            } else {
                Verdict::WithinBound
            }
        }
        None if share(losses) && -gain > iqr(a) => Verdict::Worse,
        None if gain == 0.0 && iqr(a) == 0.0 && iqr(b) == 0.0 => Verdict::WithinBound,
        None => Verdict::Unresolved,
    }
}

/// `compare A B`: for every (metric, workload) measured on both sides,
/// medians, quartiles, pair win rate and verdict.
pub fn cmd_compare(args: &[String]) -> Result<(), String> {
    let [a, b] = args else {
        return Err("usage: cmpsim-perf compare <PARENT-RUNS-DIR> <CHANGE-RUNS-DIR>".to_owned());
    };
    let specs = declared(&read_json(Path::new("BENCHMARK.json"))?);
    let (ra, rb) = (
        load_runs(std::slice::from_ref(a))?,
        load_runs(std::slice::from_ref(b))?,
    );
    let workloads: BTreeSet<&str> = ra.iter().chain(&rb).map(|r| r.workload.as_str()).collect();
    println!(
        "{:<44} {:<20} {:>28} {:>28} {:>8} {:>6}  verdict",
        "metric", "workload", "parent median [q1, q3]", "change median [q1, q3]", "delta", "wins"
    );
    for spec in &specs {
        for &w in &workloads {
            let side = |runs: &[Run]| -> Vec<(u64, f64)> {
                runs.iter()
                    .filter(|r| r.workload == w && r.trace == spec.layer)
                    .filter_map(|r| Some((r.seed, r.value(&spec.name)?)))
                    .collect()
            };
            let (sa, sb) = (side(&ra), side(&rb));
            if sa.is_empty() || sb.is_empty() {
                continue;
            }
            let pairs = pair_by_seed(&sa, &sb);
            let va: Vec<f64> = sa.iter().map(|p| p.1).collect();
            let vb: Vec<f64> = sb.iter().map(|p| p.1).collect();
            let v = verdict(&va, &vb, &pairs, spec.higher_better, spec.bound);
            let sign = if spec.higher_better { 1.0 } else { -1.0 };
            let wins = pairs.iter().filter(|(x, y)| sign * (y - x) > 0.0).count();
            let (ma, mb) = (
                median(&va).unwrap_or(f64::NAN),
                median(&vb).unwrap_or(f64::NAN),
            );
            println!(
                "{:<44} {:<20} {:>28} {:>28} {:>7.1}% {:>6}  {}",
                format!("{} ({})", spec.name, spec.unit),
                w,
                summary(&va),
                summary(&vb),
                100.0 * (mb - ma) / ma.abs(),
                format!("{wins}/{}", pairs.len()),
                v.label()
            );
        }
    }
    Ok(())
}

/// Pairs runs of the same seed, in run order.
fn pair_by_seed(a: &[(u64, f64)], b: &[(u64, f64)]) -> Vec<(f64, f64)> {
    let seeds: BTreeSet<u64> = a.iter().map(|p| p.0).collect();
    seeds
        .into_iter()
        .flat_map(|s| {
            let xs = a.iter().filter(move |p| p.0 == s).map(|p| p.1);
            let ys = b.iter().filter(move |p| p.0 == s).map(|p| p.1);
            xs.zip(ys)
        })
        .collect()
}

fn summary(xs: &[f64]) -> String {
    match (median(xs), quartiles(xs)) {
        (Some(m), Some((q1, q3))) => format!("{m:.4} [{q1:.4}, {q3:.4}]"),
        _ => "-".to_owned(),
    }
}

/// `ledger DIR...`: writes `perf/BENCH_e2e.json` and
/// `perf/BENCH_layers.json`, one row per (workload, metric).
pub fn cmd_ledger(args: &[String]) -> Result<(), String> {
    if args.is_empty() {
        return Err("usage: cmpsim-perf ledger <RUNS-DIR>...".to_owned());
    }
    let specs = declared(&read_json(Path::new("BENCHMARK.json"))?);
    let runs = load_runs(args)?;
    let rev = command_line("git", &["rev-parse", "--short", "HEAD"]);
    let rustc = command_line("rustc", &["-V"]);
    for (layer, file) in [
        (false, "perf/BENCH_e2e.json"),
        (true, "perf/BENCH_layers.json"),
    ] {
        let mut rows = Vec::new();
        let workloads: BTreeSet<&str> = runs
            .iter()
            .filter(|r| r.trace == layer)
            .map(|r| r.workload.as_str())
            .collect();
        for &w in &workloads {
            for spec in specs.iter().filter(|s| s.layer == layer) {
                let mine: Vec<&Run> = runs
                    .iter()
                    .filter(|r| r.workload == w && r.trace == layer)
                    .collect();
                let values: Vec<f64> = mine.iter().filter_map(|r| r.value(&spec.name)).collect();
                let counts: Vec<f64> = mine.iter().filter_map(|r| r.count(&spec.name)).collect();
                let Some(med) = median(&values) else { continue };
                rows.push(JsonValue::object([
                    ("workload", JsonValue::from(w)),
                    ("metric", JsonValue::from(spec.name.as_str())),
                    ("unit", JsonValue::from(spec.unit.as_str())),
                    ("median", JsonValue::F64(med)),
                    (
                        "min",
                        JsonValue::F64(values.iter().copied().fold(f64::INFINITY, f64::min)),
                    ),
                    ("n", JsonValue::U64(values.len() as u64)),
                    ("units", JsonValue::F64(median(&counts).unwrap_or(0.0))),
                    ("nproc", JsonValue::U64(mine[0].nproc)),
                    ("rev", JsonValue::from(rev.as_str())),
                    ("rustc", JsonValue::from(rustc.as_str())),
                ]));
            }
        }
        let doc = JsonValue::object([
            ("generated_by", JsonValue::from("cmpsim-perf ledger")),
            ("rows", JsonValue::Array(rows)),
        ]);
        write_json_file(Path::new(file), &doc).map_err(|e| format!("cannot write {file}: {e}"))?;
        eprintln!("wrote {file}");
    }
    Ok(())
}

fn command_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(a: &[f64], b: &[f64]) -> Vec<(f64, f64)> {
        a.iter().copied().zip(b.iter().copied()).collect()
    }

    #[test]
    fn a_consistent_win_beyond_the_spread_is_better() {
        let a = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2];
        let b: Vec<f64> = a.iter().map(|x| x * 0.8).collect();
        assert_eq!(
            verdict(&a, &b, &pairs(&a, &b), false, Some(0.1)),
            Verdict::Better
        );
        // The same numbers read as a throughput are a regression.
        assert_eq!(
            verdict(&a, &b, &pairs(&a, &b), true, Some(0.1)),
            Verdict::Worse
        );
    }

    #[test]
    fn eight_wins_in_ten_claim_no_gain() {
        let a = [10.0; 10];
        let mut b = [8.0; 10];
        b[0] = 11.0;
        b[1] = 12.0;
        let v = verdict(&a, &b, &pairs(&a, &b), false, Some(0.1));
        assert_ne!(v, Verdict::Better);
    }

    #[test]
    fn small_moves_are_within_bound_unless_noisy() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0];
        let b: Vec<f64> = a.iter().map(|x| x * 1.03).collect();
        assert_eq!(
            verdict(&a, &b, &pairs(&a, &b), false, Some(0.1)),
            Verdict::WithinBound
        );
        let noisy = [5.0, 15.0, 7.0, 13.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0];
        let v = verdict(&noisy, &b, &pairs(&noisy, &b), false, Some(0.1));
        assert_eq!(v, Verdict::Unresolved);
    }

    #[test]
    fn unbounded_metrics_never_read_as_unchanged_without_evidence() {
        let same = [3.0; 10];
        assert_eq!(
            verdict(&same, &same, &pairs(&same, &same), false, None),
            Verdict::WithinBound
        );
        let a = [10.0, 11.0, 12.0];
        let b = [10.5, 11.5, 11.0];
        assert_eq!(
            verdict(&a, &b, &pairs(&a, &b), false, None),
            Verdict::Unresolved
        );
        assert_eq!(verdict(&[], &b, &[], false, None), Verdict::Unresolved);
    }

    #[test]
    fn pairs_match_seeds_in_run_order() {
        let a = [(1, 1.0), (2, 2.0), (1, 3.0)];
        let b = [(2, 20.0), (1, 10.0), (3, 30.0)];
        assert_eq!(pair_by_seed(&a, &b), vec![(1.0, 10.0), (2.0, 20.0)]);
    }
}
