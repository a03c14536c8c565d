//! Tier-1 pin of all twelve paper outputs: every figure/table binary,
//! run at `--scale tiny --seed 2007 --jobs 1 --no-cache` over its
//! default workloads, must print the same stdout bytes and the same
//! `results` payloads (by FNV-1a digest of each payload's canonical
//! JSON, as `perf/golden.json` checks them) as `tests/golden/paper_tiny.json`.
//!
//! The binaries share one `--trace-dir`, so a stream captured by one is
//! replayed from disk by the next; where a stream comes from never
//! changes a byte (`replay_equivalence` pins that).
//!
//! To regenerate the golden file after an intentional output change:
//!
//! ```text
//! cargo test -p cmpsim-bench --test paper_outputs -- --ignored
//! ```

use cmpsim_core::runner::hash::fnv1a64;
use cmpsim_telemetry::{parse, JsonValue};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The twelve binaries. The slowest come first, so the two runners
/// below finish close together.
const BINARIES: [&str; 12] = [
    "projection_128core",
    "ablation_replacement",
    "fig8_prefetch",
    "fig4_scmp",
    "fig5_mcmp",
    "fig6_lcmp",
    "fig7_linesize",
    "table2_characteristics",
    "ablation_llc_organization",
    "ablation_sharing",
    "phase_behavior",
    "table1_inputs",
];

/// Binaries run at once: each is single-threaded at `--jobs 1`.
const RUNNERS: usize = 2;

fn golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/paper_tiny.json")
}

/// One binary's pinned output: its stdout and one digest per payload.
/// Cargo builds every binary of the package into one directory.
fn run_one(name: &str, dir: &Path) -> JsonValue {
    let metrics = dir.join(format!("{name}.json"));
    let exe = Path::new(env!("CARGO_BIN_EXE_fig4_scmp"))
        .with_file_name(format!("{name}{}", std::env::consts::EXE_SUFFIX));
    let out = Command::new(exe)
        .current_dir(dir)
        .args(["--scale", "tiny", "--seed", "2007", "--jobs", "1"])
        .args(["--no-cache", "--quiet", "--trace-dir"])
        .arg(dir.join("traces"))
        .arg("--metrics-out")
        .arg(&metrics)
        .output()
        .unwrap_or_else(|e| panic!("spawn {name}: {e}"));
    assert!(
        out.status.success(),
        "{name} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&metrics).expect("read json twin");
    let doc = parse(&text).expect("parse json twin");
    let payloads = doc
        .get("results")
        .and_then(JsonValue::as_array)
        .unwrap_or_else(|| panic!("{name}: no results array"));
    let digests = payloads
        .iter()
        .map(|p| JsonValue::from(format!("{:016x}", fnv1a64(p.to_json().as_bytes()))))
        .collect::<Vec<_>>();
    JsonValue::object([
        (
            "stdout",
            JsonValue::from(String::from_utf8(out.stdout).expect("utf-8 stdout")),
        ),
        ("digests", JsonValue::Array(digests)),
    ])
}

/// Runs all twelve binaries and returns `{name: {stdout, digests}}` in
/// [`BINARIES`] order. `test` names the calling test, so tests that run
/// at once in one process each get their own temp dir and trace store.
fn run_all(test: &str) -> JsonValue {
    let dir = std::env::temp_dir().join(format!("cmpsim-paper-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let next = AtomicUsize::new(0);
    let outputs = Mutex::new(vec![JsonValue::Null; BINARIES.len()]);
    std::thread::scope(|scope| {
        for _ in 0..RUNNERS {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(name) = BINARIES.get(i) else {
                    break;
                };
                let pinned = run_one(name, &dir);
                outputs.lock().unwrap()[i] = pinned;
            });
        }
    });
    let _ = std::fs::remove_dir_all(&dir);
    let outputs = outputs.into_inner().unwrap();
    JsonValue::object(BINARIES.iter().copied().zip(outputs))
}

#[test]
fn all_twelve_outputs_match_the_golden_file() {
    let text = std::fs::read_to_string(golden_path()).expect("read golden file");
    let golden = parse(&text).expect("parse golden file");
    let current = run_all("check");
    let mut drifted = Vec::new();
    for name in BINARIES {
        let (want, got) = (golden.get(name), current.get(name));
        for field in ["stdout", "digests"] {
            if want.and_then(|w| w.get(field)) != got.and_then(|g| g.get(field)) {
                drifted.push(format!("{name} {field}"));
            }
        }
    }
    assert!(
        drifted.is_empty(),
        "outputs drifted from tests/golden/paper_tiny.json: {drifted:?}"
    );
}

#[test]
#[ignore = "rewrites tests/golden/paper_tiny.json from the current build"]
fn regenerate_golden_file() {
    let doc = run_all("regenerate");
    std::fs::write(golden_path(), format!("{}\n", doc.to_json_pretty())).expect("write golden");
}
