//! Tier-1 pin of the capture path: the exact FSB bytes the platform's
//! private L1/L2 filter and the trace encoder produce.
//!
//! Eleven captures at `Scale::tiny()`, seed 2007: all eight workloads on
//! the 8-core scaled CMP stack, two on Table 2's 1-core scaled Pentium 4
//! stack, and one with host noise between slices. For each,
//! `tests/golden/capture_tiny.json` holds the transaction count, the
//! FNV-1a digest of the encoded trace, the stream key and the private
//! L1/L2 counters (upgrades included).
//!
//! To regenerate the golden file after an intentional change:
//!
//! ```text
//! cargo test -p cmpsim-bench --test capture_pin -- --ignored
//! ```

use cmpsim_core::cache::HierarchyConfig;
use cmpsim_core::capture::run_to_json;
use cmpsim_core::runner::hash::fnv1a64;
use cmpsim_core::softsdv::HostNoiseConfig;
use cmpsim_core::{CoSimConfig, CoSimulation, Scale, WorkloadId};
use cmpsim_telemetry::{parse, JsonValue};
use std::path::{Path, PathBuf};

const SEED: u64 = 2007;

fn golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/capture_tiny.json")
}

/// `(label, config, workload)` for every pinned capture. The LLC size
/// sits behind the bus, so it never reaches the stream.
fn cases() -> Vec<(String, CoSimConfig, WorkloadId)> {
    let tiny = Scale::tiny();
    let cmp = CoSimConfig::scaled(8, 1 << 20, tiny).expect("1 MB LLC is valid");
    let mut p4 = CoSimConfig::new(1, 1 << 20).expect("1 MB LLC is valid");
    p4.hierarchy = HierarchyConfig::pentium4_scaled(tiny);
    let mut noisy = cmp;
    noisy.host_noise = Some(HostNoiseConfig {
        transactions_per_switch: 16,
    });
    let mut cases: Vec<_> = WorkloadId::all()
        .into_iter()
        .map(|id| (format!("{id}/cmp8"), cmp, id))
        .collect();
    for id in [WorkloadId::Fimi, WorkloadId::Plsa] {
        cases.push((format!("{id}/p4-1core"), p4, id));
    }
    cases.push(("SHOT/cmp8-noise".to_string(), noisy, WorkloadId::Shot));
    cases
}

fn pin(cfg: CoSimConfig, id: WorkloadId) -> JsonValue {
    let sim = CoSimulation::new(cfg);
    let stream = sim.capture(id, Scale::tiny(), SEED);
    let run = run_to_json(stream.run());
    JsonValue::object([
        ("transactions", JsonValue::U64(stream.transactions())),
        (
            "fnv1a64",
            JsonValue::from(format!("{:016x}", fnv1a64(stream.encoded_bytes()))),
        ),
        (
            "stream_key",
            JsonValue::from(sim.stream_key(id, Scale::tiny(), SEED).canonical()),
        ),
        ("l1", run.get("l1").expect("run has l1").clone()),
        ("l2", run.get("l2").expect("run has l2").clone()),
    ])
}

/// Every case's pin, `{label: pin}` in [`cases`] order, computed on two
/// threads.
fn pin_all() -> JsonValue {
    let cases = cases();
    let (left, right) = cases.split_at(cases.len() / 2);
    let pins = |part: &[(String, CoSimConfig, WorkloadId)]| {
        part.iter()
            .map(|(label, cfg, id)| (label.clone(), pin(*cfg, *id)))
            .collect::<Vec<_>>()
    };
    let (mut a, b) = std::thread::scope(|s| {
        let other = s.spawn(|| pins(right));
        (pins(left), other.join().expect("capture thread panicked"))
    });
    a.extend(b);
    JsonValue::object(a)
}

#[test]
fn captures_match_the_golden_file() {
    let text = std::fs::read_to_string(golden_path()).expect("read golden file");
    let golden = parse(&text).expect("parse golden file");
    let current = pin_all();
    let drifted: Vec<String> = cases()
        .into_iter()
        .filter(|(label, ..)| golden.get(label) != current.get(label))
        .map(|(label, ..)| label)
        .collect();
    assert!(
        drifted.is_empty(),
        "captures drifted from tests/golden/capture_tiny.json: {drifted:?}"
    );
}

#[test]
#[ignore = "rewrites tests/golden/capture_tiny.json from the current build"]
fn regenerate_golden_file() {
    let doc = pin_all();
    std::fs::write(golden_path(), format!("{}\n", doc.to_json_pretty())).expect("write golden");
}
