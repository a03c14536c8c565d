//! Chaos suite: seeded fault-injection scenarios on the co-simulated
//! bus.
//!
//! Every scenario captures the FSB stream of one platform run, then
//! perturbs it between decode and the Dragonhead board through a
//! deterministic [`SeededFaults`] plan, and requires one of exactly two
//! endings:
//!
//! 1. **Recovery** — the run completes, the report passes the full
//!    invariant catalogue, and the injection census plus the board's
//!    anomaly counters are in the report's metrics; or
//! 2. **A clean [`CoSimError`]** — a named category, not a panic.
//!
//! A panic anywhere is a failure of the robustness layer itself.

use cmpsim_core::cosim::{CoSimConfig, CoSimReport, CoSimulation};
use cmpsim_core::error::CoSimError;
use cmpsim_core::faults::{FaultInjector, FaultPlan, NoFaults, SeededFaults};
use cmpsim_core::{CapturedStream, Scale, WorkloadId};

fn config() -> CoSimConfig {
    let mut cfg = CoSimConfig::new(2, 1 << 20).unwrap();
    cfg.sample_period = 1000;
    cfg
}

/// The captured FIMI/tiny stream every scenario perturbs.
fn fimi() -> (CoSimulation, CapturedStream) {
    let sim = CoSimulation::new(config());
    let stream = sim.capture(WorkloadId::Fimi, Scale::tiny(), 1);
    (sim, stream)
}

/// Replays FIMI/tiny under `injector`, returning the outcome and the
/// number of faults actually injected.
fn scenario(injector: &mut SeededFaults) -> (Result<CoSimReport, CoSimError>, u64) {
    let (sim, stream) = fimi();
    let result = sim.replay_with_faults(&stream, injector);
    (result, injector.faults_injected())
}

/// Total anomalies the board itself counted (exported only when > 0).
fn anomalies(r: &CoSimReport) -> u64 {
    r.metrics.counter_total("desyncs_detected")
        + r.metrics.counter_total("transactions_quarantined")
        + r.metrics.counter_total("cycle_regressions")
}

/// The contract every scenario must honour: recovery with a counted
/// census, or a categorized error — reaching this function at all means
/// nothing panicked.
fn assert_recovered_or_clean_error(
    tag: &str,
    result: &Result<CoSimReport, CoSimError>,
    injected: u64,
) {
    match result {
        Ok(r) => {
            assert!(r.run.instructions > 0, "{tag}: empty run");
            assert_eq!(
                r.metrics.counter_total("faults_injected"),
                injected,
                "{tag}: injection census missing from metrics"
            );
        }
        Err(e) => {
            assert!(
                ["protocol", "invariant", "io", "timeout"].contains(&e.category()),
                "{tag}: unknown error category {}",
                e.category()
            );
        }
    }
}

#[test]
fn drop_heavy_channel() {
    let (result, injected) = scenario(&mut FaultPlan::none(11).with_drop(0.05).build());
    assert!(injected > 0, "a 5% drop rate must fire on a real stream");
    assert_recovered_or_clean_error("drop", &result, injected);
}

#[test]
fn duplicated_transactions() {
    let (result, injected) = scenario(&mut FaultPlan::none(22).with_duplicate(0.05).build());
    assert!(injected > 0);
    assert_recovered_or_clean_error("duplicate", &result, injected);
}

#[test]
fn reordered_transactions() {
    let (result, injected) = scenario(&mut FaultPlan::none(33).with_reorder(0.05).build());
    assert!(injected > 0);
    assert_recovered_or_clean_error("reorder", &result, injected);
}

#[test]
fn corrupted_message_addresses_are_counted_anomalies() {
    let (result, injected) = scenario(&mut FaultPlan::none(44).with_corrupt_addr(0.05).build());
    assert_recovered_or_clean_error("corrupt_addr", &result, injected);
    if let (Ok(r), true) = (&result, injected > 0) {
        assert!(
            anomalies(r) > 0,
            "corrupted message addresses recovered without a single counted anomaly"
        );
    }
}

#[test]
fn torn_payload_pairs() {
    let (result, injected) = scenario(&mut FaultPlan::none(55).with_tear_pair(0.5).build());
    assert_recovered_or_clean_error("tear_pair", &result, injected);
}

#[test]
fn wrong_core_attribution() {
    let (result, injected) = scenario(&mut FaultPlan::none(66).with_wrong_core(0.1).build());
    assert_recovered_or_clean_error("wrong_core", &result, injected);
}

#[test]
fn jittered_cycle_stamps() {
    let (result, injected) = scenario(&mut FaultPlan::none(77).with_cycle_jitter(0.2, 500).build());
    assert_recovered_or_clean_error("cycle_jitter", &result, injected);
}

#[test]
fn combined_chaos() {
    let mut injector = FaultPlan::none(88)
        .with_drop(0.02)
        .with_duplicate(0.02)
        .with_reorder(0.02)
        .with_corrupt_addr(0.02)
        .with_tear_pair(0.2)
        .with_wrong_core(0.05)
        .with_cycle_jitter(0.05, 200)
        .build();
    let (result, injected) = scenario(&mut injector);
    assert!(injected > 0);
    assert_recovered_or_clean_error("combined", &result, injected);
    // The per-class census is in the metrics whenever the run recovered.
    if let Ok(r) = &result {
        let per_class = r.metrics.counter_total("faults_injected_class");
        assert_eq!(
            per_class, injected,
            "per-class census does not sum to the total"
        );
    }
}

#[test]
fn chaos_is_deterministic_per_seed() {
    let (a, ia) = scenario(
        &mut FaultPlan::none(99)
            .with_drop(0.03)
            .with_corrupt_addr(0.03)
            .build(),
    );
    let (b, ib) = scenario(
        &mut FaultPlan::none(99)
            .with_drop(0.03)
            .with_corrupt_addr(0.03)
            .build(),
    );
    assert_eq!(ia, ib);
    match (a, b) {
        (Ok(ra), Ok(rb)) => {
            assert_eq!(ra.llc.accesses, rb.llc.accesses);
            assert_eq!(ra.llc.misses, rb.llc.misses);
            assert_eq!(anomalies(&ra), anomalies(&rb));
        }
        (Err(ea), Err(eb)) => assert_eq!(ea, eb),
        _ => panic!("same seed produced different outcome kinds"),
    }
}

#[test]
fn fault_free_path_matches_the_clean_run_exactly() {
    let (sim, stream) = fimi();
    let clean = sim.replay(&stream).unwrap();
    let faultless = sim.replay_with_faults(&stream, &mut NoFaults).unwrap();

    assert_eq!(clean.llc.accesses, faultless.llc.accesses);
    assert_eq!(clean.llc.hits, faultless.llc.hits);
    assert_eq!(clean.llc.misses, faultless.llc.misses);
    assert_eq!(clean.run.instructions, faultless.run.instructions);
    assert_eq!(clean.samples.len(), faultless.samples.len());
    // No census rows and no anomaly rows: the metric registries match
    // byte for byte.
    assert_eq!(clean.metrics.to_json(), faultless.metrics.to_json());
    assert_eq!(faultless.metrics.counter_total("faults_injected"), 0);
    assert_eq!(anomalies(&faultless), 0);
}
