//! Workspace integration: every workload through the full co-simulation
//! stack (kernels → DEX platform → one physical cache stack → FSB with
//! message protocol → captured stream → Dragonhead → counters).

use cmpsim_core::cosim::{CoSimConfig, CoSimReport, CoSimulation};
use cmpsim_core::{Scale, WorkloadId};
use cmpsim_softsdv::HostNoiseConfig;

fn tiny_cfg(cores: usize) -> CoSimConfig {
    CoSimConfig::new(cores, 1 << 20).expect("valid geometry")
}

/// Captures `id` at tiny scale under `cfg` and replays it into the board.
fn cosim(cfg: CoSimConfig, id: WorkloadId, seed: u64) -> CoSimReport {
    let sim = CoSimulation::new(cfg);
    sim.replay(&sim.capture(id, Scale::tiny(), seed)).unwrap()
}

#[test]
fn every_workload_completes_with_consistent_counters() {
    for id in WorkloadId::all() {
        let r = cosim(tiny_cfg(4), id, 7);
        assert!(r.run.instructions > 0, "{id}: no instructions");
        assert!(r.llc.accesses > 0, "{id}: LLC never accessed");
        assert_eq!(
            r.llc.hits + r.llc.misses,
            r.llc.accesses,
            "{id}: stats identity broken"
        );
        // Core attribution covers exactly the demand accesses.
        let per_core: u64 = r.per_core_llc.iter().map(|c| c.accesses).sum();
        assert_eq!(per_core, r.llc.accesses, "{id}: attribution mismatch");
        // All four virtual cores executed work.
        assert!(
            r.run.per_core.iter().all(|c| c.instructions > 0),
            "{id}: idle virtual core"
        );
        // Instruction mix should match the Table 2 calibration within
        // tolerance (the kernels' memory fractions are Table 2 inputs).
        let frac = r.run.memory_fraction();
        assert!(
            (0.3..0.95).contains(&frac),
            "{id}: memory fraction {frac} implausible"
        );
    }
}

#[test]
fn cosim_is_deterministic() {
    for id in [WorkloadId::Fimi, WorkloadId::Shot, WorkloadId::Mds] {
        let run = || {
            let r = cosim(tiny_cfg(2), id, 11);
            (
                r.run.instructions,
                r.llc.accesses,
                r.llc.misses,
                r.run.l1.misses,
            )
        };
        assert_eq!(run(), run(), "{id}: nondeterministic co-simulation");
    }
}

#[test]
fn host_noise_is_fully_excluded() {
    let id = WorkloadId::Plsa;
    let base = cosim(tiny_cfg(2), id, 3);
    let noisy = {
        let mut cfg = tiny_cfg(2);
        cfg.host_noise = Some(HostNoiseConfig {
            transactions_per_switch: 16,
        });
        cosim(cfg, id, 3)
    };
    // The AF must drop every injected host transaction: LLC counters
    // identical with and without noise.
    assert_eq!(base.llc.accesses, noisy.llc.accesses);
    assert_eq!(base.llc.misses, noisy.llc.misses);
}

#[test]
fn samples_accumulate_over_the_run() {
    let mut cfg = tiny_cfg(2);
    cfg.sample_period = 2_000;
    let r = cosim(cfg, WorkloadId::Viewtype, 5);
    assert!(
        r.samples.len() >= 4,
        "expected several 500us samples, got {}",
        r.samples.len()
    );
    // Samples are monotone in every cumulative field.
    for w in r.samples.windows(2) {
        assert!(w[1].cycle > w[0].cycle);
        assert!(w[1].accesses >= w[0].accesses);
        assert!(w[1].misses >= w[0].misses);
        assert!(w[1].instructions >= w[0].instructions);
    }
}

#[test]
fn more_cores_do_not_lose_work() {
    // The same workload partitioned over more virtual cores retires a
    // comparable instruction total (work is split, not duplicated).
    let total = |cores: usize| cosim(tiny_cfg(cores), WorkloadId::Mds, 9).run.instructions;
    let one = total(1) as f64;
    let eight = total(8) as f64;
    assert!(
        (eight / one - 1.0).abs() < 0.1,
        "instructions changed too much: {one} vs {eight}"
    );
}
