//! Shape assertions for the paper's figures, at test scale.
//!
//! These tests validate the *qualitative claims* of §4.3–§4.4 — knee
//! positions relative to each other, sharing categories, line-size
//! behaviour, prefetch asymmetry — which are scale-invariant because the
//! workload footprints and the cache sizes shrink together (see
//! `Scale`). EXPERIMENTS.md records the corresponding full-scale runs.

use cmpsim_core::experiment::{
    CacheSizeStudy, CmpClass, LineSizeStudy, PrefetchStudy, SharingStudy,
};
use cmpsim_core::{CaptureBroker, Scale, WorkloadId};

const SEED: u64 = 2007;

/// A compressed size sweep for test speed: 64 KB – 2 MB at tiny scale
/// corresponds to 16 MB – 512 MB at paper scale.
const TEST_SIZES: [u64; 4] = [64 << 10, 256 << 10, 1 << 20, 2 << 20];

#[test]
fn fig4_most_workloads_benefit_from_cache_size() {
    let study = CacheSizeStudy::new(Scale::tiny(), CmpClass::Small, SEED);
    let broker = CaptureBroker::in_memory();
    for id in [WorkloadId::SvmRfe, WorkloadId::Fimi, WorkloadId::Viewtype] {
        let curve = study.run_with_sizes(&broker, id, &TEST_SIZES).unwrap();
        assert!(
            curve.flatness() < 0.75,
            "{id}: expected MPKI to fall with size, flatness {} points {:?}",
            curve.flatness(),
            curve.points
        );
    }
}

#[test]
fn fig4_mds_is_flat() {
    // "MDS receives no benefit with the simulated cache sizes because
    // one of its frequently referenced data structures is a sparse
    // matrix of 300MB" — at tiny scale the matrix is ~1.2 MB streamed,
    // far beyond the scaled cache's reuse window.
    let study = CacheSizeStudy::new(Scale::tiny(), CmpClass::Small, SEED);
    let broker = CaptureBroker::in_memory();
    let curve = study
        .run_with_sizes(&broker, WorkloadId::Mds, &TEST_SIZES[..3])
        .unwrap();
    assert!(
        curve.flatness() > 0.7,
        "MDS should stay flat: {:?}",
        curve.points
    );
}

#[test]
fn fig5_category_a_flat_category_b_grows_with_threads() {
    // §4.3's two categories, measured as MPKI growth from 1 to 8 threads
    // at a fixed LLC.
    let study = SharingStudy::new(Scale::tiny(), SEED);
    let broker = CaptureBroker::in_memory();
    let shared = [WorkloadId::SvmRfe, WorkloadId::Mds];
    let private = [WorkloadId::Shot, WorkloadId::Viewtype];
    let mut worst_shared: f64 = 0.0;
    for id in shared {
        let r = study.run(&broker, id).unwrap();
        worst_shared = worst_shared.max(r.miss_growth_8x);
        assert!(
            r.miss_growth_8x < 2.0,
            "{id}: category (a) grew {}x",
            r.miss_growth_8x
        );
    }
    for id in private {
        let r = study.run(&broker, id).unwrap();
        assert!(
            r.miss_growth_8x > worst_shared,
            "{id}: category (b) ({}) should exceed category (a) ({worst_shared})",
            r.miss_growth_8x
        );
    }
}

#[test]
fn fig7_line_size_helps_streaming_workloads() {
    let mut study = LineSizeStudy::new(Scale::tiny(), SEED);
    study.cores = 4; // keep test runtime bounded
    let broker = CaptureBroker::in_memory();
    for id in [WorkloadId::Shot, WorkloadId::Mds] {
        let curve = study.run(&broker, id).unwrap();
        // "SHOT, MDS, SNP, and SVM-RFE almost get linear miss reductions
        // (around 1/3 to 1/4) from 64B to 256B".
        let gain = curve.improvement_at(256);
        assert!(gain > 2.0, "{id}: 256B gain {gain} {:?}", curve.points);
        // Diminishing returns beyond 256B: the 64->256 improvement factor
        // exceeds the 256->1024 one.
        let gain_1024 = curve.improvement_at(1024) / gain;
        assert!(
            gain >= gain_1024,
            "{id}: no diminishing returns ({gain} then {gain_1024})"
        );
    }
}

#[test]
fn fig8_prefetch_helps_and_bandwidth_punishes_parallel_mds() {
    let mut study = PrefetchStudy::new(Scale::tiny(), SEED);
    study.parallel_threads = 8; // bounded runtime; same asymmetry
                                // MDS: high miss rate -> parallel bandwidth contention eats the
                                // prefetch benefit (paper: serial gain > parallel gain).
    let broker = CaptureBroker::in_memory();
    let mds = study.run(&broker, WorkloadId::Mds).unwrap();
    assert!(
        mds.serial_speedup > 1.0,
        "MDS serial {}",
        mds.serial_speedup
    );
    assert!(
        mds.serial_speedup > mds.parallel_speedup,
        "MDS: serial {} should beat parallel {}",
        mds.serial_speedup,
        mds.parallel_speedup
    );
    // PLSA: low miss rate, bandwidth headroom -> parallel benefits at
    // least comparably (paper: parallel gain >= serial gain).
    let plsa = study.run(&broker, WorkloadId::Plsa).unwrap();
    assert!(
        plsa.parallel_speedup >= plsa.serial_speedup * 0.95,
        "PLSA: parallel {} vs serial {}",
        plsa.parallel_speedup,
        plsa.serial_speedup
    );
}

#[test]
fn working_sets_order_matches_paper() {
    // Figure 4 knee ordering at matched scale: SHOT (32 MB paper
    // working set) knees no later than SNP's second knee (128 MB paper);
    // MDS never knees. (SVM-RFE is excluded here: at the unit-test scale
    // its gene-count floor pins the matrix size, which distorts its knee
    // — the CI/paper-scale runs in EXPERIMENTS.md cover it.)
    let study = CacheSizeStudy::new(Scale::tiny(), CmpClass::Small, SEED);
    let broker = CaptureBroker::in_memory();
    let sizes: Vec<u64> = [16u64 << 10, 64 << 10, 256 << 10, 1 << 20, 2 << 20].to_vec();
    let snp = study
        .run_with_sizes(&broker, WorkloadId::Snp, &sizes)
        .unwrap();
    let shot = study
        .run_with_sizes(&broker, WorkloadId::Shot, &sizes)
        .unwrap();
    // MDS is only sampled inside the paper's sweep range: the paper's
    // largest cache (256 MB -> 1 MB at this scale) stays *below* the
    // 300 MB-class matrix; past it even MDS would fit and knee.
    let mds = study
        .run_with_sizes(&broker, WorkloadId::Mds, &sizes[..4])
        .unwrap();
    let snp_knee = snp.knee(0.2);
    let shot_knee = shot.knee(0.2);
    assert!(
        shot_knee.is_some(),
        "SHOT must have a knee: {:?}",
        shot.points
    );
    assert!(snp_knee.is_some(), "SNP must have a knee: {:?}", snp.points);
    assert!(
        shot_knee <= snp_knee,
        "SHOT settles at {shot_knee:?}, SNP (two working sets, the larger \
         128 MB-class) at {snp_knee:?}"
    );
    assert_eq!(mds.knee(0.5), None, "MDS must not knee: {:?}", mds.points);
}
