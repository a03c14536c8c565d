//! Bioinformatics scenario: the three genomics workloads (SNP, PLSA,
//! RSEARCH) through the co-simulation, with their algorithmic outputs
//! and the §4.3 thread-scaling contrast — SNP shares everything (flat
//! curve); RSEARCH grows a private DP matrix per thread.
//!
//! ```text
//! cargo run --release --example genomics_pipeline
//! ```

use cmpsim_core::cosim::{CoSimConfig, CoSimulation};
use cmpsim_core::report::{human_bytes, TextTable};
use cmpsim_core::workloads::plsa::{smith_waterman_best, Plsa};
use cmpsim_core::workloads::rsearch::Rsearch;
use cmpsim_core::workloads::snp::Snp;
use cmpsim_core::{CoSimError, Scale, WorkloadId};

fn scale_from_env() -> Scale {
    match std::env::var("CMPSIM_SCALE").as_deref() {
        Ok("paper") => Scale::paper(),
        Ok("ci") => Scale::ci(),
        _ => Scale::tiny(),
    }
}

fn main() -> Result<(), CoSimError> {
    let scale = scale_from_env();
    let llc = scale.pow2_bytes(32 << 20, 64 << 10);
    let sim = CoSimulation::new(CoSimConfig::new(8, llc)?);
    println!(
        "genomics pipeline at scale {scale}, {} shared LLC\n",
        human_bytes(llc)
    );

    // PLSA: alignment score, checked against the quadratic-space oracle.
    let plsa = Plsa::new(scale, 7);
    let r = sim.replay(&sim.capture_workload(&plsa, scale, 7))?;
    println!(
        "PLSA : aligned two {}-residue sequences; best local score {}",
        plsa.seq_len(),
        plsa.best_score()
    );
    println!(
        "       (oracle check: {}), {:.1}% memory instructions, LLC MPKI {:.3}",
        smith_waterman_best(&dna_pair(scale, 7).0, &dna_pair(scale, 7).1),
        r.run.memory_fraction() * 100.0,
        r.mpki
    );

    // SNP: network score from hill climbing.
    let snp = Snp::new(scale, 7);
    let r = sim.replay(&sim.capture_workload(&snp, scale, 7))?;
    println!(
        "SNP  : hill climbing finished, best network score {:.4}, LLC MPKI {:.3}",
        snp.best_score(),
        r.mpki
    );

    // RSEARCH: best database hit.
    let rs = Rsearch::new(scale, 7);
    let r = sim.replay(&sim.capture_workload(&rs, scale, 7))?;
    let (score, window) = rs.best_hit();
    println!(
        "RSRCH: scanned {} windows, best fold score {:.2} at window {}, LLC MPKI {:.3}\n",
        rs.windows(),
        score,
        window,
        r.mpki
    );

    // Thread-scaling contrast (category (a) vs (b)).
    println!(
        "LLC MPKI under thread scaling (fixed {} LLC):",
        human_bytes(llc)
    );
    let mut table = TextTable::new(["threads", "SNP (shared)", "RSEARCH (private DP)"]);
    for threads in [1usize, 2, 4, 8] {
        let mpki_of = |id: WorkloadId| -> Result<f64, CoSimError> {
            let sim = CoSimulation::new(CoSimConfig::new(threads, llc)?);
            Ok(sim.replay(&sim.capture(id, scale, 7))?.mpki)
        };
        table.row([
            threads.to_string(),
            format!("{:.3}", mpki_of(WorkloadId::Snp)?),
            format!("{:.3}", mpki_of(WorkloadId::Rsearch)?),
        ]);
    }
    println!("{}", table.render());
    Ok(())
}

/// Rebuilds the PLSA sequence pair for the oracle line (the workload's
/// own copy is private).
fn dna_pair(scale: Scale, seed: u64) -> (Vec<u8>, Vec<u8>) {
    use cmpsim_core::workloads::datagen;
    let n = scale.count(30_000) as usize;
    let a = datagen::dna_sequence(n, seed);
    let b = datagen::related_dna_sequence(&a, 0.7, seed ^ 1);
    (a, b)
}
