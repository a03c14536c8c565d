//! Video-mining scenario: run SHOT and VIEWTYPE (the §2.6 workloads) end
//! to end, show the *algorithmic* results (detected shot boundaries,
//! view-type distribution), then compare their memory behaviour under
//! thread scaling — the paper's category (b) signature.
//!
//! ```text
//! cargo run --release --example video_mining
//! ```

use cmpsim_core::cosim::{CoSimConfig, CoSimulation};
use cmpsim_core::report::{human_bytes, TextTable};
use cmpsim_core::workloads::shot::Shot;
use cmpsim_core::workloads::viewtype::Viewtype;
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
    println!(
        "video mining at scale {scale}, shared LLC {}\n",
        human_bytes(llc)
    );

    // --- SHOT: boundary detection quality ---------------------------
    let shot = Shot::new(scale, 42);
    let sim = CoSimulation::new(CoSimConfig::new(8, llc)?);
    let report = sim.replay(&sim.capture_workload(&shot, scale, 42))?;
    let truth: Vec<u32> = shot.ground_truth()[1..].to_vec();
    let detected = shot.detected_boundaries();
    let hits = truth.iter().filter(|b| detected.contains(b)).count();
    println!(
        "SHOT: {} instructions retired, {} true boundaries",
        report.run.instructions,
        truth.len()
    );
    println!(
        "  recall {}/{} ({:.0}%), {} detections, LLC MPKI {:.3}",
        hits,
        truth.len(),
        hits as f64 * 100.0 / truth.len().max(1) as f64,
        detected.len(),
        report.mpki
    );

    // --- VIEWTYPE: classification distribution ----------------------
    let vt = Viewtype::new(scale, 42);
    let report_vt = sim.replay(&sim.capture_workload(&vt, scale, 42))?;
    let classes = vt.classifications();
    let mut counts = std::collections::BTreeMap::new();
    for (_, c) in &classes {
        *counts.entry(format!("{c:?}")).or_insert(0u32) += 1;
    }
    println!(
        "\nVIEWTYPE: {} key frames classified, LLC MPKI {:.3}",
        classes.len(),
        report_vt.mpki
    );
    for (class, n) in &counts {
        println!("  {class:<10} {n}");
    }

    // --- Thread scaling: the category (b) signature -----------------
    println!(
        "\nLLC MPKI under thread scaling (fixed {} LLC):",
        human_bytes(llc)
    );
    let mut table = TextTable::new(["threads", "SHOT", "VIEWTYPE"]);
    for threads in [1usize, 2, 4, 8] {
        let mpki_of = |id: WorkloadId| -> Result<f64, CoSimError> {
            let sim = CoSimulation::new(CoSimConfig::new(threads, llc)?);
            Ok(sim.replay(&sim.capture(id, scale, 42))?.mpki)
        };
        table.row([
            threads.to_string(),
            format!("{:.3}", mpki_of(WorkloadId::Shot)?),
            format!("{:.3}", mpki_of(WorkloadId::Viewtype)?),
        ]);
    }
    println!("{}", table.render());
    println!(
        "each thread carries ~{} (SHOT) of private frame buffers, so the\n\
         working set — and the miss rate at a fixed LLC — grows with the\n\
         thread count (paper §4.3, category (b)).",
        human_bytes(shot.frame_bytes() * 2)
    );
    Ok(())
}
