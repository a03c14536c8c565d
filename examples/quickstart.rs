//! Quickstart: co-simulate one data-mining workload on an 8-core CMP and
//! print what Dragonhead measured.
//!
//! ```text
//! cargo run --release --example quickstart [workload] [cores]
//! ```
//!
//! Scale is controlled with `CMPSIM_SCALE=tiny|ci|paper` (default: tiny
//! so the example finishes in seconds).

use cmpsim_core::cosim::{CoSimConfig, CoSimulation};
use cmpsim_core::report::human_bytes;
use cmpsim_core::{CoSimError, Scale, WorkloadId};

fn scale_from_env() -> Scale {
    match std::env::var("CMPSIM_SCALE").as_deref() {
        Ok("paper") => Scale::paper(),
        Ok("ci") => Scale::ci(),
        _ => Scale::tiny(),
    }
}

fn main() -> Result<(), CoSimError> {
    let mut args = std::env::args().skip(1);
    let workload: WorkloadId = args
        .next()
        .map(|s| s.parse().expect("unknown workload name"))
        .unwrap_or(WorkloadId::Fimi);
    let cores: usize = args
        .next()
        .map(|s| s.parse().expect("core count must be a number"))
        .unwrap_or(8);
    let scale = scale_from_env();

    println!("cmpsim quickstart: {workload} on {cores} cores at scale {scale}");
    let workload_instance = workload.build(scale, 2007);
    println!(
        "dataset: {} ({})",
        workload_instance.dataset().parameters,
        human_bytes(workload_instance.dataset().input_bytes)
    );

    let llc_bytes = scale.pow2_bytes(32 << 20, 64 << 10);
    let sim = CoSimulation::new(CoSimConfig::new(cores, llc_bytes)?);
    let stream = sim.capture_workload(workload_instance.as_ref(), scale, 2007);
    // Replay validates the report against the invariant catalogue
    // before returning it.
    let report = sim.replay(&stream)?;

    println!();
    println!("platform (SoftSDV side)");
    println!("  instructions retired : {}", report.run.instructions);
    println!(
        "  memory instructions  : {} ({:.1}%)",
        report.run.memory_instructions,
        report.run.memory_fraction() * 100.0
    );
    println!("  L1 misses            : {}", report.run.l1.misses);
    println!("  L2 misses            : {}", report.run.l2.misses);
    println!("  bus transactions     : {}", report.run.bus_transactions);

    println!();
    println!("dragonhead ({} shared LLC)", human_bytes(report.llc_bytes));
    println!("  LLC accesses         : {}", report.llc.accesses);
    println!("  LLC misses           : {}", report.llc.misses);
    println!("  LLC MPKI             : {:.3}", report.mpki);
    println!("  500us samples        : {}", report.samples.len());
    println!();
    println!("per-core LLC demand:");
    for (i, c) in report.per_core_llc.iter().enumerate() {
        println!(
            "  core {i:2}: {:8} accesses, {:8} misses",
            c.accesses, c.misses
        );
    }
    Ok(())
}
