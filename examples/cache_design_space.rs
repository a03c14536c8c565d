//! Cache design-space exploration — the paper's headline use case.
//!
//! Sweeps the shared-LLC size for a chosen workload on all three CMP
//! classes (one platform run per class, replayed into every size),
//! prints the MPKI curves, finds working-set knees, and prints the
//! DRAM-cache recommendation the paper's conclusions draw.
//!
//! ```text
//! cargo run --release --example cache_design_space [workload]
//! CMPSIM_SCALE=ci cargo run --release --example cache_design_space fimi
//! ```

use cmpsim_core::experiment::{paper_cache_sizes, CacheSizeStudy, CmpClass};
use cmpsim_core::report::{human_bytes, TextTable};
use cmpsim_core::{CaptureBroker, CoSimError, Scale, WorkloadId};

fn scale_from_env() -> Scale {
    match std::env::var("CMPSIM_SCALE").as_deref() {
        Ok("paper") => Scale::paper(),
        Ok("ci") => Scale::ci(),
        _ => Scale::tiny(),
    }
}

fn main() -> Result<(), CoSimError> {
    let workload: WorkloadId = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("unknown workload name"))
        .unwrap_or(WorkloadId::Shot);
    let scale = scale_from_env();
    let sizes = paper_cache_sizes(scale);

    println!("LLC design space for {workload} at scale {scale}");
    println!("(sizes correspond to the paper's 4MB..256MB sweep)\n");

    let mut table = TextTable::new(
        std::iter::once("LLC size".to_owned())
            .chain(CmpClass::all().iter().map(|c| c.name().to_owned())),
    );
    let broker = CaptureBroker::in_memory();
    let curves = CmpClass::all()
        .iter()
        .map(|&cmp| CacheSizeStudy::new(scale, cmp, 2007).run_with_sizes(&broker, workload, &sizes))
        .collect::<Result<Vec<_>, _>>()?;
    for (i, &size) in sizes.iter().enumerate() {
        table.row(
            std::iter::once(human_bytes(size))
                .chain(curves.iter().map(|c| format!("{:.3}", c.points[i].mpki))),
        );
    }
    println!("{}", table.render());

    println!("working-set knees (size where MPKI halves):");
    for curve in &curves {
        match curve.knee(0.5) {
            Some(k) => println!("  {}: {}", curve.cmp, human_bytes(k)),
            None => println!(
                "  {}: none within the sweep (streaming footprint)",
                curve.cmp
            ),
        }
    }

    // The paper's design guidance (§4.3): workloads whose working set
    // exceeds what SRAM can affordably provide are DRAM-cache candidates.
    let lcmp = &curves[2];
    let sram_limit = sizes[3]; // 32 MB at paper scale
    println!();
    match lcmp.knee(0.5) {
        Some(k) if k <= sram_limit => println!(
            "recommendation: a {} SRAM LLC captures {workload}'s working set on LCMP.",
            human_bytes(k)
        ),
        Some(k) => println!(
            "recommendation: {workload} needs {} on LCMP — a large DRAM cache \
             (eDRAM / off-die / 3D-stacked) is the economic choice.",
            human_bytes(k)
        ),
        None => println!(
            "recommendation: {workload} streams past every size in the sweep; \
             bandwidth (not capacity) is the constraint, favoring large lines \
             and prefetching."
        ),
    }
    Ok(())
}
