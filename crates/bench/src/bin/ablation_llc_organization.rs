//! Ablation E-X4: shared LLC vs per-core private slices of equal total
//! capacity — quantifying why the paper (and its related work: Liu et
//! al., Zhang & Asanovic, Nurvitadhi et al.) studies *shared* LLCs for
//! these workloads.

use cmpsim_bench::{finish_grid, results_json, try_run_grid, Options};
use cmpsim_core::experiment::LlcOrganizationStudy;
use cmpsim_core::grid::GridSpec;
use cmpsim_core::report::TextTable;

fn main() {
    let opts = Options::from_args();
    let study = LlcOrganizationStudy::new(opts.scale, opts.seed);
    println!(
        "Ablation: shared vs private LLC organization, 8 cores, equal total \
         capacity (scale {})\n",
        opts.scale
    );
    let spec = GridSpec::new(
        "ablation_llc_organization",
        opts.scale,
        opts.seed,
        opts.workloads.clone(),
    );
    let broker = opts.capture_broker();
    let cell_broker = broker.clone();
    let report = try_run_grid(&opts, &spec, move |w| {
        Ok(results_json::llc_organization_result(
            &study.run(&cell_broker, w)?,
        ))
    });
    let results: Vec<_> = report
        .payloads()
        .filter_map(results_json::parse_llc_organization_result)
        .collect();
    let mut t = TextTable::new(["Workload", "Shared MPKI", "Private MPKI", "Private/Shared"]);
    for r in &results {
        t.row([
            r.workload.to_string(),
            format!("{:.3}", r.shared_mpki),
            format!("{:.3}", r.private_mpki),
            format!("{:.2}x", r.private_penalty()),
        ]);
    }
    println!("{}", t.render());
    opts.emit_json_traced("ablation_llc_organization", &report, broker.counters());
    finish_grid(&opts, &spec, &report);
}
