//! Ablation E-X1: sharing-category validation — MPKI growth from 1 to 8
//! threads at a fixed LLC separates §4.3's category (a) (shared primary
//! structure) from category (b) (per-thread private data).

use cmpsim_bench::{finish_grid, results_json, try_run_grid, Options};
use cmpsim_core::experiment::SharingStudy;
use cmpsim_core::grid::GridSpec;
use cmpsim_core::report::render_sharing;

fn main() {
    let opts = Options::from_args();
    let study = SharingStudy::new(opts.scale, opts.seed);
    println!(
        "Ablation: sharing categories via thread-scaling miss growth (scale {})\n",
        opts.scale
    );
    let spec = GridSpec::new(
        "ablation_sharing",
        opts.scale,
        opts.seed,
        opts.workloads.clone(),
    );
    let broker = opts.capture_broker();
    let cell_broker = broker.clone();
    let report = try_run_grid(&opts, &spec, move |w| {
        Ok(results_json::sharing_result(&study.run(&cell_broker, w)?))
    });
    let results: Vec<_> = report
        .payloads()
        .filter_map(results_json::parse_sharing_result)
        .collect();
    println!("{}", render_sharing(&results));
    opts.emit_json_traced("ablation_sharing", &report, broker.counters());
    finish_grid(&opts, &spec, &report);
}
