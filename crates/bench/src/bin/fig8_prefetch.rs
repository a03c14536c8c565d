//! Regenerates Figure 8: performance gain from the stride hardware
//! prefetcher, serial vs 16-thread, on a Xeon-class timing model.

use cmpsim_bench::{finish_grid, results_json, try_run_grid, Options};
use cmpsim_core::experiment::PrefetchStudy;
use cmpsim_core::grid::GridSpec;
use cmpsim_core::report::render_prefetch_figure;

fn main() {
    let opts = Options::from_args();
    let study = PrefetchStudy::new(opts.scale, opts.seed);
    println!(
        "Figure 8: hardware-prefetch performance gain (stride prefetcher, scale {})\n",
        opts.scale
    );
    let spec = GridSpec::new(
        "fig8_prefetch",
        opts.scale,
        opts.seed,
        opts.workloads.clone(),
    )
    .param("prefetcher", "stride");
    let broker = opts.capture_broker();
    let cell_broker = broker.clone();
    let report = try_run_grid(&opts, &spec, move |w| {
        Ok(results_json::prefetch_result(&study.run(&cell_broker, w)?))
    });
    let results: Vec<_> = report
        .payloads()
        .filter_map(results_json::parse_prefetch_result)
        .collect();
    println!("{}", render_prefetch_figure(&results));
    println!(
        "paper reference: all workloads gain (up to ~33%); parallel gains exceed serial\n\
         for VIEWTYPE/FIMI/PLSA/RSEARCH/SHOT/SVM-RFE, while SNP and MDS gain less in\n\
         parallel because demand misses already saturate the bus."
    );
    opts.emit_json_traced("fig8_prefetch", &report, broker.counters());
    finish_grid(&opts, &spec, &report);
}
