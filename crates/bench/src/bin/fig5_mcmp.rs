//! Regenerates Figure 5: LLC misses per 1000 instructions vs cache size
//! on the medium-scale CMP (16 cores), 64-byte lines.

use cmpsim_bench::{finish_grid, results_json, try_run_grid, Options};
use cmpsim_core::experiment::{CacheSizeStudy, CmpClass};
use cmpsim_core::grid::GridSpec;
use cmpsim_core::report::render_cache_size_figure;

fn main() {
    let opts = Options::from_args();
    let study = CacheSizeStudy::new(opts.scale, CmpClass::Medium, opts.seed);
    println!(
        "Figure 5: LLC MPKI on MCMP (16 cores), 64B lines, scale {}\n",
        opts.scale
    );
    let spec = GridSpec::new("fig5_mcmp", opts.scale, opts.seed, opts.workloads.clone())
        .param("cmp", CmpClass::Medium)
        .param("line", 64);
    let broker = opts.capture_broker();
    let cell_broker = broker.clone();
    let report = try_run_grid(&opts, &spec, move |w| {
        Ok(results_json::cache_size_curve(&study.run(&cell_broker, w)?))
    });
    let curves: Vec<_> = report
        .payloads()
        .filter_map(results_json::parse_cache_size_curve)
        .collect();
    println!("{}", render_cache_size_figure(&curves));
    opts.emit_json_traced("fig5_mcmp", &report, broker.counters());
    finish_grid(&opts, &spec, &report);
}
