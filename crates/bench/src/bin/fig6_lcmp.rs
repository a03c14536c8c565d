//! Regenerates Figure 6: LLC misses per 1000 instructions vs cache size
//! on the large-scale CMP (32 cores), 64-byte lines.

use cmpsim_bench::{finish_grid, results_json, try_run_grid, Options};
use cmpsim_core::experiment::{CacheSizeStudy, CmpClass};
use cmpsim_core::grid::GridSpec;
use cmpsim_core::report::render_cache_size_figure;

fn main() {
    let opts = Options::from_args();
    let study = CacheSizeStudy::new(opts.scale, CmpClass::Large, opts.seed);
    println!(
        "Figure 6: LLC MPKI on LCMP (32 cores), 64B lines, scale {}\n",
        opts.scale
    );
    let spec = GridSpec::new("fig6_lcmp", opts.scale, opts.seed, opts.workloads.clone())
        .param("cmp", CmpClass::Large)
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
    opts.emit_json_traced("fig6_lcmp", &report, broker.counters());
    finish_grid(&opts, &spec, &report);
}
