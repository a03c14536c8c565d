//! Regenerates Figure 4: LLC misses per 1000 instructions vs cache size
//! on the small-scale CMP (8 cores), 64-byte lines.

use cmpsim_bench::{finish_grid, results_json, try_run_grid, Options};
use cmpsim_core::experiment::{CacheSizeStudy, CmpClass};
use cmpsim_core::grid::GridSpec;
use cmpsim_core::report::{human_bytes, render_ascii_chart, render_cache_size_figure};

fn main() {
    let opts = Options::from_args();
    let study = CacheSizeStudy::new(opts.scale, CmpClass::Small, opts.seed);
    println!(
        "Figure 4: LLC MPKI on SCMP (8 cores), 64B lines, scale {}\n",
        opts.scale
    );
    let spec = GridSpec::new("fig4_scmp", opts.scale, opts.seed, opts.workloads.clone())
        .param("cmp", CmpClass::Small)
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
    let series: Vec<(String, Vec<(u64, f64)>)> = curves
        .iter()
        .map(|c| {
            (
                c.workload.to_string(),
                c.points.iter().map(|p| (p.llc_bytes, p.mpki)).collect(),
            )
        })
        .collect();
    println!("{}", render_ascii_chart(&series, 16));
    println!("working-set knees (MPKI halves):");
    for c in &curves {
        match c.knee(0.5) {
            Some(k) => println!("  {:9} {}", c.workload.to_string(), human_bytes(k)),
            None => println!("  {:9} none (streaming)", c.workload.to_string()),
        }
    }
    opts.emit_json_traced("fig4_scmp", &report, broker.counters());
    finish_grid(&opts, &spec, &report);
}
