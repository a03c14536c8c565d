//! Regenerates Figure 7: line-size sensitivity on the LCMP with a 32 MB
//! LLC (scaled), lines from 64 B to 4096 B.

use cmpsim_bench::{finish_grid, results_json, try_run_grid, Options};
use cmpsim_core::experiment::{paper_line_sizes, LineSizeStudy};
use cmpsim_core::grid::{join_list, GridSpec};
use cmpsim_core::report::render_line_size_figure;

fn main() {
    let opts = Options::from_args();
    let study = LineSizeStudy::new(opts.scale, opts.seed);
    println!(
        "Figure 7: line-size sensitivity on LCMP (32 cores), 32MB-class LLC, scale {}\n",
        opts.scale
    );
    let spec = GridSpec::new(
        "fig7_linesize",
        opts.scale,
        opts.seed,
        opts.workloads.clone(),
    )
    .param("lines", join_list(&paper_line_sizes()));
    let broker = opts.capture_broker();
    let cell_broker = broker.clone();
    let report = try_run_grid(&opts, &spec, move |w| {
        Ok(results_json::line_size_curve(&study.run(&cell_broker, w)?))
    });
    let curves: Vec<_> = report
        .payloads()
        .filter_map(results_json::parse_line_size_curve)
        .collect();
    println!("{}", render_line_size_figure(&curves));
    println!("improvement factor 64B -> 256B (paper: ~3-4x for SHOT, MDS, SNP, SVM-RFE):");
    for c in &curves {
        println!(
            "  {:9} {:.2}x (64->256B), {:.2}x (64->1024B)",
            c.workload.to_string(),
            c.improvement_at(256),
            c.improvement_at(1024)
        );
    }
    opts.emit_json_traced("fig7_linesize", &report, broker.counters());
    finish_grid(&opts, &spec, &report);
}
