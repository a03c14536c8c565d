//! Regenerates Table 2: single-threaded workload characteristics on a
//! Pentium 4-class machine (8 KB DL1 + 512 KB L2, scaled).

use cmpsim_bench::{finish_grid, results_json, try_run_grid, Options};
use cmpsim_core::experiment::Table2Study;
use cmpsim_core::grid::GridSpec;
use cmpsim_core::report::render_table2;

fn main() {
    let opts = Options::from_args();
    println!(
        "Table 2: workload characteristics (single-threaded, P4-class, scale {})\n",
        opts.scale
    );
    let study = Table2Study::new(opts.scale, opts.seed);
    let spec = GridSpec::new(
        "table2_characteristics",
        opts.scale,
        opts.seed,
        opts.workloads.clone(),
    );
    let broker = opts.capture_broker();
    let cell_broker = broker.clone();
    let report = try_run_grid(&opts, &spec, move |w| {
        Ok(results_json::table2_row(&study.run(&cell_broker, w)?))
    });
    let rows: Vec<_> = report
        .payloads()
        .filter_map(results_json::parse_table2_row)
        .collect();
    println!("{}", render_table2(&rows));
    println!(
        "paper reference (measured on real hardware): IPC 0.06 (MDS) to 1.08 (PLSA);\n\
         %mem 42.3% (RSEARCH) to 83.1% (PLSA); DL2 MPKI 0.18 (PLSA) to 18.95 (MDS)."
    );
    opts.emit_json_traced("table2_characteristics", &report, broker.counters());
    finish_grid(&opts, &spec, &report);
}
