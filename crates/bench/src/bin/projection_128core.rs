//! Ablation E-X3: thread-scaling projection to 64 and 128 cores — §4.3
//! speculates that FIMI and RSEARCH working sets keep growing with core
//! count while MDS/SVM-RFE/SNP/PLSA stay flat "even on 128 cores".

use cmpsim_bench::{finish_grid, results_json, try_run_grid, Options};
use cmpsim_core::experiment::ProjectionStudy;
use cmpsim_core::grid::{join_list, GridSpec};
use cmpsim_core::report::TextTable;

fn main() {
    let opts = Options::from_args();
    let study = ProjectionStudy::new(opts.scale, opts.seed);
    let cores = [8usize, 16, 32, 64, 128];
    println!(
        "Projection: LLC MPKI at a fixed 32MB-class LLC, 8 to 128 cores (scale {})\n",
        opts.scale
    );
    let spec = GridSpec::new(
        "projection_128core",
        opts.scale,
        opts.seed,
        opts.workloads.clone(),
    )
    .param("cores", join_list(&cores));
    let broker = opts.capture_broker();
    let cell_broker = broker.clone();
    let report = try_run_grid(&opts, &spec, move |w| {
        Ok(results_json::projection_entry(
            w,
            &study.run(&cell_broker, w, &cores)?,
        ))
    });
    let mut t = TextTable::new(
        std::iter::once("Workload".to_owned()).chain(cores.iter().map(|c| format!("{c} cores"))),
    );
    for (w, series) in report
        .payloads()
        .filter_map(results_json::parse_projection_entry)
    {
        t.row(
            std::iter::once(w.to_string())
                .chain(series.iter().map(|(_, mpki)| format!("{mpki:.3}"))),
        );
    }
    println!("{}", t.render());
    opts.emit_json_traced("projection_128core", &report, broker.counters());
    finish_grid(&opts, &spec, &report);
}
