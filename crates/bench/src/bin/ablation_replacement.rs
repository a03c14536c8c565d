//! Ablation E-X2: replacement policy — reruns the Figure 4 sweep under
//! LRU, tree-PLRU, FIFO, and random replacement to check the paper's
//! working-set conclusions are not LRU artifacts.

use cmpsim_bench::{finish_grid, results_json, try_run_grid, Options};
use cmpsim_core::experiment::ReplacementStudy;
use cmpsim_core::grid::GridSpec;
use cmpsim_core::report::{human_bytes, TextTable};

fn main() {
    let opts = Options::from_args();
    let study = ReplacementStudy {
        scale: opts.scale,
        seed: opts.seed,
    };
    println!(
        "Ablation: replacement policy on the SCMP size sweep (scale {})\n",
        opts.scale
    );
    let spec = GridSpec::new(
        "ablation_replacement",
        opts.scale,
        opts.seed,
        opts.workloads.clone(),
    )
    .param("policies", "LRU,PLRU,FIFO,RAND");
    let broker = opts.capture_broker();
    let cell_broker = broker.clone();
    let report = try_run_grid(&opts, &spec, move |w| {
        Ok(results_json::replacement_sweep(
            w,
            &study.run(&cell_broker, w)?,
        ))
    });
    for (w, curves) in report
        .payloads()
        .filter_map(results_json::parse_replacement_sweep)
    {
        println!("{w}:");
        let mut t = TextTable::new(
            std::iter::once("LLC size".to_owned()).chain(curves.iter().map(|(p, _)| p.to_string())),
        );
        let n = curves[0].1.points.len();
        for i in 0..n {
            t.row(
                std::iter::once(human_bytes(curves[0].1.points[i].llc_bytes)).chain(
                    curves
                        .iter()
                        .map(|(_, c)| format!("{:.3}", c.points[i].mpki)),
                ),
            );
        }
        println!("{}", t.render());
    }
    opts.emit_json_traced("ablation_replacement", &report, broker.counters());
    finish_grid(&opts, &spec, &report);
}
