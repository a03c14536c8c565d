//! Extension study: MPKI over time from Dragonhead's 500 µs samples —
//! the phase behavior §1 of the paper gives as the reason run-to-
//! completion co-simulation matters.

use cmpsim_bench::{finish_grid, results_json, try_run_grid, Options};
use cmpsim_core::experiment::PhaseStudy;
use cmpsim_core::grid::GridSpec;
use cmpsim_core::report::TextTable;

fn main() {
    let opts = Options::from_args();
    let study = PhaseStudy::new(opts.scale, opts.seed);
    println!(
        "Phase behavior: interval MPKI over time, 8 cores, 32MB-class LLC (scale {})\n",
        opts.scale
    );
    let spec = GridSpec::new(
        "phase_behavior",
        opts.scale,
        opts.seed,
        opts.workloads.clone(),
    );
    let broker = opts.capture_broker();
    let cell_broker = broker.clone();
    let report = try_run_grid(&opts, &spec, move |w| {
        Ok(results_json::phase_entry(w, &study.run(&cell_broker, w)?))
    });
    let mut t = TextTable::new([
        "Workload",
        "Samples",
        "Stalled",
        "Mean MPKI",
        "CoV",
        "Phases?",
    ]);
    for (w, series) in report
        .payloads()
        .filter_map(results_json::parse_phase_entry)
    {
        // A memory-stalled interval (no instructions retired) has NaN
        // MPKI; it is counted, not averaged — one stalled interval must
        // not poison the mean of the whole series.
        let finite: Vec<f64> = series
            .iter()
            .map(|p| p.interval_mpki)
            .filter(|v| v.is_finite())
            .collect();
        let stalled = series.len() - finite.len();
        let mean = if finite.is_empty() {
            0.0
        } else {
            finite.iter().sum::<f64>() / finite.len() as f64
        };
        let cv = PhaseStudy::phase_variability(&series);
        t.row([
            w.to_string(),
            series.len().to_string(),
            stalled.to_string(),
            format!("{mean:.3}"),
            format!("{cv:.2}"),
            if cv > 0.5 {
                "strong".to_owned()
            } else if cv > 0.15 {
                "moderate".to_owned()
            } else {
                "steady".to_owned()
            },
        ]);
    }
    println!("{}", t.render());
    opts.emit_json_traced("phase_behavior", &report, broker.counters());
    finish_grid(&opts, &spec, &report);
}
