//! Regenerates Table 1: input parameters and dataset sizes for every
//! workload, as instantiated at the chosen scale.

use cmpsim_bench::{finish_grid, try_run_grid, Options};
use cmpsim_core::grid::GridSpec;
use cmpsim_core::report::{human_bytes, TextTable};
use cmpsim_core::tel::JsonValue;

fn main() {
    let opts = Options::from_args();
    println!(
        "Table 1: input parameters and datasets (scale {})\n",
        opts.scale
    );
    let spec = GridSpec::new(
        "table1_inputs",
        opts.scale,
        opts.seed,
        opts.workloads.clone(),
    );
    let (scale, seed) = (opts.scale, opts.seed);
    let report = try_run_grid(&opts, &spec, move |id| {
        let wl = id.build(scale, seed);
        let d = wl.dataset();
        Ok(JsonValue::object([
            ("workload", JsonValue::from(id.to_string())),
            ("parameters", JsonValue::from(d.parameters.clone())),
            ("input_bytes", JsonValue::U64(d.input_bytes)),
            ("provenance", JsonValue::from(d.provenance.clone())),
        ]))
    });
    let mut t = TextTable::new(["Workload", "Parameters", "Size of Data Input", "Provenance"]);
    for row in report.payloads() {
        let field = |k: &str| row.get(k).and_then(JsonValue::as_str).unwrap_or("?");
        t.row([
            field("workload").to_owned(),
            field("parameters").to_owned(),
            human_bytes(
                row.get("input_bytes")
                    .and_then(JsonValue::as_u64)
                    .unwrap_or(0),
            ),
            field("provenance").to_owned(),
        ]);
    }
    println!("{}", t.render());
    opts.emit_json_runner("table1_inputs", &report);
    finish_grid(&opts, &spec, &report);
}
