//! Glue between the co-simulation and the telemetry layer: run
//! manifests capturing the full [`CoSimConfig`], and assembly of a
//! [`TelemetryReport`] document from a [`CoSimReport`].
//!
//! Every harness binary uses this module so that each text result gains
//! a machine-readable JSON twin with the same provenance.

use crate::cosim::{CoSimConfig, CoSimReport};
use cmpsim_telemetry::{JsonValue, RunManifest, TelemetryReport, TraceEvent};
use cmpsim_workloads::{Scale, WorkloadId};

/// Builds a manifest for one run of `experiment`, recording the full
/// co-simulation configuration as ordered `config` entries so the run
/// can be reproduced from the JSON alone.
pub fn manifest(
    experiment: &str,
    cfg: &CoSimConfig,
    workload: WorkloadId,
    scale: Scale,
    seed: u64,
) -> RunManifest {
    let mut m = RunManifest::new(experiment, env!("CARGO_PKG_VERSION"))
        .with_workloads([workload])
        .with_scale_seed(scale, seed)
        .config_entry("cores", cfg.cores as u64)
        .config_entry("llc_bytes", cfg.llc.size_bytes())
        .config_entry("llc_line_bytes", cfg.llc.line_bytes())
        .config_entry("llc_associativity", u64::from(cfg.llc.associativity()))
        .config_entry("llc_replacement", cfg.llc.replacement().to_string())
        .config_entry("banks", u64::from(cfg.banks))
        .config_entry("sample_period", cfg.sample_period)
        .config_entry("l1_bytes", cfg.hierarchy.l1.size_bytes())
        .config_entry("l2_bytes", cfg.hierarchy.l2.map_or(0, |l2| l2.size_bytes()));
    m = match cfg.prefetch {
        Some(pf) => m
            .config_entry("prefetch", true)
            .config_entry("prefetch_degree", u64::from(pf.degree))
            .config_entry("prefetch_distance", u64::from(pf.distance)),
        None => m.config_entry("prefetch", false),
    };
    m.config_entry(
        "host_noise",
        cfg.host_noise.map_or(JsonValue::Bool(false), |n| {
            JsonValue::U64(u64::from(n.transactions_per_switch))
        }),
    )
}

/// Assembles the full telemetry document for one co-simulated run: the
/// manifest, the counter registry the report carries, the per-interval
/// timeline derived from the 500 µs samples, and the stage spans the
/// flight recorder took of the run.
pub fn telemetry_report(
    manifest: RunManifest,
    report: &CoSimReport,
    spans: Vec<TraceEvent>,
) -> TelemetryReport {
    let mut t = TelemetryReport::new(manifest);
    t.metrics = report.metrics.clone();
    for s in &report.samples {
        t.timeline
            .push_cumulative(s.cycle, s.instructions, s.accesses, s.misses);
    }
    t.spans = spans;
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cosim::CoSimulation;

    #[test]
    fn manifest_records_full_config() {
        let cfg = CoSimConfig::new(8, 1 << 21).unwrap();
        let m = manifest("cmpsim", &cfg, WorkloadId::Fimi, Scale::tiny(), 7);
        assert_eq!(m.config_value("cores").unwrap().as_u64(), Some(8));
        assert_eq!(m.config_value("llc_bytes").unwrap().as_u64(), Some(1 << 21));
        assert_eq!(m.config_value("banks").unwrap().as_u64(), Some(4));
        assert_eq!(m.config_value("prefetch").unwrap().as_bool(), Some(false));
        assert_eq!(m.workloads, vec!["FIMI".to_string()]);
        assert_eq!(m.scale, Scale::tiny().to_string());
    }

    #[test]
    fn document_includes_interval_series() {
        let mut cfg = CoSimConfig::new(2, 1 << 20).unwrap();
        cfg.sample_period = 1000;
        let sim = CoSimulation::new(cfg);
        let rec = cmpsim_telemetry::FlightRecorder::new();
        let report = {
            let _ctx = cmpsim_telemetry::trace::install(rec.lane("run"), "", 0);
            let stream = sim.capture(WorkloadId::Fimi, Scale::tiny(), 7);
            sim.replay(&stream).unwrap()
        };
        let m = manifest("test", &cfg, WorkloadId::Fimi, Scale::tiny(), 7);
        let doc = telemetry_report(m, &report, rec.drain_sorted()).to_json();
        let intervals = doc.get("intervals").unwrap().as_array().unwrap();
        assert!(!intervals.is_empty());
        assert!(intervals[0].get("mpki").is_some());
        assert!(!doc.get("spans").unwrap().as_array().unwrap().is_empty());
        assert!(!doc.get("metrics").unwrap().as_array().unwrap().is_empty());
    }
}
