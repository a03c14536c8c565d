#![warn(missing_docs)]

//! Telemetry for the co-simulation stack: structured counters, phase
//! timelines, wall-clock spans, run manifests, and JSON/CSV export —
//! with **zero external dependencies**.
//!
//! The paper's methodology *is* observability: Dragonhead's collection
//! board reports counters to the host every 500 µs and attributes every
//! bus transaction to the virtual core that issued it. This crate is the
//! software home for that data once it reaches the host:
//!
//! * [`MetricRegistry`] — labeled counter/gauge/histogram series
//!   (`core`, `bank`, `workload`, ... labels),
//! * [`Timeline`] — per-interval derived metrics (interval MPKI, miss
//!   ratio, bus utilization) from cumulative snapshots,
//! * [`RunManifest`] — provenance (config, scale, seed, version, wall
//!   time) emitted next to every result,
//! * [`JsonValue`] — a small JSON document model with serializer *and*
//!   parser, plus CSV exporters on each component,
//! * [`trace`] — the flight recorder: per-worker event lanes, causal
//!   spans around every pipeline stage, and a Chrome-trace-event
//!   exporter ([`chrome`]) for Perfetto timelines of whole grid runs,
//! * [`TelemetryReport`] — the bundle of all of the above as one
//!   document.
//!
//! # Example
//!
//! ```
//! use cmpsim_telemetry::{Labels, MetricRegistry, RunManifest, TelemetryReport};
//!
//! let mut report = TelemetryReport::new(RunManifest::new("demo", env!("CARGO_PKG_VERSION")));
//! report
//!     .metrics
//!     .count("llc_misses", &Labels::none().with("core", "0"), 17);
//! report.timeline.push_cumulative(50_000, 120_000, 900, 17);
//! let doc = report.to_json();
//! assert!(doc.get("manifest").is_some());
//! assert_eq!(doc.get("metrics").unwrap().as_array().unwrap().len(), 1);
//! ```

pub mod chrome;
pub mod manifest;
pub mod registry;
mod spans;
pub mod timeline;
pub mod trace;
pub mod value;

pub use chrome::chrome_trace;
pub use manifest::{scrub_path, RunManifest, SCHEMA_VERSION};
pub use registry::{Histogram, Labels, Metric, MetricRegistry, MetricValue};
pub use timeline::{IntervalRecord, Timeline};
pub use trace::{FlightRecorder, Lane, TraceEvent, TraceSummary};
pub use value::{parse, JsonParseError, JsonValue};

use std::io::Write as _;
use std::path::Path;

/// Everything one run exports: manifest + metrics + timeline + spans.
#[derive(Debug)]
pub struct TelemetryReport {
    /// Run provenance.
    pub manifest: RunManifest,
    /// Counter/gauge/histogram series.
    pub metrics: MetricRegistry,
    /// Per-interval sampler series.
    pub timeline: Timeline,
    /// Self-profiling spans, as the flight recorder recorded them
    /// (exported as `{name, wall_ms, depth}` rows).
    pub spans: Vec<TraceEvent>,
}

impl TelemetryReport {
    /// An empty report around a manifest.
    pub fn new(manifest: RunManifest) -> Self {
        TelemetryReport {
            manifest,
            metrics: MetricRegistry::new(),
            timeline: Timeline::new(),
            spans: Vec::new(),
        }
    }

    /// The full document.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("manifest", self.manifest.to_json()),
            ("metrics", self.metrics.to_json()),
            ("intervals", self.timeline.to_json()),
            ("spans", spans::span_rows(&self.spans)),
        ])
    }

    /// Writes the pretty-printed document to `path`, creating parent
    /// directories as needed.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        write_json_file(path, &self.to_json())
    }
}

/// Writes any JSON document to `path` (pretty-printed, trailing
/// newline), creating parent directories as needed.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_json_file(path: &Path, doc: &JsonValue) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut f = std::fs::File::create(path)?;
    f.write_all(doc.to_json_pretty().as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_document_shape() {
        let mut r =
            TelemetryReport::new(RunManifest::new("t", "0.0.0").with_scale_seed("1/256", 1));
        r.metrics.count("x", &Labels::none(), 1);
        let rec = FlightRecorder::new();
        {
            let _ctx = trace::install(rec.lane("run"), "", 0);
            let _outer = trace::span("cosim");
            let _inner = trace::span("replay");
            let _leaf = trace::span("simulate");
            trace::instant("marker", Vec::new());
        }
        r.spans = rec.drain_sorted();
        let doc = r.to_json();
        for key in ["manifest", "metrics", "intervals", "spans"] {
            assert!(doc.get(key).is_some(), "missing {key}");
        }
        // One row per span (the marker is not one), nested by parent.
        let spans = doc.get("spans").and_then(JsonValue::as_array).unwrap();
        let row = |i: usize| (spans[i].get("name"), spans[i].get("depth"));
        assert_eq!(spans.len(), 3);
        assert_eq!(row(2), (Some(&"simulate".into()), Some(&JsonValue::U64(2))));
        assert_eq!(row(1), (Some(&"replay".into()), Some(&JsonValue::U64(1))));
        // The serialized document parses back to itself.
        assert_eq!(value::parse(&doc.to_json()).unwrap(), doc);
    }

    #[test]
    fn write_json_creates_directories() {
        let dir = std::env::temp_dir().join("cmpsim_telemetry_test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested/out.json");
        write_json_file(&path, &JsonValue::object([("ok", JsonValue::Bool(true))])).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            value::parse(&text).unwrap().get("ok"),
            Some(&JsonValue::Bool(true))
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
