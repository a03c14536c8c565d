//! The `spans` array of a run document, built from flight-recorder
//! spans.
//!
//! METICULOUS-style emulators publish where *their own* time goes
//! alongside the emulated counters; these rows do the same for the
//! simulate/emulate/report stages of a run.

use crate::trace::{EventKind, TraceEvent};
use crate::value::JsonValue;
use std::collections::HashMap;

/// One `{name, wall_ms, depth}` row per span of `events`, which must be
/// in start order (as [`FlightRecorder::drain_sorted`] returns them).
/// `depth` counts the span's ancestors among `events` (0 = top level).
///
/// [`FlightRecorder::drain_sorted`]: crate::FlightRecorder::drain_sorted
pub(crate) fn span_rows(events: &[TraceEvent]) -> JsonValue {
    let mut depths = HashMap::new();
    let mut rows = Vec::new();
    for e in events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Span { .. }))
    {
        let depth = depths.get(&e.parent).map_or(0, |d| d + 1);
        depths.insert(e.id, depth);
        rows.push(JsonValue::object([
            ("name", JsonValue::from(e.name.as_str())),
            ("wall_ms", JsonValue::F64(e.dur_ns() as f64 / 1e6)),
            ("depth", JsonValue::U64(depth)),
        ]));
    }
    JsonValue::Array(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{self, FlightRecorder};

    #[test]
    fn nesting_tracks_depth() {
        let rec = FlightRecorder::new();
        {
            let _ctx = trace::install(rec.lane("run"), "", 0);
            let _outer = trace::span("outer");
            let _inner = trace::span("inner");
        }
        let rows = span_rows(&rec.drain_sorted());
        let rows = rows.as_array().unwrap();
        let find = |name: &str| {
            rows.iter()
                .find(|r| r.get("name") == Some(&name.into()))
                .unwrap()
        };
        let (outer, inner) = (find("outer"), find("inner"));
        assert_eq!(inner.get("depth"), Some(&JsonValue::U64(1)));
        assert_eq!(outer.get("depth"), Some(&JsonValue::U64(0)));
        let ms = |r: &JsonValue| match r.get("wall_ms") {
            Some(JsonValue::F64(ms)) => *ms,
            other => panic!("wall_ms is {other:?}"),
        };
        assert!(ms(outer) >= ms(inner));
    }
}
