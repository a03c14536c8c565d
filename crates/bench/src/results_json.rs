//! Converters between study result structs and the JSON `results`
//! payload each binary writes next to its text output.
//!
//! The shapes mirror the text tables one-to-one: one array entry per
//! curve/row, numeric fields unrounded (the text output rounds for
//! alignment; the JSON twin keeps full precision for plotting).
//!
//! Each converter has a `parse_*` inverse. The binaries run every grid
//! cell through the experiment runner, which may serve a cell from the
//! result cache as a JSON payload — so the text renderers always work
//! from *parsed payloads*, never from in-memory structs the cache would
//! bypass. `JsonValue`'s float encoding is shortest-round-trip, so the
//! parse is exact and a warm run prints the same bytes as a cold one.

use cmpsim_cache::ReplacementPolicy;
use cmpsim_core::experiment::{
    CachePoint, CacheSizeCurve, LinePoint, LineSizeCurve, LlcOrganizationResult, PhasePoint,
    PrefetchResult, SharingResult, Table2Row,
};
use cmpsim_core::WorkloadId;
use cmpsim_telemetry::JsonValue;

/// One Figure 4/5/6 entry: a per-workload MPKI-vs-size curve with the
/// derived working-set knee.
pub fn cache_size_curve(c: &CacheSizeCurve) -> JsonValue {
    JsonValue::object([
        ("workload", JsonValue::from(c.workload.to_string())),
        ("cmp", JsonValue::from(c.cmp.to_string())),
        ("cores", JsonValue::from(c.cmp.cores() as u64)),
        (
            "points",
            JsonValue::Array(
                c.points
                    .iter()
                    .map(|p| {
                        JsonValue::object([
                            ("llc_bytes", JsonValue::U64(p.llc_bytes)),
                            ("mpki", JsonValue::F64(p.mpki)),
                            ("misses", JsonValue::U64(p.misses)),
                            ("instructions", JsonValue::U64(p.instructions)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "knee_bytes",
            c.knee(0.5).map_or(JsonValue::Null, JsonValue::U64),
        ),
        ("flatness", JsonValue::F64(c.flatness())),
    ])
}

/// Figure 4/5/6 payload over many curves.
pub fn cache_size_curves(curves: &[CacheSizeCurve]) -> JsonValue {
    JsonValue::Array(curves.iter().map(cache_size_curve).collect())
}

/// Parses one [`cache_size_curve`] payload back (the derived
/// knee/flatness fields are recomputed from the points on demand).
pub fn parse_cache_size_curve(v: &JsonValue) -> Option<CacheSizeCurve> {
    Some(CacheSizeCurve {
        workload: v.get("workload")?.as_str()?.parse().ok()?,
        cmp: v.get("cmp")?.as_str()?.parse().ok()?,
        points: v
            .get("points")?
            .as_array()?
            .iter()
            .map(|p| {
                Some(CachePoint {
                    llc_bytes: p.get("llc_bytes")?.as_u64()?,
                    mpki: p.get("mpki")?.as_f64()?,
                    misses: p.get("misses")?.as_u64()?,
                    instructions: p.get("instructions")?.as_u64()?,
                })
            })
            .collect::<Option<_>>()?,
    })
}

/// One Figure 7 entry: a per-workload MPKI-vs-line-size curve.
pub fn line_size_curve(c: &LineSizeCurve) -> JsonValue {
    JsonValue::object([
        ("workload", JsonValue::from(c.workload.to_string())),
        (
            "points",
            JsonValue::Array(
                c.points
                    .iter()
                    .map(|p| {
                        JsonValue::object([
                            ("line_bytes", JsonValue::U64(p.line_bytes)),
                            ("mpki", JsonValue::F64(p.mpki)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("improvement_256", JsonValue::F64(c.improvement_at(256))),
        ("improvement_1024", JsonValue::F64(c.improvement_at(1024))),
    ])
}

/// Parses one [`line_size_curve`] payload back.
pub fn parse_line_size_curve(v: &JsonValue) -> Option<LineSizeCurve> {
    Some(LineSizeCurve {
        workload: v.get("workload")?.as_str()?.parse().ok()?,
        points: v
            .get("points")?
            .as_array()?
            .iter()
            .map(|p| {
                Some(LinePoint {
                    line_bytes: p.get("line_bytes")?.as_u64()?,
                    mpki: p.get("mpki")?.as_f64()?,
                })
            })
            .collect::<Option<_>>()?,
    })
}

/// One Figure 8 entry: prefetch speedups for a workload.
pub fn prefetch_result(r: &PrefetchResult) -> JsonValue {
    JsonValue::object([
        ("workload", JsonValue::from(r.workload.to_string())),
        ("serial_speedup", JsonValue::F64(r.serial_speedup)),
        ("parallel_speedup", JsonValue::F64(r.parallel_speedup)),
        (
            "parallel_utilization",
            JsonValue::F64(r.parallel_utilization),
        ),
    ])
}

/// Parses one [`prefetch_result`] payload back.
pub fn parse_prefetch_result(v: &JsonValue) -> Option<PrefetchResult> {
    Some(PrefetchResult {
        workload: v.get("workload")?.as_str()?.parse().ok()?,
        serial_speedup: v.get("serial_speedup")?.as_f64()?,
        parallel_speedup: v.get("parallel_speedup")?.as_f64()?,
        parallel_utilization: v.get("parallel_utilization")?.as_f64()?,
    })
}

/// One Table 2 entry: single-threaded characteristics of a workload.
pub fn table2_row(r: &Table2Row) -> JsonValue {
    JsonValue::object([
        ("workload", JsonValue::from(r.workload.to_string())),
        ("ipc", JsonValue::F64(r.ipc)),
        ("instructions", JsonValue::U64(r.instructions)),
        ("memory_fraction", JsonValue::F64(r.memory_fraction)),
        ("read_fraction", JsonValue::F64(r.read_fraction)),
        ("dl1_apki", JsonValue::F64(r.dl1_apki)),
        ("dl1_mpki", JsonValue::F64(r.dl1_mpki)),
        ("dl2_mpki", JsonValue::F64(r.dl2_mpki)),
    ])
}

/// Parses one [`table2_row`] payload back.
pub fn parse_table2_row(v: &JsonValue) -> Option<Table2Row> {
    Some(Table2Row {
        workload: v.get("workload")?.as_str()?.parse().ok()?,
        ipc: v.get("ipc")?.as_f64()?,
        instructions: v.get("instructions")?.as_u64()?,
        memory_fraction: v.get("memory_fraction")?.as_f64()?,
        read_fraction: v.get("read_fraction")?.as_f64()?,
        dl1_apki: v.get("dl1_apki")?.as_f64()?,
        dl1_mpki: v.get("dl1_mpki")?.as_f64()?,
        dl2_mpki: v.get("dl2_mpki")?.as_f64()?,
    })
}

/// One sharing-ablation entry.
pub fn sharing_result(r: &SharingResult) -> JsonValue {
    JsonValue::object([
        ("workload", JsonValue::from(r.workload.to_string())),
        ("miss_growth_8x", JsonValue::F64(r.miss_growth_8x)),
        (
            "paper_category_shared",
            JsonValue::Bool(r.paper_category_shared),
        ),
    ])
}

/// Parses one [`sharing_result`] payload back.
pub fn parse_sharing_result(v: &JsonValue) -> Option<SharingResult> {
    Some(SharingResult {
        workload: v.get("workload")?.as_str()?.parse().ok()?,
        miss_growth_8x: v.get("miss_growth_8x")?.as_f64()?,
        paper_category_shared: v.get("paper_category_shared")?.as_bool()?,
    })
}

/// One replacement-ablation entry: a workload's size sweep under every
/// policy.
pub fn replacement_sweep(
    workload: WorkloadId,
    curves: &[(ReplacementPolicy, CacheSizeCurve)],
) -> JsonValue {
    JsonValue::object([
        ("workload", JsonValue::from(workload.to_string())),
        (
            "policies",
            JsonValue::Array(
                curves
                    .iter()
                    .map(|(p, c)| {
                        JsonValue::object([
                            ("policy", JsonValue::from(p.to_string())),
                            ("curve", cache_size_curves(std::slice::from_ref(c))),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn parse_policy(s: &str) -> Option<ReplacementPolicy> {
    match s {
        "LRU" => Some(ReplacementPolicy::Lru),
        "PLRU" => Some(ReplacementPolicy::TreePlru),
        "FIFO" => Some(ReplacementPolicy::Fifo),
        "RAND" => Some(ReplacementPolicy::Random),
        _ => None,
    }
}

/// Parses one [`replacement_sweep`] payload back.
pub fn parse_replacement_sweep(
    v: &JsonValue,
) -> Option<(WorkloadId, Vec<(ReplacementPolicy, CacheSizeCurve)>)> {
    let workload = v.get("workload")?.as_str()?.parse().ok()?;
    let curves = v
        .get("policies")?
        .as_array()?
        .iter()
        .map(|e| {
            let policy = parse_policy(e.get("policy")?.as_str()?)?;
            let curve = parse_cache_size_curve(e.get("curve")?.as_array()?.first()?)?;
            Some((policy, curve))
        })
        .collect::<Option<_>>()?;
    Some((workload, curves))
}

/// One shared-vs-private LLC organization entry.
pub fn llc_organization_result(r: &LlcOrganizationResult) -> JsonValue {
    JsonValue::object([
        ("workload", JsonValue::from(r.workload.to_string())),
        ("shared_mpki", JsonValue::F64(r.shared_mpki)),
        ("private_mpki", JsonValue::F64(r.private_mpki)),
        ("private_penalty", JsonValue::F64(r.private_penalty())),
    ])
}

/// Parses one [`llc_organization_result`] payload back (the penalty
/// ratio is recomputed from the two MPKIs).
pub fn parse_llc_organization_result(v: &JsonValue) -> Option<LlcOrganizationResult> {
    Some(LlcOrganizationResult {
        workload: v.get("workload")?.as_str()?.parse().ok()?,
        shared_mpki: v.get("shared_mpki")?.as_f64()?,
        private_mpki: v.get("private_mpki")?.as_f64()?,
    })
}

/// One core-count projection entry: MPKI at each core count.
pub fn projection_entry(workload: WorkloadId, points: &[(usize, f64)]) -> JsonValue {
    JsonValue::object([
        ("workload", JsonValue::from(workload.to_string())),
        (
            "points",
            JsonValue::Array(
                points
                    .iter()
                    .map(|&(cores, mpki)| {
                        JsonValue::object([
                            ("cores", JsonValue::from(cores as u64)),
                            ("mpki", JsonValue::F64(mpki)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Parses one [`projection_entry`] payload back.
pub fn parse_projection_entry(v: &JsonValue) -> Option<(WorkloadId, Vec<(usize, f64)>)> {
    let workload = v.get("workload")?.as_str()?.parse().ok()?;
    let points = v
        .get("points")?
        .as_array()?
        .iter()
        .map(|p| Some((p.get("cores")?.as_u64()? as usize, p.get("mpki")?.as_f64()?)))
        .collect::<Option<_>>()?;
    Some((workload, points))
}

/// One phase-behavior entry: the per-interval MPKI series of a
/// workload, as parallel `cycles` / `interval_mpki` arrays (a long
/// sampler series as one object per point would dominate the document).
/// MPKI is rounded to 1e-6, which is far below the model's fidelity.
/// A memory-stalled interval (zero instructions retired, NaN MPKI)
/// serializes as JSON `null` and parses back as NaN.
pub fn phase_entry(workload: WorkloadId, points: &[PhasePoint]) -> JsonValue {
    JsonValue::object([
        ("workload", JsonValue::from(workload.to_string())),
        (
            "cycles",
            JsonValue::Array(points.iter().map(|p| JsonValue::U64(p.cycle)).collect()),
        ),
        (
            "interval_mpki",
            JsonValue::Array(
                points
                    .iter()
                    .map(|p| JsonValue::F64((p.interval_mpki * 1e6).round() / 1e6))
                    .collect(),
            ),
        ),
    ])
}

/// Parses one [`phase_entry`] payload back (MPKI at the payload's 1e-6
/// granularity).
pub fn parse_phase_entry(v: &JsonValue) -> Option<(WorkloadId, Vec<PhasePoint>)> {
    let workload = v.get("workload")?.as_str()?.parse().ok()?;
    let cycles = v.get("cycles")?.as_array()?;
    let mpki = v.get("interval_mpki")?.as_array()?;
    if cycles.len() != mpki.len() {
        return None;
    }
    let points = cycles
        .iter()
        .zip(mpki)
        .map(|(c, m)| {
            Some(PhasePoint {
                cycle: c.as_u64()?,
                // NaN has no JSON spelling; `phase_entry` wrote it as
                // null, so null reads back as NaN — not as a lost point.
                interval_mpki: match m {
                    JsonValue::Null => f64::NAN,
                    other => other.as_f64()?,
                },
            })
        })
        .collect::<Option<_>>()?;
    Some((workload, points))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmpsim_core::experiment::{CachePoint, CmpClass};

    fn curve() -> CacheSizeCurve {
        CacheSizeCurve {
            workload: WorkloadId::Fimi,
            cmp: CmpClass::Small,
            points: vec![
                CachePoint {
                    llc_bytes: 1 << 20,
                    mpki: 4.0,
                    misses: 400,
                    instructions: 100_000,
                },
                CachePoint {
                    llc_bytes: 1 << 21,
                    mpki: 1.0,
                    misses: 100,
                    instructions: 100_000,
                },
            ],
        }
    }

    #[test]
    fn cache_size_payload_shape() {
        let j = cache_size_curves(&[curve()]);
        let entry = &j.as_array().unwrap()[0];
        assert_eq!(entry.get("workload").unwrap().as_str(), Some("FIMI"));
        assert_eq!(entry.get("cores").unwrap().as_u64(), Some(8));
        let pts = entry.get("points").unwrap().as_array().unwrap();
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].get("llc_bytes").unwrap().as_u64(), Some(1 << 20));
        // The knee (MPKI halves) is at the 2 MB point.
        assert_eq!(entry.get("knee_bytes").unwrap().as_u64(), Some(1 << 21));
    }

    #[test]
    fn payloads_serialize_and_reparse() {
        let docs = [
            cache_size_curves(&[curve()]),
            projection_entry(WorkloadId::Mds, &[(8, 2.0), (16, 3.0)]),
            phase_entry(
                WorkloadId::Snp,
                &[PhasePoint {
                    cycle: 50_000,
                    interval_mpki: 1.25,
                }],
            ),
        ];
        for d in docs {
            assert_eq!(cmpsim_telemetry::parse(&d.to_json()).unwrap(), d);
        }
    }

    #[test]
    fn converters_invert_exactly() {
        // Awkward floats (shortest-round-trip encoded) survive the
        // struct -> JSON -> struct round trip bit-for-bit.
        let c = CacheSizeCurve {
            points: vec![CachePoint {
                llc_bytes: 1 << 20,
                mpki: 0.1 + 0.2,
                misses: 3,
                instructions: 10_007,
            }],
            ..curve()
        };
        assert_eq!(parse_cache_size_curve(&cache_size_curve(&c)).unwrap(), c);

        let l = LineSizeCurve {
            workload: WorkloadId::Shot,
            points: vec![
                LinePoint {
                    line_bytes: 64,
                    mpki: 1.0 / 3.0,
                },
                LinePoint {
                    line_bytes: 4096,
                    mpki: 2e-7,
                },
            ],
        };
        assert_eq!(parse_line_size_curve(&line_size_curve(&l)).unwrap(), l);

        let p = PrefetchResult {
            workload: WorkloadId::Mds,
            serial_speedup: 1.07,
            parallel_speedup: 1.33,
            parallel_utilization: 0.91,
        };
        assert_eq!(parse_prefetch_result(&prefetch_result(&p)).unwrap(), p);

        let t = Table2Row {
            workload: WorkloadId::Plsa,
            ipc: 1.08,
            instructions: 123_456_789,
            memory_fraction: 0.831,
            read_fraction: 0.7,
            dl1_apki: 500.1,
            dl1_mpki: 9.9,
            dl2_mpki: 0.18,
        };
        assert_eq!(parse_table2_row(&table2_row(&t)).unwrap(), t);

        let s = SharingResult {
            workload: WorkloadId::Fimi,
            miss_growth_8x: 3.7,
            paper_category_shared: false,
        };
        assert_eq!(parse_sharing_result(&sharing_result(&s)).unwrap(), s);

        let o = LlcOrganizationResult {
            workload: WorkloadId::Snp,
            shared_mpki: 2.5,
            private_mpki: 4.25,
        };
        assert_eq!(
            parse_llc_organization_result(&llc_organization_result(&o)).unwrap(),
            o
        );

        let sweep = vec![
            (ReplacementPolicy::Lru, c.clone()),
            (ReplacementPolicy::Random, curve()),
        ];
        let parsed = parse_replacement_sweep(&replacement_sweep(WorkloadId::Viewtype, &sweep));
        assert_eq!(parsed.unwrap(), (WorkloadId::Viewtype, sweep));

        let proj = vec![(8usize, 2.0), (128, 0.125)];
        assert_eq!(
            parse_projection_entry(&projection_entry(WorkloadId::Rsearch, &proj)).unwrap(),
            (WorkloadId::Rsearch, proj)
        );

        // Phase MPKI is quantized to 1e-6 by design; use values on the
        // grid so equality is exact.
        let phase = vec![
            PhasePoint {
                cycle: 50_000,
                interval_mpki: 1.25,
            },
            PhasePoint {
                cycle: 100_000,
                interval_mpki: 0.000_001,
            },
        ];
        assert_eq!(
            parse_phase_entry(&phase_entry(WorkloadId::Snp, &phase)).unwrap(),
            (WorkloadId::Snp, phase)
        );
    }

    #[test]
    fn memory_stalled_phase_interval_survives_the_json_twin() {
        // A stalled interval's NaN MPKI has no JSON spelling: it writes
        // as null and must read back as NaN, not vanish or become 0.
        let phase = vec![
            PhasePoint {
                cycle: 50_000,
                interval_mpki: f64::NAN,
            },
            PhasePoint {
                cycle: 100_000,
                interval_mpki: 1.25,
            },
        ];
        let doc = phase_entry(WorkloadId::Fimi, &phase);
        assert!(doc.to_json().contains("null"), "{}", doc.to_json());
        let (w, parsed) = parse_phase_entry(&doc).unwrap();
        assert_eq!(w, WorkloadId::Fimi);
        assert_eq!(parsed.len(), 2);
        assert!(parsed[0].interval_mpki.is_nan());
        assert_eq!(parsed[0].cycle, 50_000);
        assert_eq!(parsed[1].interval_mpki, 1.25);
    }

    #[test]
    fn parse_rejects_malformed_payloads() {
        assert!(parse_cache_size_curve(&JsonValue::Null).is_none());
        assert!(
            parse_table2_row(&JsonValue::object([("workload", JsonValue::from("FIMI"))])).is_none()
        );
        assert!(parse_policy("MRU").is_none());
    }
}
