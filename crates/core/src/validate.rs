//! Run-level self-validation: the invariant catalogue a finished
//! [`CoSimReport`] must satisfy before its numbers are trusted.
//!
//! The paper's rig cross-checked itself constantly — counter messages
//! synchronize the emulator to the simulator, and the host's 500 µs
//! sampling gives an independent view of the same counters. This module
//! is the software analogue: every invariant relates two *independently
//! produced* numbers, so a corrupted channel, a decoder bug, or a broken
//! counter shows up as a disagreement instead of a silently wrong figure.
//!
//! The catalogue:
//!
//! | name | relation |
//! |------|----------|
//! | `llc_conservation` | LLC hits + misses = accesses |
//! | `core_retirement` | Σ per-core instructions = run total |
//! | `llc_attribution` | Σ per-core LLC accesses = LLC accesses |
//! | `llc_occupancy` | resident lines ≤ capacity lines |
//! | `samples_monotone` | sample cycles strictly increase |
//! | `sample_count` | samples ≈ cycles / period (±1 after flush) |
//! | `mpki_sane` | MPKI is finite and non-negative |

use crate::cosim::CoSimReport;
use crate::error::CoSimError;

/// Validates a finished report against the invariant catalogue.
#[derive(Debug, Clone, Copy)]
pub struct Validator {
    /// The sampling period the run was configured with (needed to relate
    /// sample count to total cycles; the report does not carry it).
    pub sample_period: u64,
}

impl Validator {
    /// A validator for runs sampled every `sample_period` cycles.
    pub fn new(sample_period: u64) -> Self {
        Validator { sample_period }
    }

    /// Checks every invariant, returning all violations (empty = valid).
    pub fn violations(&self, r: &CoSimReport) -> Vec<CoSimError> {
        let mut out = Vec::new();
        let mut check = |ok: bool, name: &str, detail: String| {
            if !ok {
                out.push(CoSimError::invariant(name, detail));
            }
        };

        check(
            r.llc.hits + r.llc.misses == r.llc.accesses,
            "llc_conservation",
            format!(
                "hits {} + misses {} != accesses {}",
                r.llc.hits, r.llc.misses, r.llc.accesses
            ),
        );

        let core_sum: u64 = r.run.per_core.iter().map(|c| c.instructions).sum();
        check(
            core_sum == r.run.instructions,
            "core_retirement",
            format!(
                "per-core instructions sum {core_sum} != run total {}",
                r.run.instructions
            ),
        );

        let llc_sum: u64 = r.per_core_llc.iter().map(|c| c.accesses).sum();
        check(
            llc_sum == r.llc.accesses,
            "llc_attribution",
            format!(
                "per-core LLC accesses sum {llc_sum} != total {}",
                r.llc.accesses
            ),
        );

        let capacity_lines = r.llc_bytes / r.llc_line_bytes.max(1);
        check(
            r.llc_resident_lines <= capacity_lines,
            "llc_occupancy",
            format!(
                "{} resident lines exceed the {capacity_lines}-line capacity",
                r.llc_resident_lines
            ),
        );

        let monotone = r.samples.windows(2).all(|w| w[0].cycle < w[1].cycle);
        check(
            monotone,
            "samples_monotone",
            "sample cycles do not strictly increase".to_owned(),
        );

        // After the end-of-run flush the series holds one sample per
        // full period plus one closing sample for a partial tail; allow
        // ±1 so boundary-exact runs and jittered clocks both pass.
        let period = self.sample_period.max(1);
        let cycles = r.run.cycles;
        let expected = cycles / period + u64::from(!cycles.is_multiple_of(period) && cycles > 0);
        let actual = r.samples.len() as u64;
        check(
            actual.abs_diff(expected) <= 1,
            "sample_count",
            format!(
                "{actual} samples for {cycles} cycles at period {period} (expected ~{expected})"
            ),
        );

        check(
            r.mpki.is_finite() && r.mpki >= 0.0,
            "mpki_sane",
            format!("mpki = {}", r.mpki),
        );

        out
    }

    /// Checks every invariant, failing on the first violation.
    ///
    /// # Errors
    ///
    /// The first [`CoSimError::Invariant`] from the catalogue.
    pub fn validate(&self, r: &CoSimReport) -> Result<(), CoSimError> {
        match self.violations(r).into_iter().next() {
            Some(v) => Err(v),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cosim::{CoSimConfig, CoSimulation};
    use cmpsim_workloads::{Scale, WorkloadId};

    fn clean_report() -> (CoSimReport, Validator) {
        let mut cfg = CoSimConfig::new(2, 1 << 20).unwrap();
        cfg.sample_period = 1000;
        let sim = CoSimulation::new(cfg);
        let r = sim
            .replay(&sim.capture(WorkloadId::Fimi, Scale::tiny(), 1))
            .unwrap();
        (r, Validator::new(cfg.sample_period))
    }

    #[test]
    fn clean_run_satisfies_every_invariant() {
        let (r, v) = clean_report();
        assert_eq!(v.violations(&r), Vec::new());
        v.validate(&r).unwrap();
    }

    #[test]
    fn violations_name_the_broken_invariant() {
        let (mut r, v) = clean_report();
        r.llc.hits += 1;
        let errs = v.violations(&r);
        assert!(errs.iter().any(
            |e| matches!(e, CoSimError::Invariant { name, .. } if name == "llc_conservation")
        ));

        let (mut r, v) = clean_report();
        r.mpki = f64::NAN;
        assert!(matches!(
            v.validate(&r),
            Err(CoSimError::Invariant { name, .. }) if name == "mpki_sane"
        ));

        let (mut r, v) = clean_report();
        r.llc_resident_lines = r.llc_bytes; // lines can't outnumber bytes
        assert!(matches!(
            v.validate(&r),
            Err(CoSimError::Invariant { name, .. }) if name == "llc_occupancy"
        ));

        let (mut r, v) = clean_report();
        r.samples.truncate(r.samples.len() / 2);
        assert!(v
            .violations(&r)
            .iter()
            .any(|e| matches!(e, CoSimError::Invariant { name, .. } if name == "sample_count")));
    }
}
