//! Grid execution: fanning a (workload × configuration) experiment grid
//! out over the [`cmpsim_runner`] worker pool.
//!
//! Every figure/table binary walks the same shape of grid — a list of
//! workloads, each run under one fixed [`CoSimConfig`](crate::CoSimConfig)
//! family (CMP class, cache-size sweep, line-size sweep, ...). A
//! [`GridSpec`] captures that identity; [`try_run_grid`] turns each workload
//! cell into an [`ExperimentJob`] whose cache key fingerprints
//! `{experiment, crate version, scale, seed, workload, config params}`,
//! so a warm re-run of an unchanged grid executes nothing and a config
//! or version change invalidates exactly the affected cells.

use cmpsim_runner::{
    ExperimentJob, JobError, JobKey, RunReport, Runner, RunnerConfig, CHILD_ENTRY,
};
use cmpsim_telemetry::JsonValue;
use cmpsim_workloads::{Scale, WorkloadId};
use std::fmt::Display;
use std::fmt::Write as _;

/// The identity of one experiment grid: which experiment, at which
/// scale/seed, over which workloads, under which configuration.
#[derive(Debug, Clone)]
pub struct GridSpec {
    /// Experiment name (the producing binary, e.g. `fig4_scmp`).
    pub experiment: String,
    /// Global scale knob.
    pub scale: Scale,
    /// Dataset seed.
    pub seed: u64,
    /// One grid cell per workload, in output order.
    pub workloads: Vec<WorkloadId>,
    /// Configuration identity shared by every cell (cores, cache
    /// sizes, line sizes, ...) — part of each cell's cache key.
    pub params: Vec<(String, String)>,
}

impl GridSpec {
    /// A grid for `experiment` over `workloads` at `scale`/`seed`.
    pub fn new(experiment: &str, scale: Scale, seed: u64, workloads: Vec<WorkloadId>) -> Self {
        GridSpec {
            experiment: experiment.to_owned(),
            scale,
            seed,
            workloads,
            params: Vec::new(),
        }
    }

    /// Appends one configuration-identity parameter.
    pub fn param(mut self, key: &str, value: impl Display) -> Self {
        self.params.push((key.to_owned(), value.to_string()));
        self
    }

    /// The content-address of one workload cell. Includes the crate
    /// version so a simulator change invalidates stale results.
    pub fn job_key(&self, workload: WorkloadId) -> JobKey {
        let mut key = JobKey::new(&self.experiment)
            .field("version", env!("CARGO_PKG_VERSION"))
            .field("scale", self.scale)
            .field("seed", self.seed)
            .field("workload", workload);
        for (k, v) in &self.params {
            key = key.field(k, v);
        }
        key
    }
}

/// Runs `f` for every workload cell of the grid on the worker pool,
/// returning per-cell outcomes in workload order.
///
/// `f` must be a pure function of the cell (plus the seeded
/// configuration it captures): it is what the cache key stands for, and
/// it may be skipped entirely on a warm cache. The closure is cloned
/// per cell, so capture cheap `Copy`/`Clone` study configs, not big
/// state.
///
/// A cell may fail with a structured [`CoSimError`](crate::CoSimError)
/// (via its `Into<JobError>` conversion): the pool records *which
/// invariant broke* for that cell as a
/// [`JobOutcome::Errored`](cmpsim_runner::JobOutcome) — without retrying
/// the deterministic failure or disturbing its neighbours.
pub fn try_run_grid<F>(spec: &GridSpec, cfg: &RunnerConfig, f: F) -> RunReport
where
    F: Fn(WorkloadId) -> Result<JsonValue, JobError> + Send + Sync + Clone + 'static,
{
    try_run_grid_supervised(spec, cfg, None, f)
}

/// Like [`try_run_grid`], but each cell also carries the argv a
/// re-exec'd child uses to recompute it under
/// [`IsolateMode::Process`](cmpsim_runner::IsolateMode):
/// `__run-job <WORKLOAD> <base args...>`. With `child_base == None` (or
/// an inline runner config) this is exactly [`try_run_grid`].
pub fn try_run_grid_supervised<F>(
    spec: &GridSpec,
    cfg: &RunnerConfig,
    child_base: Option<&[String]>,
    f: F,
) -> RunReport
where
    F: Fn(WorkloadId) -> Result<JsonValue, JobError> + Send + Sync + Clone + 'static,
{
    let jobs = spec
        .workloads
        .iter()
        .map(|&w| {
            let f = f.clone();
            let job = ExperimentJob::try_new(w.to_string(), spec.job_key(w), move || f(w));
            match child_base {
                None => job,
                Some(base) => job.with_child_args(
                    [CHILD_ENTRY.to_owned(), w.to_string()]
                        .into_iter()
                        .chain(base.iter().cloned())
                        .collect(),
                ),
            }
        })
        .collect();
    Runner::new(cfg.clone()).run(jobs)
}

/// Renders a list as a compact comma-joined string — the conventional
/// encoding for sweep lists (cache sizes, line sizes, core counts)
/// inside [`GridSpec::param`] values.
pub fn join_list<T: Display>(items: &[T]) -> String {
    let mut out = String::new();
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{item}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_keys_separate_cells_and_configs() {
        let spec = GridSpec::new(
            "fig4_scmp",
            Scale::tiny(),
            7,
            vec![WorkloadId::Fimi, WorkloadId::Mds],
        )
        .param("cmp", "SCMP")
        .param("sizes", join_list(&[16384u64, 65536]));
        let a = spec.job_key(WorkloadId::Fimi);
        let b = spec.job_key(WorkloadId::Mds);
        assert_ne!(a.fingerprint(), b.fingerprint());
        // Same cell under a different config is a different address.
        let other = GridSpec {
            params: vec![("cmp".to_owned(), "MCMP".to_owned())],
            ..spec.clone()
        };
        assert_ne!(
            a.fingerprint(),
            other.job_key(WorkloadId::Fimi).fingerprint()
        );
        assert!(a.canonical().contains("workload=FIMI"));
        assert!(a.canonical().contains("sizes=16384,65536"));
    }

    #[test]
    fn run_grid_preserves_workload_order() {
        let spec = GridSpec::new(
            "order",
            Scale::tiny(),
            1,
            vec![WorkloadId::Shot, WorkloadId::Fimi, WorkloadId::Plsa],
        );
        let cfg = RunnerConfig {
            workers: 3,
            ..RunnerConfig::default()
        };
        let report = try_run_grid(&spec, &cfg, |w| Ok(JsonValue::from(w.to_string())));
        let names: Vec<&str> = report.payloads().filter_map(JsonValue::as_str).collect();
        assert_eq!(names, ["SHOT", "FIMI", "PLSA"]);
        assert_eq!(report.ok_count(), 3);
    }

    #[test]
    fn try_run_grid_reports_which_invariant_broke_per_cell() {
        use crate::capture::CaptureBroker;
        use crate::error::CoSimError;
        use crate::experiment::{CacheSizeStudy, CmpClass};
        use std::sync::Arc;
        let spec = GridSpec::new(
            "fallible",
            Scale::tiny(),
            1,
            vec![WorkloadId::Shot, WorkloadId::Fimi, WorkloadId::Plsa],
        );
        let cfg = RunnerConfig {
            retries: 2,
            ..RunnerConfig::default()
        };
        let report = try_run_grid(&spec, &cfg, |w| {
            if w == WorkloadId::Fimi {
                Err(CoSimError::invariant("llc_conservation", "hits + misses != accesses").into())
            } else {
                Ok(JsonValue::from(w.to_string()))
            }
        });
        assert_eq!(report.ok_count(), 2);
        assert_eq!(report.failed_count(), 1);
        // Deterministic error: not retried, and the category survives.
        assert_eq!(report.jobs[1].attempts, 1);
        assert!(matches!(
            &report.jobs[1].outcome,
            cmpsim_runner::JobOutcome::Errored { category, error }
                if category == "invariant" && error.contains("llc_conservation")
        ));
        // The healthy neighbours kept their order.
        let names: Vec<&str> = report.payloads().filter_map(JsonValue::as_str).collect();
        assert_eq!(names, ["SHOT", "PLSA"]);

        // A study handed a bad LLC geometry fails the same way: a named
        // error in its cell, not a panic caught by the pool.
        let study = CacheSizeStudy::new(Scale::tiny(), CmpClass::Small, 1);
        let broker = Arc::new(CaptureBroker::in_memory());
        let report = try_run_grid(&spec, &cfg, move |w| {
            let curve = study.run_with_sizes(&broker, w, &[48 << 10])?;
            Ok(JsonValue::U64(curve.points.len() as u64))
        });
        assert_eq!(report.failed_count(), 3);
        assert!(report.jobs.iter().all(|j| matches!(
            &j.outcome,
            cmpsim_runner::JobOutcome::Errored { category, error }
                if category == "invariant" && error.contains("invariant `config` violated")
        )));
    }

    #[test]
    fn join_list_renders_compactly() {
        assert_eq!(join_list::<u64>(&[]), "");
        assert_eq!(join_list(&[64u64]), "64");
        assert_eq!(join_list(&[64u64, 128, 256]), "64,128,256");
    }
}
