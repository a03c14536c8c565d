#![warn(missing_docs)]

//! `cmpsim-runner` — the parallel experiment execution engine.
//!
//! Every figure/table of the study is a grid of *independent*
//! co-simulations (workload × CMP class × cache geometry). The paper's
//! own infrastructure farmed those cells out to emulator runs; this
//! crate is the software equivalent. One std-only scheduling core
//! ([`sched`]: a fair cell queue, the claim step, the retry loop and
//! the attempt → outcome mapping) runs every cell, whether a local
//! [`Runner`] drains a batch of [`ExperimentJob`]s on `--jobs N` OS
//! threads or the `cmpsim-service` coordinator schedules submissions
//! for its workers and remote agents. Both get
//!
//! * a **content-addressed result cache** ([`ResultCache`]) keyed by a
//!   stable FNV-1a fingerprint of the job identity ([`JobKey`]:
//!   experiment, scale, seed, config fields, crate version), so warm
//!   re-runs skip finished cells, and **in-flight dedup**: a cell whose
//!   key is already executing waits for that execution instead of
//!   running again,
//! * **fault isolation** — a panicking job is caught
//!   (`catch_unwind`), retried on a deterministic [`BackoffPolicy`]
//!   schedule, and reported as [`JobOutcome::Failed`] while the rest of
//!   the batch completes; with [`IsolateMode::Process`] each attempt
//!   runs in a supervised child process (see [`supervisor`]), so aborts
//!   and OOM kills are contained too and an unrecoverable cell is
//!   quarantined as [`JobOutcome::Poisoned`],
//! * **crash-safety** — an optional write-ahead [`journal`] records
//!   every job start and outcome (fsync'd, checksummed with the same
//!   [`record`] codec as the cache); a resumed run replays completed
//!   cells and re-enqueues in-flight ones, and a [`shutdown`] flag wired
//!   to SIGINT/SIGTERM drains the pool gracefully,
//! * **deterministic ordering** — per-job results land in submission
//!   order, so a `--jobs 8` run is byte-identical to `--jobs 1`,
//! * **telemetry** — a flight-recorder timeline per run (`cell:<label>`
//!   spans with queue-wait, cache, journal and `execute` stages under
//!   them), [`RunReport::export_metrics`] for the `cmpsim-telemetry`
//!   registry, and an optional live progress line tracking
//!   completed/cached/failed counts with an ETA.
//!
//! # Example
//!
//! ```
//! use cmpsim_runner::{ExperimentJob, JobKey, Runner, RunnerConfig};
//! use cmpsim_telemetry::JsonValue;
//!
//! let mut jobs: Vec<ExperimentJob> = (0..4u64)
//!     .map(|i| {
//!         ExperimentJob::new(
//!             format!("cell{i}"),
//!             JobKey::new("demo").field("cell", i),
//!             move || JsonValue::U64(i * i),
//!         )
//!     })
//!     .collect();
//! // A second copy of cell 3's key is served from its execution.
//! jobs.push(ExperimentJob::new(
//!     "cell3-again",
//!     JobKey::new("demo").field("cell", 3u64),
//!     || JsonValue::U64(9),
//! ));
//! let report = Runner::new(RunnerConfig {
//!     workers: 1,
//!     cache_dir: Some(std::env::temp_dir().join(format!("cmpsim-doc-{}", std::process::id()))),
//!     ..RunnerConfig::default()
//! })
//! .run(jobs);
//! assert_eq!((report.ok_count(), report.cached_count()), (4, 1));
//! let squares: Vec<u64> = report.payloads().filter_map(|v| v.as_u64()).collect();
//! assert_eq!(squares, [0, 1, 4, 9, 9]); // submission order, not completion order
//! # let _ = std::fs::remove_dir_all(std::env::temp_dir().join(format!("cmpsim-doc-{}", std::process::id())));
//! ```

pub mod backoff;
pub mod cache;
pub mod hash;
pub mod journal;
pub mod pool;
pub mod record;
pub mod sched;
pub mod shard;
pub mod shutdown;
pub mod supervisor;

pub use backoff::{BackoffPolicy, FailureClass};
pub use cache::ResultCache;
pub use hash::{file_fingerprint, JobKey};
pub use journal::{
    fresh_run_id, process_nonce, JournalConfig, JournalReplay, ReplayedJob, RunJournal,
};
pub use pool::{
    ExperimentJob, IsolateMode, JobError, JobOutcome, JobReport, RunReport, Runner, RunnerConfig,
};
pub use shard::scoped_shards;
pub use shutdown::ShutdownFlag;
pub use supervisor::{
    child_trace_requested, emit_result, emit_trace, run_program, ChildAttempt, SupervisedAttempt,
    CHILD_ENTRY, CHILD_TRACE_ENV, RESULT_MARKER, TRACE_MARKER,
};
