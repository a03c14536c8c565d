//! Local batches: the job/outcome types and [`Runner`], which runs a
//! batch as one run on a private [`Scheduler`] that `workers` in-process
//! threads drain (see [`crate::sched`] for the queue, claim, retry and
//! completion steps it shares with the grid service).
//!
//! Determinism: results are written into a slot per submission index,
//! so the report order equals submission order no matter which worker
//! finished which job when. Each job closure is a self-contained,
//! seeded computation, so a parallel run is byte-identical to a serial
//! one.
//!
//! Crash-safety: with a [`JournalConfig`] the batch write-ahead-journals
//! every job start and terminal outcome (fsync'd, checksummed — see
//! [`crate::journal`]); a resumed batch replays completed cells from the
//! journal and re-enqueues in-flight ones. With
//! [`IsolateMode::Process`] each attempt runs in a supervised child
//! process (see [`crate::supervisor`]), so aborts and OOM kills are
//! contained, retried on the [`BackoffPolicy`] schedule, and quarantined
//! as [`JobOutcome::Poisoned`]. A [`ShutdownFlag`] drains the batch:
//! in-flight cells finish, queued ones are [`JobOutcome::Skipped`].

use crate::backoff::BackoffPolicy;
use crate::cache::ResultCache;
use crate::hash::JobKey;
use crate::journal::{JournalConfig, JournalReplay, RunJournal};
use crate::sched::{self, ExecSpan, Host, RunState, RunTrace, Scheduler};
use crate::shutdown::ShutdownFlag;
use crate::supervisor::ChildAttempt;
use cmpsim_telemetry::trace::{self as ftrace, FlightRecorder, OpenSpan};
use cmpsim_telemetry::{JsonValue, Labels, MetricRegistry};
use std::fmt;
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Where a job attempt executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IsolateMode {
    /// On the worker thread (panics are caught with `catch_unwind`).
    #[default]
    Inline,
    /// In a supervised child process re-exec'd from the current binary
    /// (jobs must carry [`ExperimentJob::with_child_args`]; jobs without
    /// a child spec fall back to inline execution).
    Process,
}

impl std::str::FromStr for IsolateMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "inline" => Ok(IsolateMode::Inline),
            "process" => Ok(IsolateMode::Process),
            other => Err(format!("unknown isolation mode `{other}`")),
        }
    }
}

/// How the pool runs a batch of jobs.
#[derive(Debug, Clone, Default)]
pub struct RunnerConfig {
    /// Worker threads; `0` means one per available CPU.
    pub workers: usize,
    /// Root of the content-addressed result cache; `None` disables
    /// caching entirely.
    pub cache_dir: Option<PathBuf>,
    /// How many times a crashing or hung job is re-run before it is
    /// reported as [`JobOutcome::Failed`] / [`JobOutcome::Poisoned`] /
    /// [`JobOutcome::TimedOut`] (`1` = one retry, two attempts total).
    pub retries: u32,
    /// Emit a live `\r`-rewritten progress line on stderr.
    pub progress: bool,
    /// Per-job watchdog deadline. `None` (the default) runs jobs with no
    /// deadline. Inline: `Some(t)` runs each attempt on a detached
    /// thread and gives up on it after `t` (the thread is abandoned —
    /// std threads cannot be killed). Process isolation: the child is
    /// **killed** at the deadline, so nothing leaks.
    pub job_timeout: Option<Duration>,
    /// Retry/backoff schedule for failed attempts (see
    /// [`BackoffPolicy`]): deterministic exponential delays, and the
    /// single authority on whether structured errors retry.
    pub backoff: BackoffPolicy,
    /// Where attempts execute (inline threads or supervised child
    /// processes).
    pub isolate: IsolateMode,
    /// Write-ahead journal configuration; `None` runs un-journalled.
    pub journal: Option<JournalConfig>,
    /// Graceful-shutdown flag the pool polls between jobs (wire up
    /// [`crate::shutdown::install`] for SIGINT/SIGTERM).
    pub shutdown: Option<ShutdownFlag>,
    /// Flight recorder for span timelines (see
    /// [`cmpsim_telemetry::trace`]); `None` — the default — runs
    /// untraced, and every instrumentation site is a no-op.
    pub tracer: Option<Arc<FlightRecorder>>,
}

impl RunnerConfig {
    /// The default single-worker configuration (used via `Default`).
    pub fn single() -> Self {
        RunnerConfig {
            workers: 1,
            retries: 1,
            ..RunnerConfig::default()
        }
    }
}

/// A structured, deterministic job failure: unlike a panic, it states
/// which class of invariant broke. Whether it is retried is the
/// [`BackoffPolicy`]'s call (by default it is not: a pure job that
/// errored once will error identically again).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobError {
    /// Failure class, e.g. `protocol`, `invariant`, `io`, `config`.
    pub category: String,
    /// Human-readable detail.
    pub message: String,
}

impl JobError {
    /// A job error in `category` with detail `message`.
    pub fn new(category: impl Into<String>, message: impl Into<String>) -> Self {
        JobError {
            category: category.into(),
            message: message.into(),
        }
    }
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.category, self.message)
    }
}

impl std::error::Error for JobError {}

/// One unit of work: a cache key plus a closure producing the job's
/// JSON result payload.
pub struct ExperimentJob {
    /// Display label (progress line, failure summary).
    pub label: String,
    /// Content-address of the result.
    pub key: JobKey,
    run: Box<dyn Fn() -> Result<JsonValue, JobError> + Send + Sync>,
    /// Argv (after the program name) that re-computes this job in a
    /// re-exec'd child under [`IsolateMode::Process`].
    child_args: Option<Vec<String>>,
}

impl ExperimentJob {
    /// A job running `run` whenever the cache misses on `key`.
    pub fn new(
        label: impl Into<String>,
        key: JobKey,
        run: impl Fn() -> JsonValue + Send + Sync + 'static,
    ) -> Self {
        Self::try_new(label, key, move || Ok(run()))
    }

    /// Like [`new`](ExperimentJob::new), but the closure may fail with a
    /// structured [`JobError`] instead of panicking. Structured errors
    /// are reported as [`JobOutcome::Errored`].
    pub fn try_new(
        label: impl Into<String>,
        key: JobKey,
        run: impl Fn() -> Result<JsonValue, JobError> + Send + Sync + 'static,
    ) -> Self {
        ExperimentJob {
            label: label.into(),
            key,
            run: Box::new(run),
            child_args: None,
        }
    }

    /// Declares how a child process recomputes this job: the current
    /// executable is re-exec'd with exactly `args`. Required for
    /// [`IsolateMode::Process`] to take effect on this job.
    pub fn with_child_args(mut self, args: Vec<String>) -> Self {
        self.child_args = Some(args);
        self
    }
}

impl std::fmt::Debug for ExperimentJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExperimentJob")
            .field("label", &self.label)
            .field("key", &self.key.canonical())
            .field("child_args", &self.child_args)
            .finish_non_exhaustive()
    }
}

/// How one job ended.
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutcome {
    /// Executed this run.
    Ok(JsonValue),
    /// Served from the result cache without executing.
    Cached(JsonValue),
    /// Crashed (in-process panic) on every attempt; the rest of the
    /// batch still ran.
    Failed {
        /// Rendered panic payload of the last attempt.
        error: String,
    },
    /// Returned a structured [`JobError`] (deterministic; retried only
    /// if the [`BackoffPolicy`] opts in).
    Errored {
        /// The error's failure class (`protocol`, `invariant`, ...).
        category: String,
        /// The error's detail message.
        error: String,
    },
    /// Hung past the watchdog deadline on every attempt.
    TimedOut {
        /// What the watchdog observed (deadline, attempts).
        error: String,
    },
    /// A supervised child process died (abort, OOM kill, stack
    /// overflow) on every attempt: the cell is quarantined — journalled
    /// as terminal, so a resumed run will not retry it either.
    Poisoned {
        /// The last attempt's crash report.
        error: String,
    },
    /// Never started: a graceful shutdown drained the pool first. Not
    /// journalled, so a resumed run executes it.
    Skipped,
}

impl JobOutcome {
    /// The result payload, if the job produced one.
    pub fn payload(&self) -> Option<&JsonValue> {
        match self {
            JobOutcome::Ok(v) | JobOutcome::Cached(v) => Some(v),
            _ => None,
        }
    }

    /// Short machine-readable kind: `ok`, `cached`, `failed`, `error`,
    /// `timeout`, `poisoned`, or `skipped`.
    pub fn kind(&self) -> &'static str {
        match self {
            JobOutcome::Ok(_) => "ok",
            JobOutcome::Cached(_) => "cached",
            JobOutcome::Failed { .. } => "failed",
            JobOutcome::Errored { .. } => "error",
            JobOutcome::TimedOut { .. } => "timeout",
            JobOutcome::Poisoned { .. } => "poisoned",
            JobOutcome::Skipped => "skipped",
        }
    }

    /// The failure detail, if the job did not produce a payload.
    pub fn error(&self) -> Option<&str> {
        match self {
            JobOutcome::Ok(_) | JobOutcome::Cached(_) => None,
            JobOutcome::Failed { error }
            | JobOutcome::Errored { error, .. }
            | JobOutcome::TimedOut { error }
            | JobOutcome::Poisoned { error } => Some(error),
            JobOutcome::Skipped => Some("not started: shutdown requested"),
        }
    }

    /// The outcome as a self-contained JSON object — the form the run
    /// journal records and replays.
    pub fn to_json(&self) -> JsonValue {
        let mut fields = vec![("kind".to_owned(), JsonValue::from(self.kind()))];
        match self {
            JobOutcome::Ok(v) | JobOutcome::Cached(v) => {
                fields.push(("payload".to_owned(), v.clone()));
            }
            JobOutcome::Errored { category, error } => {
                fields.push(("category".to_owned(), JsonValue::from(category.clone())));
                fields.push(("error".to_owned(), JsonValue::from(error.clone())));
            }
            JobOutcome::Failed { error }
            | JobOutcome::TimedOut { error }
            | JobOutcome::Poisoned { error } => {
                fields.push(("error".to_owned(), JsonValue::from(error.clone())));
            }
            JobOutcome::Skipped => {}
        }
        JsonValue::Object(fields)
    }

    /// Parses [`to_json`](JobOutcome::to_json)'s form back; `None` on an
    /// unknown kind or missing fields (the journal record is then
    /// ignored).
    pub fn from_json(doc: &JsonValue) -> Option<JobOutcome> {
        let error = || {
            doc.get("error")
                .and_then(JsonValue::as_str)
                .map(str::to_owned)
        };
        Some(match doc.get("kind")?.as_str()? {
            "ok" => JobOutcome::Ok(doc.get("payload")?.clone()),
            "cached" => JobOutcome::Cached(doc.get("payload")?.clone()),
            "failed" => JobOutcome::Failed { error: error()? },
            "error" => JobOutcome::Errored {
                category: doc.get("category")?.as_str()?.to_owned(),
                error: error()?,
            },
            "timeout" => JobOutcome::TimedOut { error: error()? },
            "poisoned" => JobOutcome::Poisoned { error: error()? },
            "skipped" => JobOutcome::Skipped,
            _ => return None,
        })
    }
}

/// Per-job record in the batch report.
#[derive(Debug, Clone, PartialEq)]
pub struct JobReport {
    /// The job's display label.
    pub label: String,
    /// How it ended.
    pub outcome: JobOutcome,
    /// Wall-clock time spent on this job (cache lookup + attempts +
    /// backoff waits).
    pub wall_ms: f64,
    /// Execution attempts (0 for a cache hit or a journal replay).
    pub attempts: u32,
    /// Served from the run journal of an interrupted run, without
    /// executing.
    pub replayed: bool,
    /// Total deterministic backoff delay spent between attempts.
    pub backoff_ms: f64,
}

/// The structured report of one batch: per-job outcomes in submission
/// order plus batch-level counters.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Per-job reports, in submission order.
    pub jobs: Vec<JobReport>,
    /// Worker threads the batch actually used.
    pub workers: usize,
    /// Wall-clock time of the whole batch.
    pub wall_ms: f64,
    /// A graceful shutdown drained this batch before it finished.
    pub interrupted: bool,
    /// The journal run id, when journalling was active (what `--resume`
    /// takes).
    pub run_id: Option<String>,
    /// Cells that were in flight when a previous run died and were
    /// re-enqueued by this resume.
    pub recovered: usize,
}

impl RunReport {
    /// Jobs executed this run.
    pub fn ok_count(&self) -> usize {
        self.count(|j| matches!(j.outcome, JobOutcome::Ok(_)))
    }

    /// Jobs served from the cache.
    pub fn cached_count(&self) -> usize {
        self.count(|j| matches!(j.outcome, JobOutcome::Cached(_)))
    }

    /// Jobs that produced no payload: crashed every attempt, returned a
    /// structured error, hung past the deadline, were poisoned, or were
    /// skipped by a shutdown.
    pub fn failed_count(&self) -> usize {
        self.count(|j| j.outcome.error().is_some())
    }

    /// Jobs the watchdog gave up on.
    pub fn timed_out_count(&self) -> usize {
        self.count(|j| matches!(j.outcome, JobOutcome::TimedOut { .. }))
    }

    /// Jobs quarantined after crashing a supervised child on every
    /// attempt.
    pub fn poisoned_count(&self) -> usize {
        self.count(|j| matches!(j.outcome, JobOutcome::Poisoned { .. }))
    }

    /// Jobs a graceful shutdown prevented from starting.
    pub fn skipped_count(&self) -> usize {
        self.count(|j| matches!(j.outcome, JobOutcome::Skipped))
    }

    /// Jobs served from the run journal without executing.
    pub fn replayed_count(&self) -> usize {
        self.count(|j| j.replayed)
    }

    /// Total deterministic backoff delay the batch spent, in ms.
    pub fn backoff_ms(&self) -> f64 {
        self.jobs.iter().map(|j| j.backoff_ms).sum()
    }

    fn count(&self, f: impl Fn(&JobReport) -> bool) -> usize {
        self.jobs.iter().filter(|j| f(j)).count()
    }

    /// Result payloads of the successful jobs, in submission order
    /// (failed jobs are skipped).
    pub fn payloads(&self) -> impl Iterator<Item = &JsonValue> {
        self.jobs.iter().filter_map(|j| j.outcome.payload())
    }

    /// `(label, error)` for every failed job, in submission order.
    pub fn failures(&self) -> Vec<(&str, &str)> {
        self.jobs
            .iter()
            .filter_map(|j| Some((j.label.as_str(), j.outcome.error()?)))
            .collect()
    }

    /// One-line human summary, e.g.
    /// `0 ok, 8 cached, 0 failed of 8 jobs (4 workers, 12.3 ms)`.
    /// Replay/interruption details are appended only when present, so a
    /// clean run's summary is byte-stable.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "{} ok, {} cached, {} failed of {} jobs ({} workers, {:.1} ms)",
            self.ok_count(),
            self.cached_count(),
            self.failed_count(),
            self.jobs.len(),
            self.workers,
            self.wall_ms
        );
        if self.replayed_count() > 0 {
            s.push_str(&format!(
                "; {} replayed from journal, {} in-flight recovered",
                self.replayed_count(),
                self.recovered
            ));
        }
        if self.interrupted {
            s.push_str(&format!(
                "; interrupted — {} cells skipped",
                self.skipped_count()
            ));
        }
        s
    }

    /// Feeds batch counters and the per-job wall-time histogram into a
    /// telemetry registry (`runner_jobs{outcome=...}`,
    /// `runner_job_micros`, plus recovery/backoff counters when
    /// nonzero).
    pub fn export_metrics(&self, reg: &mut MetricRegistry) {
        for j in &self.jobs {
            let labels = Labels::none().with("outcome", j.outcome.kind());
            reg.count("runner_jobs", &labels, 1);
            reg.observe(
                "runner_job_micros",
                &Labels::none(),
                (j.wall_ms * 1e3) as u64,
            );
        }
        if self.replayed_count() > 0 {
            reg.count(
                "runner_replayed",
                &Labels::none(),
                self.replayed_count() as u64,
            );
        }
        if self.recovered > 0 {
            reg.count("runner_recovered", &Labels::none(), self.recovered as u64);
        }
        if self.backoff_ms() > 0.0 {
            reg.count(
                "runner_backoff_ms",
                &Labels::none(),
                self.backoff_ms() as u64,
            );
        }
    }

    /// The report as a JSON object (embedded in result documents).
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("workers", JsonValue::from(self.workers)),
            ("wall_ms", JsonValue::F64(self.wall_ms)),
            ("ok", JsonValue::from(self.ok_count())),
            ("cached", JsonValue::from(self.cached_count())),
            ("failed", JsonValue::from(self.failed_count())),
            ("replayed", JsonValue::from(self.replayed_count())),
            ("skipped", JsonValue::from(self.skipped_count())),
            ("poisoned", JsonValue::from(self.poisoned_count())),
            ("recovered", JsonValue::from(self.recovered)),
            ("interrupted", JsonValue::from(self.interrupted)),
            (
                "jobs",
                JsonValue::Array(
                    self.jobs
                        .iter()
                        .map(|j| {
                            let mut fields = vec![
                                ("label".to_owned(), JsonValue::from(j.label.clone())),
                                ("outcome".to_owned(), JsonValue::from(j.outcome.kind())),
                                ("wall_ms".to_owned(), JsonValue::F64(j.wall_ms)),
                                (
                                    "attempts".to_owned(),
                                    JsonValue::from(u64::from(j.attempts)),
                                ),
                            ];
                            if j.replayed {
                                fields.push(("replayed".to_owned(), JsonValue::Bool(true)));
                            }
                            if j.backoff_ms > 0.0 {
                                fields
                                    .push(("backoff_ms".to_owned(), JsonValue::F64(j.backoff_ms)));
                            }
                            if let Some(error) = j.outcome.error() {
                                fields.push(("error".to_owned(), JsonValue::from(error)));
                            }
                            if let JobOutcome::Errored { category, .. } = &j.outcome {
                                fields.push((
                                    "category".to_owned(),
                                    JsonValue::from(category.clone()),
                                ));
                            }
                            JsonValue::Object(fields)
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// The live progress line.
struct Progress {
    total: usize,
    started: Instant,
    enabled: bool,
    /// Whether stderr is an interactive terminal. On a TTY the line is
    /// `\r`-rewritten in place; on a pipe (service clients, CI logs,
    /// `2>file`) each update is one newline-terminated, single-write
    /// line so downstream readers see whole records, never a torn tail
    /// of carriage returns.
    tty: bool,
}

impl Progress {
    fn new(total: usize, enabled: bool) -> Self {
        use std::io::IsTerminal;
        Progress {
            total,
            started: Instant::now(),
            enabled,
            tty: std::io::stderr().is_terminal(),
        }
    }

    /// Redraws the line from the run's tally. Callers hold the run's
    /// emit lock (or run before the workers start), so two updates
    /// never interleave.
    fn update(&self, state: &RunState) {
        if !self.enabled {
            return;
        }
        let (ok, cached, failed) = state.counts();
        let done = ok + cached + failed;
        let elapsed = self.started.elapsed().as_secs_f64();
        let eta = if done > 0 && done < self.total {
            elapsed / done as f64 * (self.total - done) as f64
        } else {
            0.0
        };
        let body = format!(
            "[{done}/{}] {ok} ok, {cached} cached, {failed} failed, eta {eta:.1}s",
            self.total
        );
        let line = if self.tty {
            let newline = if done == self.total { "\n" } else { "" };
            format!("\r{body}   {newline}")
        } else {
            format!("{body}\n")
        };
        let mut err = std::io::stderr().lock();
        let _ = err.write_all(line.as_bytes());
        let _ = err.flush();
    }
}

/// Runs batches of jobs on a private [`Scheduler`] per batch.
#[derive(Debug, Clone)]
pub struct Runner {
    cfg: RunnerConfig,
}

impl Default for Runner {
    fn default() -> Self {
        Runner::new(RunnerConfig::single())
    }
}

impl Runner {
    /// A runner with the given configuration.
    pub fn new(cfg: RunnerConfig) -> Self {
        Runner { cfg }
    }

    /// Executes a batch of jobs and reports per-job outcomes in
    /// submission order.
    ///
    /// A job found in the cache is not executed ([`JobOutcome::Cached`]);
    /// with a resuming journal, a job with a recorded terminal outcome
    /// is replayed from it. A job whose key another job of the batch is
    /// already executing waits for that execution and reports its
    /// payload as [`JobOutcome::Cached`]. A crashing job is retried on
    /// the backoff schedule and then reported as [`JobOutcome::Failed`]
    /// (inline) or [`JobOutcome::Poisoned`] (process isolation) without
    /// aborting the batch.
    pub fn run(&self, jobs: Vec<ExperimentJob>) -> RunReport {
        let started = Instant::now();
        let total = jobs.len();
        let workers = match self.cfg.workers {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        }
        .min(total.max(1));

        // Open (and on resume, replay) the write-ahead journal. A failed
        // open degrades to an un-journalled run — loudly, because it
        // forfeits crash-safety.
        let mut journal = None;
        let mut replay = JournalReplay::default();
        if let Some(jc) = &self.cfg.journal {
            match RunJournal::open(jc) {
                Ok((j, r)) => {
                    journal = Some(j);
                    replay = r;
                }
                Err(e) => eprintln!(
                    "warning: running WITHOUT crash-safety — cannot open journal {}: {e}",
                    jc.path().display()
                ),
            }
        }
        let run_id = self.cfg.journal.as_ref().map(|jc| jc.run_id.clone());
        let keys: Vec<String> = jobs.iter().map(|j| j.key.canonical()).collect();
        let part = sched::partition(keys.iter().map(String::as_str), &replay);
        if let Some(j) = &journal {
            j.run_start(run_id.as_deref().unwrap_or(""), total, part.replayed.len());
        }

        // Flight-recorder lanes: one for the run span, one per worker.
        // `None` everywhere when tracing is off, and every
        // instrumentation site is a no-op.
        let pool_lane = self.cfg.tracer.as_ref().map(|rec| rec.lane("pool"));
        let run_span = pool_lane.as_ref().map(|lane| {
            let mut s = lane.begin("run", "", 0);
            s.arg("jobs", total as u64);
            s.arg("workers", workers as u64);
            s.arg("replayed", part.replayed.len() as u64);
            s
        });
        let run_root = run_span.as_ref().map_or(0, OpenSpan::span_id);
        let trace = self
            .cfg
            .tracer
            .as_ref()
            .map(|rec| RunTrace::new(rec, workers, run_root));
        let labels = jobs.iter().map(|j| j.label.clone()).collect();
        let batch = Arc::new(Batch {
            // Jobs are shared via `Arc` so a watchdog attempt can outlive
            // the batch: an abandoned attempt thread holds its own
            // reference.
            jobs: jobs.into_iter().map(Arc::new).collect(),
            slots: (0..total).map(|_| Mutex::new(None)).collect(),
            progress: Progress::new(total, self.cfg.progress),
            state: RunState::new(keys, labels, journal, part.pending.len(), trace),
        });

        // Completed in the journalled run: serve the recorded outcome
        // without executing.
        for (seq, done) in part.replayed {
            let label = &batch.jobs[seq].label;
            if let Some(lane) = &pool_lane {
                lane.instant("journal-replayed", label, run_root, Vec::new());
            }
            batch.state.tally(&done.outcome);
            batch.progress.update(&batch.state);
            *lock(&batch.slots[seq]) = Some(JobReport {
                label: label.clone(),
                outcome: done.outcome,
                wall_ms: 0.0,
                attempts: done.attempts,
                replayed: true,
                backoff_ms: 0.0,
            });
        }

        let local = Local {
            core: Scheduler::new(
                self.cfg.cache_dir.as_ref().map(ResultCache::new),
                self.cfg.retries,
                self.cfg.backoff.clone(),
                self.cfg.job_timeout,
                self.cfg.shutdown.clone(),
            ),
            isolate: self.cfg.isolate,
        };
        local.core.enqueue(&batch, part.pending);
        local.core.drain();
        std::thread::scope(|scope| {
            for worker in 0..workers {
                let local = &local;
                scope.spawn(move || sched::work(local, worker));
            }
        });
        if let Some(trace) = batch.state.trace.as_ref() {
            trace.close();
        }
        drop(run_span);

        let report = RunReport {
            jobs: batch
                .slots
                .iter()
                .map(|s| {
                    lock(s)
                        .take()
                        .expect("every submitted job produced a report")
                })
                .collect(),
            workers,
            wall_ms: started.elapsed().as_secs_f64() * 1e3,
            interrupted: self
                .cfg
                .shutdown
                .as_ref()
                .is_some_and(ShutdownFlag::requested),
            run_id,
            recovered: part.recovered,
        };
        if let Some(j) = batch.state.journal.as_ref() {
            if report.interrupted {
                j.interrupted(
                    report.jobs.len() - report.skipped_count(),
                    report.skipped_count(),
                );
            } else {
                j.run_end(
                    report.ok_count(),
                    report.cached_count(),
                    report.failed_count(),
                );
            }
        }
        report
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// One local batch: the only run on its scheduler.
struct Batch {
    jobs: Vec<Arc<ExperimentJob>>,
    state: RunState,
    /// One report per submission index, so the report order is the
    /// submission order whichever worker finished which job when.
    slots: Vec<Mutex<Option<JobReport>>>,
    progress: Progress,
}

/// In-process workers draining one batch.
struct Local {
    core: Scheduler<Batch>,
    isolate: IsolateMode,
}

impl Host for Local {
    type Run = Batch;

    fn core(&self) -> &Scheduler<Batch> {
        &self.core
    }

    fn state(run: &Batch) -> &RunState {
        &run.state
    }

    fn supervised(&self, run: &Batch, seq: usize) -> bool {
        self.isolate == IsolateMode::Process && run.jobs[seq].child_args.is_some()
    }

    /// A supervised attempt re-execs the current binary with the job's
    /// child argv; any other attempt calls the closure on this thread
    /// (under the watchdog deadline, if one is set).
    fn attempt(&self, run: &Batch, seq: usize, exec: Option<&ExecSpan>) -> ChildAttempt {
        let job = &run.jobs[seq];
        let timeout = self.core.timeout();
        match &job.child_args {
            Some(args) if self.isolate == IsolateMode::Process => match std::env::current_exe() {
                Ok(exe) => sched::supervise(exec, &exe, args, timeout, false),
                Err(e) => ChildAttempt::Crashed(format!("cannot locate current executable: {e}")),
            },
            _ => inline_attempt(job, timeout, exec),
        }
    }

    fn deliver(&self, run: &Batch, seq: usize, report: JobReport, _rseq: u64) {
        run.progress.update(&run.state);
        *lock(&run.slots[seq]) = Some(report);
    }
}

/// Runs one inline attempt, optionally under a watchdog deadline; with
/// `exec`, the closure's own spans record under the execute span.
///
/// With a deadline, the attempt runs on a *detached* thread and the
/// worker waits on a channel: if the deadline passes, the thread is
/// abandoned (std threads cannot be killed) and its eventual result —
/// sent into a channel nobody reads — is dropped.
fn inline_attempt(
    job: &Arc<ExperimentJob>,
    timeout: Option<Duration>,
    exec: Option<&ExecSpan>,
) -> ChildAttempt {
    let fold = |caught: std::thread::Result<Result<JsonValue, JobError>>| match caught {
        Ok(Ok(v)) => ChildAttempt::Ok(v),
        Ok(Err(e)) => ChildAttempt::Err(e),
        Err(payload) => ChildAttempt::Crashed(panic_message(payload.as_ref())),
    };
    let install = exec.map(|e| (e.lane.clone(), e.cell.to_owned(), e.id));
    let Some(deadline) = timeout else {
        let _ctx = install.map(|(lane, cell, root)| ftrace::install(lane, &cell, root));
        return fold(catch_unwind(AssertUnwindSafe(|| (job.run)())));
    };
    let (tx, rx) = mpsc::channel();
    let worker = Arc::clone(job);
    let spawned = std::thread::Builder::new()
        .name(format!("watchdog:{}", job.label))
        .spawn(move || {
            let _ctx = install.map(|(lane, cell, root)| ftrace::install(lane, &cell, root));
            let _ = tx.send(catch_unwind(AssertUnwindSafe(|| (worker.run)())));
        });
    match spawned {
        Err(e) => ChildAttempt::Err(JobError::new(
            "io",
            format!("cannot spawn watchdog thread: {e}"),
        )),
        Ok(_handle) => match rx.recv_timeout(deadline) {
            Ok(result) => fold(result),
            Err(_) => ChildAttempt::Hung,
        },
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmpsim_telemetry::trace::{EventKind, TraceEvent};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn jobs(n: u64) -> Vec<ExperimentJob> {
        (0..n)
            .map(|i| {
                ExperimentJob::new(
                    format!("cell{i}"),
                    JobKey::new("trace-test").field("cell", i),
                    move || JsonValue::U64(i),
                )
            })
            .collect()
    }

    #[test]
    fn traced_run_records_cell_spans_and_gauges() {
        let rec = FlightRecorder::new();
        let report = Runner::new(RunnerConfig {
            workers: 2,
            tracer: Some(Arc::clone(&rec)),
            ..RunnerConfig::default()
        })
        .run(jobs(4));
        assert_eq!(report.ok_count(), 4);
        let events = rec.drain_sorted();
        let span_names: Vec<&str> = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Span { .. }))
            .map(|e| e.name.as_str())
            .collect();
        assert!(span_names.contains(&"run"));
        for i in 0..4 {
            let cell = format!("{}cell{i}", ftrace::CELL_SPAN_PREFIX);
            assert!(span_names.contains(&cell.as_str()), "missing {cell}");
        }
        assert_eq!(span_names.iter().filter(|n| **n == "queue-wait").count(), 4);
        assert_eq!(span_names.iter().filter(|n| **n == "execute").count(), 4);
        // Every cell-scoped event carries its cell label, and the
        // execute spans parent under their cell span.
        let cells: Vec<&TraceEvent> = events
            .iter()
            .filter(|e| e.name.starts_with(ftrace::CELL_SPAN_PREFIX))
            .collect();
        for exec in events.iter().filter(|e| e.name == "execute") {
            let parent = cells.iter().find(|c| c.id == exec.parent).unwrap();
            assert_eq!(parent.cell, exec.cell);
        }
        // Worker utilization gauges: one per worker lane.
        let utils: Vec<&TraceEvent> = events.iter().filter(|e| e.name == "utilization").collect();
        assert_eq!(utils.len(), 2);
        assert!(utils.iter().all(
            |u| matches!(u.kind, EventKind::Counter { value } if (0.0..=1.0).contains(&value))
        ));
        // Queue-depth samples landed too.
        assert!(events.iter().any(|e| e.name == "queue_depth"));
        assert_eq!(rec.dropped(), 0);
    }

    #[test]
    fn untraced_run_report_is_identical_to_traced() {
        // The recorder must observe, never perturb: job outcomes and
        // ordering are identical with and without a tracer attached.
        let traced = Runner::new(RunnerConfig {
            workers: 2,
            tracer: Some(FlightRecorder::new()),
            ..RunnerConfig::default()
        })
        .run(jobs(6));
        let untraced = Runner::new(RunnerConfig {
            workers: 2,
            ..RunnerConfig::default()
        })
        .run(jobs(6));
        let payloads = |r: &RunReport| -> Vec<JsonValue> { r.payloads().cloned().collect() };
        assert_eq!(payloads(&traced), payloads(&untraced));
        assert_eq!(traced.ok_count(), untraced.ok_count());
    }

    #[test]
    fn traced_failure_records_retry_markers() {
        let rec = FlightRecorder::new();
        let job = ExperimentJob::new(
            "boom",
            JobKey::new("trace-test").field("cell", "boom"),
            || panic!("kaboom"),
        );
        let report = Runner::new(RunnerConfig {
            workers: 1,
            retries: 1,
            tracer: Some(Arc::clone(&rec)),
            ..RunnerConfig::default()
        })
        .run(vec![job]);
        assert_eq!(report.failed_count(), 1);
        let events = rec.drain_sorted();
        assert_eq!(events.iter().filter(|e| e.name == "retry").count(), 1);
        assert!(events.iter().any(|e| e.name == "crashed"));
        assert_eq!(events.iter().filter(|e| e.name == "execute").count(), 2);
    }

    #[test]
    fn duplicated_key_executes_once_and_the_copy_is_cached() {
        let dir = std::env::temp_dir().join(format!("cmpsim_pool_dup_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let executions = Arc::new(AtomicUsize::new(0));
        let copy = |label: &str| {
            let executions = Arc::clone(&executions);
            ExperimentJob::new(label, JobKey::new("dup").field("cell", 0), move || {
                executions.fetch_add(1, Ordering::SeqCst);
                JsonValue::U64(42)
            })
        };
        // The second copy is served from the first one's result (here
        // through the cache; the `sched` tests pin the in-flight join).
        let report = Runner::new(RunnerConfig {
            workers: 1,
            cache_dir: Some(dir.clone()),
            ..RunnerConfig::default()
        })
        .run(vec![copy("first"), copy("second")]);
        assert_eq!(executions.load(Ordering::SeqCst), 1);
        assert_eq!(report.ok_count(), 1);
        assert_eq!(report.cached_count(), 1);
        let payloads: Vec<u64> = report.payloads().filter_map(JsonValue::as_u64).collect();
        assert_eq!(payloads, [42, 42]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
