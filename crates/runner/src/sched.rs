//! The scheduling core shared by local grids and the grid service.
//!
//! A [`Scheduler`] holds a fair rotation of runs — a popper takes the
//! front run, removes *one* due cell, and pushes the run to the back —
//! so concurrent runs interleave cell by cell. A [`Host`] says what a
//! run's cells compute and where their reports go:
//! [`Runner::run`](crate::Runner::run) is one run on a private
//! scheduler that N in-process workers drain with [`work`]; the grid
//! service's coordinator is a long-lived scheduler whose local workers
//! run the same [`work`] loop while remote agents pull cells through
//! [`Scheduler::next`] and report back through [`retry_or_complete`].
//!
//! Every cell is **claimed** ([`claim`]: journal `job_start`, then the
//! result-cache lookup, then joining an execution of the same key that
//! another cell owns), **executed** (attempts retry on the
//! [`BackoffPolicy`] schedule; each attempt maps to an outcome in one
//! place, [`outcome_of`]), and **completed** ([`complete_owned`]: cache
//! store, then the rseq-stamped `job_done` journalled, tallied and
//! delivered under the run's emit lock, then the dedup waiters). A
//! resumed run first splits its cells against its journal
//! ([`partition`]).
//!
//! Traced runs record per cell a `cell:<label>` span holding
//! `queue-wait`, `journal-append`, `cache-lookup`/`cache-store` and one
//! `execute` span per attempt, the `retry`/`crashed`/`poisoned`/
//! `timeout` markers, and the `queue_depth`/`utilization` counters.

use crate::backoff::{BackoffPolicy, FailureClass};
use crate::cache::ResultCache;
use crate::hash::JobKey;
use crate::journal::{JournalReplay, ReplayedJob, RunJournal};
use crate::pool::{JobOutcome, JobReport};
use crate::shutdown::ShutdownFlag;
use crate::supervisor::{run_program_inner, ChildAttempt};
use cmpsim_telemetry::trace::{
    self as ftrace, EventKind, FlightRecorder, Lane, OpenSpan, TraceEvent,
};
use cmpsim_telemetry::JsonValue;
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Longest a waiting popper sleeps before re-checking its readiness.
const POLL: Duration = Duration::from_millis(250);

/// The owner of a scheduler's runs.
pub trait Host: Sync {
    /// One submitted run.
    type Run: Send + Sync;
    /// The scheduler this host's runs queue on.
    fn core(&self) -> &Scheduler<Self::Run>;
    /// A run's scheduling state.
    fn state(run: &Self::Run) -> &RunState;
    /// Whether cell `seq` runs in a supervised child process (a crash
    /// then quarantines it as [`JobOutcome::Poisoned`]).
    fn supervised(&self, run: &Self::Run, seq: usize) -> bool;
    /// Runs one attempt of cell `seq` on the calling worker; `exec` is
    /// its open `execute` span when the run is traced.
    fn attempt(&self, run: &Self::Run, seq: usize, exec: Option<&ExecSpan>) -> ChildAttempt;
    /// Called right after cell `seq`'s `job_start` is journalled.
    fn started(&self, _run: &Self::Run, _seq: usize) {}
    /// Receives cell `seq`'s terminal report under the run's emit lock,
    /// once it is journalled (`rseq`; `0` when not) and tallied.
    fn deliver(&self, run: &Self::Run, seq: usize, report: JobReport, rseq: u64);
    /// Called once the last queued cell of `run` finished.
    fn finished(&self, _run: &Arc<Self::Run>) {}
}

/// What the core tracks per run.
#[derive(Debug)]
pub struct RunState {
    keys: Vec<String>,
    labels: Vec<String>,
    /// The write-ahead journal, if the run has one.
    pub journal: Option<RunJournal>,
    /// The trace surface, if the run is traced.
    pub trace: Option<RunTrace>,
    /// Serializes rseq assignment, the journal append and delivery.
    emit: Mutex<()>,
    remaining: AtomicUsize,
    tally: [AtomicUsize; 3],
}

impl RunState {
    /// A run over cells `keys`/`labels` (indexed by seq), `queued` of
    /// which go through the scheduler.
    pub fn new(
        keys: Vec<String>,
        labels: Vec<String>,
        journal: Option<RunJournal>,
        queued: usize,
        trace: Option<RunTrace>,
    ) -> RunState {
        RunState {
            keys,
            labels,
            journal,
            trace,
            emit: Mutex::new(()),
            remaining: AtomicUsize::new(queued),
            tally: Default::default(),
        }
    }

    /// Takes the emit lock: while held, no cell of this run is
    /// journalled or delivered.
    pub fn emit_lock(&self) -> MutexGuard<'_, ()> {
        self.emit.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Queued cells not yet finished; the run ends at zero.
    pub fn remaining(&self) -> usize {
        self.remaining.load(Ordering::Acquire)
    }

    /// Counts one terminal outcome as ok, cached, or failed.
    pub fn tally(&self, outcome: &JobOutcome) {
        let slot = match outcome {
            JobOutcome::Ok(_) => 0,
            JobOutcome::Cached(_) => 1,
            _ => 2,
        };
        self.tally[slot].fetch_add(1, Ordering::Relaxed);
    }

    /// `(ok, cached, failed)` tallied so far.
    pub fn counts(&self) -> (usize, usize, usize) {
        let [ok, cached, failed] = &self.tally;
        let get = |a: &AtomicUsize| a.load(Ordering::Relaxed);
        (get(ok), get(cached), get(failed))
    }

    fn report(&self, seq: usize, outcome: JobOutcome, attempts: u32, since: Instant) -> JobReport {
        JobReport {
            label: self.labels[seq].clone(),
            outcome,
            wall_ms: since.elapsed().as_secs_f64() * 1e3,
            attempts,
            replayed: false,
            backoff_ms: 0.0,
        }
    }
}

/// A traced run's recording surface: one lane per local worker, the
/// span cell spans parent under, and per-worker busy time.
#[derive(Debug)]
pub struct RunTrace {
    lanes: Vec<Lane>,
    root: u64,
    start_ns: u64,
    busy_ns: Vec<AtomicU64>,
}

impl RunTrace {
    /// Lanes `worker-<n>` on `rec` for `workers` workers, cell spans
    /// parented under span `root`; queue waits count from now.
    pub fn new(rec: &Arc<FlightRecorder>, workers: usize, root: u64) -> RunTrace {
        RunTrace {
            lanes: (0..workers)
                .map(|w| rec.lane(&format!("worker-{w}")))
                .collect(),
            root,
            start_ns: rec.now_ns(),
            busy_ns: (0..workers).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Records each worker lane's `utilization`: the fraction of the
    /// run so far it spent on the run's cells.
    pub fn close(&self) {
        for (lane, busy) in self.lanes.iter().zip(&self.busy_ns) {
            let total_ns = lane.recorder().now_ns().saturating_sub(self.start_ns);
            if total_ns > 0 {
                let busy = busy.load(Ordering::Relaxed) as f64;
                lane.counter("utilization", "", busy / total_ns as f64);
            }
        }
    }

    fn begin<'a>(&'a self, worker: usize, label: &'a str, depth: usize) -> CellTrace<'a> {
        let lane = &self.lanes[worker];
        lane.counter("queue_depth", "", depth as f64);
        let picked_ns = lane.recorder().now_ns();
        let name = format!("{}{label}", ftrace::CELL_SPAN_PREFIX);
        let cell = lane.begin(&name, label, self.root);
        // Queue wait: submission to pickup, spent behind other cells.
        lane.push(TraceEvent {
            name: "queue-wait".to_owned(),
            cell: label.to_owned(),
            lane: 0,
            id: lane.recorder().next_span_id(),
            parent: cell.span_id(),
            ts_ns: self.start_ns,
            kind: EventKind::Span {
                dur_ns: picked_ns.saturating_sub(self.start_ns),
            },
            args: Vec::new(),
        });
        CellTrace {
            run: self,
            worker,
            lane,
            label,
            id: cell.span_id(),
            picked_ns,
            cell: RefCell::new(Some(cell)),
        }
    }
}

/// One cell's `cell:<label>` span on a worker lane, which everything
/// the worker does for the cell nests under.
#[derive(Debug)]
pub struct CellTrace<'a> {
    run: &'a RunTrace,
    worker: usize,
    lane: &'a Lane,
    label: &'a str,
    id: u64,
    picked_ns: u64,
    cell: RefCell<Option<OpenSpan>>,
}

impl CellTrace<'_> {
    fn span(&self, name: &str) -> OpenSpan {
        self.lane.begin(name, self.label, self.id)
    }

    fn instant(&self, name: &str, args: Vec<(String, JsonValue)>) {
        self.lane.instant(name, self.label, self.id, args);
    }

    /// Ends the cell span (once) and books the worker's busy time.
    fn close(&self, outcome: &str, attempts: u32) {
        if let Some(mut cell) = self.cell.borrow_mut().take() {
            cell.arg("outcome", outcome);
            cell.arg("attempts", u64::from(attempts));
            cell.end();
            let busy = self.lane.recorder().now_ns().saturating_sub(self.picked_ns);
            self.run.busy_ns[self.worker].fetch_add(busy, Ordering::Relaxed);
        }
    }
}

/// The open `execute` span of one traced attempt.
#[derive(Debug)]
pub struct ExecSpan<'a> {
    /// The worker lane.
    pub lane: &'a Lane,
    /// The cell label the attempt's events carry.
    pub cell: &'a str,
    /// The span's id: the parent of the attempt's own events.
    pub id: u64,
}

/// Runs one supervised child attempt of `program` (the
/// [`RESULT_MARKER`](crate::RESULT_MARKER) protocol), grafting a traced
/// child's events under `exec` tagged `proc: child`. `sabotage`
/// SIGKILLs the child right after spawn (the service's chaos hook).
pub fn supervise(
    exec: Option<&ExecSpan>,
    program: &Path,
    args: &[String],
    timeout: Option<Duration>,
    sabotage: bool,
) -> ChildAttempt {
    // The child's clock starts at spawn: re-base its events to ours.
    let base_ns = exec.map_or(0, |e| e.lane.recorder().now_ns());
    let sup = run_program_inner(program, args, timeout, exec.is_some(), sabotage);
    if let Some(e) = exec {
        e.lane.recorder().add_dropped(sup.trace_dropped);
        let tag = [("proc", JsonValue::from("child"))];
        ftrace::graft(e.lane, sup.trace, e.cell, e.id, base_ns, &tag);
    }
    sup.attempt
}

/// One pending cell in the fair rotation.
#[derive(Debug)]
pub struct Pending {
    /// The cell's index in its run.
    pub seq: usize,
    /// Attempts already consumed.
    pub attempt: u32,
    /// Already claimed (journalled, in-flight slot held): the cell came
    /// back through a reclaim or a remote retry.
    pub owned: bool,
    /// Backoff gate: not schedulable before this instant.
    pub not_before: Option<Instant>,
}

impl Pending {
    /// A cell that has not been claimed yet.
    pub fn fresh(seq: usize) -> Pending {
        Pending {
            seq,
            attempt: 0,
            owned: false,
            not_before: None,
        }
    }
}

/// The lock-protected scheduler state.
#[derive(Debug)]
pub struct Sched<R> {
    /// Runs in rotation order, each with its pending cells.
    queue: VecDeque<(Arc<R>, VecDeque<Pending>)>,
    /// Canonical key → cells waiting on the execution that owns it.
    inflight: HashMap<String, Vec<(Arc<R>, usize)>>,
    /// No more runs arrive: an empty queue is final.
    draining: bool,
}

/// Pops one due cell (with the queue depth it leaves) in round-robin
/// order across runs; otherwise how long until the soonest
/// backoff-gated cell is due, `None` if the queue is empty.
fn try_pop<R>(
    sched: &mut Sched<R>,
    now: Instant,
) -> Result<(Arc<R>, Pending, usize), Option<Duration>> {
    let mut soonest: Option<Instant> = None;
    for _ in 0..sched.queue.len() {
        let (run, mut cells) = sched.queue.pop_front().expect("queue length checked");
        if let Some(pos) = cells
            .iter()
            .position(|p| p.not_before.is_none_or(|t| t <= now))
        {
            let pending = cells.remove(pos).expect("position from iter");
            let depth = cells.len() + sched.queue.iter().map(|(_, c)| c.len()).sum::<usize>();
            if !cells.is_empty() {
                sched.queue.push_back((Arc::clone(&run), cells));
            }
            return Ok((run, pending, depth));
        }
        let gates = cells.iter().filter_map(|p| p.not_before);
        soonest = soonest.into_iter().chain(gates).min();
        sched.queue.push_back((run, cells));
    }
    Err(soonest.map(|t| {
        t.saturating_duration_since(now)
            .max(Duration::from_millis(1))
    }))
}

/// A fair cell queue plus what the claim, retry and completion steps
/// share: the result cache, the retry policy and the claim counters.
#[derive(Debug)]
pub struct Scheduler<R> {
    sched: Mutex<Sched<R>>,
    work: Condvar,
    cache: Option<ResultCache>,
    retries: u32,
    backoff: BackoffPolicy,
    timeout: Option<Duration>,
    /// Once requested, workers report queued cells as
    /// [`JobOutcome::Skipped`] instead of starting them.
    shutdown: Option<ShutdownFlag>,
    /// Claims that took ownership, hit the cache, joined an execution.
    claims: [AtomicU64; 3],
}

impl<R> Scheduler<R> {
    /// An empty scheduler allowing `retries` extra attempts per cell on
    /// the `backoff` schedule; `timeout` is the per-attempt deadline.
    pub fn new(
        cache: Option<ResultCache>,
        retries: u32,
        backoff: BackoffPolicy,
        timeout: Option<Duration>,
        shutdown: Option<ShutdownFlag>,
    ) -> Scheduler<R> {
        Scheduler {
            sched: Mutex::new(Sched {
                queue: VecDeque::new(),
                inflight: HashMap::new(),
                draining: false,
            }),
            work: Condvar::new(),
            cache,
            retries,
            backoff,
            timeout,
            shutdown,
            claims: Default::default(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Sched<R>> {
        self.sched.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The per-attempt deadline.
    pub fn timeout(&self) -> Option<Duration> {
        self.timeout
    }

    /// `(executed, cache_hits, dedup_joins)`: claims that took
    /// ownership, were served from the cache, or joined an execution.
    pub fn stats(&self) -> (u64, u64, u64) {
        let [own, hit, join] = self.claims.each_ref().map(|a| a.load(Ordering::Relaxed));
        (own, hit, join)
    }

    /// Queues cells of `run`: appended to its entry in the rotation, or
    /// in a new entry at the back.
    pub fn enqueue(&self, run: &Arc<R>, cells: impl IntoIterator<Item = Pending>) {
        let cells: VecDeque<Pending> = cells.into_iter().collect();
        if cells.is_empty() {
            return;
        }
        let mut sched = self.lock();
        match sched.queue.iter_mut().find(|(r, _)| Arc::ptr_eq(r, run)) {
            Some((_, queued)) => queued.extend(cells),
            None => sched.queue.push_back((Arc::clone(run), cells)),
        }
        drop(sched);
        self.work.notify_all();
    }

    /// No more runs arrive: workers exit once the queue is empty.
    pub fn drain(&self) {
        self.lock().draining = true;
        self.work.notify_all();
    }

    /// Whether [`drain`](Self::drain) was called.
    pub fn draining(&self) -> bool {
        self.lock().draining
    }

    /// Wakes every waiting popper to re-check its readiness.
    pub fn notify(&self) {
        self.work.notify_all();
    }

    /// Sleeps up to `d` or until woken; `true` (at once) when draining.
    pub fn pause(&self, d: Duration) -> bool {
        let sched = self.lock();
        if !sched.draining {
            let _ = self.work.wait_timeout(sched, d);
            return false;
        }
        true
    }

    /// The one pop loop: blocks until a due cell can go to a popper that
    /// `ready(draining)` says takes one (`Some(true)`; `Some(false)`:
    /// not yet). Returns `None` when `ready` says stop or the draining
    /// queue is empty. The cell comes with the queue depth it left.
    pub fn next(&self, ready: impl Fn(bool) -> Option<bool>) -> Option<(Arc<R>, Pending, usize)> {
        let mut sched = self.lock();
        loop {
            let wait = match ready(sched.draining)? {
                false => POLL,
                true => match try_pop(&mut sched, Instant::now()) {
                    Ok(cell) => return Some(cell),
                    Err(Some(due)) => due.min(POLL),
                    Err(None) if sched.draining => return None,
                    Err(None) => POLL,
                },
            };
            sched = self
                .work
                .wait_timeout(sched, wait)
                .map_or_else(|e| e.into_inner().0, |r| r.0);
        }
    }
}

/// How a run's cells split against its journal.
#[derive(Debug, Default)]
pub struct Partition {
    /// Cells with a journalled outcome, in rseq order: not executed.
    pub replayed: Vec<(usize, ReplayedJob)>,
    /// Cells still to run, in submission order.
    pub pending: VecDeque<Pending>,
    /// Pending cells that were in flight when the journalled run died.
    pub recovered: usize,
}

/// Splits cells (canonical keys, indexed by seq) against a journal
/// replay — for a resumed batch, a resumed service submission and a
/// service restart alike.
pub fn partition<'k>(keys: impl IntoIterator<Item = &'k str>, replay: &JournalReplay) -> Partition {
    let mut part = Partition::default();
    for (seq, key) in keys.into_iter().enumerate() {
        match replay.completed.get(key) {
            Some(done) => part.replayed.push((seq, done.clone())),
            None => {
                part.recovered += usize::from(replay.in_flight.contains(key));
                part.pending.push_back(Pending::fresh(seq));
            }
        }
    }
    // Replaying in rseq order keeps a client's watermark gapless.
    part.replayed.sort_by_key(|(_, done)| done.rseq);
    part
}

/// One local worker: runs popped cells to a terminal outcome until the
/// draining queue is empty.
pub fn work<H: Host>(host: &H, worker: usize) {
    while let Some((run, pending, depth)) = host.core().next(|_| Some(true)) {
        let state = H::state(&run);
        let seq = pending.seq;
        let picked = Instant::now();
        let label = &state.labels[seq];
        let tr = state.trace.as_ref().map(|t| t.begin(worker, label, depth));
        let tr = tr.as_ref();
        let (kind, attempts) = if host
            .core()
            .shutdown
            .as_ref()
            .is_some_and(ShutdownFlag::requested)
        {
            // Draining: start nothing, journal nothing — it re-runs on
            // resume.
            if let Some(t) = tr {
                t.instant("skipped", Vec::new());
            }
            let report = state.report(seq, JobOutcome::Skipped, 0, picked);
            finish_cell(host, &run, seq, report, tr);
            ("skipped", 0)
        } else {
            let claimed = match pending.owned {
                true => Claim::Own,
                false => claim(host, &run, seq, tr),
            };
            match claimed {
                Claim::Finished => ("cached", 0),
                Claim::Joined => ("joined", 0),
                Claim::Own => execute(host, &run, seq, pending.attempt, picked, tr),
            }
        };
        if let Some(t) = tr {
            t.close(kind, attempts);
        }
    }
}

/// How claiming a cell resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Claim {
    /// Served from the result cache: the cell is finished.
    Finished,
    /// Joined another cell's execution of the same key as a waiter.
    Joined,
    /// The caller owns the execution (the in-flight slot is held).
    Own,
}

/// The one on-worker retry loop: an owned cell's attempts follow each
/// other on the worker, sleeping each backoff delay between them, and
/// the cell completes. Returns the outcome kind and the attempts spent
/// (counting `consumed` earlier ones).
fn execute<H: Host>(
    host: &H,
    run: &Arc<H::Run>,
    seq: usize,
    consumed: u32,
    picked: Instant,
    tr: Option<&CellTrace>,
) -> (&'static str, u32) {
    let supervised = host.supervised(run, seq);
    let (mut attempts, mut backoff_ms) = (consumed, 0.0);
    let outcome = loop {
        attempts += 1;
        let span = tr.map(|t| {
            let mut s = t.span("execute");
            s.arg("attempt", u64::from(attempts));
            s.arg("mode", if supervised { "process" } else { "inline" });
            s
        });
        let exec = tr.zip(span.as_ref()).map(|(t, s)| ExecSpan {
            lane: t.lane,
            cell: t.label,
            id: s.span_id(),
        });
        let attempt = host.attempt(run, seq, exec.as_ref());
        drop(span);
        match settle(host.core(), attempt, attempts, supervised, tr) {
            Ok(outcome) => break outcome,
            Err(delay) => {
                std::thread::sleep(delay);
                backoff_ms += delay.as_secs_f64() * 1e3;
            }
        }
    };
    let kind = outcome.kind();
    let mut report = H::state(run).report(seq, outcome, attempts, picked);
    report.backoff_ms = backoff_ms;
    complete_owned(host, run, seq, report, tr);
    (kind, attempts)
}

/// Claims one fresh cell: journal its `job_start`, then the result-cache
/// lookup, then in-flight dedup.
pub fn claim<H: Host>(host: &H, run: &Arc<H::Run>, seq: usize, tr: Option<&CellTrace>) -> Claim {
    let core = host.core();
    let state = H::state(run);
    let key = state.keys[seq].as_str();
    if let Some(j) = &state.journal {
        let _s = tr.map(|t| t.span("journal-append"));
        j.job_start(seq, key, &state.labels[seq]);
    }
    host.started(run, seq);

    let since = Instant::now();
    if let (Some(cache), Some(k)) = (&core.cache, JobKey::from_canonical(key)) {
        let lookup = tr.map(|t| t.span("cache-lookup"));
        let hit = cache.lookup(&k);
        drop(lookup);
        if let Some(t) = tr {
            let marker = if hit.is_some() {
                "cache-hit"
            } else {
                "cache-miss"
            };
            t.instant(marker, Vec::new());
        }
        if let Some(payload) = hit {
            core.claims[1].fetch_add(1, Ordering::Relaxed);
            let report = state.report(seq, JobOutcome::Cached(payload), 0, since);
            finish_cell(host, run, seq, report, tr);
            return Claim::Finished;
        }
    }

    let mut sched = core.lock();
    if let Some(waiters) = sched.inflight.get_mut(key) {
        waiters.push((Arc::clone(run), seq));
        core.claims[2].fetch_add(1, Ordering::Relaxed);
        return Claim::Joined;
    }
    sched.inflight.insert(key.to_owned(), Vec::new());
    core.claims[0].fetch_add(1, Ordering::Relaxed);
    Claim::Own
}

/// The one mapping from an attempt to an outcome: the payload, or the
/// failure class the backoff policy judges plus the outcome the cell
/// ends with if it is not retried. `attempts` counts this attempt;
/// `supervised` attempts ran in a child process.
///
/// # Errors
///
/// Every attempt that produced no payload.
pub fn outcome_of(
    attempt: ChildAttempt,
    attempts: u32,
    supervised: bool,
    timeout: Option<Duration>,
) -> Result<JsonValue, (FailureClass, JobOutcome)> {
    Err(match attempt {
        ChildAttempt::Ok(payload) => return Ok(payload),
        ChildAttempt::Err(e) => (
            FailureClass::Structured,
            JobOutcome::Errored {
                category: e.category,
                error: e.message,
            },
        ),
        ChildAttempt::Crashed(error) if supervised => (
            FailureClass::Crash,
            JobOutcome::Poisoned {
                error: format!("quarantined after {attempts} attempt(s): {error}"),
            },
        ),
        ChildAttempt::Crashed(error) => (FailureClass::Crash, JobOutcome::Failed { error }),
        ChildAttempt::Hung => {
            let ms = timeout.map_or(0, |t| t.as_millis());
            let fate = if supervised {
                "child process(es) killed"
            } else {
                "attempt thread(s) abandoned"
            };
            let error = format!("no result within {ms} ms on any of {attempts} attempt(s); {fate}");
            (FailureClass::Hang, JobOutcome::TimedOut { error })
        }
    })
}

/// Maps an attempt and lets the backoff policy decide whether another
/// follows: the terminal outcome, or the delay before the next attempt.
fn settle<R>(
    core: &Scheduler<R>,
    attempt: ChildAttempt,
    attempts: u32,
    supervised: bool,
    tr: Option<&CellTrace>,
) -> Result<JobOutcome, Duration> {
    let (class, failure) = match outcome_of(attempt, attempts, supervised, core.timeout) {
        Ok(payload) => return Ok(JobOutcome::Ok(payload)),
        Err(failed) => failed,
    };
    let delay = core.backoff.next_delay(class, attempts, core.retries);
    let marker = match (&failure, delay) {
        (_, Some(_)) => "retry",
        (JobOutcome::Failed { .. }, None) => "crashed",
        (JobOutcome::Poisoned { .. }, None) => "poisoned",
        (JobOutcome::TimedOut { .. }, None) => "timeout",
        _ => "",
    };
    if let (Some(t), false) = (tr, marker.is_empty()) {
        let args = delay.map_or_else(Vec::new, |d| {
            vec![
                (
                    "class".to_owned(),
                    JsonValue::from(format!("{class:?}").to_lowercase()),
                ),
                ("attempt".to_owned(), JsonValue::from(u64::from(attempts))),
                ("delay_ms".to_owned(), JsonValue::F64(d.as_secs_f64() * 1e3)),
            ]
        });
        t.instant(marker, args);
    }
    delay.map_or(Ok(failure), Err)
}

/// A remotely executed attempt of an owned cell (`attempts` counts it):
/// the cell re-enters the queue, backoff-gated and still owned — a
/// remote attempt cannot sleep on a local worker — or completes.
pub fn retry_or_complete<H: Host>(
    host: &H,
    run: &Arc<H::Run>,
    seq: usize,
    attempt: ChildAttempt,
    attempts: u32,
) {
    let core = host.core();
    match settle(core, attempt, attempts, host.supervised(run, seq), None) {
        Ok(outcome) => {
            let report = H::state(run).report(seq, outcome, attempts, Instant::now());
            complete_owned(host, run, seq, report, None);
        }
        Err(delay) => core.enqueue(
            run,
            [Pending {
                seq,
                attempt: attempts,
                owned: true,
                not_before: (!delay.is_zero()).then(|| Instant::now() + delay),
            }],
        ),
    }
}

/// Completes an owned cell: store a payload in the cache, finish the
/// cell, and resolve its dedup waiters — the payload reaches them as
/// [`JobOutcome::Cached`], a failure verbatim.
pub fn complete_owned<H: Host>(
    host: &H,
    run: &Arc<H::Run>,
    seq: usize,
    report: JobReport,
    tr: Option<&CellTrace>,
) {
    let core = host.core();
    let key = H::state(run).keys[seq].as_str();
    if let (JobOutcome::Ok(payload), Some(cache)) = (&report.outcome, &core.cache) {
        if let Some(k) = JobKey::from_canonical(key) {
            let store = tr.map(|t| t.span("cache-store"));
            if let Err(e) = cache.store(&k, payload) {
                eprintln!("warning: cannot cache result of {}: {e}", report.label);
            }
            drop(store);
        }
    }
    let shared = match report.outcome.payload() {
        Some(v) => JobOutcome::Cached(v.clone()),
        None => report.outcome.clone(),
    };
    finish_cell(host, run, seq, report, tr);
    let waiters = core.lock().inflight.remove(key).unwrap_or_default();
    for (wrun, wseq) in waiters {
        let report = H::state(&wrun).report(wseq, shared.clone(), 0, Instant::now());
        finish_cell(host, &wrun, wseq, report, None);
    }
}

/// Journals, tallies and delivers one cell's terminal report as one
/// step under the run's emit lock; the last cell closes out the run. A
/// [`JobOutcome::Skipped`] cell is not journalled, so a resume runs it.
fn finish_cell<H: Host>(
    host: &H,
    run: &Arc<H::Run>,
    seq: usize,
    report: JobReport,
    tr: Option<&CellTrace>,
) {
    let state = H::state(run);
    let emit = state.emit_lock();
    let rseq = match &state.journal {
        Some(j) if report.outcome != JobOutcome::Skipped => {
            let _s = tr.map(|t| t.span("journal-append"));
            let (key, label) = (&state.keys[seq], &state.labels[seq]);
            j.job_done_tracked(seq, key, label, &report.outcome, report.attempts)
        }
        _ => 0,
    };
    state.tally(&report.outcome);
    // The cell span ends first: this delivery may close out the run
    // and write its trace.
    if let Some(t) = tr {
        t.close(report.outcome.kind(), report.attempts);
    }
    host.deliver(run, seq, report, rseq);
    drop(emit);
    if state.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
        host.finished(run);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::JobError;

    #[test]
    fn every_attempt_kind_maps_to_one_outcome() {
        let crash = || ChildAttempt::Crashed("signal: 9".to_owned());
        let hung = "no result within 250 ms on any of 2 attempt(s); ";
        let table = [
            (
                ChildAttempt::Ok(JsonValue::U64(7)),
                true,
                None,
                "ok",
                String::new(),
            ),
            (
                ChildAttempt::Err(JobError::new("invariant", "llc drift")),
                false,
                Some(FailureClass::Structured),
                "error",
                "llc drift".to_owned(),
            ),
            (
                crash(),
                false,
                Some(FailureClass::Crash),
                "failed",
                "signal: 9".to_owned(),
            ),
            (
                crash(),
                true,
                Some(FailureClass::Crash),
                "poisoned",
                "quarantined after 2 attempt(s): signal: 9".to_owned(),
            ),
            (
                ChildAttempt::Hung,
                false,
                Some(FailureClass::Hang),
                "timeout",
                format!("{hung}attempt thread(s) abandoned"),
            ),
            (
                ChildAttempt::Hung,
                true,
                Some(FailureClass::Hang),
                "timeout",
                format!("{hung}child process(es) killed"),
            ),
        ];
        for (attempt, supervised, class, kind, error) in table {
            let what = format!("{attempt:?} (supervised: {supervised})");
            let (got, outcome) =
                match outcome_of(attempt, 2, supervised, Some(Duration::from_millis(250))) {
                    Ok(payload) => (None, JobOutcome::Ok(payload)),
                    Err((class, outcome)) => (Some(class), outcome),
                };
            assert_eq!(got, class, "{what}");
            assert_eq!(outcome.kind(), kind, "{what}");
            assert_eq!(outcome.error().unwrap_or(""), error, "{what}");
        }
    }

    /// One bare run whose reports are collected.
    struct Probe {
        core: Scheduler<RunState>,
        out: Mutex<Vec<JobReport>>,
    }

    impl Host for Probe {
        type Run = RunState;
        fn core(&self) -> &Scheduler<RunState> {
            &self.core
        }
        fn state(run: &RunState) -> &RunState {
            run
        }
        fn supervised(&self, _: &RunState, _: usize) -> bool {
            true
        }
        fn attempt(&self, _: &RunState, _: usize, _: Option<&ExecSpan>) -> ChildAttempt {
            unreachable!("the test drives attempts itself")
        }
        fn deliver(&self, _: &RunState, _: usize, report: JobReport, _: u64) {
            self.out.lock().unwrap().push(report);
        }
    }

    #[test]
    fn a_repeated_key_joins_the_execution_in_flight() {
        let host = Probe {
            core: Scheduler::new(None, 1, BackoffPolicy::immediate(), None, None),
            out: Mutex::default(),
        };
        let keys = vec!["k".to_owned(); 2];
        let run = Arc::new(RunState::new(
            keys,
            vec!["a".into(), "b".into()],
            None,
            2,
            None,
        ));
        assert_eq!(claim(&host, &run, 0, None), Claim::Own);
        assert_eq!(claim(&host, &run, 1, None), Claim::Joined);
        // A remote crash re-queues the owned cell; its retry succeeds and
        // resolves the waiter.
        retry_or_complete(&host, &run, 0, ChildAttempt::Crashed("gone".into()), 1);
        assert!(host.out.lock().unwrap().is_empty());
        let (_, retry, _) = host.core.next(|_| Some(true)).unwrap();
        assert!(retry.owned && retry.attempt == 1);
        retry_or_complete(&host, &run, 0, ChildAttempt::Ok(JsonValue::U64(42)), 2);
        let out = host.out.lock().unwrap();
        let got: Vec<_> = out
            .iter()
            .map(|r| (r.label.as_str(), r.outcome.kind()))
            .collect();
        assert_eq!(got, [("a", "ok"), ("b", "cached")]);
        assert_eq!(out[1].outcome.payload(), Some(&JsonValue::U64(42)));
        assert_eq!((host.core.stats(), run.remaining()), ((1, 0, 1), 0));
    }

    #[test]
    fn rotation_interleaves_runs_and_honours_backoff_gates() {
        let (a, b) = (Arc::new("a"), Arc::new("b"));
        let core: Scheduler<&str> = Scheduler::new(None, 0, BackoffPolicy::default(), None, None);
        core.enqueue(&a, (0..2).map(Pending::fresh));
        core.enqueue(&b, [Pending::fresh(0)]);
        let gate = Some(Instant::now() + Duration::from_secs(3600));
        core.enqueue(
            &b,
            [Pending {
                not_before: gate,
                ..Pending::fresh(1)
            }],
        );
        let mut sched = core.lock();
        let mut order = Vec::new();
        while let Ok((run, p, _)) = try_pop(&mut sched, Instant::now()) {
            order.push((*run, p.seq));
        }
        assert_eq!(order, [("a", 0), ("b", 0), ("a", 1)]);
        let wait = try_pop(&mut sched, Instant::now()).map(|_| ()).unwrap_err();
        assert!(wait > Some(Duration::from_secs(3000)));
    }
}
