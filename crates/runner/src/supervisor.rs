//! Subprocess job supervision: `--isolate=process`.
//!
//! In process isolation, each attempt re-execs the current binary with a
//! hidden `__run-job <WORKLOAD>` entrypoint instead of calling the job
//! closure in-process. The child computes exactly one cell and prints
//! its result as the final stdout line, framed by
//! [`RESULT_MARKER`]:
//!
//! ```text
//! __cmpsim_result__ {"ok":{...results_json payload...}}
//! __cmpsim_result__ {"err":{"category":"invariant","message":"..."}}
//! ```
//!
//! Anything the child printed before the marker (figure headers,
//! progress notes) is ignored, so binaries need no output discipline in
//! child mode. A child that dies without a marker — abort, OOM kill,
//! stack overflow, segfault — is a *crash*: contained to that cell,
//! retried on the [`BackoffPolicy`](crate::BackoffPolicy) schedule, and
//! quarantined as [`JobOutcome::Poisoned`](crate::JobOutcome) when the
//! attempt budget runs out. Unlike the in-process watchdog (which can
//! only abandon a hung thread), a hung child is **killed** at the
//! deadline, so process mode leaks nothing.

use crate::pool::JobError;
use cmpsim_telemetry::trace::{events_to_json, TraceEvent};
use cmpsim_telemetry::JsonValue;
use std::io::Read;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Marker prefix of the one machine-readable stdout line a `__run-job`
/// child emits.
pub const RESULT_MARKER: &str = "__cmpsim_result__";

/// Marker prefix of the optional flight-recorder line a traced child
/// emits *before* its result: `__cmpsim_trace__ {"dropped":N,
/// "events":[...]}`. The parent grafts these events under the cell's
/// span so the whole grid — parent pool and child processes — renders
/// as one timeline.
pub const TRACE_MARKER: &str = "__cmpsim_trace__";

/// Environment variable the supervisor sets on a child when the parent
/// is tracing; a child entrypoint that sees it records its own spans
/// and emits them via [`emit_trace`].
pub const CHILD_TRACE_ENV: &str = "CMPSIM_CHILD_TRACE";

/// The hidden argv token that routes a binary into single-cell child
/// mode.
pub const CHILD_ENTRY: &str = "__run-job";

/// Child-side half of the protocol: prints `res` as the marker line.
/// Call this as the last thing a `__run-job` entrypoint does, then exit
/// 0 (a structured error is a *successful* report of a failed cell).
pub fn emit_result(res: &Result<JsonValue, JobError>) {
    let doc = match res {
        Ok(v) => JsonValue::object([("ok", v.clone())]),
        Err(e) => JsonValue::object([(
            "err",
            JsonValue::object([
                ("category", JsonValue::from(e.category.as_str())),
                ("message", JsonValue::from(e.message.as_str())),
            ]),
        )]),
    };
    println!("{RESULT_MARKER} {}", doc.to_json());
}

/// Child-side half of trace propagation: prints the recorded events as
/// the trace marker line. Call before [`emit_result`] so the result
/// stays the final line.
pub fn emit_trace(events: &[TraceEvent], dropped: u64) {
    println!(
        "{TRACE_MARKER} {}",
        events_to_json(events, dropped).to_json()
    );
}

/// Whether the supervising parent asked this process to trace itself.
pub fn child_trace_requested() -> bool {
    std::env::var_os(CHILD_TRACE_ENV).is_some_and(|v| v == "1")
}

/// How one supervised attempt ended, as the parent sees it.
#[derive(Debug)]
pub enum ChildAttempt {
    /// The child reported a result payload.
    Ok(JsonValue),
    /// The child reported a structured (deterministic) job error.
    Err(JobError),
    /// The child died without reporting: signal, abort, bad exit.
    Crashed(String),
    /// The child outlived the deadline and was killed.
    Hung,
}

/// One supervised attempt plus the trace events the child reported
/// (empty unless the parent asked for tracing and the child complied).
#[derive(Debug)]
pub struct SupervisedAttempt {
    /// How the attempt ended.
    pub attempt: ChildAttempt,
    /// Trace events the child shipped over the marker protocol.
    pub trace: Vec<TraceEvent>,
    /// Events the child's own recorder dropped.
    pub trace_dropped: u64,
}

impl SupervisedAttempt {
    fn bare(attempt: ChildAttempt) -> SupervisedAttempt {
        SupervisedAttempt {
            attempt,
            trace: Vec::new(),
            trace_dropped: 0,
        }
    }
}

/// Runs one supervised attempt of `program` speaking the
/// [`RESULT_MARKER`] protocol: spawns it with `args`, waits (killing at
/// `timeout` if set), and parses the marker line(s). With `trace` set,
/// the child is asked (via [`CHILD_TRACE_ENV`]) to report its own
/// spans. A local `--isolate process` attempt runs the current
/// executable; the grid service runs the executable a client submitted
/// with its per-cell argv.
pub fn run_program(
    program: &Path,
    args: &[String],
    timeout: Option<Duration>,
    trace: bool,
) -> SupervisedAttempt {
    run_program_inner(program, args, timeout, trace, false)
}

/// [`run_program`]; with `sabotage_kill` the child is SIGKILLed right
/// after spawn, before it can report, so the attempt ends as a genuine
/// [`ChildAttempt::Crashed`] — the chaos hook behind the service's
/// `--chaos-kill-label`.
pub(crate) fn run_program_inner(
    exe: &Path,
    args: &[String],
    timeout: Option<Duration>,
    trace: bool,
    sabotage_kill: bool,
) -> SupervisedAttempt {
    let mut cmd = Command::new(exe);
    cmd.args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    if trace {
        cmd.env(CHILD_TRACE_ENV, "1");
    } else {
        // Never inherit a stale request from our own environment.
        cmd.env_remove(CHILD_TRACE_ENV);
    }
    let mut child = match cmd.spawn() {
        Ok(c) => c,
        Err(e) => {
            return SupervisedAttempt::bare(ChildAttempt::Crashed(format!(
                "cannot spawn job process: {e}"
            )))
        }
    };
    if sabotage_kill {
        let _ = child.kill();
    }

    // Drain both pipes on their own threads so a chatty child can never
    // deadlock against a full pipe while we wait on it.
    let stdout = child.stdout.take().map(drain);
    let stderr = child.stderr.take().map(drain);

    let deadline = timeout.map(|t| Instant::now() + t);
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) => {
                if deadline.is_some_and(|d| Instant::now() >= d) {
                    let _ = child.kill();
                    let _ = child.wait();
                    join(stdout);
                    join(stderr);
                    return SupervisedAttempt::bare(ChildAttempt::Hung);
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => {
                let _ = child.kill();
                return SupervisedAttempt::bare(ChildAttempt::Crashed(format!(
                    "cannot wait for job process: {e}"
                )));
            }
        }
    };
    let out = join(stdout);
    let err = join(stderr);

    // Trust the marker wherever it is: a child that reported and then
    // crashed in teardown still produced its cell.
    let attempt = match parse_result(&out) {
        Some(Ok(v)) => ChildAttempt::Ok(v),
        Some(Err(e)) => ChildAttempt::Err(e),
        None => ChildAttempt::Crashed(crash_message(&status.to_string(), &err)),
    };
    let (trace, trace_dropped) = parse_trace(&out).unwrap_or_default();
    SupervisedAttempt {
        attempt,
        trace,
        trace_dropped,
    }
}

/// Parses the last marker line of a child's stdout.
pub(crate) fn parse_result(stdout: &str) -> Option<Result<JsonValue, JobError>> {
    let line = stdout
        .lines()
        .rev()
        .find_map(|l| l.trim().strip_prefix(RESULT_MARKER))?;
    let doc = cmpsim_telemetry::parse(line.trim()).ok()?;
    if let Some(ok) = doc.get("ok") {
        return Some(Ok(ok.clone()));
    }
    let err = doc.get("err")?;
    Some(Err(JobError::new(
        err.get("category").and_then(JsonValue::as_str)?,
        err.get("message").and_then(JsonValue::as_str)?,
    )))
}

/// Parses the last trace marker line of a child's stdout (if any).
pub(crate) fn parse_trace(stdout: &str) -> Option<(Vec<TraceEvent>, u64)> {
    let line = stdout
        .lines()
        .rev()
        .find_map(|l| l.trim().strip_prefix(TRACE_MARKER))?;
    let doc = cmpsim_telemetry::parse(line.trim()).ok()?;
    cmpsim_telemetry::trace::events_from_json(&doc)
}

fn crash_message(status: &str, stderr: &str) -> String {
    let tail: String = {
        let t = stderr.trim();
        let start = t.len().saturating_sub(400);
        // Don't split a UTF-8 sequence when trimming to the tail.
        let start = (start..t.len())
            .find(|&i| t.is_char_boundary(i))
            .unwrap_or(t.len());
        t[start..].to_owned()
    };
    if tail.is_empty() {
        format!("job process died without a result ({status})")
    } else {
        format!("job process died without a result ({status}); stderr tail: {tail}")
    }
}

fn drain(mut pipe: impl Read + Send + 'static) -> std::thread::JoinHandle<String> {
    std::thread::spawn(move || {
        let mut buf = String::new();
        let _ = pipe.read_to_string(&mut buf);
        buf
    })
}

fn join(handle: Option<std::thread::JoinHandle<String>>) -> String {
    handle.and_then(|h| h.join().ok()).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marker_line_parses_after_noise() {
        let out = format!(
            "Figure 4: header noise\nplot rows...\n{RESULT_MARKER} {}\n",
            "{\"ok\":{\"mpki\":1.5}}"
        );
        let parsed = parse_result(&out).unwrap().unwrap();
        assert_eq!(parsed.get("mpki").and_then(JsonValue::as_f64), Some(1.5));
    }

    #[test]
    fn structured_error_round_trips() {
        let out = format!(
            "{RESULT_MARKER} {}",
            "{\"err\":{\"category\":\"invariant\",\"message\":\"llc drift\"}}"
        );
        let err = parse_result(&out).unwrap().unwrap_err();
        assert_eq!(err.category, "invariant");
        assert_eq!(err.message, "llc drift");
    }

    #[test]
    fn missing_marker_is_a_crash() {
        assert!(parse_result("no marker here\n").is_none());
        assert!(parse_result("").is_none());
    }

    #[test]
    fn trace_marker_parses_alongside_result() {
        use cmpsim_telemetry::trace::{EventKind, TraceEvent};
        let ev = TraceEvent {
            name: "cosim".to_owned(),
            cell: String::new(),
            lane: 0,
            id: 4,
            parent: 0,
            ts_ns: 1_000,
            kind: EventKind::Span { dur_ns: 2_000 },
            args: Vec::new(),
        };
        let out = format!(
            "noise\n{TRACE_MARKER} {}\n{RESULT_MARKER} {}\n",
            events_to_json(std::slice::from_ref(&ev), 5).to_json(),
            "{\"ok\":{\"mpki\":1.5}}"
        );
        let (events, dropped) = parse_trace(&out).unwrap();
        assert_eq!(events, [ev]);
        assert_eq!(dropped, 5);
        assert!(parse_result(&out).unwrap().is_ok());
        assert!(parse_trace("just a result, no trace\n").is_none());
    }

    #[test]
    fn crash_message_includes_stderr_tail() {
        let m = crash_message("signal: 6 (SIGABRT)", "thread panicked: boom");
        assert!(m.contains("SIGABRT"));
        assert!(m.contains("boom"));
        assert!(crash_message("exit status: 1", "").contains("without a result"));
    }
}
