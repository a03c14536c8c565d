//! Integration tests for the worker pool: ordering determinism, cache
//! warm-up, panic isolation, deterministic backoff, journal resume,
//! process-isolation quarantine, and graceful shutdown.

use cmpsim_runner::{
    BackoffPolicy, ExperimentJob, IsolateMode, JobKey, JobOutcome, JournalConfig, Runner,
    RunnerConfig, ShutdownFlag,
};
use cmpsim_telemetry::{JsonValue, MetricRegistry};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cmpsim_runner_test_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn square_jobs(n: u64) -> Vec<ExperimentJob> {
    (0..n)
        .map(|i| {
            ExperimentJob::new(
                format!("sq{i}"),
                JobKey::new("squares").field("i", i),
                move || JsonValue::U64(i * i),
            )
        })
        .collect()
}

#[test]
fn parallel_results_match_serial_in_submission_order() {
    let serial = Runner::new(RunnerConfig::default()).run(square_jobs(16));
    let parallel = Runner::new(RunnerConfig {
        workers: 4,
        ..RunnerConfig::default()
    })
    .run(square_jobs(16));
    assert_eq!(parallel.workers, 4);
    let s: Vec<&JsonValue> = serial.payloads().collect();
    let p: Vec<&JsonValue> = parallel.payloads().collect();
    assert_eq!(s, p);
    assert_eq!(p.len(), 16);
    assert_eq!(p[3].as_u64(), Some(9));
}

#[test]
fn workers_never_exceed_jobs() {
    let report = Runner::new(RunnerConfig {
        workers: 64,
        ..RunnerConfig::default()
    })
    .run(square_jobs(3));
    assert_eq!(report.workers, 3);
    assert_eq!(report.ok_count(), 3);
}

#[test]
fn warm_cache_executes_nothing() {
    let dir = temp_dir("warm");
    let cfg = RunnerConfig {
        workers: 2,
        cache_dir: Some(dir.clone()),
        ..RunnerConfig::default()
    };
    let executions = Arc::new(AtomicUsize::new(0));
    let jobs = |count: &Arc<AtomicUsize>| -> Vec<ExperimentJob> {
        (0..5u64)
            .map(|i| {
                let count = Arc::clone(count);
                ExperimentJob::new(
                    format!("cell{i}"),
                    JobKey::new("warmth").field("i", i),
                    move || {
                        count.fetch_add(1, Ordering::SeqCst);
                        JsonValue::U64(i + 100)
                    },
                )
            })
            .collect()
    };
    let cold = Runner::new(cfg.clone()).run(jobs(&executions));
    assert_eq!(cold.ok_count(), 5);
    assert_eq!(cold.cached_count(), 0);
    assert_eq!(executions.load(Ordering::SeqCst), 5);

    let warm = Runner::new(cfg).run(jobs(&executions));
    assert_eq!(warm.ok_count(), 0);
    assert_eq!(warm.cached_count(), 5);
    // Zero additional executions: every cell came off disk.
    assert_eq!(executions.load(Ordering::SeqCst), 5);
    // And the payloads are identical to the cold run's.
    assert_eq!(
        cold.payloads().collect::<Vec<_>>(),
        warm.payloads().collect::<Vec<_>>()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn panicking_job_fails_in_isolation_with_bounded_retry() {
    let attempts = Arc::new(AtomicUsize::new(0));
    let seen = Arc::clone(&attempts);
    let mut jobs = square_jobs(6);
    jobs.insert(
        3,
        ExperimentJob::new("bad", JobKey::new("panics"), move || {
            seen.fetch_add(1, Ordering::SeqCst);
            panic!("deliberate test panic");
        }),
    );
    let report = Runner::new(RunnerConfig {
        workers: 3,
        retries: 2,
        ..RunnerConfig::default()
    })
    .run(jobs);
    // The batch completed around the failure.
    assert_eq!(report.ok_count(), 6);
    assert_eq!(report.failed_count(), 1);
    // Bounded retry: 1 initial attempt + 2 retries.
    assert_eq!(attempts.load(Ordering::SeqCst), 3);
    assert_eq!(report.jobs[3].attempts, 3);
    let failures = report.failures();
    assert_eq!(failures.len(), 1);
    assert_eq!(failures[0].0, "bad");
    assert!(failures[0].1.contains("deliberate test panic"));
    // Failed jobs carry no payload; the others are untouched and ordered.
    assert!(report.jobs[3].outcome.payload().is_none());
    let vals: Vec<u64> = report.payloads().filter_map(|v| v.as_u64()).collect();
    assert_eq!(vals, [0, 1, 4, 9, 16, 25]);
    assert!(report.summary().contains("1 failed of 7 jobs"));
}

#[test]
fn failed_jobs_are_not_cached() {
    let dir = temp_dir("nofailcache");
    let cfg = RunnerConfig {
        cache_dir: Some(dir.clone()),
        retries: 0,
        ..RunnerConfig::default()
    };
    let make = |succeed: bool| {
        vec![ExperimentJob::new(
            "flaky",
            JobKey::new("flaky"),
            move || {
                if succeed {
                    JsonValue::Bool(true)
                } else {
                    panic!("first run fails")
                }
            },
        )]
    };
    let first = Runner::new(cfg.clone()).run(make(false));
    assert_eq!(first.failed_count(), 1);
    // The failure was not poisoned into the cache: the next run executes.
    let second = Runner::new(cfg).run(make(true));
    assert_eq!(second.ok_count(), 1);
    assert_eq!(second.cached_count(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn report_exports_telemetry_and_json() {
    let dir = temp_dir("telemetry");
    let cfg = RunnerConfig {
        workers: 2,
        cache_dir: Some(dir.clone()),
        ..RunnerConfig::default()
    };
    Runner::new(cfg.clone()).run(square_jobs(4));
    let report = Runner::new(cfg).run(square_jobs(4));
    let mut reg = MetricRegistry::new();
    report.export_metrics(&mut reg);
    assert_eq!(reg.counter_total("runner_jobs"), 4);

    let doc = report.to_json();
    assert_eq!(doc.get("cached").and_then(JsonValue::as_u64), Some(4));
    assert_eq!(doc.get("ok").and_then(JsonValue::as_u64), Some(0));
    let jobs = doc.get("jobs").unwrap().as_array().unwrap();
    assert_eq!(jobs.len(), 4);
    assert!(jobs
        .iter()
        .all(|j| j.get("outcome").and_then(JsonValue::as_str) == Some("cached")));
    // The document survives a serialize/parse round trip.
    assert_eq!(cmpsim_telemetry::parse(&doc.to_json()).unwrap(), doc);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn outcome_kinds() {
    assert_eq!(JobOutcome::Ok(JsonValue::Null).kind(), "ok");
    assert_eq!(JobOutcome::Cached(JsonValue::Null).kind(), "cached");
    assert_eq!(
        JobOutcome::Failed {
            error: String::new()
        }
        .kind(),
        "failed"
    );
    assert_eq!(
        JobOutcome::Errored {
            category: "protocol".into(),
            error: String::new()
        }
        .kind(),
        "error"
    );
    assert_eq!(
        JobOutcome::TimedOut {
            error: String::new()
        }
        .kind(),
        "timeout"
    );
}

#[test]
fn structured_errors_are_deterministic_and_not_retried() {
    let attempts = Arc::new(AtomicUsize::new(0));
    let seen = Arc::clone(&attempts);
    let mut jobs = square_jobs(3);
    jobs.insert(
        1,
        ExperimentJob::try_new("broken", JobKey::new("errs"), move || {
            seen.fetch_add(1, Ordering::SeqCst);
            Err(cmpsim_runner::JobError::new(
                "invariant",
                "sample count drifted from the cycle clock",
            ))
        }),
    );
    let report = Runner::new(RunnerConfig {
        retries: 3,
        ..RunnerConfig::default()
    })
    .run(jobs);
    assert_eq!(report.ok_count(), 3);
    assert_eq!(report.failed_count(), 1);
    // Deterministic failure: exactly one attempt despite retries = 3.
    assert_eq!(attempts.load(Ordering::SeqCst), 1);
    assert_eq!(
        report.jobs[1].outcome,
        JobOutcome::Errored {
            category: "invariant".into(),
            error: "sample count drifted from the cycle clock".into(),
        }
    );
    // The report JSON names the job, the kind, and the category.
    let doc = report.to_json();
    let jobs = doc.get("jobs").unwrap().as_array().unwrap();
    assert_eq!(
        jobs[1].get("outcome").and_then(JsonValue::as_str),
        Some("error")
    );
    assert_eq!(
        jobs[1].get("category").and_then(JsonValue::as_str),
        Some("invariant")
    );
    assert!(report.failures()[0].1.contains("sample count"));
}

#[test]
fn watchdog_abandons_hung_job_and_batch_completes() {
    let attempts = Arc::new(AtomicUsize::new(0));
    let seen = Arc::clone(&attempts);
    let mut jobs = square_jobs(4);
    jobs.insert(
        2,
        ExperimentJob::new("hung", JobKey::new("hangs"), move || {
            seen.fetch_add(1, Ordering::SeqCst);
            // Far beyond the deadline; the watchdog must not wait for it.
            std::thread::sleep(std::time::Duration::from_secs(60));
            JsonValue::Null
        }),
    );
    let started = std::time::Instant::now();
    let report = Runner::new(RunnerConfig {
        workers: 2,
        retries: 1,
        job_timeout: Some(std::time::Duration::from_millis(100)),
        ..RunnerConfig::default()
    })
    .run(jobs);
    assert!(
        started.elapsed() < std::time::Duration::from_secs(30),
        "the hung job stalled the batch"
    );
    // Every healthy cell completed in submission order under the deadline.
    assert_eq!(report.ok_count(), 4);
    assert_eq!(report.timed_out_count(), 1);
    assert_eq!(report.failed_count(), 1);
    let vals: Vec<u64> = report.payloads().filter_map(|v| v.as_u64()).collect();
    assert_eq!(vals, [0, 1, 4, 9]);
    // Retried once: two abandoned attempts in total.
    assert_eq!(report.jobs[2].attempts, 2);
    assert_eq!(attempts.load(Ordering::SeqCst), 2);
    assert!(matches!(
        &report.jobs[2].outcome,
        JobOutcome::TimedOut { error } if error.contains("2 attempt")
    ));
}

#[test]
fn flaky_job_succeeds_on_attempt_three_with_the_exact_backoff_schedule() {
    let policy = BackoffPolicy {
        base: Duration::from_millis(10),
        factor: 2,
        max: Duration::from_secs(1),
        retry_structured: false,
    };
    // Deterministic schedule: 10 ms before attempt 2, 20 ms before 3.
    let expected_ms: f64 = policy
        .schedule(2)
        .iter()
        .map(|d| d.as_secs_f64() * 1e3)
        .sum();
    let attempts = Arc::new(AtomicUsize::new(0));
    let seen = Arc::clone(&attempts);
    let jobs = vec![ExperimentJob::new(
        "flaky",
        JobKey::new("flaky_backoff"),
        move || {
            if seen.fetch_add(1, Ordering::SeqCst) < 2 {
                panic!("transient failure");
            }
            JsonValue::Bool(true)
        },
    )];
    let started = std::time::Instant::now();
    let report = Runner::new(RunnerConfig {
        retries: 2,
        backoff: policy,
        ..RunnerConfig::default()
    })
    .run(jobs);
    assert_eq!(report.ok_count(), 1);
    assert_eq!(report.jobs[0].attempts, 3);
    assert_eq!(attempts.load(Ordering::SeqCst), 3);
    // The report carries the *configured* delay total, exactly — no
    // clock noise, no jitter.
    assert_eq!(report.jobs[0].backoff_ms, expected_ms);
    assert_eq!(report.backoff_ms(), expected_ms);
    assert!(
        started.elapsed() >= Duration::from_millis(30),
        "the delays must actually have been slept"
    );
    let doc = report.to_json();
    let jobs = doc.get("jobs").unwrap().as_array().unwrap();
    assert_eq!(
        jobs[0].get("backoff_ms").and_then(JsonValue::as_f64),
        Some(expected_ms)
    );
}

#[test]
fn structured_errors_retry_only_when_the_policy_opts_in() {
    let attempts = Arc::new(AtomicUsize::new(0));
    let seen = Arc::clone(&attempts);
    let jobs = vec![ExperimentJob::try_new(
        "io_flake",
        JobKey::new("io_flake"),
        move || {
            if seen.fetch_add(1, Ordering::SeqCst) < 2 {
                Err(cmpsim_runner::JobError::new("io", "transient host hiccup"))
            } else {
                Ok(JsonValue::Bool(true))
            }
        },
    )];
    let report = Runner::new(RunnerConfig {
        retries: 2,
        backoff: BackoffPolicy {
            retry_structured: true,
            ..BackoffPolicy::immediate()
        },
        ..RunnerConfig::default()
    })
    .run(jobs);
    // The policy — not a special case at the failure site — decided the
    // structured error was retryable.
    assert_eq!(report.ok_count(), 1);
    assert_eq!(report.jobs[0].attempts, 3);
    assert_eq!(attempts.load(Ordering::SeqCst), 3);
}

#[test]
fn process_isolated_crash_is_quarantined_without_stalling_neighbours() {
    // The child argv re-execs this very test harness with a filter that
    // matches nothing: the child exits without ever printing the result
    // marker, which is exactly what an abort/OOM kill looks like to the
    // supervisor.
    let mut jobs = square_jobs(4);
    jobs.insert(
        2,
        ExperimentJob::new("doomed", JobKey::new("poison"), || JsonValue::Null)
            .with_child_args(vec!["no_test_matches_this_filter".to_owned()]),
    );
    let report = Runner::new(RunnerConfig {
        workers: 2,
        retries: 1,
        isolate: IsolateMode::Process,
        backoff: BackoffPolicy::immediate(),
        ..RunnerConfig::default()
    })
    .run(jobs);
    // Neighbours (inline fallback — no child argv) all completed.
    assert_eq!(report.ok_count(), 4);
    assert_eq!(report.poisoned_count(), 1);
    assert_eq!(report.failed_count(), 1);
    assert_eq!(
        report.jobs[2].attempts, 2,
        "crash retried before quarantine"
    );
    assert!(matches!(
        &report.jobs[2].outcome,
        JobOutcome::Poisoned { error } if error.contains("quarantined after 2 attempt")
    ));
    let vals: Vec<u64> = report.payloads().filter_map(|v| v.as_u64()).collect();
    assert_eq!(vals, [0, 1, 4, 9]);
    assert!(report.summary().contains("1 failed of 5 jobs"));
}

#[test]
fn shutdown_drains_queued_jobs_as_skipped() {
    let flag = ShutdownFlag::new();
    let tripper = flag.clone();
    let mut jobs = vec![ExperimentJob::new(
        "tripwire",
        JobKey::new("drain").field("i", 0u64),
        move || {
            tripper.request();
            JsonValue::Bool(true)
        },
    )];
    for i in 1..5u64 {
        jobs.push(ExperimentJob::new(
            format!("queued{i}"),
            JobKey::new("drain").field("i", i),
            move || JsonValue::U64(i),
        ));
    }
    let report = Runner::new(RunnerConfig {
        workers: 1,
        shutdown: Some(flag),
        ..RunnerConfig::default()
    })
    .run(jobs);
    // The in-flight job finished; everything queued behind it drained.
    assert!(report.interrupted);
    assert_eq!(report.ok_count(), 1);
    assert_eq!(report.skipped_count(), 4);
    assert_eq!(report.failed_count(), 4, "skipped cells count as failed");
    assert!(report.jobs[1..]
        .iter()
        .all(|j| j.outcome == JobOutcome::Skipped && j.attempts == 0));
    assert!(report.summary().contains("interrupted — 4 cells skipped"));
}

#[test]
fn journal_resume_replays_completed_cells_without_executing() {
    let dir = temp_dir("journal_resume");
    let executions = Arc::new(AtomicUsize::new(0));
    let make = |n: u64, poison_replayed: bool, count: &Arc<AtomicUsize>| {
        (0..n)
            .map(|i| {
                let count = Arc::clone(count);
                ExperimentJob::try_new(
                    format!("cell{i}"),
                    JobKey::new("resume").field("i", i),
                    move || {
                        count.fetch_add(1, Ordering::SeqCst);
                        // A replayed cell must never run again: fail loudly
                        // if it does.
                        if poison_replayed && i < 3 {
                            panic!("replayed cell {i} was re-executed");
                        }
                        if i == 1 {
                            Err(cmpsim_runner::JobError::new("invariant", "cell 1 drifts"))
                        } else {
                            Ok(JsonValue::U64(i * 10))
                        }
                    },
                )
            })
            .collect::<Vec<_>>()
    };
    // First (interrupted) run: only the first three cells existed.
    let first = Runner::new(RunnerConfig {
        journal: Some(JournalConfig::new(dir.clone(), "r1")),
        ..RunnerConfig::default()
    })
    .run(make(3, false, &executions));
    assert_eq!(first.ok_count(), 2);
    assert_eq!(first.failed_count(), 1);
    assert_eq!(executions.load(Ordering::SeqCst), 3);
    assert_eq!(first.run_id.as_deref(), Some("r1"));
    assert_eq!(first.replayed_count(), 0);

    // Resume with the full five-cell grid: the three journalled cells
    // replay (including the structured error), the two new ones run.
    let resumed = Runner::new(RunnerConfig {
        journal: Some(JournalConfig::new(dir.clone(), "r1").resuming()),
        ..RunnerConfig::default()
    })
    .run(make(5, true, &executions));
    assert_eq!(
        executions.load(Ordering::SeqCst),
        5,
        "only cells 3 and 4 ran"
    );
    assert_eq!(resumed.replayed_count(), 3);
    assert_eq!(resumed.ok_count(), 4);
    assert_eq!(resumed.failed_count(), 1);
    assert!(resumed.jobs[..3].iter().all(|j| j.replayed));
    assert!(resumed.jobs[3..].iter().all(|j| !j.replayed));
    // Replayed outcomes are byte-identical to the original run's,
    // including the error taxonomy.
    assert_eq!(resumed.jobs[0].outcome, first.jobs[0].outcome);
    assert_eq!(resumed.jobs[1].outcome, first.jobs[1].outcome);
    assert!(matches!(
        &resumed.jobs[1].outcome,
        JobOutcome::Errored { category, .. } if category == "invariant"
    ));
    let vals: Vec<u64> = resumed.payloads().filter_map(|v| v.as_u64()).collect();
    assert_eq!(vals, [0, 20, 30, 40]);
    assert!(resumed.summary().contains("3 replayed from journal"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn journal_recovers_in_flight_cells_by_reexecuting_them() {
    let dir = temp_dir("journal_inflight");
    // Simulate a run that died mid-cell: the journal holds a start
    // record with no matching outcome.
    {
        let cfg = JournalConfig::new(dir.clone(), "r2");
        let (j, _) = cmpsim_runner::RunJournal::open(&cfg).unwrap();
        let done = JobKey::new("inflight").field("i", 0u64);
        let dead = JobKey::new("inflight").field("i", 1u64);
        j.job_start(0, &done.canonical(), "cell0");
        j.job_done(
            0,
            &done.canonical(),
            "cell0",
            &JobOutcome::Ok(JsonValue::U64(0)),
            1,
        );
        j.job_start(1, &dead.canonical(), "cell1");
    }
    let executions = Arc::new(AtomicUsize::new(0));
    let count = Arc::clone(&executions);
    let jobs = (0..2u64)
        .map(|i| {
            let count = Arc::clone(&count);
            ExperimentJob::new(
                format!("cell{i}"),
                JobKey::new("inflight").field("i", i),
                move || {
                    count.fetch_add(1, Ordering::SeqCst);
                    JsonValue::U64(i * 10)
                },
            )
        })
        .collect();
    let report = Runner::new(RunnerConfig {
        journal: Some(JournalConfig::new(dir.clone(), "r2").resuming()),
        ..RunnerConfig::default()
    })
    .run(jobs);
    assert_eq!(report.replayed_count(), 1);
    assert_eq!(report.recovered, 1, "the in-flight cell was re-enqueued");
    assert_eq!(executions.load(Ordering::SeqCst), 1, "only cell 1 ran");
    assert_eq!(report.ok_count(), 2);
    let vals: Vec<u64> = report.payloads().filter_map(|v| v.as_u64()).collect();
    assert_eq!(vals, [0, 10]);
    assert!(report.summary().contains("1 in-flight recovered"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn new_outcome_kinds_roundtrip_through_json() {
    let outcomes = [
        JobOutcome::Ok(JsonValue::object([("mpki", JsonValue::F64(1.5))])),
        JobOutcome::Cached(JsonValue::U64(7)),
        JobOutcome::Failed {
            error: "boom".into(),
        },
        JobOutcome::Errored {
            category: "protocol".into(),
            error: "desync".into(),
        },
        JobOutcome::TimedOut {
            error: "deadline".into(),
        },
        JobOutcome::Poisoned {
            error: "child died".into(),
        },
        JobOutcome::Skipped,
    ];
    assert_eq!(
        JobOutcome::Poisoned {
            error: String::new()
        }
        .kind(),
        "poisoned"
    );
    assert_eq!(JobOutcome::Skipped.kind(), "skipped");
    for o in outcomes {
        let doc = cmpsim_telemetry::parse(&o.to_json().to_json()).unwrap();
        assert_eq!(JobOutcome::from_json(&doc), Some(o));
    }
    assert_eq!(JobOutcome::from_json(&JsonValue::Null), None);
    assert_eq!(
        JobOutcome::from_json(&JsonValue::object([("kind", JsonValue::from("martian"))])),
        None
    );
}

#[test]
fn watchdog_passes_healthy_jobs_through() {
    let report = Runner::new(RunnerConfig {
        workers: 2,
        job_timeout: Some(std::time::Duration::from_secs(30)),
        ..RunnerConfig::default()
    })
    .run(square_jobs(8));
    assert_eq!(report.ok_count(), 8);
    assert_eq!(report.timed_out_count(), 0);
    let vals: Vec<u64> = report.payloads().filter_map(|v| v.as_u64()).collect();
    assert_eq!(vals, [0, 1, 4, 9, 16, 25, 36, 49]);
}
