//! Tests for the CLI plumbing shared by the harness binaries.

use cmpsim_bench::{parse_scale, Options};
use cmpsim_core::runner::IsolateMode;
use cmpsim_workloads::{Scale, WorkloadId};
use std::path::PathBuf;

fn parse(args: &[&str]) -> Result<Options, String> {
    Options::parse(args.iter().map(|s| s.to_string()))
}

#[test]
fn scale_round_numbers() {
    assert_eq!(parse_scale("1/1"), Some(Scale::paper()));
    assert_eq!(parse_scale("1/2"), Some(Scale::with_shift(1)));
    assert_eq!(parse_scale("1/256"), Some(Scale::tiny()));
}

#[test]
fn scale_rejects_garbage() {
    for bad in ["", "1/", "1/0", "2/4", "one sixteenth"] {
        assert_eq!(parse_scale(bad), None, "{bad:?} should not parse");
    }
}

#[test]
fn default_options_are_paper_complete() {
    let o = Options::default();
    assert_eq!(o.scale, Scale::ci());
    // Every Table 2 workload present, in paper order.
    let names: Vec<String> = o.workloads.iter().map(ToString::to_string).collect();
    assert_eq!(
        names,
        ["SNP", "SVM-RFE", "MDS", "SHOT", "FIMI", "VIEWTYPE", "PLSA", "RSEARCH"]
    );
    // Crash-safety is strictly opt-in: a plain run journals nothing.
    assert_eq!(o.journal_config("fig4_scmp"), None);
    assert_eq!(o.isolate, IsolateMode::Inline);
    assert_eq!(o.run_job, None);
}

#[test]
fn crash_safety_flags_parse() {
    let o = parse(&[
        "--journal-dir",
        "/tmp/j",
        "--run-id",
        "night42",
        "--isolate",
        "process",
        "--retries",
        "3",
    ])
    .unwrap();
    assert_eq!(o.journal_dir, Some(PathBuf::from("/tmp/j")));
    assert_eq!(o.run_id.as_deref(), Some("night42"));
    assert_eq!(o.isolate, IsolateMode::Process);
    assert_eq!(o.retries, Some(3));
    let jc = o.journal_config("fig4_scmp").expect("journalling enabled");
    assert_eq!(jc.run_id, "night42");
    assert!(!jc.resume);
    assert_eq!(jc.path(), PathBuf::from("/tmp/j/night42.jsonl"));
    let cfg = o.runner_grid("fig4_scmp");
    assert_eq!(cfg.retries, 3);
    assert_eq!(cfg.isolate, IsolateMode::Process);
    assert!(cfg.journal.is_some());
    assert!(cfg.shutdown.is_some());

    assert!(parse(&["--isolate", "vm"]).is_err());
    assert!(parse(&["--retries", "many"]).is_err());
}

#[test]
fn resume_implies_a_resuming_journal_with_the_default_dir() {
    let o = parse(&["--resume", "night42"]).unwrap();
    let jc = o
        .journal_config("fig4_scmp")
        .expect("resume enables journal");
    assert!(jc.resume);
    assert_eq!(jc.run_id, "night42");
    assert_eq!(jc.path(), PathBuf::from("results/journal/night42.jsonl"));
    // `--run-id` alone also journals, under a fresh id when omitted.
    let o = parse(&["--run-id", "n1"]).unwrap();
    assert_eq!(o.journal_config("fig4_scmp").unwrap().run_id, "n1");
}

#[test]
fn hidden_child_entry_parses_only_in_first_position() {
    let o = parse(&["__run-job", "FIMI", "--scale", "tiny", "--seed", "7"]).unwrap();
    assert_eq!(o.run_job, Some(WorkloadId::Fimi));
    assert_eq!(o.seed, 7);
    assert!(parse(&["__run-job", "BOGUS"]).is_err());
    assert!(parse(&["--seed", "7", "__run-job", "FIMI"]).is_err());
}

#[test]
fn child_args_strip_every_parent_only_concern() {
    let o = parse(&[
        "--scale",
        "tiny",
        "--seed",
        "7",
        "--workloads",
        "FIMI,MDS",
        "--jobs",
        "4",
        "--cache-dir",
        "/tmp/c",
        "--json",
        "--metrics-out",
        "/tmp/m.json",
        "--journal-dir",
        "/tmp/j",
        "--run-id",
        "n1",
        "--isolate",
        "process",
        "--retries",
        "2",
        "--job-timeout",
        "30",
    ])
    .unwrap();
    // Only the cell identity survives, and the child never caches —
    // the parent stores what the child reports. The replay shard count
    // rides along resolved (here following `--jobs 4`) so the child
    // shards its sweep replay like the parent would.
    assert_eq!(
        o.child_args(),
        [
            "--scale",
            "tiny",
            "--seed",
            "7",
            "--no-cache",
            "--replay-shards",
            "4"
        ]
    );
}

#[test]
fn resume_command_pins_the_run_id() {
    let o = parse(&["--scale", "tiny", "--run-id", "old", "--jobs", "2"]).unwrap();
    let cmd = o.resume_command("old");
    assert!(cmd.ends_with("--scale tiny --jobs 2 --resume old"), "{cmd}");
    assert!(!cmd.contains("--run-id"), "{cmd}");
}

#[test]
fn record_writes_the_captured_stream_and_replay_reads_it_back() {
    use cmpsim_core::{CoSimConfig, CoSimulation};
    use std::process::Command;

    let dir = std::env::temp_dir().join(format!("cmpsim-record-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("shot.cmpt");
    let cmpsim = env!("CARGO_BIN_EXE_cmpsim");
    let record = Command::new(cmpsim)
        .args([
            "record",
            "--workload",
            "SHOT",
            "--cores",
            "2",
            "--scale",
            "tiny",
        ])
        .arg("--out")
        .arg(&trace)
        .output()
        .expect("spawn cmpsim record");
    assert!(
        record.status.success(),
        "{}",
        String::from_utf8_lossy(&record.stderr)
    );

    // The file is exactly the library's capture at the CLI's default
    // seed: one recording path, with its lossless-capture checks.
    let cfg = CoSimConfig::scaled(2, 1 << 20, Scale::tiny()).unwrap();
    let stream = CoSimulation::new(cfg).capture(WorkloadId::Shot, Scale::tiny(), 2007);
    assert!(std::fs::read(&trace).unwrap() == stream.encoded_bytes());

    let replay = Command::new(cmpsim)
        .args(["replay", "--llc", "1MB", "--trace"])
        .arg(&trace)
        .output()
        .expect("spawn cmpsim replay");
    assert!(
        replay.status.success(),
        "{}",
        String::from_utf8_lossy(&replay.stderr)
    );
    let stdout = String::from_utf8_lossy(&replay.stdout);
    let expected = format!("replayed {} transactions", stream.transactions());
    assert!(stdout.contains(&expected), "{stdout}");

    // The printed counters are the engine's: one board on the same
    // stream and LLC, replayed, flushed and validated.
    let llc = cmpsim_core::experiment::llc_config(1 << 20, 64, 16).unwrap();
    let board = cmpsim_dragonhead::DragonheadConfig::new(llc);
    let report = CoSimulation::replay_boards(&stream, &[board]).unwrap();
    let accesses = format!("LLC accesses : {}\n", report[0].llc.accesses);
    let misses = format!("LLC misses   : {}\n", report[0].llc.misses);
    assert!(stdout.contains(&accesses), "{stdout}");
    assert!(stdout.contains(&misses), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}
