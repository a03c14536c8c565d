//! The write-ahead run journal: an append-only, fsync'd, checksummed
//! record of every job's start, finish, and outcome.
//!
//! One journal file per run, `<dir>/<run-id>.jsonl`, one record per
//! line. Each line is framed by the same length+FNV-1a codec as the
//! result cache (see [`crate::record`]):
//!
//! ```json
//! {"len":64,"fnv":"0a1b...","record":{"kind":"job_done","seq":3,...}}
//! ```
//!
//! Record kinds, in the order a run emits them:
//!
//! * `run_start` — run id, batch size, whether this run resumed,
//! * `job_start` — written **before** a cell executes (write-ahead:
//!   a cell with a `job_start` but no `job_done` was in flight when the
//!   process died and is re-enqueued on resume),
//! * `job_done` — the cell's terminal [`JobOutcome`], including the
//!   full result payload for `ok`/`cached` cells so a resumed run can
//!   replay them without the result cache,
//! * `interrupted` — a graceful shutdown drained the pool,
//! * `run_end` — the batch finished.
//!
//! Every append is a single `write` of one `\n`-terminated line followed
//! by `fdatasync`, so a SIGKILL can tear at most the final line. Replay
//! verifies each line's checksum and stops at the first torn or corrupt
//! record; [`RunJournal::open`] then truncates the file back to the
//! verified prefix before appending, so the journal never grows a
//! mid-file scar.

use crate::pool::JobOutcome;
use crate::record;
use cmpsim_telemetry::{parse, JsonValue};
use std::collections::{HashMap, HashSet};
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Where a batch journals to, and whether it replays first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalConfig {
    /// Directory holding the journal files.
    pub dir: PathBuf,
    /// This run's identity — the journal file stem, and what `--resume`
    /// takes.
    pub run_id: String,
    /// Replay an existing journal for `run_id` before executing: cells
    /// with a recorded terminal outcome are served from the journal,
    /// in-flight ones are re-enqueued.
    pub resume: bool,
}

impl JournalConfig {
    /// A fresh (non-resuming) journal for `run_id` under `dir`.
    pub fn new(dir: impl Into<PathBuf>, run_id: impl Into<String>) -> Self {
        JournalConfig {
            dir: dir.into(),
            run_id: run_id.into(),
            resume: false,
        }
    }

    /// The same journal, replayed before running.
    pub fn resuming(mut self) -> Self {
        self.resume = true;
        self
    }

    /// The journal file this configuration reads and appends.
    pub fn path(&self) -> PathBuf {
        self.dir.join(format!("{}.jsonl", self.run_id))
    }
}

/// A per-process random nonce, minted once at first use.
///
/// Seeded from the wall-clock nanosecond counter, the pid, and a static's
/// address (ASLR entropy), then mixed through the splitmix64 finalizer so
/// every bit depends on every input bit. Two processes — including a
/// restarted daemon that inherited its predecessor's pid — agree on this
/// value only with negligible probability.
pub fn process_nonce() -> u64 {
    use std::sync::OnceLock;
    static NONCE: OnceLock<u64> = OnceLock::new();
    *NONCE.get_or_init(|| {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos() as u64);
        let aslr = &NONCE as *const _ as u64;
        let mut x = nanos ^ (u64::from(std::process::id()) << 32) ^ aslr.rotate_left(17);
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^= x >> 31;
        x
    })
}

/// Mints a unique run id for `experiment`:
/// `<experiment>-<unix-secs>-<pid>-<nonce>-<n>`.
///
/// The id is the journal file stem, so two runs minting the same id
/// silently interleave their write-ahead logs. Wall-clock seconds alone
/// collide for submissions in the same second; seconds+pid still
/// collide for two submissions inside one process (a multi-client
/// service coordinator, tests spawning concurrent sweeps); and even
/// seconds+pid+counter collide for a daemon restarted into a recycled
/// pid within the same second — so a [`process_nonce`] component makes
/// the id unique across process incarnations too. The trailing
/// process-wide atomic counter makes it unique per process.
pub fn fresh_run_id(experiment: &str) -> String {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    format!(
        "{experiment}-{secs}-{}-{:08x}-{n}",
        std::process::id(),
        process_nonce() as u32
    )
}

/// What replaying a journal recovered.
#[derive(Debug, Clone, Default)]
pub struct JournalReplay {
    /// Terminal outcomes by canonical job key: these cells are served
    /// without executing.
    pub completed: HashMap<String, ReplayedJob>,
    /// Canonical keys that started but never finished — the in-flight
    /// cells a crash forfeited; they re-run.
    pub in_flight: HashSet<String>,
    /// Records whose checksum or framing failed; replay stopped there.
    pub torn: usize,
    /// Highest record-stream sequence (`rseq`) among replayed
    /// `job_done` records; appends resume numbering after it.
    pub max_rseq: u64,
    /// The journal saw a `run_end`: the run finished, nothing is
    /// recoverable beyond the record of it.
    pub ended: bool,
    /// The raw body of the last `submission` record, if the writer
    /// journalled one (the service coordinator does, so a restarted
    /// daemon can rebuild the run without the client).
    pub submission: Option<JsonValue>,
}

/// One cell's journalled terminal outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayedJob {
    /// The cell's display label as recorded.
    pub label: String,
    /// The recorded outcome, payload included.
    pub outcome: JobOutcome,
    /// Execution attempts the original run spent.
    pub attempts: u32,
    /// Record-stream sequence assigned when the outcome was journalled
    /// (`0` for records written before rseq tracking existed).
    pub rseq: u64,
}

/// The append side of the journal, shared across workers.
#[derive(Debug)]
pub struct RunJournal {
    file: Mutex<File>,
    path: PathBuf,
    /// The last record-stream sequence handed out by
    /// [`job_done_tracked`](Self::job_done_tracked).
    next_rseq: AtomicU64,
    /// Appends that failed (disk full, I/O error). Non-zero means the
    /// journal is an incomplete record of the run — still readable, no
    /// longer trustworthy for resume.
    append_failures: AtomicU64,
}

impl RunJournal {
    /// Opens (and on resume, replays) the journal for `cfg`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; callers may run un-journalled after
    /// a failed open, but should say so loudly — it forfeits
    /// crash-safety.
    pub fn open(cfg: &JournalConfig) -> std::io::Result<(RunJournal, JournalReplay)> {
        std::fs::create_dir_all(&cfg.dir)?;
        let path = cfg.path();
        let (replay, valid_len) = if cfg.resume && path.exists() {
            let text = std::fs::read_to_string(&path)?;
            replay_text(&text)
        } else {
            (JournalReplay::default(), 0)
        };
        let mut file = OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            .truncate(false)
            .open(&path)?;
        // Resume: drop any torn final line so the next append starts a
        // fresh record instead of extending the scar. Fresh run: a
        // reused run id replaces its old journal outright.
        if file.metadata()?.len() != valid_len {
            file.set_len(valid_len)?;
        }
        file.seek(SeekFrom::End(0))?;
        Ok((
            RunJournal {
                file: Mutex::new(file),
                path,
                next_rseq: AtomicU64::new(replay.max_rseq),
                append_failures: AtomicU64::new(0),
            },
            replay,
        ))
    }

    /// The journal file being appended.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one checksummed record line and syncs it to disk.
    fn append(&self, body: JsonValue) {
        let doc = record::seal(Vec::new(), "record", &body);
        let mut line = doc.to_json();
        line.push('\n');
        let mut file = self.file.lock().unwrap_or_else(|e| e.into_inner());
        // A failed append degrades durability, not correctness: warn,
        // count it, and keep running (the batch itself is unaffected) —
        // callers check `degraded()` to downgrade the run to
        // non-resumable instead of aborting.
        if let Err(e) = file
            .write_all(line.as_bytes())
            .and_then(|()| file.sync_data())
        {
            self.append_failures.fetch_add(1, Ordering::Relaxed);
            eprintln!(
                "warning: journal append failed ({}): {e}",
                self.path.display()
            );
        }
    }

    /// Appends an arbitrary extra record (e.g. the service
    /// coordinator's `submission` record). Replay surfaces unknown
    /// kinds it cares about and ignores the rest, so writers may extend
    /// the journal without breaking older readers.
    pub fn append_record(&self, body: JsonValue) {
        self.append(body);
    }

    /// `true` once any append has failed: the journal no longer holds a
    /// complete record of the run and must not be trusted for resume.
    pub fn degraded(&self) -> bool {
        self.append_failures.load(Ordering::Relaxed) > 0
    }

    /// How many appends have failed so far.
    pub fn append_failures(&self) -> u64 {
        self.append_failures.load(Ordering::Relaxed)
    }

    /// Records the batch header.
    pub fn run_start(&self, run_id: &str, total: usize, resumed: usize) {
        self.append(JsonValue::object([
            ("kind", JsonValue::from("run_start")),
            ("run_id", JsonValue::from(run_id)),
            ("total", JsonValue::from(total)),
            ("resumed", JsonValue::from(resumed)),
        ]));
    }

    /// Write-ahead: records that cell `seq` is about to execute.
    pub fn job_start(&self, seq: usize, key: &str, label: &str) {
        self.append(JsonValue::object([
            ("kind", JsonValue::from("job_start")),
            ("seq", JsonValue::from(seq)),
            ("key", JsonValue::from(key)),
            ("label", JsonValue::from(label)),
        ]));
    }

    /// Records cell `seq`'s terminal outcome:
    /// [`job_done_tracked`](Self::job_done_tracked) without the rseq.
    pub fn job_done(
        &self,
        seq: usize,
        key: &str,
        label: &str,
        outcome: &JobOutcome,
        attempts: u32,
    ) {
        self.job_done_tracked(seq, key, label, outcome, attempts);
    }

    /// Records cell `seq`'s terminal outcome (payload included), stamped
    /// with the next record-stream sequence (`rseq`), and returns it.
    ///
    /// `rseq` totally orders a run's `job_done` records, which is what
    /// lets a disconnected client reattach with "give me everything
    /// after N". Callers that stream records to a client must serialize
    /// this call with the send (the scheduler holds a per-run emit
    /// lock), so the rseq order, the journal order, and the wire order
    /// all agree.
    pub fn job_done_tracked(
        &self,
        seq: usize,
        key: &str,
        label: &str,
        outcome: &JobOutcome,
        attempts: u32,
    ) -> u64 {
        let rseq = self.next_rseq.fetch_add(1, Ordering::Relaxed) + 1;
        self.append(JsonValue::object([
            ("kind", JsonValue::from("job_done")),
            ("rseq", JsonValue::from(rseq)),
            ("seq", JsonValue::from(seq)),
            ("key", JsonValue::from(key)),
            ("label", JsonValue::from(label)),
            ("attempts", JsonValue::from(u64::from(attempts))),
            ("outcome", outcome.to_json()),
        ]));
        rseq
    }

    /// Records a graceful shutdown: `done` cells finished, `skipped`
    /// never started.
    pub fn interrupted(&self, done: usize, skipped: usize) {
        self.append(JsonValue::object([
            ("kind", JsonValue::from("interrupted")),
            ("done", JsonValue::from(done)),
            ("skipped", JsonValue::from(skipped)),
        ]));
    }

    /// Records batch completion.
    pub fn run_end(&self, ok: usize, cached: usize, failed: usize) {
        self.append(JsonValue::object([
            ("kind", JsonValue::from("run_end")),
            ("ok", JsonValue::from(ok)),
            ("cached", JsonValue::from(cached)),
            ("failed", JsonValue::from(failed)),
        ]));
    }
}

/// Replays journal text into the recovered state plus the byte length of
/// the valid prefix (everything before the first torn record).
fn replay_text(text: &str) -> (JournalReplay, u64) {
    let mut replay = JournalReplay::default();
    let mut valid_len = 0u64;
    for line in text.split_inclusive('\n') {
        let body = line.strip_suffix('\n').unwrap_or(line);
        if body.is_empty() {
            valid_len += line.len() as u64;
            continue;
        }
        let Some(rec) = parse(body)
            .ok()
            .and_then(|doc| record::verify(&doc, "record"))
        else {
            // Torn or corrupt: trust only the prefix.
            replay.torn += 1;
            break;
        };
        apply_record(&mut replay, &rec);
        valid_len += line.len() as u64;
    }
    (replay, valid_len)
}

fn apply_record(replay: &mut JournalReplay, rec: &JsonValue) {
    let kind = rec.get("kind").and_then(JsonValue::as_str).unwrap_or("");
    let key = rec.get("key").and_then(JsonValue::as_str);
    match (kind, key) {
        ("job_start", Some(key)) => {
            replay.in_flight.insert(key.to_owned());
        }
        ("job_done", Some(key)) => {
            let Some(outcome) = rec.get("outcome").and_then(JobOutcome::from_json) else {
                return;
            };
            let rseq = rec.get("rseq").and_then(JsonValue::as_u64).unwrap_or(0);
            replay.max_rseq = replay.max_rseq.max(rseq);
            replay.in_flight.remove(key);
            replay.completed.insert(
                key.to_owned(),
                ReplayedJob {
                    label: rec
                        .get("label")
                        .and_then(JsonValue::as_str)
                        .unwrap_or("")
                        .to_owned(),
                    outcome,
                    attempts: rec.get("attempts").and_then(JsonValue::as_u64).unwrap_or(0) as u32,
                    rseq,
                },
            );
        }
        ("submission", _) => replay.submission = Some(rec.clone()),
        ("run_end", _) => replay.ended = true,
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_cfg(tag: &str) -> JournalConfig {
        let dir = std::env::temp_dir().join(format!("cmpsim_journal_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        JournalConfig::new(dir, "run1")
    }

    #[test]
    fn concurrent_submissions_never_share_a_run_id() {
        // Two submissions in the same process and second (the service
        // coordinator's steady state) must journal to distinct files.
        let ids: Vec<String> = std::thread::scope(|s| {
            (0..8)
                .map(|_| s.spawn(|| fresh_run_id("fig4_scmp")))
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        let unique: std::collections::HashSet<&String> = ids.iter().collect();
        assert_eq!(unique.len(), ids.len(), "colliding run ids: {ids:?}");
        let paths: std::collections::HashSet<PathBuf> = ids
            .iter()
            .map(|id| JournalConfig::new("j", id.clone()).path())
            .collect();
        assert_eq!(paths.len(), ids.len(), "colliding journal paths");
    }

    #[test]
    fn journal_roundtrips_outcomes_through_replay() {
        let cfg = temp_cfg("roundtrip");
        let (j, replay) = RunJournal::open(&cfg).unwrap();
        assert!(replay.completed.is_empty());
        j.run_start("run1", 3, 0);
        j.job_start(0, "k0", "FIMI");
        j.job_done(0, "k0", "FIMI", &JobOutcome::Ok(JsonValue::U64(42)), 1);
        j.job_start(1, "k1", "MDS");
        j.job_done(
            1,
            "k1",
            "MDS",
            &JobOutcome::Errored {
                category: "invariant".into(),
                error: "drift".into(),
            },
            1,
        );
        j.job_start(2, "k2", "SHOT"); // in flight: no job_done
        drop(j);

        let (_, replay) = RunJournal::open(&cfg.clone().resuming()).unwrap();
        assert_eq!(replay.completed.len(), 2);
        assert_eq!(
            replay.completed["k0"].outcome,
            JobOutcome::Ok(JsonValue::U64(42))
        );
        assert!(matches!(
            &replay.completed["k1"].outcome,
            JobOutcome::Errored { category, .. } if category == "invariant"
        ));
        assert_eq!(replay.in_flight.iter().collect::<Vec<_>>(), ["k2"]);
        assert_eq!(replay.torn, 0);
        let _ = std::fs::remove_dir_all(&cfg.dir);
    }

    #[test]
    fn torn_final_line_is_dropped_and_truncated() {
        let cfg = temp_cfg("torn");
        let (j, _) = RunJournal::open(&cfg).unwrap();
        j.job_start(0, "k0", "A");
        j.job_done(0, "k0", "A", &JobOutcome::Ok(JsonValue::Bool(true)), 1);
        drop(j);
        // Simulate a SIGKILL mid-append: a half-written final record.
        let mut text = std::fs::read_to_string(cfg.path()).unwrap();
        let intact_len = text.len() as u64;
        text.push_str("{\"len\":999,\"fnv\":\"dead");
        std::fs::write(cfg.path(), &text).unwrap();

        let (j, replay) = RunJournal::open(&cfg.clone().resuming()).unwrap();
        assert_eq!(replay.torn, 1);
        assert_eq!(replay.completed.len(), 1, "intact prefix survives");
        // The scar is gone and the journal appends cleanly again.
        assert_eq!(
            std::fs::metadata(cfg.path()).unwrap().len(),
            intact_len,
            "torn tail must be truncated"
        );
        j.job_start(1, "k1", "B");
        drop(j);
        let (_, replay) = RunJournal::open(&cfg.clone().resuming()).unwrap();
        assert_eq!(replay.torn, 0);
        assert!(replay.in_flight.contains("k1"));
        let _ = std::fs::remove_dir_all(&cfg.dir);
    }

    #[test]
    fn tracked_job_dones_number_the_record_stream_across_reopens() {
        let cfg = temp_cfg("rseq");
        let (j, _) = RunJournal::open(&cfg).unwrap();
        j.append_record(JsonValue::object([
            ("kind", JsonValue::from("submission")),
            ("exe", JsonValue::from("/bin/echo")),
        ]));
        assert_eq!(
            j.job_done_tracked(0, "k0", "A", &JobOutcome::Ok(JsonValue::U64(1)), 1),
            1
        );
        assert_eq!(
            j.job_done_tracked(1, "k1", "B", &JobOutcome::Ok(JsonValue::U64(2)), 1),
            2
        );
        drop(j);

        let (j, replay) = RunJournal::open(&cfg.clone().resuming()).unwrap();
        assert_eq!(replay.max_rseq, 2);
        assert_eq!(replay.completed["k0"].rseq, 1);
        assert_eq!(replay.completed["k1"].rseq, 2);
        assert!(!replay.ended, "no run_end journalled yet");
        let sub = replay
            .submission
            .expect("submission record survives replay");
        assert_eq!(
            sub.get("exe").and_then(JsonValue::as_str),
            Some("/bin/echo")
        );
        // Numbering resumes after the replayed maximum — a restarted
        // coordinator never reissues an rseq.
        assert_eq!(
            j.job_done_tracked(2, "k2", "C", &JobOutcome::Ok(JsonValue::U64(3)), 1),
            3
        );
        j.run_end(3, 0, 0);
        drop(j);
        let (_, replay) = RunJournal::open(&cfg.clone().resuming()).unwrap();
        assert!(replay.ended);
        let _ = std::fs::remove_dir_all(&cfg.dir);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn append_failure_degrades_the_journal_without_panicking() {
        // `/dev/full` fails every write with ENOSPC — the disk-full
        // case the daemon must survive.
        let Ok(file) = OpenOptions::new().write(true).open("/dev/full") else {
            return; // environment without /dev/full: nothing to test
        };
        let j = RunJournal {
            file: Mutex::new(file),
            path: PathBuf::from("/dev/full"),
            next_rseq: AtomicU64::new(0),
            append_failures: AtomicU64::new(0),
        };
        assert!(!j.degraded());
        j.job_start(0, "k0", "A");
        // rseq numbering still advances: the in-memory stream stays
        // coherent even when durability is gone.
        assert_eq!(
            j.job_done_tracked(0, "k0", "A", &JobOutcome::Ok(JsonValue::Null), 1),
            1
        );
        assert!(j.degraded(), "failed appends must mark the journal");
        assert_eq!(j.append_failures(), 2);
    }

    #[test]
    fn fresh_open_ignores_existing_journal_unless_resuming() {
        let cfg = temp_cfg("fresh");
        let (j, _) = RunJournal::open(&cfg).unwrap();
        j.job_done(0, "k0", "A", &JobOutcome::Ok(JsonValue::Null), 1);
        drop(j);
        let (_, replay) = RunJournal::open(&cfg).unwrap();
        assert!(
            replay.completed.is_empty(),
            "non-resume open must not replay"
        );
        let _ = std::fs::remove_dir_all(&cfg.dir);
    }
}
