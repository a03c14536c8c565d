//! Capture-once / replay-many FSB stream management.
//!
//! A co-simulated grid run wastes most of its time re-executing the
//! same workload: every cell of a cache-size sweep (and every line-size
//! point, replacement policy, and sharing ablation) runs the *same*
//! `{workload, cmp_size, scale, seed}` co-simulation and differs only
//! in the passive board snooping the bus. Because Dragonhead never
//! affects the platform, the FSB transaction stream is a function of
//! the platform side alone — so it can be recorded once and replayed
//! into any number of board configurations with bit-identical results.
//!
//! This module provides the three pieces of that pipeline:
//!
//! * [`CapturedStream`] — one recorded run: the exact transaction
//!   sequence in the compact v2 trace encoding (~4 bytes per
//!   transaction) plus the platform's
//!   [`RunSummary`](cmpsim_softsdv::RunSummary);
//! * [`TraceStore`] — a content-addressed on-disk store (mirroring the
//!   runner's result cache layout) so captures survive across
//!   processes when the user passes `--trace-dir`;
//! * [`CaptureBroker`] — the in-process rendezvous: concurrent workers
//!   asking for the same stream key get one capture and N reuses, with
//!   counters saying how often each path was taken.
//!
//! `Message` transactions survive capture losslessly (the codec's
//! `PAYLOAD_SHIFT = 6` keeps every message address 64-byte aligned), so
//! per-core attribution, sampling, and desync recovery behave exactly
//! as they would live. The `cosim` module pins that equivalence; the
//! `replay` tier-1 test pins it end to end through the figure binaries.

use cmpsim_cache::CacheStats;
use cmpsim_runner::{record, JobKey};
use cmpsim_softsdv::{CoreSummary, RunSummary};
use cmpsim_telemetry::trace as ftrace;
use cmpsim_telemetry::{parse, JsonValue};
use cmpsim_trace::file::TraceReader;
use cmpsim_trace::FsbTransaction;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One captured co-simulation: the exact FSB transaction stream (in
/// the compact on-disk trace encoding) plus the platform-side run
/// summary every report derives from.
///
/// The stream is stored *encoded* rather than as decoded transactions:
/// it is ~4 bytes per transaction instead of 24, it can be written to a
/// [`TraceStore`] without re-encoding, and every replay exercises the
/// same codec whose losslessness the trace crate's property tests pin.
#[derive(Debug, Clone)]
pub struct CapturedStream {
    canonical: String,
    bytes: Vec<u8>,
    transactions: u64,
    run: RunSummary,
}

impl CapturedStream {
    /// Wraps an encoded trace captured under `key`.
    pub fn new(key: &JobKey, bytes: Vec<u8>, transactions: u64, run: RunSummary) -> Self {
        CapturedStream {
            canonical: key.canonical(),
            bytes,
            transactions,
            run,
        }
    }

    /// The canonical stream key this capture was recorded under.
    pub fn canonical_key(&self) -> &str {
        &self.canonical
    }

    /// The complete v2-encoded trace (header, body, footer).
    pub fn encoded_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Number of transactions in the stream.
    pub fn transactions(&self) -> u64 {
        self.transactions
    }

    /// The platform-side summary of the captured run.
    pub fn run(&self) -> &RunSummary {
        &self.run
    }

    /// Decodes the stream, yielding every transaction in bus order.
    ///
    /// # Panics
    ///
    /// Panics if the encoded bytes are corrupt — impossible for a
    /// stream built by [`CoSimulation::capture`] or loaded through a
    /// [`TraceStore`] (both verify the footer), so a panic here means
    /// memory corruption, not bad input.
    ///
    /// [`CoSimulation::capture`]: crate::cosim::CoSimulation::capture
    pub fn iter(&self) -> impl Iterator<Item = FsbTransaction> + '_ {
        TraceReader::new(&self.bytes[..])
            .expect("captured stream has a valid trace header")
            .map(|t| t.expect("captured stream was verified at capture/load time"))
    }

    /// Decodes the stream once into fixed-size transaction chunks of
    /// `chunk_len` transactions (the last chunk may be shorter).
    ///
    /// Sharded sweep replay hands the result to every shard read-only:
    /// one decode pass feeds any number of board groups, and because
    /// the chunk boundaries depend only on the stream and `chunk_len`
    /// — never on the shard count — every board sees identical batch
    /// edges no matter how the sweep is partitioned.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_len` is zero, or on corrupt encoded bytes (see
    /// [`iter`](CapturedStream::iter)).
    pub fn decode_chunks(&self, chunk_len: usize) -> DecodedChunks {
        assert!(chunk_len > 0, "chunk length must be positive");
        let mut chunks = Vec::with_capacity(
            usize::try_from(self.transactions).unwrap_or(usize::MAX) / chunk_len + 1,
        );
        let mut cur = Vec::with_capacity(chunk_len);
        for txn in self.iter() {
            cur.push(txn);
            if cur.len() == chunk_len {
                chunks.push(std::mem::replace(&mut cur, Vec::with_capacity(chunk_len)));
            }
        }
        if !cur.is_empty() {
            chunks.push(cur);
        }
        DecodedChunks {
            chunks,
            transactions: self.transactions,
        }
    }
}

/// A captured stream decoded once into fixed-size transaction batches,
/// shared read-only across replay shards (see
/// [`CapturedStream::decode_chunks`]).
#[derive(Debug, Clone)]
pub struct DecodedChunks {
    chunks: Vec<Vec<FsbTransaction>>,
    transactions: u64,
}

impl DecodedChunks {
    /// The batches, in stream order.
    pub fn iter(&self) -> impl Iterator<Item = &[FsbTransaction]> + '_ {
        self.chunks.iter().map(Vec::as_slice)
    }

    /// Number of batches.
    pub fn len(&self) -> usize {
        self.chunks.len()
    }

    /// Whether the stream decoded to zero transactions.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// Total transactions across all batches.
    pub fn transactions(&self) -> u64 {
        self.transactions
    }
}

fn stats_to_json(s: &CacheStats) -> JsonValue {
    JsonValue::object([
        ("accesses", JsonValue::U64(s.accesses)),
        ("write_accesses", JsonValue::U64(s.write_accesses)),
        ("hits", JsonValue::U64(s.hits)),
        ("misses", JsonValue::U64(s.misses)),
        ("read_misses", JsonValue::U64(s.read_misses)),
        ("write_misses", JsonValue::U64(s.write_misses)),
        ("evictions", JsonValue::U64(s.evictions)),
        ("writebacks", JsonValue::U64(s.writebacks)),
        ("invalidations", JsonValue::U64(s.invalidations)),
        ("upgrades", JsonValue::U64(s.upgrades)),
        ("prefetch_fills", JsonValue::U64(s.prefetch_fills)),
        ("prefetch_used", JsonValue::U64(s.prefetch_used)),
    ])
}

fn u64_of(v: &JsonValue, key: &str) -> Option<u64> {
    v.get(key)?.as_u64()
}

fn stats_from_json(v: &JsonValue) -> Option<CacheStats> {
    Some(CacheStats {
        accesses: u64_of(v, "accesses")?,
        write_accesses: u64_of(v, "write_accesses")?,
        hits: u64_of(v, "hits")?,
        misses: u64_of(v, "misses")?,
        read_misses: u64_of(v, "read_misses")?,
        write_misses: u64_of(v, "write_misses")?,
        evictions: u64_of(v, "evictions")?,
        writebacks: u64_of(v, "writebacks")?,
        invalidations: u64_of(v, "invalidations")?,
        upgrades: u64_of(v, "upgrades")?,
        prefetch_fills: u64_of(v, "prefetch_fills")?,
        prefetch_used: u64_of(v, "prefetch_used")?,
    })
}

fn core_to_json(c: &CoreSummary) -> JsonValue {
    JsonValue::object([
        ("instructions", JsonValue::U64(c.instructions)),
        ("memory_instructions", JsonValue::U64(c.memory_instructions)),
        ("loads", JsonValue::U64(c.loads)),
        ("slices", JsonValue::U64(c.slices)),
    ])
}

fn core_from_json(v: &JsonValue) -> Option<CoreSummary> {
    Some(CoreSummary {
        instructions: u64_of(v, "instructions")?,
        memory_instructions: u64_of(v, "memory_instructions")?,
        loads: u64_of(v, "loads")?,
        slices: u64_of(v, "slices")?,
    })
}

/// Serializes a [`RunSummary`] for a [`TraceStore`] sidecar. Every
/// field is a `u64` so the round trip is exact — no float formatting is
/// involved anywhere in the stream metadata.
pub fn run_to_json(run: &RunSummary) -> JsonValue {
    JsonValue::object([
        ("instructions", JsonValue::U64(run.instructions)),
        (
            "memory_instructions",
            JsonValue::U64(run.memory_instructions),
        ),
        ("loads", JsonValue::U64(run.loads)),
        ("stores", JsonValue::U64(run.stores)),
        ("cycles", JsonValue::U64(run.cycles)),
        (
            "per_core",
            JsonValue::array(run.per_core.iter().map(core_to_json)),
        ),
        ("l1", stats_to_json(&run.l1)),
        ("l2", stats_to_json(&run.l2)),
        ("bus_transactions", JsonValue::U64(run.bus_transactions)),
    ])
}

/// Inverse of [`run_to_json`]; `None` if any field is missing or the
/// wrong type.
pub fn run_from_json(v: &JsonValue) -> Option<RunSummary> {
    Some(RunSummary {
        instructions: u64_of(v, "instructions")?,
        memory_instructions: u64_of(v, "memory_instructions")?,
        loads: u64_of(v, "loads")?,
        stores: u64_of(v, "stores")?,
        cycles: u64_of(v, "cycles")?,
        per_core: v
            .get("per_core")?
            .as_array()?
            .iter()
            .map(core_from_json)
            .collect::<Option<Vec<_>>>()?,
        l1: stats_from_json(v.get("l1")?)?,
        l2: stats_from_json(v.get("l2")?)?,
        bus_transactions: u64_of(v, "bus_transactions")?,
    })
}

/// A content-addressed on-disk trace store, keyed and sharded exactly
/// like the runner's result cache: `<root>/<hh>/<hash16>.trace` holds
/// the encoded stream, `<root>/<hh>/<hash16>.json` a sealed sidecar
/// with the canonical key, transaction count, and run summary.
///
/// Robustness matches the result cache: a load fully decodes the trace
/// and verifies its footer, so a truncated, bit-rotted, or hand-edited
/// entry is **evicted** (both files removed) and recaptured rather than
/// trusted; a fingerprint collision (sidecar key differs from the
/// requested one) degrades to a plain miss without evicting someone
/// else's valid capture. Writes go through temp files plus rename so a
/// killed run never leaves a torn entry behind.
#[derive(Debug, Clone)]
pub struct TraceStore {
    root: PathBuf,
}

impl TraceStore {
    /// A store rooted at `root` (created lazily on first store).
    pub fn new(root: impl Into<PathBuf>) -> Self {
        TraceStore { root: root.into() }
    }

    /// The store root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The on-disk path of `key`'s encoded trace.
    pub fn trace_path(&self, key: &JobKey) -> PathBuf {
        let hex = key.hex();
        self.root.join(&hex[..2]).join(format!("{hex}.trace"))
    }

    /// The on-disk path of `key`'s metadata sidecar.
    pub fn meta_path(&self, key: &JobKey) -> PathBuf {
        let hex = key.hex();
        self.root.join(&hex[..2]).join(format!("{hex}.json"))
    }

    fn evict(&self, key: &JobKey) {
        let _ = std::fs::remove_file(self.trace_path(key));
        let _ = std::fs::remove_file(self.meta_path(key));
    }

    /// Returns the stored capture for `key`, or `None` on a miss
    /// (absent, unreadable, corrupt, or a fingerprint collision).
    ///
    /// The trace is fully decoded and its footer verified before it is
    /// served; anything that fails — torn trace, checksum mismatch,
    /// count mismatch, v1 format (which has no footer to trust), a
    /// sidecar whose seal does not verify — evicts both files.
    pub fn load(&self, key: &JobKey) -> Option<CapturedStream> {
        let meta_text = std::fs::read_to_string(self.meta_path(key)).ok()?;
        let Ok(doc) = parse(&meta_text) else {
            self.evict(key);
            return None;
        };
        // A key mismatch is a fingerprint collision: the entry is some
        // other stream's valid capture, so miss without evicting.
        if doc.get("key").and_then(JsonValue::as_str) != Some(key.canonical().as_str()) {
            return None;
        }
        let Some(payload) = record::verify(&doc, "capture") else {
            self.evict(key);
            return None;
        };
        let (Some(transactions), Some(run)) = (
            u64_of(&payload, "transactions"),
            payload.get("run").and_then(run_from_json),
        ) else {
            self.evict(key);
            return None;
        };
        let Ok(bytes) = std::fs::read(self.trace_path(key)) else {
            // Sidecar without its trace: remove the orphan sidecar.
            self.evict(key);
            return None;
        };
        if !Self::trace_is_sound(&bytes, transactions) {
            self.evict(key);
            return None;
        }
        Some(CapturedStream::new(key, bytes, transactions, run))
    }

    /// Full-decode validation: v2 header, every transaction decodable,
    /// footer checksum good, count as the sidecar claims.
    fn trace_is_sound(bytes: &[u8], transactions: u64) -> bool {
        let Ok(reader) = TraceReader::new(bytes) else {
            return false;
        };
        let mut n = 0u64;
        for txn in reader {
            if txn.is_err() {
                return false;
            }
            n += 1;
        }
        n == transactions
    }

    /// Stores `stream` under `key`, atomically (temp files + rename;
    /// the trace lands before the sidecar, so a crash between the two
    /// renames leaves an orphan trace that the next load cleans up).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; callers may treat a failed store
    /// as non-fatal (the capture is still usable in memory, only the
    /// cross-process shortcut is lost).
    pub fn store(&self, key: &JobKey, stream: &CapturedStream) -> std::io::Result<()> {
        let trace = self.trace_path(key);
        let dir = trace.parent().expect("trace path has a parent");
        std::fs::create_dir_all(dir)?;
        let pid = std::process::id();
        let trace_tmp = dir.join(format!("{}.tmp.{pid}", key.hex()));
        std::fs::write(&trace_tmp, stream.encoded_bytes())?;
        std::fs::rename(&trace_tmp, &trace)?;
        let payload = JsonValue::object([
            ("transactions", JsonValue::U64(stream.transactions())),
            ("run", run_to_json(stream.run())),
        ]);
        let doc = record::seal(
            vec![("key".to_owned(), JsonValue::from(key.canonical()))],
            "capture",
            &payload,
        );
        let meta = self.meta_path(key);
        let meta_tmp = dir.join(format!("{}.json.tmp.{pid}", key.hex()));
        std::fs::write(&meta_tmp, doc.to_json_pretty())?;
        std::fs::rename(&meta_tmp, &meta)
    }

    /// Number of complete entries (trace + sidecar pairs) on disk.
    pub fn len(&self) -> usize {
        let Ok(shards) = std::fs::read_dir(&self.root) else {
            return 0;
        };
        shards
            .flatten()
            .filter_map(|d| std::fs::read_dir(d.path()).ok())
            .flat_map(|files| files.flatten())
            .filter(|f| {
                let p = f.path();
                p.extension().is_some_and(|e| e == "trace") && p.with_extension("json").exists()
            })
            .count()
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// How often each capture path was taken, as observed by a
/// [`CaptureBroker`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CaptureCounters {
    /// Streams captured by actually running the co-simulation.
    pub captures: u64,
    /// Requests served from a stream already captured in this process.
    pub memory_reuses: u64,
    /// Requests served by loading a stream from the on-disk store.
    pub disk_loads: u64,
    /// Captures the on-disk store failed to persist. Each one still
    /// served its requests from memory; only the cross-process reuse was
    /// lost.
    pub store_errors: u64,
}

/// One key's capture slot: the mutex serializes duplicate captures, the
/// inner option is the stream once someone has produced it.
type Slot = Arc<Mutex<Option<Arc<CapturedStream>>>>;

/// The in-process rendezvous for captured streams.
///
/// Grid workers ask the broker for the stream behind a key; the first
/// asker captures (running the co-simulation once), every later asker
/// gets the shared [`Arc`]. Duplicate captures are impossible: each key
/// owns a slot mutex held for the duration of its capture, so two
/// workers racing on the *same* key serialize while workers on
/// *different* keys proceed concurrently.
///
/// With an attached [`TraceStore`], captures are persisted and later
/// processes load instead of re-executing — the `--trace-dir` flow.
#[derive(Debug, Default)]
pub struct CaptureBroker {
    slots: Mutex<HashMap<String, Slot>>,
    store: Option<TraceStore>,
    captures: AtomicU64,
    memory_reuses: AtomicU64,
    disk_loads: AtomicU64,
    store_errors: AtomicU64,
}

impl CaptureBroker {
    /// The broker a `--trace-dir` flag describes: backed by a
    /// [`TraceStore`] rooted at `trace_dir` when one is given, in-memory
    /// otherwise.
    pub fn new(trace_dir: Option<PathBuf>) -> Self {
        CaptureBroker {
            store: trace_dir.map(TraceStore::new),
            ..Self::default()
        }
    }

    /// A broker with no on-disk store: streams live for the process.
    pub fn in_memory() -> Self {
        Self::new(None)
    }

    /// The attached on-disk store, if any.
    pub fn store(&self) -> Option<&TraceStore> {
        self.store.as_ref()
    }

    /// Returns the stream for `key`, capturing it with `capture` exactly
    /// once per key per process (or loading it from the attached store).
    pub fn stream(
        &self,
        key: &JobKey,
        capture: impl FnOnce() -> CapturedStream,
    ) -> Arc<CapturedStream> {
        let slot = {
            let mut slots = self.slots.lock().expect("capture broker slots poisoned");
            Arc::clone(slots.entry(key.canonical()).or_default())
        };
        let mut guard = slot.lock().expect("capture slot poisoned");
        if let Some(stream) = guard.as_ref() {
            self.memory_reuses.fetch_add(1, Ordering::Relaxed);
            ftrace::instant("trace-reuse", Vec::new());
            return Arc::clone(stream);
        }
        if let Some(store) = &self.store {
            let loaded = {
                let _t = ftrace::span("trace-load");
                store.load(key)
            };
            if let Some(loaded) = loaded {
                self.disk_loads.fetch_add(1, Ordering::Relaxed);
                ftrace::instant("trace-disk-load", Vec::new());
                let stream = Arc::new(loaded);
                *guard = Some(Arc::clone(&stream));
                return stream;
            }
        }
        self.captures.fetch_add(1, Ordering::Relaxed);
        let stream = Arc::new(capture());
        if let Some(store) = &self.store {
            // A failed store is non-fatal: the capture still serves this
            // process, only the cross-process shortcut is lost. It is
            // counted, so the loss is visible in the run's JSON twin.
            if store.store(key, &stream).is_err() {
                self.store_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        *guard = Some(Arc::clone(&stream));
        stream
    }

    /// Snapshot of the capture/reuse counters.
    pub fn counters(&self) -> CaptureCounters {
        CaptureCounters {
            captures: self.captures.load(Ordering::Relaxed),
            memory_reuses: self.memory_reuses.load(Ordering::Relaxed),
            disk_loads: self.disk_loads.load(Ordering::Relaxed),
            store_errors: self.store_errors.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmpsim_trace::file::TraceWriter;
    use cmpsim_trace::{Addr, FsbKind};

    fn sample_run() -> RunSummary {
        RunSummary {
            instructions: 123_456,
            memory_instructions: 45_000,
            loads: 30_000,
            stores: 15_000,
            cycles: 123_456,
            per_core: vec![
                CoreSummary {
                    instructions: 61_728,
                    memory_instructions: 22_500,
                    loads: 15_000,
                    slices: 10,
                },
                CoreSummary {
                    instructions: 61_728,
                    memory_instructions: 22_500,
                    loads: 15_000,
                    slices: 9,
                },
            ],
            l1: CacheStats {
                accesses: 45_000,
                hits: 40_000,
                misses: 5_000,
                ..CacheStats::default()
            },
            l2: CacheStats {
                accesses: 5_000,
                hits: 3_000,
                misses: 2_000,
                writebacks: 700,
                ..CacheStats::default()
            },
            bus_transactions: 2_700,
        }
    }

    fn sample_capture(key: &JobKey) -> CapturedStream {
        let mut w = TraceWriter::new(Vec::new()).unwrap();
        for i in 0..100u64 {
            let kind = if i % 3 == 0 {
                FsbKind::WriteLine
            } else {
                FsbKind::ReadLine
            };
            w.write(&FsbTransaction::new(i * 7, kind, Addr::new((i % 16) * 64)))
                .unwrap();
        }
        let n = w.count();
        let bytes = w.finish().unwrap();
        CapturedStream::new(key, bytes, n, sample_run())
    }

    fn temp_store(tag: &str) -> TraceStore {
        let root =
            std::env::temp_dir().join(format!("cmpsim_trace_store_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        TraceStore::new(root)
    }

    #[test]
    fn run_summary_json_roundtrip_is_exact() {
        let run = sample_run();
        let back = run_from_json(&run_to_json(&run)).unwrap();
        assert_eq!(back.instructions, run.instructions);
        assert_eq!(back.cycles, run.cycles);
        assert_eq!(back.per_core, run.per_core);
        assert_eq!(back.l1, run.l1);
        assert_eq!(back.l2, run.l2);
        assert_eq!(back.bus_transactions, run.bus_transactions);
    }

    #[test]
    fn run_summary_json_rejects_missing_fields() {
        let mut doc = run_to_json(&sample_run());
        if let JsonValue::Object(pairs) = &mut doc {
            pairs.retain(|(k, _)| k != "cycles");
        }
        assert!(run_from_json(&doc).is_none());
    }

    #[test]
    fn captured_stream_iterates_decoded_transactions() {
        let key = JobKey::new("fsb-stream").field("workload", "FIMI");
        let stream = sample_capture(&key);
        let txns: Vec<FsbTransaction> = stream.iter().collect();
        assert_eq!(txns.len() as u64, stream.transactions());
        assert_eq!(
            txns[0],
            FsbTransaction::new(0, FsbKind::WriteLine, Addr::new(0))
        );
        // Iterating twice yields the same sequence (the decode is pure).
        assert_eq!(stream.iter().collect::<Vec<_>>(), txns);
    }

    #[test]
    fn store_load_roundtrips() {
        let store = temp_store("roundtrip");
        let key = JobKey::new("fsb-stream").field("workload", "SHOT");
        assert!(store.load(&key).is_none());
        let stream = sample_capture(&key);
        store.store(&key, &stream).unwrap();
        assert_eq!(store.len(), 1);
        let back = store.load(&key).unwrap();
        assert_eq!(back.encoded_bytes(), stream.encoded_bytes());
        assert_eq!(back.transactions(), stream.transactions());
        assert_eq!(back.run().instructions, stream.run().instructions);
        assert_eq!(back.canonical_key(), key.canonical());
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn torn_trace_is_evicted() {
        let store = temp_store("torn");
        let key = JobKey::new("fsb-stream").field("workload", "SNP");
        store.store(&key, &sample_capture(&key)).unwrap();
        // Truncate the trace mid-body: the footer is gone, the decode
        // scan must reject it and evict both files.
        let path = store.trace_path(&key);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 12]).unwrap();
        assert!(store.load(&key).is_none());
        assert!(
            !store.trace_path(&key).exists(),
            "torn trace must be evicted"
        );
        assert!(!store.meta_path(&key).exists(), "its sidecar too");
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn tampered_sidecar_is_evicted() {
        let store = temp_store("tamper");
        let key = JobKey::new("fsb-stream").field("workload", "MDS");
        store.store(&key, &sample_capture(&key)).unwrap();
        let meta = store.meta_path(&key);
        let doctored = std::fs::read_to_string(&meta)
            .unwrap()
            .replace("123456", "999999");
        std::fs::write(&meta, doctored).unwrap();
        assert!(
            store.load(&key).is_none(),
            "tampered sidecar must not serve"
        );
        assert!(!meta.exists());
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn fingerprint_collision_is_a_miss_without_eviction() {
        let store = temp_store("collision");
        let key = JobKey::new("fsb-stream").field("workload", "PLSA");
        store.store(&key, &sample_capture(&key)).unwrap();
        // Simulate a collision: another key whose entry paths we force
        // onto this one by rewriting the sidecar's stored key.
        let meta = store.meta_path(&key);
        let text = std::fs::read_to_string(&meta).unwrap();
        // Rewriting the key breaks the seal; re-seal with the foreign key.
        let doc = parse(&text).unwrap();
        let payload = record::verify(&doc, "capture").unwrap();
        let foreign = record::seal(
            vec![("key".to_owned(), JsonValue::from("someone=else"))],
            "capture",
            &payload,
        );
        std::fs::write(&meta, foreign.to_json_pretty()).unwrap();
        assert!(store.load(&key).is_none());
        assert!(meta.exists(), "a collision is someone else's valid entry");
        assert!(store.trace_path(&key).exists());
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn sidecar_without_trace_is_cleaned_up() {
        let store = temp_store("orphan");
        let key = JobKey::new("fsb-stream").field("workload", "LSI");
        store.store(&key, &sample_capture(&key)).unwrap();
        std::fs::remove_file(store.trace_path(&key)).unwrap();
        assert!(store.load(&key).is_none());
        assert!(!store.meta_path(&key).exists(), "orphan sidecar removed");
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn broker_captures_once_and_counts_reuses() {
        let broker = CaptureBroker::in_memory();
        let key = JobKey::new("fsb-stream").field("workload", "FIMI");
        let mut calls = 0u32;
        for _ in 0..3 {
            let s = broker.stream(&key, || {
                calls += 1;
                sample_capture(&key)
            });
            assert_eq!(s.transactions(), 100);
        }
        assert_eq!(calls, 1, "capture closure must run exactly once");
        assert_eq!(
            broker.counters(),
            CaptureCounters {
                captures: 1,
                memory_reuses: 2,
                ..CaptureCounters::default()
            }
        );
        // A different key captures independently.
        let other = JobKey::new("fsb-stream").field("workload", "SHOT");
        broker.stream(&other, || sample_capture(&other));
        assert_eq!(broker.counters().captures, 2);
    }

    #[test]
    fn broker_with_store_persists_and_loads() {
        let root = std::env::temp_dir().join(format!("cmpsim_broker_store_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let key = JobKey::new("fsb-stream").field("workload", "SVM_RFE");
        {
            let broker = CaptureBroker::new(Some(root.clone()));
            broker.stream(&key, || sample_capture(&key));
            assert_eq!(broker.counters().captures, 1);
        }
        // A fresh broker (a new process, conceptually) loads from disk.
        let broker = CaptureBroker::new(Some(root.clone()));
        let s = broker.stream(&key, || panic!("must load, not capture"));
        assert_eq!(s.transactions(), 100);
        assert_eq!(
            broker.counters(),
            CaptureCounters {
                disk_loads: 1,
                ..CaptureCounters::default()
            }
        );
        // Second ask in the same process is a memory reuse, not a re-load.
        broker.stream(&key, || panic!("must reuse, not capture"));
        assert_eq!(broker.counters().memory_reuses, 1);
        let _ = std::fs::remove_dir_all(&root);
    }
}
