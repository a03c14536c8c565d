//! The coordinator daemon: the [`cmpsim_runner::sched`] scheduling
//! core plus a TCP front, client attach, restart recovery, and the
//! lease table for remote agents.
//!
//! One [`Coordinator`] owns a TCP listener, a [`Scheduler`] shared by
//! every submission (fair round-robin across runs, the shared
//! content-addressed result cache, in-flight dedup, the backoff/poison
//! budget), a fleet of local worker threads running the core's
//! [`work`](sched::work) loop — each attempt supervises one child
//! process of the client's binary — and a per-run write-ahead journal +
//! flight recorder. Remote [`agents`](crate::agent) dial in over the
//! same listener, register over a versioned handshake (protocol
//! version + binary fingerprint + slot count), and pull cells from the
//! same queue alongside the local workers.
//!
//! **Scheduling** is the core's: runs take turns handing out one cell
//! at a time, so a two-cell status probe is never starved behind a
//! 64-cell paper-scale sweep, and a cell whose key is cached or already
//! executing for another run is served from that instead of running
//! again (the `cache_hits` and `dedup_joins` counters).
//!
//! **Leases**: every cell dispatched to an agent carries a lease.
//! Agents renew their leases by heartbeat; an agent that disconnects
//! or goes silent past the lease TTL (3× the heartbeat interval) is
//! *reclaimed* — its in-flight cells re-enter the queue as crash-class
//! retries through [`retry_or_complete`](sched::retry_or_complete),
//! bounded by the same [`BackoffPolicy`] budget as local crashes, so a
//! cell that kills every agent is quarantined as `poisoned`, not
//! retried forever. The lease table is the single finishing authority
//! for agent cells: a dead agent's last-gasp result and a reclaimed
//! re-run race on removing the lease, exactly one wins, and the journal
//! gets exactly one `job_done` per cell.
//!
//! **Failure model**: a worker child that crashes (SIGKILL, abort,
//! OOM) is retried on the [`BackoffPolicy`] schedule and quarantined as
//! `poisoned` when the budget runs out; the client just sees one
//! `job_done`. A client that disconnects mid-sweep stops receiving
//! records, but the run finishes and journals server-side, so
//! `--resume` (or `attach`) replays it.
//!
//! **Restart recovery**: a coordinator that dies mid-sweep leaves each
//! run's write-ahead journal behind. On the next `cmpsim serve`
//! startup, [`recover_runs`] scans the journal directory and rebuilds
//! every unfinished run from its journalled `submission` record,
//! splitting its cells with the same [`partition`](sched::partition) a
//! resumed batch uses: completed cells are tallied from their
//! `job_done` records, dangling in-flight and never-started cells
//! re-enter the scheduler under the ordinary backoff/poison budget, and
//! the run executes to completion with no client action. Every
//! `job_done` carries a per-run monotone record sequence (`rseq`,
//! minted by the journal under the run's emit lock so journal order ==
//! wire order); a client that lost its coordinator reattaches with
//! `attach {run_id, after_seq}` and the coordinator replays the records
//! it missed straight from the journal before splicing it into the live
//! stream. The listener binds with `SO_REUSEADDR`, so the restarted
//! daemon can take the same address while the old incarnation's
//! sockets drain in `TIME_WAIT`.
//!
//! **Degradation**: if journal appends start failing (disk full, dir
//! deleted), the run keeps executing but is marked *degraded* — it
//! finishes, warns, bumps `runs_degraded`, and its journal file is
//! removed so a later boot will not recover from a lying journal;
//! reattach and `--resume` are refused for it.
//!
//! The accept loop blocks in `accept`; a shutdown request wakes it by
//! dialing the listener once. Every socket carries read/write
//! deadlines, so a hung or half-open peer can never wedge the accept
//! loop, a worker, or an agent session indefinitely.

use crate::proto::{self, AgentHello, Attach, CellSpec, Dispatch, Submission, PROTOCOL_VERSION};
use cmpsim_runner::sched::{
    self, ExecSpan, Host, Partition, Pending, RunState, RunTrace, Scheduler,
};
use cmpsim_runner::{
    file_fingerprint, fresh_run_id, process_nonce, record, BackoffPolicy, ChildAttempt, JobOutcome,
    JobReport, JournalConfig, ResultCache, RunJournal, ShutdownFlag,
};
use cmpsim_telemetry::trace::{self as ftrace, FlightRecorder, Lane, OpenSpan};
use cmpsim_telemetry::JsonValue;
use std::collections::{HashMap, HashSet};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::{Duration, Instant};

/// Write deadline on every coordinator-side socket: a peer that cannot
/// absorb a message within this is treated as gone.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// Read deadline while waiting for a connection's first request.
const HANDSHAKE_READ_TIMEOUT: Duration = Duration::from_secs(30);

/// A lease outlives this many missed heartbeats before reclaim.
const LEASE_TTL_BEATS: u32 = 3;

fn lease_ttl(cfg: &ServeConfig) -> Duration {
    cfg.heartbeat * LEASE_TTL_BEATS
}

/// How the daemon runs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address; port `0` picks a free port (see
    /// [`Coordinator::local_addr`]).
    pub listen: String,
    /// Local worker threads — each supervises one child process at a
    /// time. Zero is valid: an agents-only coordinator schedules but
    /// never executes.
    pub workers: usize,
    /// Root of the shared content-addressed result cache; `None`
    /// disables caching (dedup of *in-flight* work still applies).
    pub cache_dir: Option<PathBuf>,
    /// Directory for per-run journals and trace sidecars.
    pub journal_dir: PathBuf,
    /// Extra attempts for a crashed/hung cell.
    pub retries: u32,
    /// Per-cell watchdog deadline; the child is killed at it.
    pub job_timeout: Option<Duration>,
    /// Retry/backoff schedule for failed attempts.
    pub backoff: BackoffPolicy,
    /// Chaos hook: SIGKILL the first child spawned for a cell with
    /// this label (once per daemon lifetime), so tests and CI exercise
    /// the genuine crash/re-shard path.
    pub chaos_kill_label: Option<String>,
    /// Chaos hook: abort the *whole daemon* the first time a cell with
    /// this label is claimed — after its `job_start` is journalled, so
    /// the restart-recovery path sees a genuine mid-sweep coordinator
    /// loss (tests and the CI kill-and-restart smoke).
    pub chaos_crash_label: Option<String>,
    /// Heartbeat interval agents must beat at; a lease is reclaimed
    /// after [`LEASE_TTL_BEATS`] silent intervals.
    pub heartbeat: Duration,
    /// Graceful-shutdown flag; when set, the accept loop stops and
    /// workers drain.
    pub shutdown: Option<ShutdownFlag>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            listen: "127.0.0.1:0".to_owned(),
            workers: 2,
            cache_dir: None,
            journal_dir: PathBuf::from("results/journal"),
            retries: 1,
            job_timeout: None,
            backoff: BackoffPolicy::default(),
            chaos_kill_label: None,
            chaos_crash_label: None,
            heartbeat: Duration::from_secs(2),
            shutdown: None,
        }
    }
}

/// Lifetime counters, exported over `status` and into the service
/// trace lane.
#[derive(Debug, Default)]
struct Counters {
    submissions: AtomicU64,
    runs_completed: AtomicU64,
    cells_total: AtomicU64,
    replayed: AtomicU64,
    crashes: AtomicU64,
    agents_joined: AtomicU64,
    agents_lost: AtomicU64,
    cells_reclaimed: AtomicU64,
    stale_results: AtomicU64,
    runs_recovered: AtomicU64,
    cells_requeued: AtomicU64,
    jobs_replayed_to_client: AtomicU64,
    runs_degraded: AtomicU64,
}

impl Counters {
    /// The counters plus the scheduler's claim counters
    /// (`executed`, `cache_hits`, `dedup_joins`).
    fn snapshot(
        &self,
        workers: usize,
        (executed, cache_hits, dedup_joins): (u64, u64, u64),
    ) -> JsonValue {
        let get = |a: &AtomicU64| JsonValue::U64(a.load(Ordering::Relaxed));
        JsonValue::object([
            ("kind", JsonValue::from("counters")),
            ("workers", JsonValue::from(workers)),
            ("submissions", get(&self.submissions)),
            ("runs_completed", get(&self.runs_completed)),
            ("cells_total", get(&self.cells_total)),
            ("executed", JsonValue::U64(executed)),
            ("cache_hits", JsonValue::U64(cache_hits)),
            ("dedup_joins", JsonValue::U64(dedup_joins)),
            ("replayed", get(&self.replayed)),
            ("crashes", get(&self.crashes)),
            ("agents_joined", get(&self.agents_joined)),
            ("agents_lost", get(&self.agents_lost)),
            ("cells_reclaimed", get(&self.cells_reclaimed)),
            ("stale_results", get(&self.stale_results)),
            ("runs_recovered", get(&self.runs_recovered)),
            ("cells_requeued", get(&self.cells_requeued)),
            (
                "jobs_replayed_to_client",
                get(&self.jobs_replayed_to_client),
            ),
            ("runs_degraded", get(&self.runs_degraded)),
        ])
    }
}

/// One accepted submission, shared between the scheduler and workers.
struct Run {
    id: String,
    experiment: String,
    exe: PathBuf,
    cells: Vec<CellSpec>,
    /// Journal, emit lock and tally. The emit lock serializes
    /// journal-append + client-send for `job_done` records, so rseq
    /// order, journal order, and wire order always agree — `attach`
    /// relies on "everything after rseq N" being exact, and takes the
    /// lock to splice into the stream without missing or duplicating a
    /// record.
    state: RunState,
    /// The client's write side; `None` once the client is gone (the
    /// run still completes — `attach`/`--resume` replays it).
    client: Mutex<Option<TcpStream>>,
    recorder: Arc<FlightRecorder>,
    service_lane: Lane,
    /// The `run` umbrella span, ended when the run finishes.
    span: Mutex<Option<OpenSpan>>,
    trace_path: PathBuf,
    workers: usize,
}

impl Run {
    fn journal(&self) -> &RunJournal {
        self.state
            .journal
            .as_ref()
            .expect("service runs are always journalled")
    }

    /// Streams one message to the client; a failed write marks the
    /// client gone and the computation carries on.
    fn send(&self, body: &JsonValue) {
        let mut client = self.client.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(stream) = client.as_mut() {
            if proto::write_msg(stream, body).is_err() {
                *client = None;
            }
        }
    }

    fn send_job_done(
        &self,
        cell: &CellSpec,
        outcome: &JobOutcome,
        attempts: u32,
        rseq: u64,
        replayed: bool,
    ) {
        let mut fields = vec![
            ("kind".to_owned(), JsonValue::from("job_done")),
            ("rseq".to_owned(), JsonValue::from(rseq)),
            ("seq".to_owned(), JsonValue::from(cell.seq)),
            ("key".to_owned(), JsonValue::from(cell.key.as_str())),
            ("label".to_owned(), JsonValue::from(cell.label.as_str())),
            ("attempts".to_owned(), JsonValue::from(u64::from(attempts))),
            ("outcome".to_owned(), outcome.to_json()),
        ];
        if replayed {
            fields.push(("replayed".to_owned(), JsonValue::Bool(true)));
        }
        self.send(&JsonValue::Object(fields));
    }
}

/// One connected remote agent.
struct Agent {
    id: u64,
    pid: u32,
    slots: usize,
    /// Slots not currently holding a lease.
    free: AtomicUsize,
    /// Cells whose results this agent delivered.
    done: AtomicU64,
    /// Set exactly once, by whichever path declares the agent dead
    /// (or drained) first.
    gone: AtomicBool,
    /// Monotonic ([`Instant`], never wall clock): an NTP step or a
    /// suspend/resume must not make a healthy agent look silent.
    last_beat: Mutex<Instant>,
    /// The canonical write path — dispatches and heartbeat acks are
    /// serialized through it.
    writer: Mutex<TcpStream>,
}

/// One dispatched cell awaiting its agent's result.
struct Lease {
    run: Arc<Run>,
    seq: usize,
    /// Attempts consumed *before* this dispatch.
    attempt: u32,
    agent: u64,
    /// TTL deadline on the monotonic clock ([`Instant`], never wall
    /// clock), so an NTP step or suspend/resume cannot mass-expire the
    /// fleet's leases.
    expires: Instant,
}

/// State shared by the accept loop, the worker fleet, and agent
/// sessions.
struct Shared {
    cfg: ServeConfig,
    /// The scheduling core every run queues on.
    core: Scheduler<Run>,
    counters: Counters,
    chaos_armed: AtomicBool,
    /// Arms the daemon-abort chaos hook ([`ServeConfig::chaos_crash_label`])
    /// separately from the child-SIGKILL one.
    chaos_crash_armed: AtomicBool,
    /// Connected agents by id.
    agents: Mutex<HashMap<u64, Arc<Agent>>>,
    /// Outstanding leases by lease id — the single finishing
    /// authority for agent-dispatched cells.
    leases: Mutex<HashMap<u64, Lease>>,
    next_agent_id: AtomicU64,
    /// Seeded from [`process_nonce`] at bind, so lease ids from a
    /// previous daemon incarnation (re-reported by a reconnecting agent
    /// after a restart) can never collide with live ones — they fall
    /// through to the `stale_results` path instead.
    next_lease_id: AtomicU64,
    /// Live runs, for the keepalive pinger.
    runs: Mutex<Vec<Weak<Run>>>,
    /// FNV-1a fingerprint of this coordinator's own executable; agent
    /// handshakes must match it (`None` if the binary could not be
    /// hashed — the check is then skipped).
    binary: Option<String>,
}

/// Binds a listener with `SO_REUSEADDR`, so a restarted daemon can
/// re-bind its port while its predecessor's accepted connections are
/// still draining through `TIME_WAIT` — without it, the restart that
/// recovery exists for would fail with "address in use" for minutes.
///
/// `std::net::TcpListener` offers no socket-option hook before `bind`,
/// so on Linux this goes through raw libc calls (the same
/// zero-dependency FFI idiom as the shutdown handler); IPv6 addresses
/// and other platforms fall back to the plain bind.
fn bind_reuseaddr(addr: &str) -> std::io::Result<TcpListener> {
    #[cfg(target_os = "linux")]
    {
        use std::net::ToSocketAddrs;
        if let Some(SocketAddr::V4(v4)) = addr.to_socket_addrs()?.find(SocketAddr::is_ipv4) {
            return bind_reuseaddr_v4(&v4);
        }
    }
    TcpListener::bind(addr)
}

#[cfg(target_os = "linux")]
fn bind_reuseaddr_v4(addr: &std::net::SocketAddrV4) -> std::io::Result<TcpListener> {
    use std::os::fd::FromRawFd;

    const AF_INET: i32 = 2;
    const SOCK_STREAM: i32 = 1;
    const SOCK_CLOEXEC: i32 = 0x8_0000;
    const SOL_SOCKET: i32 = 1;
    const SO_REUSEADDR: i32 = 2;

    #[repr(C)]
    struct SockaddrIn {
        sin_family: u16,
        /// Network byte order.
        sin_port: u16,
        /// Network byte order.
        sin_addr: u32,
        sin_zero: [u8; 8],
    }

    extern "C" {
        fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
        fn bind(fd: i32, addr: *const SockaddrIn, len: u32) -> i32;
        fn listen(fd: i32, backlog: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    // SAFETY: plain libc calls with checked return values; the fd is
    // either handed to `TcpListener::from_raw_fd` (which then owns it)
    // or closed on the error path.
    unsafe {
        let fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if fd < 0 {
            return Err(std::io::Error::last_os_error());
        }
        let on: i32 = 1;
        let sa = SockaddrIn {
            sin_family: AF_INET as u16,
            sin_port: addr.port().to_be(),
            sin_addr: u32::from(*addr.ip()).to_be(),
            sin_zero: [0; 8],
        };
        if setsockopt(
            fd,
            SOL_SOCKET,
            SO_REUSEADDR,
            &on,
            std::mem::size_of::<i32>() as u32,
        ) < 0
            || bind(fd, &sa, std::mem::size_of::<SockaddrIn>() as u32) < 0
            || listen(fd, 128) < 0
        {
            let err = std::io::Error::last_os_error();
            let _ = close(fd);
            return Err(err);
        }
        Ok(TcpListener::from_raw_fd(fd))
    }
}

/// The daemon: bind, then [`run`](Coordinator::run) until shut down.
pub struct Coordinator {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Coordinator {
    /// Binds the listen socket (port `0` picks a free port), then scans
    /// the journal directory and rebuilds every run a previous daemon
    /// incarnation left unfinished — completed cells tallied from their
    /// journal, dangling in-flight ones re-enqueued — so a restarted
    /// `cmpsim serve` resumes scheduling without any client action.
    ///
    /// # Errors
    ///
    /// Propagates bind failures (address in use, permission).
    pub fn bind(cfg: ServeConfig) -> std::io::Result<Coordinator> {
        let listener = bind_reuseaddr(&cfg.listen)?;
        // The service's scheduler never skips queued cells: a shutdown
        // stops the accept loop, and the workers drain the queue.
        let core = Scheduler::new(
            cfg.cache_dir.clone().map(ResultCache::new),
            cfg.retries,
            cfg.backoff.clone(),
            cfg.job_timeout,
            None,
        );
        let binary = std::env::current_exe()
            .ok()
            .and_then(|p| file_fingerprint(&p).ok());
        let shared = Arc::new(Shared {
            cfg,
            core,
            counters: Counters::default(),
            chaos_armed: AtomicBool::new(true),
            chaos_crash_armed: AtomicBool::new(true),
            agents: Mutex::new(HashMap::new()),
            leases: Mutex::new(HashMap::new()),
            next_agent_id: AtomicU64::new(0),
            next_lease_id: AtomicU64::new(process_nonce() << 16),
            runs: Mutex::new(Vec::new()),
            binary,
        });
        recover_runs(&shared);
        Ok(Coordinator { listener, shared })
    }

    /// The bound address — what clients `--connect` to.
    ///
    /// # Errors
    ///
    /// Propagates `local_addr` failures (never expected post-bind).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until the shutdown flag fires (or forever without one):
    /// accepts connections, spawns a handler thread per client, and
    /// runs the worker fleet plus the lease reaper. Returns after a
    /// graceful drain.
    pub fn run(&self) {
        let shutdown = self.shared.cfg.shutdown.as_ref();
        let stopping = || shutdown.is_some_and(ShutdownFlag::requested);
        std::thread::scope(|s| {
            for wid in 0..self.shared.cfg.workers {
                let shared = &*self.shared;
                s.spawn(move || sched::work(shared, wid));
            }
            {
                let shared = Arc::clone(&self.shared);
                s.spawn(move || reaper_loop(&shared));
            }
            // `accept` blocks, so a shutdown request must wake it: this
            // thread watches the flag and then dials the listener once.
            if let (Some(flag), Ok(addr)) = (shutdown, self.local_addr()) {
                s.spawn(move || {
                    while !flag.requested() {
                        std::thread::sleep(Duration::from_millis(50));
                    }
                    let _ = TcpStream::connect_timeout(&loopback(addr), Duration::from_secs(1));
                });
            }
            while !stopping() {
                match self.listener.accept() {
                    Ok(_) if stopping() => break,
                    Ok((stream, _)) => {
                        let shared = Arc::clone(&self.shared);
                        s.spawn(move || handle_conn(&shared, stream));
                    }
                    Err(e) => {
                        // e.g. EMFILE: back off instead of spinning.
                        eprintln!("cmpsim serve: accept failed: {e}");
                        std::thread::sleep(Duration::from_millis(50));
                    }
                }
            }
            self.shared.core.drain();
        });
    }
}

/// Where to dial a listener bound to `addr` from this host: a wildcard
/// bind is reachable on loopback.
fn loopback(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr.ip() {
            IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
            IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
        });
    }
    addr
}

/// One client connection: read the request line, dispatch.
fn handle_conn(shared: &Arc<Shared>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let _ = stream.set_read_timeout(Some(HANDSHAKE_READ_TIMEOUT));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = proto::MsgReader::new(read_half);
    let mut write_half = stream;
    let msg = match reader.next() {
        Ok(Some(msg)) => msg,
        Ok(None) => return,
        Err(e) => {
            send_error(&mut write_half, &format!("bad request: {e}"));
            return;
        }
    };
    let peer_protocol = msg.get("protocol").and_then(JsonValue::as_u64);
    if peer_protocol != Some(PROTOCOL_VERSION) {
        send_error(
            &mut write_half,
            &format!(
                "protocol mismatch: coordinator speaks v{PROTOCOL_VERSION}, peer sent {}",
                match peer_protocol {
                    Some(v) => format!("v{v}"),
                    None => "no version".to_owned(),
                }
            ),
        );
        return;
    }
    match msg.get("kind").and_then(JsonValue::as_str) {
        Some("status") => {
            let _ = proto::write_msg(&mut write_half, &status_snapshot(shared));
        }
        Some("submit") => match Submission::from_msg(&msg) {
            Some(sub) => {
                if let Err(e) = register_submission(shared, write_half, sub) {
                    eprintln!("cmpsim serve: submission rejected: {e}");
                }
            }
            None => send_error(&mut write_half, "malformed submit message"),
        },
        Some("attach") => match Attach::from_msg(&msg) {
            Some(attach) => handle_attach(shared, write_half, &attach),
            None => send_error(&mut write_half, "malformed attach message"),
        },
        Some("agent_hello") => match AgentHello::from_msg(&msg) {
            Some(hello) => run_agent_session(shared, reader, write_half, hello),
            None => send_error(&mut write_half, "malformed agent_hello message"),
        },
        other => send_error(&mut write_half, &format!("unknown request kind {other:?}")),
    }
}

fn send_error(stream: &mut TcpStream, message: &str) {
    let _ = proto::write_msg(
        stream,
        &JsonValue::object([
            ("kind", JsonValue::from("error")),
            ("message", JsonValue::from(message)),
        ]),
    );
}

/// The `status` reply: lifetime counters plus one row per connected
/// agent.
fn status_snapshot(shared: &Shared) -> JsonValue {
    let mut snap = shared
        .counters
        .snapshot(shared.cfg.workers, shared.core.stats());
    let mut rows: Vec<(u64, JsonValue)> = {
        let agents = shared.agents.lock().unwrap_or_else(|e| e.into_inner());
        agents
            .values()
            .map(|a| {
                let free = a.free.load(Ordering::Relaxed).min(a.slots);
                let beat_ms = a
                    .last_beat
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .elapsed()
                    .as_millis() as u64;
                (
                    a.id,
                    JsonValue::object([
                        ("id", JsonValue::from(a.id)),
                        ("pid", JsonValue::from(u64::from(a.pid))),
                        ("slots", JsonValue::from(a.slots)),
                        ("in_flight", JsonValue::from(a.slots - free)),
                        ("last_heartbeat_ms", JsonValue::from(beat_ms)),
                        (
                            "cells_done",
                            JsonValue::from(a.done.load(Ordering::Relaxed)),
                        ),
                    ]),
                )
            })
            .collect()
    };
    rows.sort_by_key(|(id, _)| *id);
    if let JsonValue::Object(fields) = &mut snap {
        fields.push((
            "agents".to_owned(),
            JsonValue::Array(rows.into_iter().map(|(_, v)| v).collect()),
        ));
    }
    snap
}

/// The journal record capturing a submission verbatim — everything a
/// restarted daemon needs to rebuild the run ([`recover_runs`]).
fn submission_record(run_id: &str, sub: &Submission) -> JsonValue {
    JsonValue::object([
        ("kind", JsonValue::from("submission")),
        ("run_id", JsonValue::from(run_id)),
        (
            "exe",
            JsonValue::from(sub.exe.to_string_lossy().into_owned()),
        ),
        ("experiment", JsonValue::from(sub.experiment.as_str())),
        (
            "cells",
            JsonValue::Array(sub.cells.iter().map(CellSpec::to_json).collect()),
        ),
    ])
}

/// Registers one submission: opens (and on resume, replays) its
/// journal, streams replayed cells, and enqueues the rest.
fn register_submission(
    shared: &Arc<Shared>,
    mut stream: TcpStream,
    sub: Submission,
) -> std::io::Result<()> {
    shared.counters.submissions.fetch_add(1, Ordering::Relaxed);
    let run_id = sub
        .run_id
        .clone()
        .unwrap_or_else(|| fresh_run_id(&sub.experiment));
    let mut jc = JournalConfig::new(shared.cfg.journal_dir.clone(), run_id.clone());
    if sub.resume {
        jc = jc.resuming();
    }
    let (journal, replay) = match RunJournal::open(&jc) {
        Ok(opened) => opened,
        Err(e) => {
            send_error(&mut stream, &format!("cannot open journal: {e}"));
            return Err(e);
        }
    };

    // Cells with a journalled terminal outcome replay instantly; the
    // rest execute (in-flight ones from a dead run are the `recovered`
    // count, as for a resumed batch).
    let part = sched::partition(sub.cells.iter().map(|c| c.key.as_str()), &replay);
    let total = sub.cells.len();
    journal.run_start(&run_id, total, part.replayed.len());
    // Journal the submission itself (exe, experiment, cell list): the
    // journal then holds everything a *restarted* daemon needs to
    // rebuild and finish this run with no client involved.
    journal.append_record(submission_record(&run_id, &sub));
    shared
        .counters
        .cells_total
        .fetch_add(total as u64, Ordering::Relaxed);

    proto::write_msg(
        &mut stream,
        &JsonValue::object([
            ("kind", JsonValue::from("accepted")),
            ("run_id", JsonValue::from(run_id.as_str())),
            ("total", JsonValue::from(total)),
            ("workers", JsonValue::from(shared.cfg.workers)),
            ("recovered", JsonValue::from(part.recovered)),
        ]),
    )?;

    let run = new_run(shared, run_id, sub, journal, Some(stream), &part);
    run.service_lane.instant(
        "submit",
        "",
        0,
        vec![
            ("run_id".to_owned(), JsonValue::from(run.id.as_str())),
            ("cells".to_owned(), JsonValue::from(total)),
            ("replayed".to_owned(), JsonValue::from(part.replayed.len())),
        ],
    );
    // Replays stream in rseq order, so the client's "highest rseq
    // received" watermark is gapless if it has to reattach mid-replay.
    for (seq, done) in part.replayed {
        shared.counters.replayed.fetch_add(1, Ordering::Relaxed);
        run.state.tally(&done.outcome);
        run.send_job_done(
            &run.cells[seq],
            &done.outcome,
            done.attempts,
            done.rseq,
            true,
        );
    }
    start_run(shared, run, part.pending);
    Ok(())
}

/// Builds a run whose cells split as `part`, registers it for attach
/// and keepalives, and opens its trace: a `service` lane holding the
/// `run` span and lifecycle markers, plus one lane per local worker.
fn new_run(
    shared: &Shared,
    id: String,
    sub: Submission,
    journal: RunJournal,
    client: Option<TcpStream>,
    part: &Partition,
) -> Arc<Run> {
    let workers = shared.cfg.workers;
    let recorder = FlightRecorder::new();
    let service_lane = recorder.lane("service");
    let mut span = service_lane.begin("run", "", 0);
    span.arg("run", id.as_str());
    span.arg("jobs", sub.cells.len() as u64);
    span.arg("workers", workers as u64);
    span.arg("replayed", part.replayed.len() as u64);
    let trace = RunTrace::new(&recorder, workers, span.span_id());
    let (keys, labels) = sub
        .cells
        .iter()
        .map(|c| (c.key.clone(), c.label.clone()))
        .unzip();
    let run = Arc::new(Run {
        trace_path: shared.cfg.journal_dir.join(format!("{id}.trace.jsonl")),
        id,
        experiment: sub.experiment,
        exe: sub.exe,
        cells: sub.cells,
        state: RunState::new(keys, labels, Some(journal), part.pending.len(), Some(trace)),
        client: Mutex::new(client),
        recorder,
        service_lane,
        span: Mutex::new(Some(span)),
        workers,
    });
    let mut runs = shared.runs.lock().unwrap_or_else(|e| e.into_inner());
    runs.retain(|w| w.strong_count() > 0);
    runs.push(Arc::downgrade(&run));
    run
}

/// Queues a run's pending cells — or, with none left, closes it out.
fn start_run(shared: &Shared, run: Arc<Run>, pending: std::collections::VecDeque<Pending>) {
    if run.state.remaining() == 0 {
        finish_run(shared, &run);
    } else {
        shared.core.enqueue(&run, pending);
    }
}

impl Host for Shared {
    type Run = Run;

    fn core(&self) -> &Scheduler<Run> {
        &self.core
    }

    fn state(run: &Run) -> &RunState {
        &run.state
    }

    fn supervised(&self, _run: &Run, _seq: usize) -> bool {
        true
    }

    /// One supervised child of the client's binary. The kill chaos hook
    /// fires on the first matching attempt only: the child is SIGKILLed
    /// right after spawn, a genuine crash the retry loop re-runs.
    fn attempt(&self, run: &Run, seq: usize, exec: Option<&ExecSpan>) -> ChildAttempt {
        let cell = &run.cells[seq];
        let sabotage = self.cfg.chaos_kill_label.as_deref() == Some(cell.label.as_str())
            && self.chaos_armed.swap(false, Ordering::SeqCst);
        let attempt = sched::supervise(exec, &run.exe, &cell.args, self.cfg.job_timeout, sabotage);
        if matches!(attempt, ChildAttempt::Crashed(_)) {
            self.counters.crashes.fetch_add(1, Ordering::Relaxed);
        }
        attempt
    }

    /// Chaos hook: die *after* the write-ahead `job_start` — exactly the
    /// window a real coordinator loss leaves a dangling in-flight cell
    /// for restart recovery to re-enqueue.
    fn started(&self, run: &Run, seq: usize) {
        let label = run.cells[seq].label.as_str();
        if self.cfg.chaos_crash_label.as_deref() == Some(label)
            && self.chaos_crash_armed.swap(false, Ordering::SeqCst)
        {
            eprintln!("cmpsim serve: chaos hook aborting the daemon on cell {label}");
            std::process::abort();
        }
    }

    fn deliver(&self, run: &Run, seq: usize, report: JobReport, rseq: u64) {
        run.send_job_done(
            &run.cells[seq],
            &report.outcome,
            report.attempts,
            rseq,
            false,
        );
    }

    fn finished(&self, run: &Arc<Run>) {
        finish_run(self, run);
    }
}

/// Closes out a run: journal `run_end`, trace sidecar, the `run_end`
/// message, and the client socket.
fn finish_run(shared: &Shared, run: &Arc<Run>) {
    let (ok, cached, failed) = run.state.counts();
    run.journal().run_end(ok, cached, failed);
    if let Some(trace) = run.state.trace.as_ref() {
        trace.close();
    }
    drop(run.span.lock().unwrap_or_else(|e| e.into_inner()).take());
    let events = run.recorder.drain_sorted();
    let lanes = run.recorder.lane_names();
    let meta: Vec<(String, JsonValue)> = vec![
        (
            "experiment".to_owned(),
            JsonValue::from(run.experiment.as_str()),
        ),
        ("run_id".to_owned(), JsonValue::from(run.id.as_str())),
        ("workers".to_owned(), JsonValue::from(run.workers)),
        ("service".to_owned(), JsonValue::Bool(true)),
    ];
    if let Err(e) = ftrace::write_jsonl(
        &run.trace_path,
        &meta,
        &lanes,
        &events,
        run.recorder.dropped(),
    ) {
        eprintln!(
            "cmpsim serve: cannot write {}: {e}",
            run.trace_path.display()
        );
    }
    // Graceful degradation: if any journal append failed (disk full),
    // the journal is an incomplete record — resuming or re-attaching
    // from it would silently drop cells. Downgrade the run to
    // non-resumable (remove the journal), count it, and keep serving;
    // the client still received every record over the live stream.
    let degraded = run.journal().degraded();
    if degraded {
        shared
            .counters
            .runs_degraded
            .fetch_add(1, Ordering::Relaxed);
        eprintln!(
            "cmpsim serve: run {} degraded to non-resumable: {} journal append(s) failed \
             (disk full?); removing its incomplete journal",
            run.id,
            run.journal().append_failures()
        );
        if let Err(e) = std::fs::remove_file(run.journal().path()) {
            eprintln!(
                "cmpsim serve: cannot remove degraded journal {}: {e}",
                run.journal().path().display()
            );
        }
    }
    let mut end = vec![
        ("kind".to_owned(), JsonValue::from("run_end")),
        ("ok".to_owned(), JsonValue::from(ok)),
        ("cached".to_owned(), JsonValue::from(cached)),
        ("failed".to_owned(), JsonValue::from(failed)),
    ];
    if degraded {
        end.push(("journal_degraded".to_owned(), JsonValue::Bool(true)));
    }
    // Counted before the client hears of it: a client that asks for
    // `status` the moment its run ends must see the run completed.
    shared
        .counters
        .runs_completed
        .fetch_add(1, Ordering::Relaxed);
    run.send(&JsonValue::Object(end));
    *run.client.lock().unwrap_or_else(|e| e.into_inner()) = None;
}

// ---------------------------------------------------------------------
// Restart recovery & client reattach
// ---------------------------------------------------------------------

/// Reads a journal's verified records, stopping at the first torn line
/// — the same trust boundary as [`RunJournal::open`]'s replay.
fn read_journal_records(path: &std::path::Path) -> Vec<JsonValue> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map_while(|l| {
            cmpsim_telemetry::parse(l.trim())
                .ok()
                .and_then(|doc| record::verify(&doc, "record"))
        })
        .collect()
}

/// The journalled `job_done` records with `rseq` strictly greater than
/// `after`, in rseq order. The journal record shape *is* the wire
/// `job_done` shape, so these forward to a client verbatim.
fn journal_job_dones_after(path: &std::path::Path, after: u64) -> Vec<JsonValue> {
    let mut recs: Vec<(u64, JsonValue)> = read_journal_records(path)
        .into_iter()
        .filter(|r| r.get("kind").and_then(JsonValue::as_str) == Some("job_done"))
        .map(|r| (r.get("rseq").and_then(JsonValue::as_u64).unwrap_or(0), r))
        .filter(|(rseq, _)| *rseq > after)
        .collect();
    recs.sort_by_key(|(rseq, _)| *rseq);
    recs.into_iter().map(|(_, r)| r).collect()
}

/// Startup recovery: scan the journal directory and rebuild every run
/// a previous daemon incarnation left unfinished. Completed cells are
/// tallied straight from the journal; dangling in-flight and never-
/// started cells re-enter the scheduler under the ordinary
/// backoff/poison budget. Clients reattach (or `--resume`) whenever
/// they like — the runs execute either way.
fn recover_runs(shared: &Arc<Shared>) {
    let Ok(entries) = std::fs::read_dir(&shared.cfg.journal_dir) else {
        return; // no journal directory yet: a first boot
    };
    let mut names: Vec<String> = entries
        .flatten()
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| n.ends_with(".jsonl") && !n.ends_with(".trace.jsonl"))
        .collect();
    names.sort(); // deterministic recovery order
    for name in names {
        let run_id = name.trim_end_matches(".jsonl").to_owned();
        recover_run(shared, &run_id);
    }
}

/// Rebuilds one journalled run, if it is unfinished and carries a
/// `submission` record (pre-submission-record journals and plain batch
/// journals are left alone — `--resume` still works on them).
fn recover_run(shared: &Arc<Shared>, run_id: &str) {
    let jc = JournalConfig::new(shared.cfg.journal_dir.clone(), run_id.to_owned()).resuming();
    let (journal, replay) = match RunJournal::open(&jc) {
        Ok(opened) => opened,
        Err(e) => {
            eprintln!("cmpsim serve: cannot reopen journal for run {run_id}: {e}");
            return;
        }
    };
    if replay.ended || replay.submission.is_none() {
        return;
    }
    let Some((exe, experiment, cells)) = replay.submission.as_ref().and_then(|rec| {
        Some((
            PathBuf::from(rec.get("exe")?.as_str()?),
            rec.get("experiment")?.as_str()?.to_owned(),
            rec.get("cells")?
                .as_array()?
                .iter()
                .map(CellSpec::from_json)
                .collect::<Option<Vec<CellSpec>>>()?,
        ))
    }) else {
        eprintln!("cmpsim serve: run {run_id} has a malformed submission record; not recovered");
        return;
    };

    let part = sched::partition(cells.iter().map(|c| c.key.as_str()), &replay);
    let total = cells.len();
    let done = part.replayed.len();
    let requeued = part.pending.len();
    journal.run_start(run_id, total, done);
    let sub = Submission {
        exe,
        experiment,
        run_id: Some(run_id.to_owned()),
        resume: true,
        cells,
    };
    let run = new_run(shared, run_id.to_owned(), sub, journal, None, &part);
    run.service_lane.instant(
        "recovered",
        "",
        0,
        vec![
            ("run_id".to_owned(), JsonValue::from(run_id)),
            ("cells".to_owned(), JsonValue::from(total)),
            ("done".to_owned(), JsonValue::from(done)),
            ("requeued".to_owned(), JsonValue::from(requeued)),
            ("in_flight".to_owned(), JsonValue::from(part.recovered)),
        ],
    );
    for (_, done) in &part.replayed {
        run.state.tally(&done.outcome);
    }
    shared
        .counters
        .runs_recovered
        .fetch_add(1, Ordering::Relaxed);
    shared
        .counters
        .cells_requeued
        .fetch_add(requeued as u64, Ordering::Relaxed);
    shared
        .counters
        .cells_total
        .fetch_add(total as u64, Ordering::Relaxed);
    eprintln!(
        "cmpsim serve: recovered run {run_id}: {done}/{total} cells already journalled, \
         {requeued} re-enqueued"
    );
    // With every cell finished but no `run_end` journalled, this closes
    // the run out.
    start_run(shared, run, part.pending);
}

/// A client re-joining a run's record stream: replay what it missed
/// from the journal (by `rseq`), then splice it into the live stream —
/// or, for a finished run, close with `run_end`.
fn handle_attach(shared: &Arc<Shared>, mut stream: TcpStream, attach: &Attach) {
    let live = {
        let runs = shared.runs.lock().unwrap_or_else(|e| e.into_inner());
        runs.iter()
            .filter_map(Weak::upgrade)
            .find(|r| r.id == attach.run_id)
    };
    match live {
        Some(run) => attach_live(shared, stream, &run, attach.after_seq),
        None => {
            // Not live: either it finished (this boot or an earlier
            // one) and its journal closes the story, or we know nothing
            // about it.
            let path = shared
                .cfg
                .journal_dir
                .join(format!("{}.jsonl", attach.run_id));
            let records = read_journal_records(&path);
            let end = records
                .iter()
                .find(|r| r.get("kind").and_then(JsonValue::as_str) == Some("run_end"));
            let Some(end) = end else {
                send_error(
                    &mut stream,
                    &format!(
                        "unknown run {} (no journal, or unrecoverable)",
                        attach.run_id
                    ),
                );
                return;
            };
            if replay_missed(shared, &mut stream, &attach.run_id, &path, attach.after_seq).is_some()
            {
                let _ = proto::write_msg(&mut stream, end);
            }
        }
    }
}

/// Sends `attached`, then the journalled `job_done` records after rseq
/// `after`: how many it replayed, or `None` once the client is gone.
fn replay_missed(
    shared: &Shared,
    stream: &mut TcpStream,
    run_id: &str,
    journal: &std::path::Path,
    after: u64,
) -> Option<usize> {
    let missed = journal_job_dones_after(journal, after);
    let attached = JsonValue::object([
        ("kind", JsonValue::from("attached")),
        ("run_id", JsonValue::from(run_id)),
        ("replay", JsonValue::from(missed.len())),
    ]);
    proto::write_msg(stream, &attached).ok()?;
    shared
        .counters
        .jobs_replayed_to_client
        .fetch_add(missed.len() as u64, Ordering::Relaxed);
    for rec in &missed {
        proto::write_msg(stream, rec).ok()?;
    }
    Some(missed.len())
}

/// Attaches to a live run: under the emit lock (so no record can land
/// between the journal read and the stream splice), replay the missed
/// records and install this socket as the run's client.
fn attach_live(shared: &Arc<Shared>, mut stream: TcpStream, run: &Arc<Run>, after_seq: u64) {
    let _emit = run.state.emit_lock();
    if run.journal().degraded() {
        send_error(
            &mut stream,
            &format!(
                "run {} is degraded (journal append failures); reattach cannot replay it",
                run.id
            ),
        );
        return;
    }
    let journal = run.journal().path();
    let Some(replayed) = replay_missed(shared, &mut stream, &run.id, journal, after_seq) else {
        return;
    };
    run.service_lane.instant(
        "client_attach",
        "",
        0,
        vec![
            ("after_rseq".to_owned(), JsonValue::from(after_seq)),
            ("replayed".to_owned(), JsonValue::from(replayed)),
        ],
    );
    if run.state.remaining() == 0 {
        // The run finished while the client was away; the replay above
        // already delivered every record.
        let (ok, cached, failed) = run.state.counts();
        let _ = proto::write_msg(
            &mut stream,
            &JsonValue::object([
                ("kind", JsonValue::from("run_end")),
                ("ok", JsonValue::from(ok)),
                ("cached", JsonValue::from(cached)),
                ("failed", JsonValue::from(failed)),
            ]),
        );
    } else {
        *run.client.lock().unwrap_or_else(|e| e.into_inner()) = Some(stream);
    }
}

// ---------------------------------------------------------------------
// Agent sessions
// ---------------------------------------------------------------------

/// Validates an agent handshake, registers the agent, and runs its
/// reader until disconnect/drain.
fn run_agent_session(
    shared: &Arc<Shared>,
    mut reader: proto::MsgReader<TcpStream>,
    mut stream: TcpStream,
    hello: AgentHello,
) {
    if let Some(expected) = shared.binary.as_deref() {
        if hello.binary != expected {
            send_error(
                &mut stream,
                &format!(
                    "binary mismatch: coordinator runs fingerprint {expected} \
                     (v{}), agent offered {} (v{}) — fleet members must run \
                     identical builds",
                    env!("CARGO_PKG_VERSION"),
                    hello.binary,
                    hello.version,
                ),
            );
            return;
        }
    }
    let Ok(writer) = stream.try_clone() else {
        return;
    };
    let id = shared.next_agent_id.fetch_add(1, Ordering::Relaxed) + 1;
    let agent = Arc::new(Agent {
        id,
        pid: hello.pid,
        slots: hello.slots.max(1),
        free: AtomicUsize::new(hello.slots.max(1)),
        done: AtomicU64::new(0),
        gone: AtomicBool::new(false),
        last_beat: Mutex::new(Instant::now()),
        writer: Mutex::new(writer),
    });
    if proto::write_msg(
        &mut stream,
        &JsonValue::object([
            ("kind", JsonValue::from("agent_welcome")),
            ("agent_id", JsonValue::from(id)),
            (
                "heartbeat_ms",
                JsonValue::from(shared.cfg.heartbeat.as_millis() as u64),
            ),
        ]),
    )
    .is_err()
    {
        return;
    }
    shared
        .agents
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .insert(id, Arc::clone(&agent));
    shared
        .counters
        .agents_joined
        .fetch_add(1, Ordering::Relaxed);

    // From here on, silence past the lease TTL means the agent is
    // dead — the heartbeat cadence guarantees traffic sooner.
    let _ = stream.set_read_timeout(Some(lease_ttl(&shared.cfg)));
    {
        let shared = Arc::clone(shared);
        let agent = Arc::clone(&agent);
        std::thread::spawn(move || agent_feeder(&shared, &agent));
    }
    agent_reader(shared, &agent, &mut reader);
}

/// The per-agent reader: heartbeats renew leases, `cell_result`
/// messages finish (or retry) dispatched cells. Exits into
/// [`reclaim_agent`] on disconnect, timeout, or drain.
fn agent_reader(
    shared: &Arc<Shared>,
    agent: &Arc<Agent>,
    reader: &mut proto::MsgReader<TcpStream>,
) {
    let reason = loop {
        if agent.gone.load(Ordering::Acquire) {
            break "connection closed".to_owned();
        }
        match reader.next() {
            Ok(Some(msg)) => {
                *agent.last_beat.lock().unwrap_or_else(|e| e.into_inner()) = Instant::now();
                match msg.get("kind").and_then(JsonValue::as_str) {
                    Some("heartbeat") => {
                        let ttl = lease_ttl(&shared.cfg);
                        let now = Instant::now();
                        if let Some(ids) = msg.get("leases").and_then(JsonValue::as_array) {
                            let mut leases =
                                shared.leases.lock().unwrap_or_else(|e| e.into_inner());
                            for id in ids.iter().filter_map(JsonValue::as_u64) {
                                if let Some(l) = leases.get_mut(&id) {
                                    if l.agent == agent.id {
                                        l.expires = now + ttl;
                                    }
                                }
                            }
                        }
                        let ack = JsonValue::object([("kind", JsonValue::from("heartbeat_ack"))]);
                        let mut w = agent.writer.lock().unwrap_or_else(|e| e.into_inner());
                        if proto::write_msg(&mut *w, &ack).is_err() {
                            break "heartbeat ack write failed".to_owned();
                        }
                    }
                    Some("cell_result") => handle_cell_result(shared, agent, &msg),
                    other => {
                        eprintln!("cmpsim serve: agent {} sent {other:?}; ignored", agent.id);
                    }
                }
            }
            Ok(None) => break "connection closed".to_owned(),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                break "missed heartbeats".to_owned();
            }
            Err(e) => break format!("read failed: {e}"),
        }
    };
    reclaim_agent(shared, agent, &reason);
}

/// The per-agent feeder: waits for a free slot and a due cell, claims
/// it, and dispatches it under a fresh lease. Exits when the agent is
/// gone or the daemon drains.
fn agent_feeder(shared: &Arc<Shared>, agent: &Arc<Agent>) {
    let ready = |draining: bool| {
        (!draining && !agent.gone.load(Ordering::Acquire))
            .then(|| agent.free.load(Ordering::Acquire) > 0)
    };
    while let Some((run, pending, depth)) = shared.core.next(ready) {
        run.service_lane.counter("queue_depth", "", depth as f64);
        dispatch_to_agent(shared, agent, &run, pending);
    }
}

/// Claims one cell for an agent and ships it under a fresh lease; a
/// failed write re-enqueues the cell (still owned, no attempt burned)
/// and reclaims the agent.
fn dispatch_to_agent(shared: &Arc<Shared>, agent: &Arc<Agent>, run: &Arc<Run>, pending: Pending) {
    let seq = pending.seq;
    if !pending.owned && sched::claim(&**shared, run, seq, None) != sched::Claim::Own {
        return;
    }
    let cell = &run.cells[seq];
    let lease_id = shared.next_lease_id.fetch_add(1, Ordering::Relaxed) + 1;
    shared
        .leases
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .insert(
            lease_id,
            Lease {
                run: Arc::clone(run),
                seq,
                attempt: pending.attempt,
                agent: agent.id,
                expires: Instant::now() + lease_ttl(&shared.cfg),
            },
        );
    agent.free.fetch_sub(1, Ordering::AcqRel);
    run.service_lane.instant(
        "dispatch",
        &cell.label,
        0,
        vec![
            ("agent".to_owned(), JsonValue::from(agent.id)),
            ("lease".to_owned(), JsonValue::from(lease_id)),
            (
                "attempt".to_owned(),
                JsonValue::from(u64::from(pending.attempt + 1)),
            ),
        ],
    );
    let msg = Dispatch {
        lease: lease_id,
        exe: run.exe.clone(),
        key: cell.key.clone(),
        label: cell.label.clone(),
        args: cell.args.clone(),
        timeout_ms: shared.cfg.job_timeout.map(|t| t.as_millis() as u64),
    }
    .to_msg();
    let sent = {
        let mut w = agent.writer.lock().unwrap_or_else(|e| e.into_inner());
        proto::write_msg(&mut *w, &msg).is_ok()
    };
    if !sent {
        shared
            .leases
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&lease_id);
        agent.free.fetch_add(1, Ordering::AcqRel);
        // The cell never left: back in the queue with no attempt
        // consumed, ownership intact.
        let pending = Pending {
            owned: true,
            not_before: None,
            ..pending
        };
        shared.core.enqueue(run, [pending]);
        reclaim_agent(shared, agent, "dispatch write failed");
    }
}

/// One agent-reported attempt outcome. Removing the lease is the
/// single finishing authority: a result whose lease was already
/// reclaimed is stale and dropped entirely.
fn handle_cell_result(shared: &Arc<Shared>, agent: &Arc<Agent>, msg: &JsonValue) {
    let lease_id = msg.get("lease").and_then(JsonValue::as_u64);
    let res = msg.get("result").and_then(proto::attempt_from_json);
    let (Some(lease_id), Some(res)) = (lease_id, res) else {
        eprintln!(
            "cmpsim serve: agent {} sent a malformed cell_result; ignored",
            agent.id
        );
        return;
    };
    let lease = shared
        .leases
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .remove(&lease_id);
    let Some(lease) = lease else {
        // Already reclaimed (and possibly re-run): the cache/journal
        // already converged on one entry; this late result is noise.
        shared
            .counters
            .stale_results
            .fetch_add(1, Ordering::Relaxed);
        shared.core.notify();
        return;
    };
    // Only a live lease returns the slot: a reconnected agent re-
    // reporting work from a previous session never claimed it on this
    // session's budget, so counting it here would inflate capacity.
    agent.free.fetch_add(1, Ordering::AcqRel);
    agent.done.fetch_add(1, Ordering::Relaxed);
    let run = lease.run;
    let label = &run.cells[lease.seq].label;
    run.service_lane.instant(
        "cell_result",
        label,
        0,
        vec![
            ("agent".to_owned(), JsonValue::from(agent.id)),
            ("lease".to_owned(), JsonValue::from(lease_id)),
            (
                "kind".to_owned(),
                JsonValue::from(match &res {
                    ChildAttempt::Ok(_) => "ok",
                    ChildAttempt::Err(_) => "err",
                    ChildAttempt::Crashed(_) => "crashed",
                    ChildAttempt::Hung => "hung",
                }),
            ),
        ],
    );
    if matches!(res, ChildAttempt::Crashed(_)) {
        shared.counters.crashes.fetch_add(1, Ordering::Relaxed);
    }
    sched::retry_or_complete(&**shared, &run, lease.seq, res, lease.attempt + 1);
    shared.core.notify();
}

/// Declares an agent dead (or drained): deregisters it, shuts its
/// socket, and re-enqueues every lease it held as a crash-class retry.
fn reclaim_agent(shared: &Arc<Shared>, agent: &Arc<Agent>, reason: &str) {
    if agent.gone.swap(true, Ordering::SeqCst) {
        return;
    }
    shared
        .agents
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .remove(&agent.id);
    if !shared.core.draining() {
        shared.counters.agents_lost.fetch_add(1, Ordering::Relaxed);
    }
    {
        let w = agent.writer.lock().unwrap_or_else(|e| e.into_inner());
        let _ = w.shutdown(std::net::Shutdown::Both);
    }
    let mine: Vec<(u64, Lease)> = {
        let mut leases = shared.leases.lock().unwrap_or_else(|e| e.into_inner());
        let ids: Vec<u64> = leases
            .iter()
            .filter(|(_, l)| l.agent == agent.id)
            .map(|(id, _)| *id)
            .collect();
        ids.into_iter()
            .filter_map(|id| leases.remove(&id).map(|l| (id, l)))
            .collect()
    };
    for (lease_id, lease) in mine {
        reclaim_lease(shared, agent.id, lease_id, lease, reason);
    }
    shared.core.notify();
}

/// Re-enqueues (or poisons) one reclaimed lease.
fn reclaim_lease(shared: &Shared, agent_id: u64, lease_id: u64, lease: Lease, reason: &str) {
    shared
        .counters
        .cells_reclaimed
        .fetch_add(1, Ordering::Relaxed);
    let cell = &lease.run.cells[lease.seq];
    lease.run.service_lane.instant(
        "cell_reclaimed",
        &cell.label,
        0,
        vec![
            ("agent".to_owned(), JsonValue::from(agent_id)),
            ("lease".to_owned(), JsonValue::from(lease_id)),
            ("reason".to_owned(), JsonValue::from(reason)),
        ],
    );
    sched::retry_or_complete(
        shared,
        &lease.run,
        lease.seq,
        ChildAttempt::Crashed(format!("agent {agent_id} lost mid-cell: {reason}")),
        lease.attempt + 1,
    );
}

/// The reaper + pinger: expires silent agents' leases, keeps live
/// clients' sockets warm, and broadcasts `drain` at shutdown.
fn reaper_loop(shared: &Arc<Shared>) {
    let tick = (shared.cfg.heartbeat / 2).min(Duration::from_millis(250));
    let mut last_ping = Instant::now();
    while !shared.core.pause(tick) {
        let now = Instant::now();

        // Expired leases: a listed lease is renewed by every heartbeat,
        // so expiry means the whole agent went silent — reclaim it. An
        // orphan lease (its agent already deregistered, e.g. inserted
        // by a feeder racing a reclaim) is reclaimed directly.
        let expired: Vec<(u64, u64)> = {
            let leases = shared.leases.lock().unwrap_or_else(|e| e.into_inner());
            leases
                .iter()
                .filter(|(_, l)| l.expires <= now)
                .map(|(id, l)| (*id, l.agent))
                .collect()
        };
        let mut reclaimed_agents: HashSet<u64> = HashSet::new();
        for (lease_id, agent_id) in expired {
            let agent = shared
                .agents
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .get(&agent_id)
                .cloned();
            match agent {
                Some(agent) => {
                    if reclaimed_agents.insert(agent_id) {
                        reclaim_agent(shared, &agent, "missed heartbeats");
                    }
                }
                None => {
                    let lease = shared
                        .leases
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .remove(&lease_id);
                    if let Some(lease) = lease {
                        reclaim_lease(shared, agent_id, lease_id, lease, "agent already gone");
                        shared.core.notify();
                    }
                }
            }
        }

        // Keepalive pings let clients hold a read deadline without
        // tripping it during long cells.
        if now.duration_since(last_ping) >= shared.cfg.heartbeat {
            last_ping = now;
            let ping = JsonValue::object([("kind", JsonValue::from("ping"))]);
            let runs = shared.runs.lock().unwrap_or_else(|e| e.into_inner());
            for run in runs.iter().filter_map(Weak::upgrade) {
                if run.state.remaining() > 0 {
                    run.send(&ping);
                }
            }
        }
    }

    // Drain: tell every agent to exit cleanly and unblock its reader.
    let agents: Vec<Arc<Agent>> = shared
        .agents
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .values()
        .cloned()
        .collect();
    let drain = JsonValue::object([("kind", JsonValue::from("drain"))]);
    for agent in agents {
        let w = agent.writer.lock().unwrap_or_else(|e| e.into_inner());
        let mut stream = &*w;
        let _ = proto::write_msg(&mut stream, &drain);
        let _ = w.shutdown(std::net::Shutdown::Both);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client;
    use std::path::Path;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cmpsim_service_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Serves the config `config` builds in a fresh temp dir —
    /// journalling there, with a shutdown flag — while `body` runs
    /// against it, then shuts it down and removes the dir.
    fn serve(
        tag: &str,
        config: impl FnOnce(&Path) -> ServeConfig,
        body: impl FnOnce(SocketAddr, &Path, &ShutdownFlag),
    ) {
        let dir = temp_dir(tag);
        let shutdown = ShutdownFlag::default();
        let coord = Coordinator::bind(ServeConfig {
            journal_dir: dir.join("journal"),
            shutdown: Some(shutdown.clone()),
            ..config(&dir)
        })
        .unwrap();
        let addr = coord.local_addr().unwrap();
        std::thread::scope(|s| {
            s.spawn(|| coord.run());
            body(addr, &dir, &shutdown);
            shutdown.request();
        });
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A fake "experiment binary": `/bin/echo` printing the marker
    /// line, so coordinator tests run without building cmpsim.
    #[cfg(unix)]
    fn echo_cell(seq: usize, tag: &str) -> CellSpec {
        CellSpec {
            seq,
            key: format!("experiment=echo;cell={tag}"),
            label: tag.to_owned(),
            args: vec![format!(
                "__cmpsim_result__ {{\"ok\":{{\"cell\":\"{tag}\"}}}}"
            )],
        }
    }

    #[cfg(unix)]
    fn echo_submission(run_id: Option<String>, resume: bool, tags: &[&str]) -> Submission {
        Submission {
            exe: PathBuf::from("/bin/echo"),
            experiment: "echo".to_owned(),
            run_id,
            resume,
            cells: tags
                .iter()
                .enumerate()
                .map(|(i, t)| echo_cell(i, t))
                .collect(),
        }
    }

    #[cfg(unix)]
    #[test]
    fn coordinator_runs_a_submission_end_to_end() {
        let cfg = |dir: &Path| ServeConfig {
            workers: 2,
            cache_dir: Some(dir.join("cache")),
            ..ServeConfig::default()
        };
        serve("e2e", cfg, |addr, dir, _| {
            let addr = addr.to_string();
            let sub = echo_submission(None, false, &["a", "b", "c"]);
            let out = client::submit(&addr, &sub).unwrap();
            assert_eq!(out.report.ok_count(), 3);
            // The run's trace rolls up per cell: one `cell:<label>` span
            // each, with its execute span parented under it.
            let trace_path = dir
                .join("journal")
                .join(format!("{}.trace.jsonl", out.run_id));
            let trace = ftrace::read_jsonl(&trace_path).unwrap();
            for label in ["a", "b", "c"] {
                let name = format!("{}{label}", ftrace::CELL_SPAN_PREFIX);
                let cells: Vec<_> = trace.events.iter().filter(|e| e.name == name).collect();
                assert_eq!(cells.len(), 1, "{name}");
                let execs: Vec<_> = trace
                    .events
                    .iter()
                    .filter(|e| e.name == "execute" && e.cell == label)
                    .collect();
                assert_eq!(execs.len(), 1, "execute spans of {label}");
                assert_eq!(execs[0].parent, cells[0].id);
            }
            let summary = ftrace::TraceSummary::from_events(&trace.events, trace.dropped);
            assert_eq!(summary.cells.len(), 3);
            assert_eq!(out.report.jobs[0].label, "a");
            assert_eq!(
                out.report.jobs[1]
                    .outcome
                    .payload()
                    .and_then(|p| p.get("cell"))
                    .and_then(JsonValue::as_str),
                Some("b")
            );

            // Same cells again: all served from the shared cache.
            let again = client::submit(&addr, &sub).unwrap();
            assert_eq!(again.report.cached_count(), 3);

            // Resuming the finished run replays it from the journal.
            let resumed = client::submit(
                &addr,
                &echo_submission(Some(out.run_id.clone()), true, &["a", "b", "c"]),
            )
            .unwrap();
            assert_eq!(resumed.report.replayed_count(), 3);
            assert_eq!(resumed.report.recovered, 0);

            let counters = client::status(&addr).unwrap();
            assert_eq!(
                counters.get("executed").and_then(JsonValue::as_u64),
                Some(3),
                "distinct cells execute exactly once: {}",
                counters.to_json()
            );
            assert_eq!(
                counters.get("replayed").and_then(JsonValue::as_u64),
                Some(3)
            );
            // No agents connected: the fleet listing is present and
            // empty.
            assert_eq!(
                counters
                    .get("agents")
                    .and_then(JsonValue::as_array)
                    .map(<[JsonValue]>::len),
                Some(0)
            );

            // The run left report-able artifacts behind.
            assert!(dir
                .join("journal")
                .join(format!("{}.jsonl", out.run_id))
                .exists());
            assert!(trace_path.exists());
        });
    }

    #[cfg(unix)]
    #[test]
    fn crashing_cell_is_quarantined_not_fatal() {
        let cfg = |_: &Path| ServeConfig {
            workers: 1,
            backoff: BackoffPolicy::immediate(),
            ..ServeConfig::default()
        };
        serve("crash", cfg, |addr, _, _| {
            // `/bin/echo` without a marker line: dies without reporting
            // → crash → retried → poisoned. A healthy neighbour is
            // unaffected.
            let mut sub = echo_submission(None, false, &["healthy"]);
            sub.cells.push(CellSpec {
                seq: 1,
                key: "experiment=echo;cell=bad".to_owned(),
                label: "bad".to_owned(),
                args: vec!["no marker here".to_owned()],
            });
            let out = client::submit(&addr.to_string(), &sub).unwrap();
            assert_eq!(out.report.ok_count(), 1);
            assert_eq!(out.report.poisoned_count(), 1);
            assert_eq!(
                out.report.jobs[1].attempts, 2,
                "one retry before quarantine"
            );
        });
    }

    /// A raw-socket stand-in for `cmpsim agent`: handshakes with the
    /// coordinator's own (test binary) fingerprint, so the binary check
    /// passes, and hands control back with the welcome consumed.
    fn fake_agent(addr: SocketAddr, slots: usize) -> (TcpStream, proto::MsgReader<TcpStream>) {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let hello = AgentHello {
            protocol: PROTOCOL_VERSION,
            binary: file_fingerprint(&std::env::current_exe().unwrap()).unwrap(),
            version: env!("CARGO_PKG_VERSION").to_owned(),
            slots,
            pid: std::process::id(),
        };
        let mut w = &stream;
        proto::write_msg(&mut w, &hello.to_msg()).unwrap();
        let mut reader = proto::MsgReader::new(stream.try_clone().unwrap());
        let welcome = reader.next().unwrap().expect("a welcome");
        assert_eq!(
            welcome.get("kind").and_then(JsonValue::as_str),
            Some("agent_welcome"),
            "handshake rejected: {}",
            welcome.to_json()
        );
        (stream, reader)
    }

    fn next_dispatch(reader: &mut proto::MsgReader<TcpStream>) -> JsonValue {
        loop {
            let msg = reader.next().unwrap().expect("a message");
            if msg.get("kind").and_then(JsonValue::as_str) == Some("dispatch") {
                return msg;
            }
        }
    }

    fn agents_only(_: &Path) -> ServeConfig {
        ServeConfig {
            workers: 0,
            retries: 0,
            backoff: BackoffPolicy::immediate(),
            heartbeat: Duration::from_millis(100),
            ..ServeConfig::default()
        }
    }

    #[cfg(unix)]
    #[test]
    fn agents_only_coordinator_runs_cells_on_an_agent() {
        serve("agent_ok", agents_only, |addr, _, shutdown| {
            std::thread::scope(|s| {
                let agent = s.spawn(move || {
                    let (stream, mut reader) = fake_agent(addr, 2);
                    // Answer one dispatch with a crafted success.
                    let d = next_dispatch(&mut reader);
                    let lease = d.get("lease").and_then(JsonValue::as_u64).unwrap();
                    let result = proto::attempt_to_json(&ChildAttempt::Ok(JsonValue::object([(
                        "cell",
                        JsonValue::from("remote"),
                    )])));
                    let mut w = &stream;
                    proto::write_msg(
                        &mut w,
                        &JsonValue::object([
                            ("kind", JsonValue::from("cell_result")),
                            ("lease", JsonValue::from(lease)),
                            ("result", result),
                        ]),
                    )
                    .unwrap();
                    // Hold the connection until the run is over.
                    let _ = reader.next();
                });

                let out = client::submit(&addr.to_string(), &echo_submission(None, false, &["a"]))
                    .unwrap();
                assert_eq!(out.report.ok_count(), 1);
                assert_eq!(
                    out.report.jobs[0]
                        .outcome
                        .payload()
                        .and_then(|p| p.get("cell"))
                        .and_then(JsonValue::as_str),
                    Some("remote"),
                    "the agent's payload reached the client"
                );
                let counters = client::status(&addr.to_string()).unwrap();
                assert_eq!(
                    counters.get("agents_joined").and_then(JsonValue::as_u64),
                    Some(1)
                );
                assert_eq!(
                    counters.get("cells_reclaimed").and_then(JsonValue::as_u64),
                    Some(0)
                );
                shutdown.request();
                agent.join().unwrap();
            });
        });
    }

    #[cfg(unix)]
    #[test]
    fn disconnected_agents_cells_are_reclaimed_to_poison() {
        serve("agent_lost", agents_only, |addr, _, _| {
            std::thread::scope(|s| {
                s.spawn(move || {
                    let (stream, mut reader) = fake_agent(addr, 1);
                    // Take the dispatch, then die without a word.
                    let _ = next_dispatch(&mut reader);
                    drop(stream);
                });

                // retries: 0, no other executor → the reclaimed cell is
                // quarantined, and the client still gets its one
                // job_done.
                let out = client::submit(&addr.to_string(), &echo_submission(None, false, &["a"]))
                    .unwrap();
                assert_eq!(out.report.poisoned_count(), 1);
                let err = out.report.jobs[0].outcome.to_json().to_json();
                assert!(
                    err.contains("lost mid-cell"),
                    "poison names the loss: {err}"
                );
                let counters = client::status(&addr.to_string()).unwrap();
                assert_eq!(
                    counters.get("cells_reclaimed").and_then(JsonValue::as_u64),
                    Some(1)
                );
                assert_eq!(
                    counters.get("agents_lost").and_then(JsonValue::as_u64),
                    Some(1)
                );
            });
        });
    }

    #[cfg(unix)]
    #[test]
    fn silent_agent_misses_heartbeats_and_is_reclaimed() {
        serve("agent_silent", agents_only, |addr, _, _| {
            std::thread::scope(|s| {
                let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
                s.spawn(move || {
                    let (stream, mut reader) = fake_agent(addr, 1);
                    // Take the dispatch, then go silent — no heartbeats,
                    // no result, socket held open (a wedged host, not a
                    // dead one).
                    let _ = next_dispatch(&mut reader);
                    let _ = done_rx.recv_timeout(Duration::from_secs(30));
                    drop(stream);
                });

                let out = client::submit(&addr.to_string(), &echo_submission(None, false, &["a"]))
                    .unwrap();
                assert_eq!(out.report.poisoned_count(), 1);
                let err = out.report.jobs[0].outcome.to_json().to_json();
                assert!(
                    err.contains("missed heartbeats"),
                    "poison names the silence: {err}"
                );
                let counters = client::status(&addr.to_string()).unwrap();
                assert_eq!(
                    counters.get("agents_lost").and_then(JsonValue::as_u64),
                    Some(1)
                );
                let _ = done_tx.send(());
            });
        });
    }

    /// Sends an `attach` and returns the reader positioned after the
    /// `attached` reply, plus that reply.
    fn raw_attach(
        addr: SocketAddr,
        run_id: &str,
        after_seq: u64,
    ) -> (proto::MsgReader<TcpStream>, JsonValue) {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let attach = Attach {
            run_id: run_id.to_owned(),
            after_seq,
        };
        proto::write_msg(&mut stream, &attach.to_msg()).unwrap();
        let mut reader = proto::MsgReader::new(stream);
        let reply = reader.next().unwrap().expect("an attach reply");
        (reader, reply)
    }

    fn one_worker(_: &Path) -> ServeConfig {
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        }
    }

    /// Leaves behind the journal of a daemon that died mid-run:
    /// `sub`'s submission record, then `write` for the cells.
    #[cfg(unix)]
    fn dead_journal(dir: &Path, sub: &Submission, write: impl FnOnce(&RunJournal)) {
        let run_id = sub.run_id.clone().unwrap();
        let jc = JournalConfig::new(dir.join("journal"), run_id.clone());
        let (journal, _) = RunJournal::open(&jc).unwrap();
        journal.run_start(&run_id, sub.cells.len(), 0);
        journal.append_record(submission_record(&run_id, sub));
        write(&journal);
    }

    #[cfg(unix)]
    #[test]
    fn restart_closes_out_a_fully_executed_journal_and_serves_attach() {
        let sub = echo_submission(Some("run-reco".to_owned()), false, &["a", "b"]);
        // The journal a dead daemon left behind: every cell done, but it
        // never lived to write the run_end.
        let cfg = |dir: &Path| {
            dead_journal(dir, &sub, |journal| {
                for (i, cell) in sub.cells.iter().enumerate() {
                    journal.job_start(i, &cell.key, &cell.label);
                    journal.job_done_tracked(
                        i,
                        &cell.key,
                        &cell.label,
                        &JobOutcome::Ok(JsonValue::object([(
                            "cell",
                            JsonValue::from(cell.label.as_str()),
                        )])),
                        1,
                    );
                }
            });
            one_worker(dir)
        };
        serve("recover_done", cfg, |addr, dir, _| {
            let counters = client::status(&addr.to_string()).unwrap();
            assert_eq!(
                counters.get("runs_recovered").and_then(JsonValue::as_u64),
                Some(1)
            );
            assert_eq!(
                counters.get("cells_requeued").and_then(JsonValue::as_u64),
                Some(0),
                "nothing was left to execute"
            );

            // Recovery closed the run out: the journal now ends.
            let recs = read_journal_records(&dir.join("journal").join("run-reco.jsonl"));
            assert!(
                recs.iter()
                    .any(|r| r.get("kind").and_then(JsonValue::as_str) == Some("run_end")),
                "recovery wrote the missing run_end"
            );

            // A reattaching client gets the whole record stream back.
            let (mut reader, attached) = raw_attach(addr, "run-reco", 0);
            assert_eq!(
                attached.get("kind").and_then(JsonValue::as_str),
                Some("attached"),
                "{}",
                attached.to_json()
            );
            assert_eq!(attached.get("replay").and_then(JsonValue::as_u64), Some(2));
            let d1 = reader.next().unwrap().unwrap();
            assert_eq!(d1.get("kind").and_then(JsonValue::as_str), Some("job_done"));
            assert_eq!(d1.get("rseq").and_then(JsonValue::as_u64), Some(1));
            let d2 = reader.next().unwrap().unwrap();
            assert_eq!(d2.get("rseq").and_then(JsonValue::as_u64), Some(2));
            let end = reader.next().unwrap().unwrap();
            assert_eq!(end.get("kind").and_then(JsonValue::as_str), Some("run_end"));
            assert_eq!(end.get("ok").and_then(JsonValue::as_u64), Some(2));

            // Attaching to a run nobody journalled is a structured
            // error, not a hang.
            let (_r, reply) = raw_attach(addr, "no-such-run", 0);
            assert_eq!(reply.get("kind").and_then(JsonValue::as_str), Some("error"));
        });
    }

    #[cfg(unix)]
    #[test]
    fn restart_reexecutes_dangling_in_flight_cells() {
        let sub = echo_submission(Some("run-dangle".to_owned()), false, &["a", "b"]);
        let cfg = |dir: &Path| {
            dead_journal(dir, &sub, |journal| {
                journal.job_start(0, &sub.cells[0].key, "a");
                journal.job_done_tracked(
                    0,
                    &sub.cells[0].key,
                    "a",
                    &JobOutcome::Ok(JsonValue::object([("cell", JsonValue::from("a"))])),
                    1,
                );
                // Cell b was mid-flight when the daemon died: a job_start
                // with no matching job_done.
                journal.job_start(1, &sub.cells[1].key, "b");
            });
            one_worker(dir)
        };
        serve("recover_dangling", cfg, |addr, dir, _| {
            let counters = client::status(&addr.to_string()).unwrap();
            assert_eq!(
                counters.get("runs_recovered").and_then(JsonValue::as_u64),
                Some(1)
            );
            assert_eq!(
                counters.get("cells_requeued").and_then(JsonValue::as_u64),
                Some(1),
                "the dangling cell re-entered the queue"
            );

            // The recovered run re-executes cell b with no client
            // attached and closes out.
            let path = dir.join("journal").join("run-dangle.jsonl");
            let deadline = Instant::now() + Duration::from_secs(60);
            while Instant::now() < deadline {
                let recs = read_journal_records(&path);
                if recs
                    .iter()
                    .any(|r| r.get("kind").and_then(JsonValue::as_str) == Some("run_end"))
                {
                    break;
                }
                std::thread::sleep(Duration::from_millis(20));
            }
            let recs = read_journal_records(&path);
            let dones: Vec<&JsonValue> = recs
                .iter()
                .filter(|r| r.get("kind").and_then(JsonValue::as_str) == Some("job_done"))
                .collect();
            assert_eq!(
                dones.len(),
                2,
                "exactly one job_done per cell across both incarnations"
            );
            assert_eq!(
                dones[1].get("rseq").and_then(JsonValue::as_u64),
                Some(2),
                "rseq numbering resumed where the old incarnation stopped"
            );
            assert_eq!(dones[1].get("label").and_then(JsonValue::as_str), Some("b"));

            // A client that already saw rseq 1 asks only for the rest.
            let (mut reader, attached) = raw_attach(addr, "run-dangle", 1);
            assert_eq!(
                attached.get("kind").and_then(JsonValue::as_str),
                Some("attached"),
                "{}",
                attached.to_json()
            );
            assert_eq!(attached.get("replay").and_then(JsonValue::as_u64), Some(1));
            let d = reader.next().unwrap().unwrap();
            assert_eq!(d.get("label").and_then(JsonValue::as_str), Some("b"));
            let end = reader.next().unwrap().unwrap();
            assert_eq!(end.get("kind").and_then(JsonValue::as_str), Some("run_end"));

            let counters = client::status(&addr.to_string()).unwrap();
            assert_eq!(
                counters
                    .get("jobs_replayed_to_client")
                    .and_then(JsonValue::as_u64),
                Some(1)
            );
        });
    }

    #[test]
    fn requests_are_served_without_an_accept_poll() {
        let dir = temp_dir("accept");
        let shutdown = ShutdownFlag::default();
        let coord = Coordinator::bind(ServeConfig {
            journal_dir: dir.join("journal"),
            shutdown: Some(shutdown.clone()),
            ..one_worker(&dir)
        })
        .unwrap();
        let addr = coord.local_addr().unwrap().to_string();
        std::thread::scope(|s| {
            let serving = s.spawn(|| coord.run());
            client::status(&addr).unwrap();
            // A 50 ms accept poll would cost a second here.
            let started = Instant::now();
            for _ in 0..20 {
                client::status(&addr).unwrap();
            }
            let took = started.elapsed();
            assert!(
                took < Duration::from_millis(500),
                "20 status calls took {took:?}"
            );

            let requested = Instant::now();
            shutdown.request();
            serving.join().unwrap();
            let took = requested.elapsed();
            assert!(took < Duration::from_secs(1), "shutdown took {took:?}");
        });
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Sends one raw hello and returns the coordinator's reply.
    fn raw_hello(addr: SocketAddr, hello: &JsonValue) -> JsonValue {
        let mut stream = TcpStream::connect(addr).unwrap();
        proto::write_msg(&mut stream, hello).unwrap();
        let mut reader = proto::MsgReader::new(stream.try_clone().unwrap());
        reader.next().unwrap().expect("an error reply")
    }

    #[test]
    fn mismatched_protocol_version_gets_a_structured_error() {
        serve("proto_reject", agents_only, |addr, _, _| {
            // A hello from the future: protocol version 999.
            let hello = JsonValue::object([
                ("kind", JsonValue::from("agent_hello")),
                ("protocol", JsonValue::from(999u64)),
                ("binary", JsonValue::from("0000000000000000")),
                ("version", JsonValue::from("9.9.9")),
                ("slots", JsonValue::from(1u64)),
                ("pid", JsonValue::from(1u64)),
            ]);
            let reply = raw_hello(addr, &hello);
            assert_eq!(reply.get("kind").and_then(JsonValue::as_str), Some("error"));
            let detail = reply
                .get("message")
                .and_then(JsonValue::as_str)
                .unwrap_or_default();
            assert!(detail.contains("v999"), "names the peer version: {detail}");
            assert!(
                detail.contains(&format!("v{PROTOCOL_VERSION}")),
                "names the coordinator version: {detail}"
            );
        });
    }

    #[test]
    fn mismatched_binary_fingerprint_gets_a_structured_error() {
        serve("binary_reject", agents_only, |addr, _, _| {
            let hello = AgentHello {
                protocol: PROTOCOL_VERSION,
                binary: "1111111111111111".to_owned(),
                version: "0.0.1".to_owned(),
                slots: 1,
                pid: 1,
            };
            let reply = raw_hello(addr, &hello.to_msg());
            assert_eq!(reply.get("kind").and_then(JsonValue::as_str), Some("error"));
            let detail = reply
                .get("message")
                .and_then(JsonValue::as_str)
                .unwrap_or_default();
            assert!(
                detail.contains("1111111111111111"),
                "names the agent fingerprint: {detail}"
            );
            assert!(detail.contains("binary mismatch"), "{detail}");

            // No agent joined.
            let counters = client::status(&addr.to_string()).unwrap();
            assert_eq!(
                counters.get("agents_joined").and_then(JsonValue::as_u64),
                Some(0)
            );
        });
    }
}
