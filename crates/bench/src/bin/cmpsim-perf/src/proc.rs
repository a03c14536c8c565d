//! Child processes of the system under test, with wall time, peak RSS
//! and a hard deadline.
//!
//! `std::process::Child::wait` discards the kernel's resource usage, so
//! children are reaped with `wait4(2)`, which returns the peak resident
//! set of the child and of every descendant it reaped. Each child leads
//! its own process group, so a deadline kill also takes down the cell
//! workers a daemon or a process-isolated grid spawned.

use std::fs::File;
use std::io;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 longs of
/// which the first is `ru_maxrss` in KiB.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn waitid(idtype: i32, id: u32, infop: *mut u64, options: i32) -> i32;
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

const P_PID: i32 = 1;
const WEXITED: i32 = 4;
const WNOWAIT: i32 = 0x0100_0000;
const SIGKILL: i32 = 9;
/// The graceful-stop signal the daemon drains on.
pub const SIGTERM: i32 = 15;

/// How a child ended.
#[derive(Debug, Clone, Copy)]
pub struct Exit {
    /// Spawn to exit.
    pub wall: Duration,
    /// Peak resident set of the child and its reaped descendants.
    pub peak_rss_kb: u64,
    /// Exited with status 0 before the deadline.
    pub ok: bool,
}

/// A spawned, not yet reaped child.
#[derive(Debug)]
pub struct Proc {
    pid: i32,
    started: Instant,
}

/// Spawns `bin args` in `cwd` with stdout discarded and stderr appended
/// to `log`.
pub fn spawn(bin: &Path, args: &[String], cwd: &Path, log: &Path) -> io::Result<Proc> {
    use std::os::unix::process::CommandExt;
    let stderr = File::options().create(true).append(true).open(log)?;
    let started = Instant::now();
    let child = Command::new(bin)
        .args(args)
        .current_dir(cwd)
        .env("TMPDIR", cwd)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(stderr)
        .process_group(0)
        .spawn()?;
    let pid = i32::try_from(child.id()).expect("Linux pids fit in i32");
    // Dropping `child` neither waits nor kills; `wait` below reaps it.
    Ok(Proc { pid, started })
}

/// SIGKILLs the process group `pid` leads.
fn kill_group(pid: i32) {
    // SAFETY: `kill` takes plain integers. Callers pass the pid of a
    // child that is not yet reaped (`wait` reaps only after its watchdog
    // is joined), so the group id cannot have been reused.
    unsafe {
        kill(-pid, SIGKILL);
    }
}

/// Runs `bin args` to completion (see [`spawn`] and [`Proc::wait`]).
pub fn run(
    bin: &Path,
    args: &[String],
    cwd: &Path,
    log: &Path,
    deadline: Duration,
) -> io::Result<Exit> {
    spawn(bin, args, cwd, log)?.wait(deadline)
}

impl Proc {
    /// Sends `sig` to the child.
    pub fn signal(&self, sig: i32) {
        // SAFETY: `kill` takes plain integers. The child is not reaped
        // until `wait` returns, so `pid` still names it (or its zombie).
        unsafe {
            kill(self.pid, sig);
        }
    }

    /// Kills the child's whole process group.
    pub fn kill_group(&self) {
        kill_group(self.pid);
    }

    /// Waits for the child to exit, killing its process group once
    /// `deadline` has passed, and reaps it.
    pub fn wait(self, deadline: Duration) -> io::Result<Exit> {
        let done = Arc::new((Mutex::new(false), Condvar::new()));
        let watchdog = {
            let done = Arc::clone(&done);
            let pid = self.pid;
            std::thread::spawn(move || {
                let (lock, cv) = &*done;
                let guard = lock.lock().expect("watchdog flag lock");
                let (guard, _) = cv
                    .wait_timeout_while(guard, deadline, |d| !*d)
                    .expect("watchdog flag lock");
                let killed = !*guard;
                if killed {
                    kill_group(pid);
                }
                killed
            })
        };
        // Wait without reaping, so the pid stays valid for the watchdog.
        let mut info = [0u64; 16];
        loop {
            // SAFETY: `info` is 128 bytes, the size of `siginfo_t`.
            let r = unsafe { waitid(P_PID, self.pid as u32, info.as_mut_ptr(), WEXITED | WNOWAIT) };
            if r == 0 {
                break;
            }
            let e = io::Error::last_os_error();
            if e.kind() != io::ErrorKind::Interrupted {
                return Err(e);
            }
        }
        let wall = self.started.elapsed();
        {
            let (lock, cv) = &*done;
            *lock.lock().expect("watchdog flag lock") = true;
            cv.notify_one();
        }
        let killed = watchdog.join().expect("watchdog thread panicked");
        let mut status = 0i32;
        let mut usage = Rusage::default();
        loop {
            // SAFETY: both out-pointers are valid for the call; `Rusage`
            // matches the kernel's 64-bit layout.
            let r = unsafe { wait4(self.pid, &mut status, 0, &mut usage) };
            if r == self.pid {
                break;
            }
            let e = io::Error::last_os_error();
            if e.kind() != io::ErrorKind::Interrupted {
                return Err(e);
            }
        }
        Ok(Exit {
            wall,
            peak_rss_kb: u64::try_from(usage.maxrss).unwrap_or(0),
            ok: status == 0 && !killed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_status_rss_and_deadline() {
        let dir = std::env::temp_dir();
        let log = dir.join(format!("cmpsim-perf-proc-{}.log", std::process::id()));
        let sh = Path::new("/bin/sh");
        let run_sh = |script: &str, secs: u64| {
            let args = ["-c".to_owned(), script.to_owned()];
            run(sh, &args, &dir, &log, Duration::from_secs(secs)).unwrap()
        };
        let ok = run_sh("exit 0", 10);
        assert!(ok.ok);
        assert!(ok.peak_rss_kb > 0);
        assert!(!run_sh("exit 3", 10).ok);
        let hung = run_sh("sleep 30", 1);
        assert!(!hung.ok);
        assert!(hung.wall < Duration::from_secs(10));
        let _ = std::fs::remove_file(&log);
    }
}
