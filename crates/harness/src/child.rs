//! The one child-process runner behind `fulllock campaign` and
//! `fulllock serve`: spawn a job, sample its peak RSS, and stop it with
//! SIGTERM → grace → SIGKILL at its deadline or when the caller asks.

use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

/// Why [`supervise`] stopped a child before it exited on its own.
#[derive(Debug)]
pub(crate) enum Stop<R> {
    /// The wall-clock budget ran out.
    Deadline,
    /// The caller's `tick` returned this reason.
    Asked(R),
}

/// How a supervised child ended.
#[derive(Debug)]
pub(crate) struct Supervised<R> {
    /// The exit status, or the error `try_wait` returned (the child was
    /// then killed and reaped).
    pub status: std::io::Result<ExitStatus>,
    /// The first stop reason, kept even when the child then exits 0: a
    /// job that finishes after its SIGTERM still missed its deadline, or
    /// still was canceled.
    pub stop: Option<Stop<R>>,
    /// Time from spawn to reap.
    pub elapsed: Duration,
    /// Peak resident set size in kB (Linux `VmHWM`), if ever readable.
    pub peak_rss_kb: Option<u64>,
}

/// Spawns `command` and blocks until the child exits. Every `poll`,
/// `tick` runs first (the first time right after the spawn, before any
/// exit can be observed) and may ask for a stop; the child gets SIGTERM
/// on the first stop reason or once `timeout` has passed, and SIGKILL
/// when it is still alive `grace` later.
///
/// # Errors
///
/// The spawn error, if the child could not be started; the caller
/// decides whether that is permanent.
pub(crate) fn supervise<R>(
    command: &mut Command,
    timeout: Duration,
    grace: Duration,
    poll: Duration,
    mut tick: impl FnMut() -> Option<R>,
) -> std::io::Result<Supervised<R>> {
    let mut child = command.spawn()?;
    let started = Instant::now();
    // First RSS sample right at spawn: a job that exits within one poll
    // becomes an unreadable zombie before the loop ever sees it alive,
    // and would otherwise record no peak at all.
    let mut peak_rss_kb = sample_rss_kb(child.id());
    let mut stop = None;
    let mut term_sent: Option<Instant> = None;
    loop {
        let asked = tick();
        if stop.is_none() {
            stop = asked
                .map(Stop::Asked)
                .or_else(|| (started.elapsed() >= timeout).then_some(Stop::Deadline));
        }
        if stop.is_some() {
            match term_sent {
                None => {
                    send_sigterm(&mut child);
                    term_sent = Some(Instant::now());
                }
                Some(at) if at.elapsed() >= grace => {
                    // The child ignored SIGTERM: escalate.
                    let _ = child.kill();
                }
                Some(_) => {}
            }
        }
        std::thread::sleep(poll);
        // Sample *before* `try_wait`: reaping collects the zombie and
        // tears down `/proc/<pid>`, so a sample after it always misses.
        if let Some(rss) = sample_rss_kb(child.id()) {
            peak_rss_kb = Some(peak_rss_kb.unwrap_or(0).max(rss));
        }
        let status = match child.try_wait() {
            Ok(None) => continue,
            Ok(Some(status)) => Ok(status),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(e)
            }
        };
        return Ok(Supervised {
            status,
            stop,
            elapsed: started.elapsed(),
            peak_rss_kb,
        });
    }
}

/// Signal number that terminated the child, if any (Unix only).
#[cfg(unix)]
pub(crate) fn exit_signal(status: ExitStatus) -> Option<i64> {
    use std::os::unix::process::ExitStatusExt as _;
    status.signal().map(i64::from)
}

#[cfg(not(unix))]
pub(crate) fn exit_signal(_status: ExitStatus) -> Option<i64> {
    None
}

/// Asks the child to terminate gracefully. On Unix this delivers
/// SIGTERM via the `kill` utility (std exposes only SIGKILL); elsewhere
/// it goes straight to [`Child::kill`].
#[cfg(unix)]
fn send_sigterm(child: &mut Child) {
    let delivered = Command::new("kill")
        .arg("-TERM")
        .arg(child.id().to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .map(|s| s.success())
        .unwrap_or(false);
    if !delivered {
        // No `kill` utility (or it failed): fall back to a hard kill so
        // the deadline still holds.
        let _ = child.kill();
    }
}

#[cfg(not(unix))]
fn send_sigterm(child: &mut Child) {
    let _ = child.kill();
}

/// Peak resident set size of a live process in kB (Linux `VmHWM`).
#[cfg(target_os = "linux")]
fn sample_rss_kb(pid: u32) -> Option<u64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = text.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    line.trim().trim_end_matches("kB").trim().parse().ok()
}

#[cfg(not(target_os = "linux"))]
fn sample_rss_kb(_pid: u32) -> Option<u64> {
    None
}
