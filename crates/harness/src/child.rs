//! The one job-attempt path behind `fulllock campaign` and `fulllock
//! serve`: build a job's child process, spawn it, sample its peak RSS,
//! stop it with SIGTERM → grace → SIGKILL at its deadline or when the
//! caller asks, and word how it ended.

use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

use crate::plan::JobSpec;

/// How one attempt of a job ended.
pub(crate) enum Ended<R> {
    /// Exit status 0, with no stop reason.
    Succeeded,
    /// `exit status N`, `killed by signal N` or `wait failed: …`.
    Failed(String),
    /// `timed out after S s`: the deadline passed, even if the child then
    /// exited 0 on its SIGTERM.
    TimedOut(String),
    /// The caller's tick asked for the stop with this reason.
    Stopped(R),
}

/// One finished attempt: how it ended and what the child left behind.
pub(crate) struct Attempt<R> {
    /// How the attempt ended.
    pub ended: Ended<R>,
    /// Exit code, if the child exited on its own (also after a stop).
    pub exit_code: Option<i64>,
    /// Signal that terminated the child, if one did.
    pub signal: Option<i64>,
    /// Time from spawn to reap.
    pub elapsed: Duration,
    /// Peak resident set size in kB (Linux `VmHWM`), if ever readable.
    pub peak_rss_kb: Option<u64>,
}

/// Runs one attempt of `job` to its end. `subst` rewrites the program,
/// every argument and every env value (`serve` expands `{job_dir}`);
/// the child's stdin is null and its output goes to `logs`. The job's
/// `timeout_secs` overrides `default_timeout`; `grace`, `poll` and
/// `tick` work as in [`supervise`].
///
/// # Errors
///
/// The spawn error, if the child could not be started; the caller
/// decides whether that is permanent.
pub(crate) fn run<R>(
    job: &JobSpec,
    subst: impl Fn(&str) -> String,
    (stdout, stderr): (Stdio, Stdio),
    default_timeout: Duration,
    grace: Duration,
    poll: Duration,
    tick: impl FnMut() -> Option<R>,
) -> std::io::Result<Attempt<R>> {
    let mut command = Command::new(subst(&job.program));
    command
        .args(job.args.iter().map(|a| subst(a)))
        .envs(job.env.iter().map(|(k, v)| (k, subst(v))))
        .stdin(Stdio::null())
        .stdout(stdout)
        .stderr(stderr);
    let timeout = job
        .timeout_secs
        .map_or(default_timeout, Duration::from_secs_f64);
    let supervised = supervise(&mut command, timeout, grace, poll, tick)?;
    let status = supervised.status.as_ref().ok();
    let exit_code = status.and_then(ExitStatus::code).map(i64::from);
    let signal = status.and_then(|s| exit_signal(*s));
    let ended = match (supervised.stop, supervised.status) {
        (Some(Stop::Asked(reason)), _) => Ended::Stopped(reason),
        (Some(Stop::Deadline), _) => {
            Ended::TimedOut(format!("timed out after {:.1}s", timeout.as_secs_f64()))
        }
        (None, Ok(status)) if status.success() => Ended::Succeeded,
        (None, Ok(_)) => Ended::Failed(match (exit_code, signal) {
            (Some(code), _) => format!("exit status {code}"),
            (None, Some(sig)) => format!("killed by signal {sig}"),
            (None, None) => "terminated abnormally".to_string(),
        }),
        (None, Err(e)) => Ended::Failed(format!("wait failed: {e}")),
    };
    Ok(Attempt {
        ended,
        exit_code,
        signal,
        elapsed: supervised.elapsed,
        peak_rss_kb: supervised.peak_rss_kb,
    })
}

/// Why [`supervise`] stopped a child before it exited on its own.
enum Stop<R> {
    /// The wall-clock budget ran out.
    Deadline,
    /// The caller's `tick` returned this reason.
    Asked(R),
}

/// How a supervised child ended.
struct Supervised<R> {
    /// The exit status, or the error `try_wait` returned (the child was
    /// then killed and reaped).
    status: std::io::Result<ExitStatus>,
    /// The first stop reason, kept even when the child then exits 0: a
    /// job that finishes after its SIGTERM still missed its deadline, or
    /// still was canceled.
    stop: Option<Stop<R>>,
    /// Time from spawn to reap.
    elapsed: Duration,
    /// Peak resident set size in kB (Linux `VmHWM`), if ever readable.
    peak_rss_kb: Option<u64>,
}

/// Spawns `command` and blocks until the child exits. Every `poll`,
/// `tick` runs first (the first time right after the spawn, before any
/// exit can be observed) and may ask for a stop; the child gets SIGTERM
/// on the first stop reason or once `timeout` has passed, and SIGKILL
/// when it is still alive `grace` later.
fn supervise<R>(
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
fn exit_signal(status: ExitStatus) -> Option<i64> {
    use std::os::unix::process::ExitStatusExt as _;
    status.signal().map(i64::from)
}

#[cfg(not(unix))]
fn exit_signal(_status: ExitStatus) -> Option<i64> {
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
