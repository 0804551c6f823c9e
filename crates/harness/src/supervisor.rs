//! The campaign supervisor: runs plan jobs as isolated child processes
//! with timeouts, retries, bounded parallelism, and graceful degradation.
//!
//! Per job, the supervisor enforces a wall-clock budget (SIGTERM at the
//! deadline, SIGKILL after a grace period for children that ignore it)
//! and a bounded retry schedule with exponential backoff
//! ([`crate::retry::RetryPolicy`]) for *transient* failures — non-zero
//! exits and signal kills. *Permanent* failures (the program cannot be
//! spawned at all — bad config) are never retried. A job that exhausts
//! its budget is recorded as `failed`/`timed_out` and the campaign moves
//! on; one bad experiment no longer aborts a multi-hour sweep.
//!
//! `--jobs N` slot threads (the calling thread is one of them) share one
//! schedule: the manifest and a queue of runs, each eligible once its
//! backoff has passed. A slot claims the oldest eligible run and
//! supervises its child through the same runner `fulllock serve` uses
//! for its workers. Child stdout/stderr go to per-attempt files under
//! `<out_dir>/logs/`, and every state transition atomically rewrites
//! `<out_dir>/campaign.json` (see [`crate::manifest`]) so a killed
//! supervisor can `--resume`.

use std::collections::VecDeque;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::child::{self, Stop};
use crate::manifest::{CampaignManifest, JobRecord, JobStatus};
use crate::plan::CampaignPlan;
use crate::retry::RetryPolicy;
use crate::{HarnessError, Result};

/// Supervisor knobs. The defaults suit the paper sweep on a laptop.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Maximum concurrently running jobs (`--jobs N`).
    pub parallelism: usize,
    /// Wall-clock budget for jobs without a per-job override.
    pub default_timeout: Duration,
    /// After SIGTERM, how long a child may linger before SIGKILL.
    pub grace: Duration,
    /// Retry schedule for transient failures; a job's
    /// [`max_attempts`](crate::plan::JobSpec::max_attempts) overrides the
    /// attempt budget.
    pub retry: RetryPolicy,
    /// Where the manifest (`campaign.json`) and `logs/` land.
    pub out_dir: PathBuf,
    /// Resume from an existing manifest: jobs already `succeeded` with an
    /// unchanged config hash are skipped, everything else re-runs.
    pub resume: bool,
    /// How often running children are polled (reap, RSS sample, deadline
    /// check).
    pub poll_interval: Duration,
    /// Ambient `FULLLOCK_*` fingerprint mixed into every job's config
    /// hash (see [`crate::plan::ambient_fingerprint`]); `None` (the
    /// default) fingerprints this process's actual environment. Because
    /// children inherit that environment, flipping e.g.
    /// `FULLLOCK_CERTIFY` between runs changes every job's effective
    /// config, and `--resume` re-runs them instead of skipping them as
    /// "unchanged". Tests inject a fixed value for determinism.
    pub ambient_hash: Option<u64>,
}

impl Default for SupervisorConfig {
    fn default() -> SupervisorConfig {
        SupervisorConfig {
            parallelism: 1,
            default_timeout: Duration::from_secs(3600),
            grace: Duration::from_secs(2),
            retry: RetryPolicy::default(),
            out_dir: PathBuf::from("campaign"),
            resume: false,
            poll_interval: Duration::from_millis(20),
            ambient_hash: None,
        }
    }
}

/// Aggregate result of a finished campaign. Counts cover the plan's
/// jobs; `skipped` are resume-time skips of previously succeeded jobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignOutcome {
    /// Jobs in the plan.
    pub total: usize,
    /// Jobs that exited 0 this run.
    pub succeeded: usize,
    /// Jobs that exhausted their attempts (or failed permanently).
    pub failed: usize,
    /// Jobs whose final attempt exceeded its wall-clock budget.
    pub timed_out: usize,
    /// Jobs skipped on resume (already succeeded, config unchanged).
    pub skipped: usize,
    /// Where the manifest was written.
    pub manifest_path: PathBuf,
}

impl CampaignOutcome {
    /// True when every job of the plan ended well (succeeded or skipped).
    pub fn all_succeeded(&self) -> bool {
        self.failed == 0 && self.timed_out == 0
    }

    /// `"success"`, `"partial"` (some jobs failed but others finished),
    /// or `"failed"` (nothing finished).
    pub fn status_word(&self) -> &'static str {
        if self.all_succeeded() {
            "success"
        } else if self.succeeded + self.skipped > 0 {
            "partial"
        } else {
            "failed"
        }
    }
}

/// A queued execution: the job at `idx` in the plan, about to run its
/// `attempt`-th attempt once `eligible_at` passes (backoff).
struct QueuedRun {
    idx: usize,
    attempt: u32,
    eligible_at: Instant,
}

/// The campaign state the slot threads share.
struct Schedule {
    manifest: CampaignManifest,
    queue: VecDeque<QueuedRun>,
    /// Runs claimed by a slot and not yet settled.
    in_flight: usize,
    /// The first supervisor-level error; once set, no slot claims work.
    error: Option<HarnessError>,
}

const UPSERTED: &str = "every plan job was upserted before the slots start";

fn lock(schedule: &Mutex<Schedule>) -> MutexGuard<'_, Schedule> {
    schedule
        .lock()
        .expect("a campaign slot panicked while holding the schedule")
}

/// Runs the whole plan under the wall clock. See the module docs for
/// the supervision semantics.
///
/// # Errors
///
/// Only supervisor-level problems are errors (invalid plan, unreadable
/// manifest, filesystem failures on the output directory). Job failures
/// are recorded in the manifest and reflected in the
/// [`CampaignOutcome`], not raised.
pub fn run_campaign(plan: &CampaignPlan, config: &SupervisorConfig) -> Result<CampaignOutcome> {
    plan.validate()?;
    let logs_dir = config.out_dir.join("logs");
    std::fs::create_dir_all(&logs_dir).map_err(|e| HarnessError::Io {
        path: logs_dir.clone(),
        message: format!("create logs directory: {e}"),
    })?;
    let manifest_path = config.out_dir.join("campaign.json");

    // Reconcile a previous manifest (resume) or start fresh.
    let mut manifest = if config.resume && manifest_path.exists() {
        CampaignManifest::load(&manifest_path)?
    } else {
        CampaignManifest::new(&plan.name)
    };
    let ambient = config
        .ambient_hash
        .unwrap_or_else(crate::plan::current_ambient_fingerprint);
    let now = Instant::now();
    let mut queue: VecDeque<QueuedRun> = VecDeque::new();
    for (idx, job) in plan.jobs.iter().enumerate() {
        let hash = job.config_hash_with(ambient);
        let prior = manifest.job(&job.id);
        let already_done = config.resume
            && prior.is_some_and(|rec| {
                rec.config_hash == hash
                    && matches!(rec.status, JobStatus::Succeeded | JobStatus::Skipped)
            });
        if already_done {
            let rec = manifest
                .job_mut(&job.id)
                .expect("record existence checked above");
            if rec.status != JobStatus::Skipped {
                rec.status = JobStatus::Skipped;
                manifest.push_event(&job.id, 0, JobStatus::Skipped.as_str());
            }
        } else {
            // Fresh record: an interrupted (`running`), failed, timed-out,
            // pending, or config-drifted entry re-runs from scratch.
            manifest.upsert(JobRecord::new(&job.id, hash));
            queue.push_back(QueuedRun {
                idx,
                attempt: 1,
                eligible_at: now,
            });
        }
    }
    manifest.save(&manifest_path)?;

    // A job has at most one run queued or in flight, so slots beyond the
    // queue's length would never claim anything.
    let slots = config.parallelism.max(1).min(queue.len());
    let schedule = Mutex::new(Schedule {
        manifest,
        queue,
        in_flight: 0,
        error: None,
    });
    std::thread::scope(|scope| {
        for _ in 1..slots {
            scope.spawn(|| run_slot(plan, config, &manifest_path, &schedule));
        }
        // The calling thread is a slot too.
        run_slot(plan, config, &manifest_path, &schedule);
    });
    let Schedule {
        manifest, error, ..
    } = schedule
        .into_inner()
        .expect("a slot panic propagates out of the scope");
    if let Some(e) = error {
        return Err(e);
    }
    manifest.save(&manifest_path)?;
    Ok(CampaignOutcome {
        total: plan.jobs.len(),
        succeeded: manifest.count(JobStatus::Succeeded),
        failed: manifest.count(JobStatus::Failed),
        timed_out: manifest.count(JobStatus::TimedOut),
        skipped: manifest.count(JobStatus::Skipped),
        manifest_path,
    })
}

/// One slot: runs claimed attempts until the campaign is over, and hands
/// a supervisor-level error to the whole schedule.
fn run_slot(
    plan: &CampaignPlan,
    config: &SupervisorConfig,
    manifest_path: &Path,
    schedule: &Mutex<Schedule>,
) {
    while let Some(run) = claim(schedule, config.poll_interval) {
        if let Err(e) = run_attempt(plan, config, manifest_path, schedule, run) {
            lock(schedule).error.get_or_insert(e);
            return;
        }
    }
}

/// Claims the oldest eligible run, waiting while everything left backs
/// off or runs on other slots; `None` once nothing is left (or a slot
/// failed).
fn claim(schedule: &Mutex<Schedule>, poll: Duration) -> Option<QueuedRun> {
    loop {
        let wait = {
            let mut schedule = lock(schedule);
            if schedule.error.is_some() || (schedule.queue.is_empty() && schedule.in_flight == 0) {
                return None;
            }
            let now = Instant::now();
            if let Some(pos) = schedule.queue.iter().position(|q| q.eligible_at <= now) {
                schedule.in_flight += 1;
                return schedule.queue.remove(pos);
            }
            // A retry starts when its backoff ends; a run another slot
            // settles is seen within a poll interval.
            schedule
                .queue
                .iter()
                .map(|q| q.eligible_at.saturating_duration_since(now))
                .min()
                .map_or(poll, |backoff| backoff.min(poll))
        };
        std::thread::sleep(wait);
    }
}

/// Runs one claimed attempt and records it: success, retry with backoff,
/// or final failure/timeout. A program that cannot be spawned at all is
/// a permanent failure (bad config — never retried).
fn run_attempt(
    plan: &CampaignPlan,
    config: &SupervisorConfig,
    manifest_path: &Path,
    schedule: &Mutex<Schedule>,
    run: QueuedRun,
) -> Result<()> {
    let job = &plan.jobs[run.idx];
    let stdout_rel = format!("logs/{}.attempt{}.stdout.log", job.id, run.attempt);
    let stderr_rel = format!("logs/{}.attempt{}.stderr.log", job.id, run.attempt);
    let open = |rel: &str| {
        let path = config.out_dir.join(rel);
        File::create(&path).map_err(|e| HarnessError::Io {
            path,
            message: format!("create log file: {e}"),
        })
    };
    let stdout = open(&stdout_rel)?;
    let stderr = open(&stderr_rel)?;

    let mut cmd = Command::new(&job.program);
    cmd.args(&job.args)
        .stdin(Stdio::null())
        .stdout(Stdio::from(stdout))
        .stderr(Stdio::from(stderr));
    for (k, v) in &job.env {
        cmd.env(k, v);
    }

    // Records the attempt as started in `status`, writing to these logs.
    let begin = |schedule: &mut Schedule, status: JobStatus| {
        let rec = schedule.manifest.job_mut(&job.id).expect(UPSERTED);
        rec.attempts = run.attempt;
        rec.stdout_log = Some(stdout_rel.clone());
        rec.stderr_log = Some(stderr_rel.clone());
        rec.status = status;
        schedule
            .manifest
            .push_event(&job.id, run.attempt, status.as_str());
    };
    let timeout = job
        .timeout_secs
        .map(Duration::from_secs_f64)
        .unwrap_or(config.default_timeout);
    // The schedule stays locked from the spawn until the attempt is
    // recorded, so no other slot's manifest fsync runs while the child
    // starts: one can hold `spawn()` past a short job's exit, and its
    // spawn-time VmHWM sample is then lost.
    let mut starting = Some(lock(schedule));
    let supervised = child::supervise(
        &mut cmd,
        timeout,
        config.grace,
        config.poll_interval,
        || {
            // The first tick comes right after the spawn: only now is the
            // job running. A manifest that cannot record it stops the child
            // and fails the campaign.
            let mut schedule = starting.take()?;
            begin(&mut schedule, JobStatus::Running);
            schedule.manifest.save(manifest_path).err()
        },
    );
    let supervised = match supervised {
        Ok(supervised) => supervised,
        Err(e) => {
            let mut schedule = starting.take().expect("no tick runs without a child");
            begin(&mut schedule, JobStatus::Failed);
            schedule.in_flight -= 1;
            let rec = schedule.manifest.job_mut(&job.id).expect(UPSERTED);
            rec.last_error = Some(format!("spawn failed: {e} (permanent, not retried)"));
            return schedule.manifest.save(manifest_path);
        }
    };
    let timed_out = match supervised.stop {
        Some(Stop::Asked(e)) => return Err(e),
        Some(Stop::Deadline) => true,
        None => false,
    };

    let mut guard = lock(schedule);
    let schedule = &mut *guard;
    schedule.in_flight -= 1;
    let rec = schedule.manifest.job_mut(&job.id).expect(UPSERTED);
    rec.duration_secs += supervised.elapsed.as_secs_f64();
    if let Some(rss) = supervised.peak_rss_kb {
        rec.peak_rss_kb = Some(rec.peak_rss_kb.unwrap_or(0).max(rss));
    }
    let status = supervised.status.as_ref().ok().copied();
    rec.exit_code = status.and_then(|s| s.code()).map(i64::from);
    rec.signal = status.and_then(child::exit_signal);

    let succeeded = !timed_out && status.is_some_and(|s| s.success());
    if succeeded {
        rec.status = JobStatus::Succeeded;
        rec.last_error = None;
        schedule
            .manifest
            .push_event(&job.id, run.attempt, JobStatus::Succeeded.as_str());
        return schedule.manifest.save(manifest_path);
    }

    let reason = if timed_out {
        "wall-clock budget exceeded".to_string()
    } else if let Err(e) = &supervised.status {
        format!("wait failed: {e}")
    } else {
        match (rec.exit_code, rec.signal) {
            (Some(code), _) => format!("exited with status {code}"),
            (None, Some(sig)) => format!("killed by signal {sig}"),
            (None, None) => "terminated abnormally".to_string(),
        }
    };
    rec.last_error = Some(reason);

    // Transient failure (non-zero exit, signal kill, timeout): retry
    // with exponential backoff while the attempt budget lasts.
    if let Some(delay) = config.retry.for_job(job).delay_after(run.attempt) {
        rec.status = JobStatus::Pending;
        schedule
            .manifest
            .push_event(&job.id, run.attempt, "retrying");
        schedule.queue.push_back(QueuedRun {
            idx: run.idx,
            attempt: run.attempt + 1,
            eligible_at: Instant::now() + delay,
        });
    } else {
        let terminal = if timed_out {
            JobStatus::TimedOut
        } else {
            JobStatus::Failed
        };
        rec.status = terminal;
        schedule
            .manifest
            .push_event(&job.id, run.attempt, terminal.as_str());
    }
    schedule.manifest.save(manifest_path)
}
