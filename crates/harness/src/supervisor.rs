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
//! `--jobs N` slot threads (the calling thread is one of them) share the
//! manifest and the list of jobs still to run. A slot takes the next job
//! in plan order and runs all of that job's attempts, sleeping each
//! retry's backoff in place, through the same attempt path `fulllock
//! serve` uses for its workers. Child stdout/stderr go to per-attempt
//! files under `<out_dir>/logs/`, and every state transition atomically
//! rewrites `<out_dir>/campaign.json` (see [`crate::manifest`]) so a
//! killed supervisor can `--resume`.

use std::collections::VecDeque;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::Stdio;
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use crate::child::{self, Ended};
use crate::manifest::{CampaignManifest, JobRecord, JobStatus};
use crate::plan::{CampaignPlan, JobSpec};
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

/// The campaign state the slot threads share.
struct Schedule {
    manifest: CampaignManifest,
    /// Plan indices of the jobs no slot has taken yet, in plan order.
    todo: VecDeque<usize>,
    /// The first supervisor-level error; once set, no attempt starts.
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
    let mut todo = VecDeque::new();
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
            todo.push_back(idx);
        }
    }
    manifest.save(&manifest_path)?;

    // A slot runs one job at a time, so slots beyond the jobs to run
    // would never take one.
    let slots = config.parallelism.max(1).min(todo.len());
    let schedule = Mutex::new(Schedule {
        manifest,
        todo,
        error: None,
    });
    let slot = || loop {
        // A statement of its own, so the guard drops before the job runs.
        let next = lock(&schedule).todo.pop_front();
        let Some(idx) = next else { return };
        if let Err(e) = run_job(&plan.jobs[idx], config, &manifest_path, &schedule) {
            lock(&schedule).error.get_or_insert(e);
        }
    };
    std::thread::scope(|scope| {
        for _ in 1..slots {
            scope.spawn(slot);
        }
        // The calling thread is a slot too.
        slot();
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
    // Only the plan's jobs count: a resumed manifest keeps the records of
    // jobs the plan has since dropped.
    let count = |status| {
        plan.jobs
            .iter()
            .filter(|job| {
                manifest
                    .job(&job.id)
                    .is_some_and(|rec| rec.status == status)
            })
            .count()
    };
    Ok(CampaignOutcome {
        total: plan.jobs.len(),
        succeeded: count(JobStatus::Succeeded),
        failed: count(JobStatus::Failed),
        timed_out: count(JobStatus::TimedOut),
        skipped: count(JobStatus::Skipped),
        manifest_path,
    })
}

/// Runs `job`'s attempts in this slot and records each one: success,
/// retry after its backoff (slept here, in the slot), or final
/// failure/timeout. A program that cannot be spawned at all is a
/// permanent failure (bad config — never retried).
fn run_job(
    job: &JobSpec,
    config: &SupervisorConfig,
    manifest_path: &Path,
    schedule: &Mutex<Schedule>,
) -> Result<()> {
    let retry = config.retry.for_job(job);
    let mut attempt = 1;
    loop {
        if lock(schedule).error.is_some() {
            // Another slot failed the campaign: start no further attempt.
            return Ok(());
        }
        let stdout_rel = format!("logs/{}.attempt{attempt}.stdout.log", job.id);
        let stderr_rel = format!("logs/{}.attempt{attempt}.stderr.log", job.id);
        let open = |rel: &str| {
            let path = config.out_dir.join(rel);
            File::create(&path)
                .map(Stdio::from)
                .map_err(|e| HarnessError::Io {
                    path,
                    message: format!("create log file: {e}"),
                })
        };
        let logs = (open(&stdout_rel)?, open(&stderr_rel)?);

        // Records the attempt as started in `status`, writing to these logs.
        let begin = |schedule: &mut Schedule, status: JobStatus| {
            let rec = schedule.manifest.job_mut(&job.id).expect(UPSERTED);
            rec.attempts = attempt;
            rec.stdout_log = Some(stdout_rel.clone());
            rec.stderr_log = Some(stderr_rel.clone());
            rec.status = status;
            schedule
                .manifest
                .push_event(&job.id, attempt, status.as_str());
        };
        // The schedule stays locked from the spawn until the attempt is
        // recorded, so no other slot's manifest fsync runs while the child
        // starts: one can hold `spawn()` past a short job's exit, and its
        // spawn-time VmHWM sample is then lost.
        let mut starting = Some(lock(schedule));
        let run = child::run(
            job,
            str::to_string,
            logs,
            config.default_timeout,
            config.grace,
            config.poll_interval,
            || {
                // The first tick comes right after the spawn: only now is
                // the job running. A manifest that cannot record it stops
                // the child and fails the campaign.
                let mut schedule = starting.take()?;
                begin(&mut schedule, JobStatus::Running);
                schedule.manifest.save(manifest_path).err()
            },
        );
        let run = match run {
            Ok(run) => run,
            Err(e) => {
                let mut schedule = starting.take().expect("no tick runs without a child");
                begin(&mut schedule, JobStatus::Failed);
                let rec = schedule.manifest.job_mut(&job.id).expect(UPSERTED);
                rec.last_error = Some(format!("spawn failed: {e} (permanent, not retried)"));
                return schedule.manifest.save(manifest_path);
            }
        };
        let (status, reason) = match run.ended {
            Ended::Stopped(e) => return Err(e),
            Ended::Succeeded => (JobStatus::Succeeded, None),
            Ended::Failed(reason) => (JobStatus::Failed, Some(reason)),
            Ended::TimedOut(reason) => (JobStatus::TimedOut, Some(reason)),
        };
        // Transient failure (non-zero exit, signal kill, timeout): retry
        // with exponential backoff while the attempt budget lasts.
        let backoff = match status {
            JobStatus::Succeeded => None,
            _ => retry.delay_after(attempt),
        };

        let mut schedule = lock(schedule);
        let manifest = &mut schedule.manifest;
        let rec = manifest.job_mut(&job.id).expect(UPSERTED);
        rec.duration_secs += run.elapsed.as_secs_f64();
        if let Some(rss) = run.peak_rss_kb {
            rec.peak_rss_kb = Some(rec.peak_rss_kb.unwrap_or(0).max(rss));
        }
        rec.exit_code = run.exit_code;
        rec.signal = run.signal;
        rec.last_error = reason;
        let Some(backoff) = backoff else {
            rec.status = status;
            manifest.push_event(&job.id, attempt, status.as_str());
            return manifest.save(manifest_path);
        };
        rec.status = JobStatus::Pending;
        manifest.push_event(&job.id, attempt, "retrying");
        manifest.save(manifest_path)?;
        drop(schedule);
        std::thread::sleep(backoff);
        attempt += 1;
    }
}
