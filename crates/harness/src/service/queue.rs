//! The persistent sharded job queue behind `fulllock serve`.
//!
//! Every queue mutation lands on disk before the server acknowledges it:
//! jobs are assigned to one of N shard files (`queue/shard-NN.json`,
//! FNV-hashed by job id) and each state transition rewrites only the
//! affected shard through [`crate::persist::save_sealed`] — checksummed
//! envelope, atomic rename, previous generation kept. A SIGKILL at any
//! instant leaves every shard either at its pre- or post-transition
//! state, never torn; a corrupt shard falls back to its previous
//! generation on load.
//!
//! Restart semantics give exactly-once *recorded* completion: a job found
//! in the `running` state on load was in flight when the server died, so
//! it is re-queued (`pending`, with [`ServiceJob::interrupted`] set) and
//! runs again — attack jobs pick their `AttackCheckpoint` back up instead
//! of re-buying oracle queries. A job already `done` stays done and is
//! never re-launched, so [`ServiceJob::completions`] reaching 2 would be
//! a supervision bug, and tests assert it stays at 1.
//!
//! # Shard quarantine
//!
//! When a shard file cannot be sealed (real disk trouble, or the
//! [`queue.seal`](fulllock_sat::faults::site::QUEUE_SEAL) failpoint
//! firing `enospc`/`eio`), the shard is *quarantined*: the save error
//! propagates to the caller — the server refuses the request with a
//! typed error instead of acking state it could not persist — and
//! further writes to that shard keep failing fast until
//! [`ShardedQueue::retry_quarantined`] manages a clean save. A `torn`
//! action at the same site is the nastier case: the write lies, the
//! shard lands truncated, and only the next [`ShardedQueue::open`]
//! notices — which is exactly why every save keeps the previous
//! generation.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::time::Duration;

use fulllock_sat::faults::{self, FaultAction};

use crate::json::Json;
use crate::plan::JobSpec;
use crate::service::quota::QuotaUsage;
use crate::{persist, HarnessError, Result};

/// Version tag of the shard file schema.
pub const QUEUE_VERSION: u64 = 1;

/// Lifecycle of a service job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a worker.
    Pending,
    /// A worker is executing its child process.
    Running,
    /// Completed successfully (exit 0). Terminal.
    Done,
    /// Exhausted its attempts or was refused by a quota. Terminal.
    Failed,
    /// Canceled by request. Terminal.
    Canceled,
}

impl JobState {
    /// Stable wire/disk name.
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Pending => "pending",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Canceled => "canceled",
        }
    }

    /// Inverse of [`as_str`](Self::as_str).
    pub fn parse(s: &str) -> Option<JobState> {
        Some(match s {
            "pending" => JobState::Pending,
            "running" => JobState::Running,
            "done" => JobState::Done,
            "failed" => JobState::Failed,
            "canceled" => JobState::Canceled,
            _ => return None,
        })
    }

    /// Whether the job will never run again.
    pub fn is_terminal(self) -> bool {
        matches!(self, JobState::Done | JobState::Failed | JobState::Canceled)
    }
}

/// One job in the service queue: the command to run plus its supervision
/// record.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceJob {
    /// Job identity (equals `spec.id`; the queue-wide uniqueness key).
    pub id: String,
    /// Owning tenant (the quota key).
    pub tenant: String,
    /// The command to execute. `{job_dir}` in the program, any argument,
    /// or any environment value is substituted with the job's scratch
    /// directory at launch.
    pub spec: JobSpec,
    /// Current lifecycle state.
    pub state: JobState,
    /// Execution attempts started so far.
    pub attempts: u32,
    /// Global submission sequence number (FIFO scheduling order).
    pub seq: u64,
    /// Times this job transitioned into [`JobState::Done`]. Stays ≤ 1
    /// under correct supervision — the exactly-once audit counter.
    pub completions: u64,
    /// Why the last attempt failed, if it did.
    pub last_error: Option<String>,
    /// Solver conflicts charged to the tenant for this job (parsed from
    /// the job's report at completion).
    pub charged_conflicts: u64,
    /// Wall-clock seconds charged to the tenant for this job.
    pub charged_wall_secs: f64,
    /// Whether a server shutdown interrupted this job mid-run at least
    /// once (it was found `running` on restart, or drained). Informational.
    pub interrupted: bool,
}

impl ServiceJob {
    /// A freshly submitted job.
    pub fn new(tenant: impl Into<String>, spec: JobSpec, seq: u64) -> ServiceJob {
        ServiceJob {
            id: spec.id.clone(),
            tenant: tenant.into(),
            spec,
            state: JobState::Pending,
            attempts: 0,
            seq,
            completions: 0,
            last_error: None,
            charged_conflicts: 0,
            charged_wall_secs: 0.0,
            interrupted: false,
        }
    }

    fn to_json(&self) -> Json {
        Json::Object(vec![
            ("id".to_string(), Json::Str(self.id.clone())),
            ("tenant".to_string(), Json::Str(self.tenant.clone())),
            ("spec".to_string(), self.spec.to_json(false)),
            (
                "state".to_string(),
                Json::Str(self.state.as_str().to_string()),
            ),
            ("attempts".to_string(), Json::Int(u64::from(self.attempts))),
            ("seq".to_string(), Json::Int(self.seq)),
            ("completions".to_string(), Json::Int(self.completions)),
            ("last_error".to_string(), self.last_error.as_deref().into()),
            (
                "charged_conflicts".to_string(),
                Json::Int(self.charged_conflicts),
            ),
            (
                "charged_wall_secs".to_string(),
                Json::Float(self.charged_wall_secs),
            ),
            ("interrupted".to_string(), Json::Bool(self.interrupted)),
        ])
    }

    fn from_json(json: &Json) -> std::result::Result<ServiceJob, String> {
        let id = json.str_field("id")?;
        let state = json.str_field("state")?;
        Ok(ServiceJob {
            id: id.to_string(),
            tenant: json.str_field("tenant")?.to_string(),
            spec: json.nested_field("spec", |spec| JobSpec::from_json(spec, Some(id)))?,
            state: JobState::parse(state).ok_or_else(|| format!("unknown job state {state:?}"))?,
            attempts: json.u32_field("attempts")?,
            seq: json.u64_field("seq")?,
            completions: json.u64_field("completions")?,
            last_error: json.opt_field("last_error")?,
            charged_conflicts: json.u64_field("charged_conflicts")?,
            charged_wall_secs: json.f64_field("charged_wall_secs")?,
            interrupted: json.bool_field("interrupted")?,
        })
    }
}

/// Per-state job counts plus the queue-wide completion total — the
/// health verb's view of the queue, computed in one pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueCounts {
    /// Jobs waiting for a worker.
    pub pending: usize,
    /// Jobs currently executing.
    pub running: usize,
    /// Jobs completed successfully.
    pub done: usize,
    /// Jobs that exhausted their attempts.
    pub failed: usize,
    /// Jobs canceled by request.
    pub canceled: usize,
    /// Sum of every job's `completions` counter (exactly-once audit:
    /// must equal `done` under correct supervision).
    pub completions: u64,
}

/// The in-memory queue plus its on-disk shard files.
#[derive(Debug)]
pub struct ShardedQueue {
    dir: PathBuf,
    shards: u32,
    jobs: Vec<ServiceJob>,
    next_seq: u64,
    /// Shards whose last seal failed; writes to them fail fast until
    /// [`retry_quarantined`](Self::retry_quarantined) recovers them.
    quarantined: BTreeSet<u32>,
    /// Jobs found `running` at load time (interrupted by the previous
    /// server's death) — informational, consumed by the server's log line.
    pub recovered: usize,
}

impl ShardedQueue {
    /// Opens (or initializes) the queue under `dir` with the given shard
    /// count. Jobs found in the `running` state are re-queued as
    /// `pending` with [`ServiceJob::interrupted`] set — the previous
    /// server died mid-flight; their attempt counters are preserved.
    ///
    /// The shard count is fixed for a directory: reading it under another
    /// count would miss the shards past the new count and file jobs under
    /// shards they do not hash to, losing or re-running them.
    ///
    /// # Errors
    ///
    /// [`HarnessError::Io`] when the directory or a shard cannot be read,
    /// [`HarnessError::ManifestFormat`] when a shard's surviving
    /// generation is unparseable, and [`HarnessError::ShardCount`] when
    /// the directory was written under another shard count: it holds a
    /// shard file past `shards`, or a job in a shard it does not hash to.
    pub fn open(dir: &Path, shards: u32) -> Result<ShardedQueue> {
        let shards = shards.max(1);
        std::fs::create_dir_all(dir).map_err(|e| HarnessError::Io {
            path: dir.to_path_buf(),
            message: format!("create queue directory: {e}"),
        })?;
        let mismatch = |evidence: String| HarnessError::ShardCount {
            dir: dir.to_path_buf(),
            shards,
            evidence,
        };
        let entries = std::fs::read_dir(dir).map_err(|e| HarnessError::Io {
            path: dir.to_path_buf(),
            message: format!("list queue directory: {e}"),
        })?;
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if shard_file_index(&name).is_some_and(|index| index >= shards) {
                return Err(mismatch(format!("it holds {name}")));
            }
        }
        let mut jobs: Vec<ServiceJob> = Vec::new();
        let mut recovered = 0;
        for shard in 0..shards {
            let path = shard_path(dir, shard);
            if !path.exists() && !crate::persist::with_suffix(&path, ".1").exists() {
                continue;
            }
            for mut job in persist::load_document(&path, "queue shard", parse_shard)? {
                let home = shard_index(&job.id, shards);
                if home != shard {
                    return Err(mismatch(format!(
                        "job {:?} sits in shard {shard} but hashes to shard {home}",
                        job.id
                    )));
                }
                if job.state == JobState::Running {
                    job.state = JobState::Pending;
                    job.interrupted = true;
                    recovered += 1;
                }
                jobs.push(job);
            }
        }
        jobs.sort_by_key(|j| j.seq);
        let next_seq = jobs.iter().map(|j| j.seq + 1).max().unwrap_or(0);
        Ok(ShardedQueue {
            dir: dir.to_path_buf(),
            shards,
            jobs,
            next_seq,
            quarantined: BTreeSet::new(),
            recovered,
        })
    }

    /// The shard index a job id maps to.
    pub fn shard_of(&self, id: &str) -> u32 {
        shard_index(id, self.shards)
    }

    /// Inserts a freshly submitted job and persists its shard.
    ///
    /// # Errors
    ///
    /// [`HarnessError::PlanFormat`] on a duplicate id, [`HarnessError::Io`]
    /// when the shard cannot be written (the job is rolled back).
    pub fn submit(&mut self, tenant: &str, spec: JobSpec) -> Result<&ServiceJob> {
        if self.jobs.iter().any(|j| j.id == spec.id) {
            return Err(HarnessError::PlanFormat {
                kind: "serve job",
                path: None,
                message: format!("duplicate job id {:?}", spec.id),
            });
        }
        let job = ServiceJob::new(tenant, spec, self.next_seq);
        let id = job.id.clone();
        self.jobs.push(job);
        self.next_seq += 1;
        if let Err(e) = self.save_shard_of(&id) {
            self.jobs.retain(|j| j.id != id);
            self.next_seq -= 1;
            return Err(e);
        }
        Ok(self
            .jobs
            .iter()
            .find(|j| j.id == id)
            .expect("job was just inserted"))
    }

    /// Looks a job up by id.
    pub fn job(&self, id: &str) -> Option<&ServiceJob> {
        self.jobs.iter().find(|j| j.id == id)
    }

    /// Mutable lookup. Callers persist with
    /// [`save_shard_of`](Self::save_shard_of) after mutating.
    pub fn job_mut(&mut self, id: &str) -> Option<&mut ServiceJob> {
        self.jobs.iter_mut().find(|j| j.id == id)
    }

    /// All jobs in submission order.
    pub fn jobs(&self) -> &[ServiceJob] {
        &self.jobs
    }

    /// The oldest pending job not in `skip`, if any (FIFO scheduling).
    pub fn next_pending(&self, skip: &dyn Fn(&ServiceJob) -> bool) -> Option<&ServiceJob> {
        self.jobs
            .iter()
            .filter(|j| j.state == JobState::Pending && !skip(j))
            .min_by_key(|j| j.seq)
    }

    /// Rewrites the shard holding `id` (atomic, sealed, previous
    /// generation kept).
    ///
    /// # Errors
    ///
    /// [`HarnessError::Io`] on any filesystem failure; the shard is
    /// quarantined until a later save succeeds.
    pub fn save_shard_of(&mut self, id: &str) -> Result<()> {
        self.save_shard(self.shard_of(id))
    }

    /// Rewrites every shard (used at drain time).
    ///
    /// # Errors
    ///
    /// [`HarnessError::Io`] on any filesystem failure.
    pub fn save_all(&mut self) -> Result<()> {
        for shard in 0..self.shards {
            self.save_shard(shard)?;
        }
        Ok(())
    }

    /// Whether the shard holding `id` is quarantined (its last seal
    /// failed). Submissions routed here must be refused — the queue
    /// cannot promise durability for them.
    pub fn is_quarantined(&self, id: &str) -> bool {
        self.quarantined.contains(&self.shard_of(id))
    }

    /// The currently quarantined shard indices, ascending.
    pub fn quarantined_shards(&self) -> Vec<u32> {
        self.quarantined.iter().copied().collect()
    }

    /// Retries the seal of every quarantined shard, releasing the ones
    /// that now persist cleanly. Returns how many shards recovered.
    pub fn retry_quarantined(&mut self) -> usize {
        let stuck: Vec<u32> = self.quarantined.iter().copied().collect();
        let mut recovered = 0;
        for shard in stuck {
            if self.save_shard(shard).is_ok() {
                recovered += 1;
            }
        }
        recovered
    }

    /// Per-state job counts and the completion total, in one pass.
    pub fn counts(&self) -> QueueCounts {
        let mut counts = QueueCounts::default();
        for job in &self.jobs {
            match job.state {
                JobState::Pending => counts.pending += 1,
                JobState::Running => counts.running += 1,
                JobState::Done => counts.done += 1,
                JobState::Failed => counts.failed += 1,
                JobState::Canceled => counts.canceled += 1,
            }
            counts.completions += job.completions;
        }
        counts
    }

    /// A tenant's quota usage in one pass over its jobs: pending and
    /// running jobs are in flight, and every job's `charged_*` spend
    /// counts.
    pub fn usage(&self, tenant: &str) -> QuotaUsage {
        sum_usage(self.jobs.iter().filter(|j| j.tenant == tenant))
    }

    /// [`usage`](Self::usage) of every tenant with a job in the queue,
    /// by tenant.
    pub fn usage_by_tenant(&self) -> BTreeMap<&str, QuotaUsage> {
        let mut by_tenant: BTreeMap<&str, Vec<&ServiceJob>> = BTreeMap::new();
        for job in &self.jobs {
            by_tenant.entry(job.tenant.as_str()).or_default().push(job);
        }
        by_tenant
            .into_iter()
            .map(|(tenant, jobs)| (tenant, sum_usage(jobs)))
            .collect()
    }

    fn save_shard(&mut self, shard: u32) -> Result<()> {
        let path = shard_path(&self.dir, shard);
        // The queue.seal disk-fault site, indexed by shard: enospc/eio
        // fail the seal (and quarantine the shard), torn tears the file
        // on disk while this call *succeeds* — the lie only surfaces at
        // the next open, via the previous-generation fallback.
        let mut torn = false;
        match faults::evaluate(faults::site::QUEUE_SEAL, shard as usize) {
            Some(action @ (FaultAction::Enospc | FaultAction::Eio)) => {
                self.quarantined.insert(shard);
                return Err(HarnessError::Io {
                    path,
                    message: format!("save queue shard: injected {action} (queue.seal failpoint)"),
                });
            }
            Some(FaultAction::Torn) => torn = true,
            Some(delay @ FaultAction::DelayMs(_)) => faults::apply_delay(delay),
            Some(FaultAction::Panic) => panic!("queue.seal failpoint: injected panic"),
            _ => {}
        }
        let jobs: Vec<Json> = self
            .jobs
            .iter()
            .filter(|j| self.shard_of(&j.id) == shard)
            .map(ServiceJob::to_json)
            .collect();
        let payload = Json::Object(vec![
            ("version".to_string(), Json::Int(QUEUE_VERSION)),
            ("shard".to_string(), Json::Int(u64::from(shard))),
            ("jobs".to_string(), Json::Array(jobs)),
        ])
        .to_text();
        // A queue.seal tear has already decided the write's fate; a clean
        // seal still runs through save_sealed so the generic
        // persist.write/persist.sync sites cover shard files too.
        let saved = if torn {
            persist::save_sealed_raw(&path, &payload, true)
        } else {
            persist::save_sealed(&path, &payload)
        };
        match saved {
            Ok(()) => {
                self.quarantined.remove(&shard);
                Ok(())
            }
            Err(e) => {
                self.quarantined.insert(shard);
                Err(HarnessError::Io {
                    path,
                    message: format!("save queue shard: {e}"),
                })
            }
        }
    }
}

fn sum_usage<'a>(jobs: impl IntoIterator<Item = &'a ServiceJob>) -> QuotaUsage {
    let mut in_flight = 0;
    let mut conflicts = 0u64;
    let mut wall_secs = 0.0;
    for job in jobs {
        in_flight += u64::from(!job.state.is_terminal());
        conflicts = conflicts.saturating_add(job.charged_conflicts);
        wall_secs += job.charged_wall_secs.max(0.0);
    }
    QuotaUsage {
        in_flight,
        conflicts,
        wall: Duration::try_from_secs_f64(wall_secs).unwrap_or(Duration::MAX),
    }
}

fn shard_path(dir: &Path, shard: u32) -> PathBuf {
    dir.join(format!("shard-{shard:02}.json"))
}

/// The shard index of a `shard-NN.json` file name, or of one of its
/// generations (`.1`), quarantined copies (`.corrupt`) or temp files.
fn shard_file_index(name: &str) -> Option<u32> {
    let (digits, rest) = name.strip_prefix("shard-")?.split_once('.')?;
    rest.starts_with("json").then(|| digits.parse().ok())?
}

fn parse_shard(text: &str) -> std::result::Result<Vec<ServiceJob>, String> {
    let root = Json::parse(text)?;
    let version = root.u64_field("version")?;
    if version != QUEUE_VERSION {
        return Err(format!(
            "unsupported queue version {version} (this build reads version {QUEUE_VERSION})"
        ));
    }
    root.items_field("jobs", ServiceJob::from_json)
}

/// The shard a job id maps to under `shards` shards (FNV-1a of the id;
/// stable across restarts).
fn shard_index(id: &str, shards: u32) -> u32 {
    (crate::json::fnv1a(id.as_bytes()) % u64::from(shards)) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fulllock-queue-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    fn spec(id: &str) -> JobSpec {
        JobSpec::new(id, "/bin/true").arg("x").env("K", "v")
    }

    #[test]
    fn submit_persists_and_reloads() {
        let dir = tmp_dir("roundtrip");
        let mut q = ShardedQueue::open(&dir, 4).expect("open");
        for i in 0..10 {
            q.submit("acme", spec(&format!("job-{i}"))).expect("submit");
        }
        let q2 = ShardedQueue::open(&dir, 4).expect("reopen");
        assert_eq!(q2.jobs().len(), 10);
        for (a, b) in q.jobs().iter().zip(q2.jobs()) {
            assert_eq!(a, b);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn duplicate_ids_are_rejected() {
        let dir = tmp_dir("dup");
        let mut q = ShardedQueue::open(&dir, 2).expect("open");
        q.submit("a", spec("same")).expect("first");
        assert!(q.submit("b", spec("same")).is_err());
        assert_eq!(q.jobs().len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn running_jobs_requeue_on_reload() {
        let dir = tmp_dir("requeue");
        let mut q = ShardedQueue::open(&dir, 2).expect("open");
        q.submit("a", spec("interrupted")).expect("submit");
        q.submit("a", spec("finished")).expect("submit");
        q.job_mut("interrupted").expect("exists").state = JobState::Running;
        let done = q.job_mut("finished").expect("exists");
        done.state = JobState::Done;
        done.completions = 1;
        q.save_all().expect("save");

        let q2 = ShardedQueue::open(&dir, 2).expect("reopen");
        assert_eq!(q2.recovered, 1);
        let back = q2.job("interrupted").expect("exists");
        assert_eq!(back.state, JobState::Pending);
        assert!(back.interrupted);
        // A completed job stays completed: exactly-once.
        let done = q2.job("finished").expect("exists");
        assert_eq!(done.state, JobState::Done);
        assert_eq!(done.completions, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn next_pending_is_fifo_with_skips() {
        let dir = tmp_dir("fifo");
        let mut q = ShardedQueue::open(&dir, 2).expect("open");
        q.submit("a", spec("first")).expect("submit");
        q.submit("a", spec("second")).expect("submit");
        assert_eq!(q.next_pending(&|_| false).expect("some").id, "first");
        assert_eq!(
            q.next_pending(&|j| j.id == "first").expect("some").id,
            "second"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_shard_falls_back_to_previous_generation() {
        let dir = tmp_dir("torn");
        let mut q = ShardedQueue::open(&dir, 1).expect("open");
        q.submit("a", spec("one")).expect("submit");
        q.submit("a", spec("two")).expect("submit");
        // Tear the primary shard mid-envelope.
        let path = shard_path(&dir, 0);
        let text = std::fs::read_to_string(&path).expect("read");
        std::fs::write(&path, &text[..text.len() / 2]).expect("tear");
        let q2 = ShardedQueue::open(&dir, 1).expect("fallback open");
        // Previous generation held only the first submission.
        assert_eq!(q2.jobs().len(), 1);
        assert_eq!(q2.jobs()[0].id, "one");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The shard count is fixed for a directory: reopening under fewer
    /// shards would drop the jobs past them, under more would file jobs
    /// where they do not hash and save them twice.
    #[test]
    fn reopening_under_another_shard_count_is_refused() {
        for (written, reopened) in [(4, 2), (2, 4)] {
            let dir = tmp_dir(&format!("shards-{written}-{reopened}"));
            let mut q = ShardedQueue::open(&dir, written).expect("open");
            for i in 0..16 {
                q.submit("acme", spec(&format!("job{i}"))).expect("submit");
            }
            let err = ShardedQueue::open(&dir, reopened).expect_err("count changed");
            assert!(
                matches!(&err, HarnessError::ShardCount { dir: d, shards, .. }
                    if *d == dir && *shards == reopened),
                "{err}"
            );
            assert!(err.to_string().contains("restart with"), "{err}");
            let back = ShardedQueue::open(&dir, written).expect("original count");
            assert_eq!(back.jobs().len(), 16);
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn usage_counts_live_jobs_and_sums_charges() {
        let dir = tmp_dir("usage");
        let mut q = ShardedQueue::open(&dir, 2).expect("open");
        for id in ["pending", "running", "done", "other"] {
            let tenant = if id == "other" { "b" } else { "a" };
            q.submit(tenant, spec(id)).expect("submit");
        }
        q.job_mut("running").expect("exists").state = JobState::Running;
        let done = q.job_mut("done").expect("exists");
        done.state = JobState::Done;
        done.charged_conflicts = 7;
        done.charged_wall_secs = 1.5;
        q.job_mut("running").expect("exists").charged_wall_secs = 0.25;
        let usage = q.usage("a");
        assert_eq!(usage.in_flight, 2);
        assert_eq!(usage.conflicts, 7);
        assert_eq!(usage.wall, Duration::from_millis(1750));
        assert_eq!(q.usage("nobody"), QuotaUsage::default());
        let by_tenant = q.usage_by_tenant();
        assert_eq!(by_tenant.keys().copied().collect::<Vec<_>>(), ["a", "b"]);
        assert_eq!(by_tenant["a"], usage);
        assert_eq!(by_tenant["b"].in_flight, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_assignment_is_stable_and_spread() {
        let dir = tmp_dir("spread");
        let q = ShardedQueue::open(&dir, 8).expect("open");
        let mut hit = [false; 8];
        for i in 0..64 {
            hit[q.shard_of(&format!("job-{i}")) as usize] = true;
        }
        assert!(hit.iter().filter(|&&h| h).count() >= 4, "{hit:?}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
