//! The campaign manifest: a versioned, atomically written record of
//! every job's state, keyed by job id + config hash.
//!
//! The supervisor rewrites `campaign.json` on **every** state transition
//! with the same tmp+fsync+rename discipline as the attack checkpoints,
//! so a `kill -9` of the supervisor at any instant leaves a coherent
//! manifest on disk. `--resume` then loads it, keeps every job whose
//! entry says `succeeded` *and* whose config hash still matches the
//! plan, and re-runs only the rest. Besides the per-job aggregate
//! (status, attempts, exit code/signal, duration, peak RSS, log paths),
//! the manifest appends a transition event log — a flight recorder for
//! post-mortems of multi-hour sweeps.

use std::path::{Path, PathBuf};

use crate::json::Json;
use crate::{HarnessError, Result};

/// Version tag written into every manifest; loading any other version
/// fails rather than guessing.
pub const MANIFEST_VERSION: u64 = 1;

/// What a manifest is called in its format errors.
const MANIFEST_KIND: &str = "campaign manifest";

/// Lifecycle state of one supervised job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Declared but not started (or waiting out a retry backoff).
    Pending,
    /// A child process is (or was, if the supervisor died) executing it.
    Running,
    /// Exited with status 0.
    Succeeded,
    /// Exhausted its attempt budget without success (or failed
    /// permanently, e.g. the program does not exist).
    Failed,
    /// Last attempt exceeded its wall-clock budget and was killed.
    TimedOut,
    /// Skipped on resume: already succeeded with an identical config.
    Skipped,
}

impl JobStatus {
    /// Stable on-disk name (`snake_case`).
    pub fn as_str(self) -> &'static str {
        match self {
            JobStatus::Pending => "pending",
            JobStatus::Running => "running",
            JobStatus::Succeeded => "succeeded",
            JobStatus::Failed => "failed",
            JobStatus::TimedOut => "timed_out",
            JobStatus::Skipped => "skipped",
        }
    }

    /// Inverse of [`as_str`](Self::as_str); `None` for unknown names.
    pub fn parse(s: &str) -> Option<JobStatus> {
        Some(match s {
            "pending" => JobStatus::Pending,
            "running" => JobStatus::Running,
            "succeeded" => JobStatus::Succeeded,
            "failed" => JobStatus::Failed,
            "timed_out" => JobStatus::TimedOut,
            "skipped" => JobStatus::Skipped,
            _ => return None,
        })
    }

    /// Whether this state is final (the supervisor will not touch the
    /// job again this run).
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobStatus::Succeeded | JobStatus::Failed | JobStatus::TimedOut | JobStatus::Skipped
        )
    }
}

/// Aggregate record of one job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// Job id (matches [`crate::plan::JobSpec::id`]).
    pub id: String,
    /// Config hash of the spec that produced this record
    /// ([`crate::plan::JobSpec::config_hash`]).
    pub config_hash: u64,
    /// Current lifecycle state.
    pub status: JobStatus,
    /// Executions so far (including the in-flight one while `Running`).
    pub attempts: u32,
    /// Exit code of the last finished attempt, if it exited normally.
    pub exit_code: Option<i64>,
    /// Signal that terminated the last attempt, if killed by one.
    pub signal: Option<i64>,
    /// Wall-clock seconds across all attempts of this run.
    pub duration_secs: f64,
    /// Peak resident set size observed across attempts (kB, Linux only).
    pub peak_rss_kb: Option<u64>,
    /// Captured stdout of the last attempt, relative to the output dir.
    pub stdout_log: Option<String>,
    /// Captured stderr of the last attempt, relative to the output dir.
    pub stderr_log: Option<String>,
    /// Human-readable reason for the last failure, if any.
    pub last_error: Option<String>,
}

impl JobRecord {
    /// A fresh `Pending` record.
    pub fn new(id: impl Into<String>, config_hash: u64) -> JobRecord {
        JobRecord {
            id: id.into(),
            config_hash,
            status: JobStatus::Pending,
            attempts: 0,
            exit_code: None,
            signal: None,
            duration_secs: 0.0,
            peak_rss_kb: None,
            stdout_log: None,
            stderr_log: None,
            last_error: None,
        }
    }
}

/// One entry of the transition event log.
#[derive(Debug, Clone, PartialEq)]
pub struct TransitionEvent {
    /// Job id.
    pub job: String,
    /// Attempt number the transition belongs to (1-based; 0 for
    /// attempt-independent transitions such as `skipped`).
    pub attempt: u32,
    /// The state entered — a [`JobStatus`] name, or `"retrying"` when a
    /// failed attempt was scheduled for another try.
    pub to: String,
}

/// The whole campaign state, as persisted in `campaign.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignManifest {
    /// Schema version ([`MANIFEST_VERSION`]).
    pub version: u64,
    /// Name of the plan that produced this manifest.
    pub plan_name: String,
    /// Per-job aggregate records.
    pub jobs: Vec<JobRecord>,
    /// Append-only transition log.
    pub events: Vec<TransitionEvent>,
}

impl CampaignManifest {
    /// An empty manifest for the named plan.
    pub fn new(plan_name: impl Into<String>) -> CampaignManifest {
        CampaignManifest {
            version: MANIFEST_VERSION,
            plan_name: plan_name.into(),
            jobs: Vec::new(),
            events: Vec::new(),
        }
    }

    /// The record for `id`, if present.
    pub fn job(&self, id: &str) -> Option<&JobRecord> {
        self.jobs.iter().find(|j| j.id == id)
    }

    /// Mutable access to the record for `id`, if present.
    pub fn job_mut(&mut self, id: &str) -> Option<&mut JobRecord> {
        self.jobs.iter_mut().find(|j| j.id == id)
    }

    /// Inserts or replaces the record with `record.id`.
    pub fn upsert(&mut self, record: JobRecord) {
        match self.job_mut(&record.id) {
            Some(existing) => *existing = record,
            None => self.jobs.push(record),
        }
    }

    /// Appends a transition event.
    pub fn push_event(&mut self, job: &str, attempt: u32, to: &str) {
        self.events.push(TransitionEvent {
            job: job.to_string(),
            attempt,
            to: to.to_string(),
        });
    }

    /// Serializes to the versioned JSON manifest format.
    pub fn to_json(&self) -> String {
        let jobs = Json::Array(
            self.jobs
                .iter()
                .map(|j| {
                    Json::Object(vec![
                        ("id".to_string(), Json::Str(j.id.clone())),
                        ("config_hash".to_string(), Json::Int(j.config_hash)),
                        ("status".to_string(), Json::Str(j.status.as_str().into())),
                        ("attempts".to_string(), Json::Int(u64::from(j.attempts))),
                        ("exit_code".to_string(), j.exit_code.into()),
                        ("signal".to_string(), j.signal.into()),
                        ("duration_secs".to_string(), Json::Float(j.duration_secs)),
                        ("peak_rss_kb".to_string(), j.peak_rss_kb.into()),
                        ("stdout_log".to_string(), j.stdout_log.as_deref().into()),
                        ("stderr_log".to_string(), j.stderr_log.as_deref().into()),
                        ("last_error".to_string(), j.last_error.as_deref().into()),
                    ])
                })
                .collect(),
        );
        let events = Json::Array(
            self.events
                .iter()
                .map(|e| {
                    Json::Object(vec![
                        ("job".to_string(), Json::Str(e.job.clone())),
                        ("attempt".to_string(), Json::Int(u64::from(e.attempt))),
                        ("to".to_string(), Json::Str(e.to.clone())),
                    ])
                })
                .collect(),
        );
        Json::Object(vec![
            ("version".to_string(), Json::Int(self.version)),
            ("plan_name".to_string(), Json::Str(self.plan_name.clone())),
            ("jobs".to_string(), jobs),
            ("events".to_string(), events),
        ])
        .to_text()
    }

    /// Parses the JSON manifest format, validating the version tag.
    ///
    /// # Errors
    ///
    /// Returns [`HarnessError::ManifestFormat`] (with an empty path —
    /// [`load`](Self::load) fills it in) on malformed text or an
    /// unsupported version.
    pub fn from_json(text: &str) -> Result<CampaignManifest> {
        parse_manifest(text).map_err(|message| HarnessError::ManifestFormat {
            kind: MANIFEST_KIND,
            path: PathBuf::new(),
            message,
        })
    }

    /// Atomically writes the manifest inside a checksummed envelope
    /// (serialize to `<path>.tmp`, sync, rename over `path`), keeping the
    /// previous generation as `<path>.1`. A crash at any point leaves a
    /// complete manifest in place, and even a torn write that the
    /// filesystem fails to report leaves `<path>.1` for
    /// [`load`](Self::load) to fall back to.
    ///
    /// # Errors
    ///
    /// Returns [`HarnessError::Io`] on any filesystem failure.
    pub fn save(&self, path: &Path) -> Result<()> {
        crate::persist::save_sealed(path, &self.to_json()).map_err(|e| HarnessError::Io {
            path: path.to_path_buf(),
            message: format!("save manifest: {e}"),
        })
    }

    /// Loads and parses the newest checksum-valid generation of a
    /// manifest. A corrupt `path` is quarantined as `<path>.corrupt`
    /// (with a warning on stderr) and `<path>.1` is read instead, so a
    /// torn manifest degrades a resume by at most one save instead of
    /// aborting it. Pre-envelope manifests load unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`HarnessError::Io`] if no generation can be read and
    /// [`HarnessError::ManifestFormat`] if the surviving content is
    /// invalid (checksum failure on every generation, bad version, parse
    /// error).
    pub fn load(path: &Path) -> Result<CampaignManifest> {
        crate::persist::load_document(path, MANIFEST_KIND, parse_manifest)
    }
}

fn parse_manifest(text: &str) -> std::result::Result<CampaignManifest, String> {
    let root = Json::parse(text)?;
    let version = root.u64_field("version")?;
    if version != MANIFEST_VERSION {
        return Err(format!(
            "unsupported manifest version {version} (this build reads version {MANIFEST_VERSION})"
        ));
    }
    Ok(CampaignManifest {
        version,
        plan_name: root.str_field("plan_name")?.to_string(),
        jobs: root.items_field("jobs", parse_job)?,
        events: root.items_field("events", |e| {
            Ok(TransitionEvent {
                job: e.str_field("job")?.to_string(),
                attempt: e.u32_field("attempt")?,
                to: e.str_field("to")?.to_string(),
            })
        })?,
    })
}

fn parse_job(j: &Json) -> std::result::Result<JobRecord, String> {
    let status = j.str_field("status")?;
    Ok(JobRecord {
        id: j.str_field("id")?.to_string(),
        config_hash: j.u64_field("config_hash")?,
        status: JobStatus::parse(status).ok_or_else(|| format!("unknown status {status:?}"))?,
        attempts: j.u32_field("attempts")?,
        exit_code: j.opt_field("exit_code")?,
        signal: j.opt_field("signal")?,
        duration_secs: j.f64_field("duration_secs")?,
        peak_rss_kb: j.opt_field("peak_rss_kb")?,
        stdout_log: j.opt_field("stdout_log")?,
        stderr_log: j.opt_field("stderr_log")?,
        last_error: j.opt_field("last_error")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CampaignManifest {
        let mut m = CampaignManifest::new("paper");
        let mut a = JobRecord::new("table2_cln_sat", 0xdead_beef);
        a.status = JobStatus::Succeeded;
        a.attempts = 1;
        a.exit_code = Some(0);
        a.duration_secs = 12.5;
        a.peak_rss_kb = Some(40_960);
        a.stdout_log = Some("logs/table2_cln_sat.attempt1.stdout.log".to_string());
        a.stderr_log = Some("logs/table2_cln_sat.attempt1.stderr.log".to_string());
        m.upsert(a);
        let mut b = JobRecord::new("hangy", 7);
        b.status = JobStatus::TimedOut;
        b.attempts = 2;
        b.signal = Some(9);
        b.duration_secs = 4.0;
        b.last_error = Some("wall-clock budget exceeded".to_string());
        m.upsert(b);
        m.push_event("table2_cln_sat", 1, "running");
        m.push_event("table2_cln_sat", 1, "succeeded");
        m.push_event("hangy", 1, "retrying");
        m.push_event("hangy", 2, "timed_out");
        m
    }

    #[test]
    fn manifest_round_trips() {
        let m = sample();
        let back = CampaignManifest::from_json(&m.to_json()).expect("round trip");
        assert_eq!(back, m);
    }

    #[test]
    fn status_names_are_stable() {
        for s in [
            JobStatus::Pending,
            JobStatus::Running,
            JobStatus::Succeeded,
            JobStatus::Failed,
            JobStatus::TimedOut,
            JobStatus::Skipped,
        ] {
            assert_eq!(JobStatus::parse(s.as_str()), Some(s));
        }
        assert_eq!(JobStatus::parse("exploded"), None);
        // The CI smoke grep relies on this exact spelling.
        assert_eq!(JobStatus::TimedOut.as_str(), "timed_out");
    }

    #[test]
    fn negative_exit_codes_survive() {
        let mut m = CampaignManifest::new("p");
        let mut r = JobRecord::new("x", 1);
        r.exit_code = Some(-1);
        m.upsert(r);
        let back = CampaignManifest::from_json(&m.to_json()).expect("round trip");
        assert_eq!(back.job("x").expect("present").exit_code, Some(-1));
    }

    #[test]
    fn save_load_is_atomic() {
        let dir = std::env::temp_dir().join(format!("fulllock-manifest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("campaign.json");
        let m = sample();
        m.save(&path).expect("save");
        assert!(!dir.join("campaign.json.tmp").exists());
        assert_eq!(CampaignManifest::load(&path).expect("load"), m);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn version_mismatch_and_garbage_are_rejected() {
        let text = sample()
            .to_json()
            .replace("\"version\":1", "\"version\":42");
        assert!(CampaignManifest::from_json(&text).is_err());
        for bad in ["", "{}", "nonsense", "{\"version\":1}"] {
            assert!(CampaignManifest::from_json(bad).is_err(), "{bad:?}");
        }
    }
}
