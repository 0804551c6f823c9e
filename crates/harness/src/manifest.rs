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
        let opt_int = |v: Option<u64>| match v {
            Some(n) => Json::Int(n),
            None => Json::Null,
        };
        let opt_signed = |v: Option<i64>| match v {
            Some(n) if n >= 0 => Json::Int(n as u64),
            Some(n) => Json::Float(n as f64),
            None => Json::Null,
        };
        let opt_str = |v: &Option<String>| match v {
            Some(s) => Json::Str(s.clone()),
            None => Json::Null,
        };
        let jobs = Json::Array(
            self.jobs
                .iter()
                .map(|j| {
                    Json::Object(vec![
                        ("id".to_string(), Json::Str(j.id.clone())),
                        ("config_hash".to_string(), Json::Int(j.config_hash)),
                        ("status".to_string(), Json::Str(j.status.as_str().into())),
                        ("attempts".to_string(), Json::Int(u64::from(j.attempts))),
                        ("exit_code".to_string(), opt_signed(j.exit_code)),
                        ("signal".to_string(), opt_signed(j.signal)),
                        ("duration_secs".to_string(), Json::Float(j.duration_secs)),
                        ("peak_rss_kb".to_string(), opt_int(j.peak_rss_kb)),
                        ("stdout_log".to_string(), opt_str(&j.stdout_log)),
                        ("stderr_log".to_string(), opt_str(&j.stderr_log)),
                        ("last_error".to_string(), opt_str(&j.last_error)),
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
        let loaded = crate::persist::load_sealed(path).map_err(|e| {
            if e.kind() == std::io::ErrorKind::InvalidData {
                HarnessError::ManifestFormat {
                    path: path.to_path_buf(),
                    message: e.to_string(),
                }
            } else {
                HarnessError::Io {
                    path: path.to_path_buf(),
                    message: format!("read: {e}"),
                }
            }
        })?;
        if loaded.from_previous {
            eprintln!(
                "warning: manifest {} was corrupt{}; resumed from previous generation",
                path.display(),
                loaded
                    .quarantined
                    .as_deref()
                    .map(|q| format!(" (quarantined as {})", q.display()))
                    .unwrap_or_default(),
            );
        }
        CampaignManifest::from_json(&loaded.payload).map_err(|e| match e {
            HarnessError::ManifestFormat { message, .. } => HarnessError::ManifestFormat {
                path: path.to_path_buf(),
                message,
            },
            other => other,
        })
    }
}

fn parse_manifest(text: &str) -> std::result::Result<CampaignManifest, String> {
    let root = Json::parse(text)?;
    let version = root
        .get("version")
        .and_then(Json::as_u64)
        .ok_or("missing unsigned integer field \"version\"")?;
    if version != MANIFEST_VERSION {
        return Err(format!(
            "unsupported manifest version {version} (this build reads version {MANIFEST_VERSION})"
        ));
    }
    let plan_name = root
        .get("plan_name")
        .and_then(Json::as_str)
        .ok_or("missing string field \"plan_name\"")?
        .to_string();

    let jobs_json = root
        .get("jobs")
        .and_then(Json::as_array)
        .ok_or("missing array field \"jobs\"")?;
    let mut jobs = Vec::with_capacity(jobs_json.len());
    for (i, j) in jobs_json.iter().enumerate() {
        let opt_signed = |name: &str| -> std::result::Result<Option<i64>, String> {
            match j.get(name) {
                None | Some(Json::Null) => Ok(None),
                // Non-negative values are written as integers; keep them
                // exact instead of bouncing through f64.
                Some(Json::Int(n)) => i64::try_from(*n)
                    .map(Some)
                    .map_err(|_| format!("job #{i}: field {name:?} overflows i64")),
                Some(Json::Float(x)) => Ok(Some(*x as i64)),
                Some(_) => Err(format!("job #{i}: field {name:?} must be a number or null")),
            }
        };
        let opt_str = |name: &str| -> std::result::Result<Option<String>, String> {
            match j.get(name) {
                None | Some(Json::Null) => Ok(None),
                Some(Json::Str(s)) => Ok(Some(s.clone())),
                Some(_) => Err(format!("job #{i}: field {name:?} must be a string or null")),
            }
        };
        let status_name = j
            .get("status")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("job #{i}: missing string field \"status\""))?;
        let status = JobStatus::parse(status_name)
            .ok_or_else(|| format!("job #{i}: unknown status {status_name:?}"))?;
        jobs.push(JobRecord {
            id: j
                .get("id")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("job #{i}: missing string field \"id\""))?
                .to_string(),
            config_hash: j
                .get("config_hash")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("job #{i}: missing integer field \"config_hash\""))?,
            status,
            attempts: j
                .get("attempts")
                .and_then(Json::as_u64)
                .and_then(|n| u32::try_from(n).ok())
                .ok_or_else(|| format!("job #{i}: field \"attempts\" must fit u32"))?,
            exit_code: opt_signed("exit_code")?,
            signal: opt_signed("signal")?,
            duration_secs: j
                .get("duration_secs")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("job #{i}: missing number field \"duration_secs\""))?,
            peak_rss_kb: match j.get("peak_rss_kb") {
                None | Some(Json::Null) => None,
                Some(v) => Some(v.as_u64().ok_or_else(|| {
                    format!("job #{i}: field \"peak_rss_kb\" must be an unsigned integer or null")
                })?),
            },
            stdout_log: opt_str("stdout_log")?,
            stderr_log: opt_str("stderr_log")?,
            last_error: opt_str("last_error")?,
        });
    }

    let events_json = root
        .get("events")
        .and_then(Json::as_array)
        .ok_or("missing array field \"events\"")?;
    let mut events = Vec::with_capacity(events_json.len());
    for (i, e) in events_json.iter().enumerate() {
        let str_field = |name: &str| {
            e.get(name)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("event #{i}: missing string field {name:?}"))
        };
        events.push(TransitionEvent {
            job: str_field("job")?,
            attempt: e
                .get("attempt")
                .and_then(Json::as_u64)
                .and_then(|n| u32::try_from(n).ok())
                .ok_or_else(|| format!("event #{i}: field \"attempt\" must fit u32"))?,
            to: str_field("to")?,
        });
    }

    Ok(CampaignManifest {
        version,
        plan_name,
        jobs,
        events,
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
