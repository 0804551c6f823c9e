//! Campaign plans: the declared set of jobs a supervisor runs.
//!
//! A plan is either built programmatically ([`CampaignPlan::new`] +
//! [`CampaignPlan::job`]), loaded from a versioned JSON file
//! ([`CampaignPlan::load`]), or generated from the built-in paper sweep
//! ([`CampaignPlan::builtin_paper`] — one job per experiment binary in
//! [`PAPER_BINS`]).
//!
//! Every job carries a stable identity (`id`) and a *config hash* over
//! everything that affects its execution; the manifest keys resume
//! decisions on both, so editing a job's command line invalidates its
//! previous `succeeded` entry and re-runs it.

use std::path::{Path, PathBuf};

use crate::json::{Fnv, Json};
use crate::{HarnessError, Result};

/// Version tag written into every plan file; loading any other version
/// fails rather than guessing.
pub const PLAN_VERSION: u64 = 1;

/// The experiment binaries of the paper sweep, in presentation order
/// (the registry `scripts/run_all_experiments.sh` used to hand-maintain).
/// `crates/bench/tests/bins_smoke.rs` guards this list against drift from
/// the bench crate's actual `src/bin/` contents.
pub const PAPER_BINS: [&str; 13] = [
    "fig1_dpll_hardness",
    "table1_tseytin",
    "topology_report",
    "table2_cln_sat",
    "table3_cln_ppa",
    "fig5_stt_lut",
    "fig6_insertion_example",
    "table4_fulllock_cycsat",
    "table5_plr_sizing",
    "fig7_clause_var_ratio",
    "removal_study",
    "appsat_study",
    "ablation_study",
];

/// One job of a campaign: a child process to run under supervision.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Stable identity; used as the manifest key and in log file names.
    /// Restricted to `[A-Za-z0-9._-]`, non-empty, no leading dot.
    pub id: String,
    /// Program to execute (absolute, or resolved via `PATH`).
    pub program: String,
    /// Command-line arguments.
    pub args: Vec<String>,
    /// Extra environment variables (on top of the supervisor's own).
    pub env: Vec<(String, String)>,
    /// Per-job wall-clock budget override (seconds); the supervisor's
    /// default applies when `None`.
    pub timeout_secs: Option<f64>,
    /// Per-job attempt budget override; the supervisor's retry policy
    /// default applies when `None`.
    pub max_attempts: Option<u32>,
}

impl JobSpec {
    /// A job with the given identity and program, no arguments.
    pub fn new(id: impl Into<String>, program: impl Into<String>) -> JobSpec {
        JobSpec {
            id: id.into(),
            program: program.into(),
            args: Vec::new(),
            env: Vec::new(),
            timeout_secs: None,
            max_attempts: None,
        }
    }

    /// Appends a command-line argument.
    pub fn arg(mut self, arg: impl Into<String>) -> JobSpec {
        self.args.push(arg.into());
        self
    }

    /// Adds an environment variable for the child.
    pub fn env(mut self, key: impl Into<String>, value: impl Into<String>) -> JobSpec {
        self.env.push((key.into(), value.into()));
        self
    }

    /// Sets the per-job timeout (seconds).
    pub fn timeout_secs(mut self, secs: f64) -> JobSpec {
        self.timeout_secs = Some(secs);
        self
    }

    /// Sets the per-job attempt budget.
    pub fn max_attempts(mut self, attempts: u32) -> JobSpec {
        self.max_attempts = Some(attempts);
        self
    }

    /// [`config_hash`](JobSpec::config_hash) combined with the ambient
    /// `FULLLOCK_*` fingerprint the supervisor runs under (see
    /// [`ambient_fingerprint`]). This is the hash the supervisor actually
    /// keys resume decisions on: flipping `FULLLOCK_CERTIFY` (or any
    /// other ambient knob the children inherit) between runs changes the
    /// effective configuration of *every* job, so previously `succeeded`
    /// entries must re-run instead of being silently skipped as
    /// "unchanged".
    pub fn config_hash_with(&self, ambient: u64) -> u64 {
        let mut h = Fnv::new();
        h.bytes(&self.config_hash().to_le_bytes());
        h.bytes(&ambient.to_le_bytes());
        h.finish()
    }

    /// FNV-1a hash over everything that affects execution (program,
    /// args, env, timeout, attempt budget). A manifest entry only counts
    /// as "already succeeded" on resume if this hash still matches.
    pub fn config_hash(&self) -> u64 {
        let mut h = Fnv::new();
        h.str(&self.id);
        h.str(&self.program);
        for a in &self.args {
            h.str(a);
        }
        for (k, v) in &self.env {
            h.str(k);
            h.str(v);
        }
        match self.timeout_secs {
            Some(s) => h.bytes(&s.to_bits().to_le_bytes()),
            None => h.bytes(&[0xff]),
        }
        match self.max_attempts {
            Some(n) => h.bytes(&u64::from(n).to_le_bytes()),
            None => h.bytes(&[0xfe]),
        }
        h.finish()
    }

    /// The spec as a JSON object: `id` first when `with_id`, then
    /// program, args, env and whichever overrides are set. Plan files and
    /// `submit` lines carry the id inside the spec; queue shards keep it
    /// beside the spec, on the job record.
    pub(crate) fn to_json(&self, with_id: bool) -> Json {
        let mut members = Vec::with_capacity(6);
        if with_id {
            members.push(("id".to_string(), Json::Str(self.id.clone())));
        }
        members.push(("program".to_string(), Json::Str(self.program.clone())));
        members.push((
            "args".to_string(),
            Json::Array(self.args.iter().cloned().map(Json::Str).collect()),
        ));
        members.push((
            "env".to_string(),
            Json::Object(
                self.env
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                    .collect(),
            ),
        ));
        if let Some(t) = self.timeout_secs {
            members.push(("timeout_secs".to_string(), Json::Float(t)));
        }
        if let Some(n) = self.max_attempts {
            members.push(("max_attempts".to_string(), Json::Int(u64::from(n))));
        }
        Json::Object(members)
    }

    /// Inverse of [`to_json`](Self::to_json). The id is `id` when given,
    /// the object's `"id"` member otherwise; `args` and `env` may be
    /// absent.
    pub(crate) fn from_json(json: &Json, id: Option<&str>) -> std::result::Result<JobSpec, String> {
        let id = match id {
            Some(id) => id,
            None => json.str_field("id")?,
        };
        Ok(JobSpec {
            id: id.to_string(),
            program: json.str_field("program")?.to_string(),
            args: json.late_field("args", Vec::new())?,
            env: json.late_field("env", Vec::new())?,
            timeout_secs: json.late_field("timeout_secs", None)?,
            max_attempts: json.late_field("max_attempts", None)?,
        })
    }

    fn validate(&self) -> std::result::Result<(), String> {
        if self.id.is_empty() {
            return Err("job id must be non-empty".to_string());
        }
        if self.id.starts_with('.') {
            return Err(format!("job id {:?} must not start with '.'", self.id));
        }
        if let Some(c) = self
            .id
            .chars()
            .find(|c| !c.is_ascii_alphanumeric() && !matches!(c, '.' | '_' | '-'))
        {
            return Err(format!(
                "job id {:?} contains {c:?}; allowed: [A-Za-z0-9._-]",
                self.id
            ));
        }
        if self.program.is_empty() {
            return Err(format!("job {:?} has an empty program", self.id));
        }
        if let Some(t) = self.timeout_secs {
            if !t.is_finite() || t <= 0.0 {
                return Err(format!("job {:?} has invalid timeout_secs {t}", self.id));
            }
        }
        if self.max_attempts == Some(0) {
            return Err(format!("job {:?} has max_attempts 0", self.id));
        }
        Ok(())
    }
}

/// Fingerprint of the effective `FULLLOCK_*` ambient configuration.
///
/// Children inherit the supervisor's environment, so ambient knobs like
/// `FULLLOCK_CERTIFY`, `FULLLOCK_INPROCESS`, or `FULLLOCK_FAILPOINTS`
/// are part of every job's effective configuration even though they
/// never appear in the plan file. The fingerprint hashes every
/// environment variable whose name starts with `FULLLOCK_`, sorted by
/// name so iteration order cannot matter. Variables a job sets in its
/// own [`JobSpec::env`] are *also* hashed there, so either kind of
/// drift invalidates a previous `succeeded` entry on resume.
pub fn ambient_fingerprint<I>(vars: I) -> u64
where
    I: IntoIterator<Item = (String, String)>,
{
    let mut relevant: Vec<(String, String)> = vars
        .into_iter()
        .filter(|(k, _)| k.starts_with("FULLLOCK_"))
        .collect();
    relevant.sort();
    let mut h = Fnv::new();
    h.bytes(&(relevant.len() as u64).to_le_bytes());
    for (k, v) in &relevant {
        h.str(k);
        h.str(v);
    }
    h.finish()
}

/// [`ambient_fingerprint`] over this process's actual environment.
pub fn current_ambient_fingerprint() -> u64 {
    ambient_fingerprint(std::env::vars())
}

/// A named, ordered set of [`JobSpec`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignPlan {
    /// Plan name, recorded in a new manifest. A resume keeps the name its
    /// manifest already has and matches jobs by id and config hash alone.
    pub name: String,
    /// The jobs, in scheduling order.
    pub jobs: Vec<JobSpec>,
}

impl CampaignPlan {
    /// An empty plan with the given name.
    pub fn new(name: impl Into<String>) -> CampaignPlan {
        CampaignPlan {
            name: name.into(),
            jobs: Vec::new(),
        }
    }

    /// Appends a job.
    pub fn job(mut self, job: JobSpec) -> CampaignPlan {
        self.jobs.push(job);
        self
    }

    /// The built-in paper sweep: one job per experiment binary
    /// ([`PAPER_BINS`]), resolved inside `bin_dir` (normally the
    /// directory holding the release binaries).
    pub fn builtin_paper(bin_dir: &Path) -> CampaignPlan {
        let mut plan = CampaignPlan::new("paper");
        for bin in PAPER_BINS {
            let program: PathBuf = bin_dir.join(bin);
            plan = plan.job(JobSpec::new(bin, program.to_string_lossy().into_owned()));
        }
        plan
    }

    /// Checks ids are unique and well-formed and every job is runnable.
    ///
    /// # Errors
    ///
    /// Returns [`HarnessError::PlanFormat`] naming the offending job.
    pub fn validate(&self) -> Result<()> {
        let complain = |message: String| {
            Err(HarnessError::PlanFormat {
                kind: "campaign plan",
                path: None,
                message,
            })
        };
        if self.jobs.is_empty() {
            return complain("plan has no jobs".to_string());
        }
        for (i, job) in self.jobs.iter().enumerate() {
            if let Err(message) = job.validate() {
                return complain(format!("job #{i}: {message}"));
            }
            if self.jobs[..i].iter().any(|other| other.id == job.id) {
                return complain(format!("duplicate job id {:?}", job.id));
            }
        }
        Ok(())
    }

    /// Serializes to the versioned JSON plan format.
    pub fn to_json(&self) -> String {
        let jobs = Json::Array(self.jobs.iter().map(|job| job.to_json(true)).collect());
        Json::Object(vec![
            ("version".to_string(), Json::Int(PLAN_VERSION)),
            ("name".to_string(), Json::Str(self.name.clone())),
            ("jobs".to_string(), jobs),
        ])
        .to_text()
    }

    /// Parses and validates the JSON plan format.
    ///
    /// # Errors
    ///
    /// Returns [`HarnessError::PlanFormat`] on malformed text, an
    /// unsupported version, or an invalid job set.
    pub fn from_json(text: &str) -> Result<CampaignPlan> {
        let plan = parse_plan(text).map_err(|message| HarnessError::PlanFormat {
            kind: "campaign plan",
            path: None,
            message,
        })?;
        plan.validate()?;
        Ok(plan)
    }

    /// Loads a plan file.
    ///
    /// # Errors
    ///
    /// [`HarnessError::Io`] if the file cannot be read,
    /// [`HarnessError::PlanFormat`] (with the path filled in) if its
    /// contents are invalid.
    pub fn load(path: &Path) -> Result<CampaignPlan> {
        let text = std::fs::read_to_string(path).map_err(|e| HarnessError::Io {
            path: path.to_path_buf(),
            message: format!("read: {e}"),
        })?;
        CampaignPlan::from_json(&text).map_err(|e| match e {
            HarnessError::PlanFormat { kind, message, .. } => HarnessError::PlanFormat {
                kind,
                path: Some(path.to_path_buf()),
                message,
            },
            other => other,
        })
    }
}

fn parse_plan(text: &str) -> std::result::Result<CampaignPlan, String> {
    let root = Json::parse(text)?;
    let version = root.u64_field("version")?;
    if version != PLAN_VERSION {
        return Err(format!(
            "unsupported plan version {version} (this build reads version {PLAN_VERSION})"
        ));
    }
    Ok(CampaignPlan {
        name: root.str_field("name")?.to_string(),
        jobs: root.items_field("jobs", |job| JobSpec::from_json(job, None))?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CampaignPlan {
        CampaignPlan::new("demo")
            .job(
                JobSpec::new("a", "/bin/echo")
                    .arg("hi")
                    .env("K", "v")
                    .timeout_secs(1.5)
                    .max_attempts(3),
            )
            .job(JobSpec::new("b", "/bin/true"))
    }

    #[test]
    fn plan_round_trips() {
        let plan = sample();
        let back = CampaignPlan::from_json(&plan.to_json()).expect("round trip");
        assert_eq!(back, plan);
    }

    #[test]
    fn config_hash_tracks_execution_relevant_fields() {
        let a = JobSpec::new("a", "/bin/echo").arg("hi");
        let mut b = a.clone();
        assert_eq!(a.config_hash(), b.config_hash());
        b.args[0] = "ho".to_string();
        assert_ne!(a.config_hash(), b.config_hash());
        let c = a.clone().timeout_secs(5.0);
        assert_ne!(a.config_hash(), c.config_hash());
        // Field boundaries don't alias.
        let d = JobSpec::new("a", "/bin/echo").arg("h").arg("i");
        assert_ne!(a.config_hash(), d.config_hash());
    }

    #[test]
    fn ambient_fingerprint_tracks_fulllock_vars_only() {
        let vars = |pairs: &[(&str, &str)]| {
            pairs
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect::<Vec<_>>()
        };
        let base = ambient_fingerprint(vars(&[("FULLLOCK_CERTIFY", "proof"), ("PATH", "/bin")]));
        // Unrelated environment noise does not matter.
        assert_eq!(
            base,
            ambient_fingerprint(vars(&[
                ("HOME", "/root"),
                ("FULLLOCK_CERTIFY", "proof"),
                ("TERM", "dumb"),
            ]))
        );
        // Order does not matter.
        assert_eq!(
            ambient_fingerprint(vars(&[("FULLLOCK_A", "1"), ("FULLLOCK_B", "2")])),
            ambient_fingerprint(vars(&[("FULLLOCK_B", "2"), ("FULLLOCK_A", "1")]))
        );
        // Value drift, new knobs, and removed knobs all matter.
        assert_ne!(
            base,
            ambient_fingerprint(vars(&[("FULLLOCK_CERTIFY", "model")]))
        );
        assert_ne!(
            base,
            ambient_fingerprint(vars(&[
                ("FULLLOCK_CERTIFY", "proof"),
                ("FULLLOCK_INPROCESS", "off"),
            ]))
        );
        assert_ne!(base, ambient_fingerprint(vars(&[])));
        // And the combined job hash tracks it.
        let job = JobSpec::new("a", "/bin/echo");
        assert_ne!(job.config_hash_with(base), job.config_hash_with(base ^ 1));
        assert_eq!(job.config_hash_with(base), job.config_hash_with(base));
    }

    #[test]
    fn validation_rejects_bad_plans() {
        assert!(CampaignPlan::new("empty").validate().is_err());
        let dup = CampaignPlan::new("dup")
            .job(JobSpec::new("x", "/bin/true"))
            .job(JobSpec::new("x", "/bin/false"));
        assert!(dup.validate().is_err());
        for bad_id in ["", ".hidden", "sl/ash", "sp ace"] {
            let plan = CampaignPlan::new("p").job(JobSpec::new(bad_id, "/bin/true"));
            assert!(plan.validate().is_err(), "{bad_id:?} must be rejected");
        }
        let bad_timeout =
            CampaignPlan::new("p").job(JobSpec::new("x", "/bin/true").timeout_secs(-1.0));
        assert!(bad_timeout.validate().is_err());
        let zero_attempts =
            CampaignPlan::new("p").job(JobSpec::new("x", "/bin/true").max_attempts(0));
        assert!(zero_attempts.validate().is_err());
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let text = sample().to_json().replace("\"version\":1", "\"version\":9");
        let err = CampaignPlan::from_json(&text).expect_err("must reject");
        assert!(err.to_string().contains("version 9"), "{err}");
    }

    /// The plan file, the `submit` line and the queue shard share one
    /// spec codec; these are their bytes from before it was shared.
    #[test]
    fn job_spec_codec_keeps_every_format_byte_for_byte() {
        use crate::service::protocol::{encode_request, parse_request, Request};
        use crate::service::ShardedQueue;

        let spec = JobSpec::new("j1", "/bin/sh")
            .arg("-c")
            .arg("echo \"hi\"")
            .env("K", "v")
            .timeout_secs(1.5)
            .max_attempts(3);
        let fields = r#""program":"/bin/sh","args":["-c","echo \"hi\""],"env":{"K":"v"},"timeout_secs":1.5,"max_attempts":3"#;

        let plan = CampaignPlan::new("pin").job(spec.clone());
        let plan_text = format!(r#"{{"version":1,"name":"pin","jobs":[{{"id":"j1",{fields}}}]}}"#);
        assert_eq!(plan.to_json(), plan_text);
        assert_eq!(
            CampaignPlan::from_json(&plan_text).expect("plan parses"),
            plan
        );

        let submit = Request::Submit {
            tenant: "acme".to_string(),
            job: spec.clone(),
        };
        let line = format!(r#"{{"verb":"submit","tenant":"acme","job":{{"id":"j1",{fields}}}}}"#);
        assert_eq!(encode_request(&submit), line);
        assert_eq!(parse_request(&line).expect("submit parses"), submit);

        let dir = std::env::temp_dir().join(format!("fulllock-spec-pin-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut queue = ShardedQueue::open(&dir, 1).expect("open queue");
        queue.submit("acme", spec.clone()).expect("submit");
        let shard = std::fs::read_to_string(dir.join("shard-00.json")).expect("read shard");
        assert_eq!(
            shard,
            format!(
                r#"{{"checksum":1111625821507315177,"payload":{{"version":1,"shard":0,"jobs":[{{"id":"j1","tenant":"acme","spec":{{{fields}}},"state":"pending","attempts":0,"seq":0,"completions":0,"last_error":null,"charged_conflicts":0,"charged_wall_secs":0.0,"interrupted":false}}]}}}}"#
            ) + "\n"
        );
        let reopened = ShardedQueue::open(&dir, 1).expect("reopen queue");
        assert_eq!(reopened.job("j1").expect("job survives").spec, spec);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn builtin_paper_covers_every_bench_binary() {
        let plan = CampaignPlan::builtin_paper(Path::new("/tmp/bins"));
        plan.validate().expect("builtin plan is valid");
        assert_eq!(plan.jobs.len(), PAPER_BINS.len());
        for (job, bin) in plan.jobs.iter().zip(PAPER_BINS) {
            assert_eq!(job.id, bin);
            assert!(job.program.ends_with(bin));
        }
    }
}
