//! Supervised experiment campaign runner.
//!
//! The paper's evaluation is a multi-hour sweep over thirteen experiment
//! binaries and long oracle-guided attacks — exactly the kind of batch
//! where one crashed or hung child used to abort the whole run and
//! discard every finished row. This crate lifts the fault tolerance that
//! `fulllock-attacks` gives a *single* attack (checkpoint/resume,
//! panic-isolated workers) one level up, to the whole campaign:
//!
//! * a [`plan::CampaignPlan`] declares the jobs — arbitrary commands, or
//!   the built-in paper sweep ([`plan::CampaignPlan::builtin_paper`]);
//! * the [`supervisor`] runs each job as an **isolated child process**
//!   with a per-job wall-clock timeout (SIGTERM, then SIGKILL after a
//!   grace period), bounded parallelism, and bounded retries with
//!   exponential backoff for transient failures;
//! * every state transition is recorded in a versioned, atomically
//!   written [`manifest::CampaignManifest`] (`campaign.json`), so a
//!   killed supervisor resumes with `--resume` and re-runs only the jobs
//!   that did not already succeed;
//! * per-job stdout/stderr are captured to files, and the manifest
//!   aggregates exit status, attempts, duration, and peak RSS.
//!
//! A failed job is **recorded, not fatal**: the campaign degrades
//! gracefully and reports a partial-success outcome.
//!
//! The [`service`] module lifts the same machinery into a long-running
//! daemon (`fulllock serve`): jobs arrive over a socket instead of a
//! plan file, land in a crash-safe sharded queue, and are billed to
//! per-tenant quotas. Campaign slots and serve workers supervise their
//! children through one runner (spawn, peak-RSS sampling, deadline →
//! SIGTERM → grace → SIGKILL) and one [`retry::RetryPolicy`].
//!
//! # Example
//!
//! ```no_run
//! use fulllock_harness::plan::{CampaignPlan, JobSpec};
//! use fulllock_harness::supervisor::{run_campaign, SupervisorConfig};
//!
//! let plan = CampaignPlan::new("demo")
//!     .job(JobSpec::new("hello", "/bin/echo").arg("hi"))
//!     .job(JobSpec::new("slow", "/bin/sleep").arg("60"));
//! let mut config = SupervisorConfig::default();
//! config.default_timeout = std::time::Duration::from_secs(2);
//! let outcome = run_campaign(&plan, &config).unwrap();
//! println!("{}: {}/{} succeeded", outcome.status_word(),
//!          outcome.succeeded, outcome.total);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

mod child;
pub mod error;
pub mod json;
pub mod manifest;
pub mod persist;
pub mod plan;
pub mod retry;
pub mod service;
pub mod supervisor;
pub mod sweep;

pub use error::HarnessError;
pub use manifest::{CampaignManifest, JobRecord, JobStatus, MANIFEST_VERSION};
pub use plan::{
    ambient_fingerprint, current_ambient_fingerprint, CampaignPlan, JobSpec, PAPER_BINS,
    PLAN_VERSION,
};
pub use retry::RetryPolicy;
pub use supervisor::{run_campaign, CampaignOutcome, SupervisorConfig};
pub use sweep::{run_sweep, SweepConfig, SweepGrid, SweepOutcome, SweepPlan};

/// Failpoint site evaluated by the `campaign_chaos_child` helper binary:
/// arm it through `FULLLOCK_FAILPOINTS` in a job's environment to get a
/// child that panics, hangs, or exits non-zero on demand (chaos tests).
pub const CHAOS_CHILD_SITE: &str = "campaign.child.run";

/// Crate-wide result alias.
pub type Result<T, E = HarnessError> = std::result::Result<T, E>;
