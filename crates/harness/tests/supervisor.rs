//! Supervisor edge cases: timeouts with SIGKILL escalation, retry
//! bookkeeping, permanent vs. transient failures, and resume semantics
//! (including the manifest state a `kill -9` of the supervisor leaves
//! behind). Jobs are tiny `/bin/sh` scripts, so every test is
//! self-contained and fast.

#![cfg(unix)]

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use fulllock_harness::manifest::{CampaignManifest, JobStatus};
use fulllock_harness::plan::{CampaignPlan, JobSpec};
use fulllock_harness::retry::RetryPolicy;
use fulllock_harness::supervisor::{run_campaign, SupervisorConfig};

/// A fresh scratch directory under the target-adjacent temp dir.
fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("fulllock-supervisor-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn sh(id: &str, script: impl Into<String>) -> JobSpec {
    JobSpec::new(id, "/bin/sh").arg("-c").arg(script)
}

/// Fast-retry supervisor config writing into `dir`.
fn config(dir: &Path) -> SupervisorConfig {
    SupervisorConfig {
        out_dir: dir.to_path_buf(),
        default_timeout: Duration::from_secs(20),
        grace: Duration::from_millis(300),
        retry: RetryPolicy {
            max_attempts: 2,
            base_delay: Duration::from_millis(10),
            multiplier: 2.0,
            max_delay: Duration::from_millis(50),
        },
        ..SupervisorConfig::default()
    }
}

fn manifest(dir: &Path) -> CampaignManifest {
    CampaignManifest::load(&dir.join("campaign.json")).expect("manifest on disk")
}

#[test]
fn parallel_jobs_all_succeed_with_captured_output() {
    let dir = scratch("parallel");
    let plan = CampaignPlan::new("p")
        .job(sh("a", "echo out-a; echo err-a >&2"))
        .job(sh("b", "echo out-b"))
        .job(sh("c", "echo out-c"));
    let mut cfg = config(&dir);
    cfg.parallelism = 3;
    let outcome = run_campaign(&plan, &cfg).expect("campaign runs");
    assert_eq!(outcome.succeeded, 3);
    assert!(outcome.all_succeeded());
    assert_eq!(outcome.status_word(), "success");

    let m = manifest(&dir);
    for id in ["a", "b", "c"] {
        let rec = m.job(id).expect("record present");
        assert_eq!(rec.status, JobStatus::Succeeded);
        assert_eq!(rec.attempts, 1);
        assert_eq!(rec.exit_code, Some(0));
        let stdout = std::fs::read_to_string(
            dir.join(rec.stdout_log.as_ref().expect("stdout log recorded")),
        )
        .expect("stdout log readable");
        assert!(stdout.contains(&format!("out-{id}")), "{stdout}");
    }
    let stderr = std::fs::read_to_string(
        dir.join(m.job("a").unwrap().stderr_log.as_ref().expect("stderr log")),
    )
    .expect("stderr log readable");
    assert!(stderr.contains("err-a"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn failing_job_is_retried_then_recorded_and_campaign_continues() {
    let dir = scratch("failing");
    let plan = CampaignPlan::new("p")
        .job(sh("bad", "exit 7"))
        .job(sh("good", "echo fine"));
    let outcome = run_campaign(&plan, &config(&dir)).expect("campaign survives the bad job");
    assert_eq!(outcome.succeeded, 1);
    assert_eq!(outcome.failed, 1);
    assert_eq!(outcome.status_word(), "partial");

    let m = manifest(&dir);
    let bad = m.job("bad").expect("record");
    assert_eq!(bad.status, JobStatus::Failed);
    assert_eq!(bad.attempts, 2, "transient failure gets its retry");
    assert_eq!(bad.exit_code, Some(7));
    assert!(
        bad.last_error.as_deref().unwrap_or("").contains("status 7"),
        "{:?}",
        bad.last_error
    );
    assert!(
        m.events
            .iter()
            .any(|e| e.job == "bad" && e.to == "retrying"),
        "retry transition recorded: {:?}",
        m.events
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn flaky_job_succeeds_on_second_attempt() {
    let dir = scratch("flaky");
    let marker = dir.join("marker");
    let plan = CampaignPlan::new("p").job(sh(
        "flaky",
        format!(
            "if [ -f {m} ]; then exit 0; else touch {m}; exit 1; fi",
            m = marker.display()
        ),
    ));
    let outcome = run_campaign(&plan, &config(&dir)).expect("campaign runs");
    assert_eq!(outcome.succeeded, 1);
    let rec = manifest(&dir).job("flaky").cloned().expect("record");
    assert_eq!(rec.status, JobStatus::Succeeded);
    assert_eq!(rec.attempts, 2);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn hanging_job_is_timed_out_via_sigterm() {
    let dir = scratch("hang");
    let plan = CampaignPlan::new("p")
        .job(sh("hangy", "sleep 30").timeout_secs(0.3).max_attempts(1))
        // Exits 0 on SIGTERM: the deadline, not the clean exit, decides.
        .job(
            sh(
                "graceful",
                "trap 'exit 0' TERM; while :; do sleep 0.1; done",
            )
            .timeout_secs(0.3)
            .max_attempts(1),
        );
    let start = Instant::now();
    let outcome = run_campaign(&plan, &config(&dir)).expect("campaign runs");
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "timeout must not wait for the sleep: {:?}",
        start.elapsed()
    );
    assert_eq!(outcome.timed_out, 2);
    assert_eq!(outcome.status_word(), "failed");
    let m = manifest(&dir);
    let rec = m.job("hangy").expect("record");
    assert_eq!(rec.status, JobStatus::TimedOut);
    assert_eq!(rec.signal, Some(15), "plain sleep dies to SIGTERM");
    let graceful = m.job("graceful").expect("record");
    assert_eq!(
        graceful.status,
        JobStatus::TimedOut,
        "a clean exit after SIGTERM still missed the deadline"
    );
    assert_eq!(graceful.exit_code, Some(0));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sigterm_ignoring_job_is_escalated_to_sigkill() {
    let dir = scratch("sigkill");
    // The child traps (ignores) SIGTERM, so only the SIGKILL escalation
    // after the grace period can reclaim the slot.
    let plan = CampaignPlan::new("p").job(
        sh(
            "stubborn",
            "trap '' TERM; i=0; while [ $i -lt 600 ]; do sleep 0.1; i=$((i+1)); done",
        )
        .timeout_secs(0.3)
        .max_attempts(1),
    );
    let start = Instant::now();
    let outcome = run_campaign(&plan, &config(&dir)).expect("campaign runs");
    assert!(
        start.elapsed() < Duration::from_secs(15),
        "SIGKILL escalation must reclaim the job: {:?}",
        start.elapsed()
    );
    assert_eq!(outcome.timed_out, 1);
    let rec = manifest(&dir).job("stubborn").cloned().expect("record");
    assert_eq!(rec.status, JobStatus::TimedOut);
    assert_eq!(rec.signal, Some(9), "escalation ends in SIGKILL");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn spawn_failure_is_permanent_and_never_retried() {
    let dir = scratch("spawn");
    let plan = CampaignPlan::new("p")
        .job(JobSpec::new("ghost", "/nonexistent/fulllock-no-such-binary").max_attempts(5));
    let outcome = run_campaign(&plan, &config(&dir)).expect("campaign runs");
    assert_eq!(outcome.failed, 1);
    let m = manifest(&dir);
    let rec = m.job("ghost").expect("record");
    assert_eq!(rec.status, JobStatus::Failed);
    assert_eq!(rec.attempts, 1, "bad config is permanent, not retried");
    assert!(
        rec.last_error
            .as_deref()
            .unwrap_or("")
            .contains("spawn failed"),
        "{:?}",
        rec.last_error
    );
    assert!(!m.events.iter().any(|e| e.to == "retrying"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_skips_succeeded_jobs_without_reexecuting() {
    let dir = scratch("resume");
    let count_a = dir.join("count_a");
    let count_b = dir.join("count_b");
    let plan = CampaignPlan::new("p")
        .job(sh("a", format!("echo run >> {}", count_a.display())))
        .job(sh("b", format!("echo run >> {}", count_b.display())));
    let cfg = config(&dir);
    let first = run_campaign(&plan, &cfg).expect("first run");
    assert_eq!(first.succeeded, 2);

    let mut resume_cfg = cfg.clone();
    resume_cfg.resume = true;
    let second = run_campaign(&plan, &resume_cfg).expect("resume run");
    assert_eq!(second.skipped, 2);
    assert_eq!(second.succeeded, 0);
    assert!(second.all_succeeded());
    let lines = |p: &PathBuf| {
        std::fs::read_to_string(p)
            .map(|t| t.lines().count())
            .unwrap_or(0)
    };
    assert_eq!(lines(&count_a), 1, "job a executed exactly once");
    assert_eq!(lines(&count_b), 1, "job b executed exactly once");
    std::fs::remove_dir_all(&dir).ok();
}

/// A `kill -9` of the supervisor leaves `running`/`pending` records in
/// the manifest; `--resume` must re-run exactly those and leave the
/// succeeded ones alone.
#[test]
fn resume_reruns_interrupted_jobs_only() {
    let dir = scratch("interrupted");
    let count_a = dir.join("count_a");
    let count_b = dir.join("count_b");
    let plan = CampaignPlan::new("p")
        .job(sh("a", format!("echo run >> {}", count_a.display())))
        .job(sh("b", format!("echo run >> {}", count_b.display())));
    let cfg = config(&dir);
    run_campaign(&plan, &cfg).expect("first run");

    // Simulate the kill-9 aftermath: job "a" was mid-flight.
    let manifest_path = dir.join("campaign.json");
    let mut m = CampaignManifest::load(&manifest_path).expect("load");
    m.job_mut("a").expect("record").status = JobStatus::Running;
    m.save(&manifest_path).expect("rewrite");

    let mut resume_cfg = cfg.clone();
    resume_cfg.resume = true;
    let outcome = run_campaign(&plan, &resume_cfg).expect("resume");
    assert_eq!(outcome.succeeded, 1, "only the interrupted job re-ran");
    assert_eq!(outcome.skipped, 1);
    let lines = |p: &PathBuf| {
        std::fs::read_to_string(p)
            .map(|t| t.lines().count())
            .unwrap_or(0)
    };
    assert_eq!(lines(&count_a), 2, "interrupted job executed again");
    assert_eq!(lines(&count_b), 1, "succeeded job untouched");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn config_drift_invalidates_a_previous_success() {
    let dir = scratch("drift");
    let count = dir.join("count");
    let job = |arg: &str| sh("a", format!("echo {arg} >> {}", count.display()));
    let cfg = config(&dir);
    run_campaign(&CampaignPlan::new("p").job(job("v1")), &cfg).expect("first run");

    let mut resume_cfg = cfg.clone();
    resume_cfg.resume = true;
    let outcome = run_campaign(&CampaignPlan::new("p").job(job("v2")), &resume_cfg)
        .expect("resume with changed config");
    assert_eq!(outcome.skipped, 0, "changed config hash must re-run");
    assert_eq!(outcome.succeeded, 1);
    let text = std::fs::read_to_string(&count).expect("count file");
    assert_eq!(text.lines().count(), 2);
    assert!(text.contains("v2"));
    std::fs::remove_dir_all(&dir).ok();
}

/// A resumed plan that dropped a job counts only its own jobs: the
/// dropped job's failed record stays in the manifest but neither counts
/// nor fails the resumed campaign.
#[test]
fn resume_counts_only_the_plans_jobs() {
    let dir = scratch("resume-count");
    let cfg = config(&dir);
    let first = run_campaign(
        &CampaignPlan::new("p")
            .job(sh("a", "true"))
            .job(sh("bad", "exit 3")),
        &cfg,
    )
    .expect("first run");
    assert_eq!((first.succeeded, first.failed), (1, 1));

    let mut resume_cfg = cfg.clone();
    resume_cfg.resume = true;
    let outcome = run_campaign(&CampaignPlan::new("p").job(sh("a", "true")), &resume_cfg)
        .expect("resume with a smaller plan");
    assert_eq!(outcome.total, 1);
    assert_eq!(
        (
            outcome.succeeded,
            outcome.skipped,
            outcome.failed,
            outcome.timed_out
        ),
        (0, 1, 0, 0)
    );
    assert!(outcome.all_succeeded());
    assert_eq!(
        manifest(&dir).job("bad").map(|rec| rec.status),
        Some(JobStatus::Failed),
        "the dropped job's record is kept"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The ambient `FULLLOCK_*` fingerprint is part of every job's config
/// hash: a resume under a drifted environment must re-run the job, and
/// a resume under the same environment must skip it.
#[test]
fn ambient_env_drift_invalidates_resume() {
    let dir = scratch("ambient");
    let count = dir.join("count");
    let plan = CampaignPlan::new("p").job(sh("a", format!("echo run >> {}", count.display())));
    let mut cfg = config(&dir);
    cfg.ambient_hash = Some(1);
    run_campaign(&plan, &cfg).expect("first run");

    let mut same_env = cfg.clone();
    same_env.resume = true;
    let unchanged = run_campaign(&plan, &same_env).expect("resume, same env");
    assert_eq!(unchanged.skipped, 1, "same ambient fingerprint skips");

    let mut drifted = same_env.clone();
    drifted.ambient_hash = Some(2); // a FULLLOCK_* variable changed
    let outcome = run_campaign(&plan, &drifted).expect("resume, drifted env");
    assert_eq!(outcome.skipped, 0, "drifted ambient must invalidate");
    assert_eq!(outcome.succeeded, 1);
    let text = std::fs::read_to_string(&count).expect("count file");
    assert_eq!(text.lines().count(), 2, "job re-ran under the new env");
    std::fs::remove_dir_all(&dir).ok();
}

/// A job that exits almost immediately still gets a peak-RSS sample:
/// the supervisor samples `VmHWM` right at spawn and again before every
/// `try_wait`, so reaping the zombie can't erase the evidence.
#[test]
fn instant_job_still_records_peak_rss() {
    if !cfg!(target_os = "linux") {
        return;
    }
    let dir = scratch("rss-instant");
    let plan = CampaignPlan::new("p").job(sh("blink", ":"));
    run_campaign(&plan, &config(&dir)).expect("campaign runs");
    let rec = manifest(&dir).job("blink").cloned().expect("record");
    assert_eq!(rec.status, JobStatus::Succeeded);
    assert!(
        rec.peak_rss_kb.is_some_and(|kb| kb > 0),
        "spawn-time VmHWM sample missing: {:?}",
        rec.peak_rss_kb
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn peak_rss_is_recorded_on_linux() {
    if !cfg!(target_os = "linux") {
        return;
    }
    let dir = scratch("rss");
    // Long enough for at least one poll-loop RSS sample.
    let plan = CampaignPlan::new("p").job(sh("busy", "sleep 0.4"));
    run_campaign(&plan, &config(&dir)).expect("campaign runs");
    let rec = manifest(&dir).job("busy").cloned().expect("record");
    assert!(
        rec.peak_rss_kb.is_some_and(|kb| kb > 0),
        "VmHWM sampled: {:?}",
        rec.peak_rss_kb
    );
    std::fs::remove_dir_all(&dir).ok();
}
