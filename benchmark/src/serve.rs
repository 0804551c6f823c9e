//! The service workload: the real `fulllock serve` binary with one worker
//! slot, driven by two closed-loop clients through `service::Client`, so
//! one job always waits in the daemon's queue while the other runs.
//! Each job is one `fulllock attack` child process on one locked circuit
//! of the fixed pool (`pool::serve_pool`), in the seed-shuffled order of
//! `pool::serve_jobs`, parsing its `.bench` files, checkpointing after
//! every DIP and writing its wire report; the benchmark sees only what
//! the daemon and the job directories expose.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use fulllock_attacks::AttackReport;
use fulllock_harness::json::Json;
use fulllock_harness::plan::JobSpec;
use fulllock_harness::service::{Client, Endpoint, ServiceReply};
use fulllock_netlist::bench_io;
use fulllock_sat::cdcl::SolverStats;

use crate::attack::{fill_solver, judge, Attempt, Verdict};
use crate::host::Probe;
use crate::metrics::Values;
use crate::pool::{self, Instance};
use crate::stats::{describe_latency, median, peak_rss_mb, percentile, sorted, Outcome};
use crate::trace::Tracer;

/// Closed-loop clients.
const CLIENTS: usize = 2;
/// Worker slots of the daemon. With two, the two attack processes share
/// the host's two cores and slow each other by an amount that swings with
/// the other tenants' load: the summed attack time of one seed spread
/// 14 to 16% (IQR/median) over six runs, against 4.7% over ten runs of
/// two seeds with one slot.
const WORKERS: &str = "1";
/// How often the host is probed beside the jobs.
const PROBE_EVERY: Duration = Duration::from_millis(100);

/// The `fulllock` CLI, built next to the benchmark binary.
fn fulllock_binary() -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("locate benchmark binary: {e}"))?;
    let bin = me.with_file_name("fulllock");
    if bin.exists() {
        Ok(bin)
    } else {
        Err(format!(
            "{} not found: build it with `cargo build --release --bin fulllock` \
             into the benchmark's target directory",
            bin.display()
        ))
    }
}

/// Sends SIGTERM to a child process.
fn sigterm(pid: u32) -> Result<(), String> {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    const SIGTERM: i32 = 15;
    let pid = i32::try_from(pid).map_err(|_| format!("pid {pid} out of range"))?;
    // SAFETY: kill(2) takes two integers and reads no memory of this
    // process. `pid` belongs to a child this process spawned and has not
    // reaped, so it cannot name an unrelated process.
    if unsafe { kill(pid, SIGTERM) } == 0 {
        Ok(())
    } else {
        Err(format!(
            "SIGTERM {pid}: {}",
            std::io::Error::last_os_error()
        ))
    }
}

/// A running daemon; dropping it kills and reaps the process.
struct Daemon {
    child: Option<Child>,
    pid: u32,
}

impl Daemon {
    /// Starts `fulllock serve` with its socket and state under `dir` and
    /// waits until it answers. Returns the daemon, a client, and the
    /// seconds from spawn to first answer.
    fn start(bin: &Path, dir: &Path) -> Result<(Daemon, Client, f64), String> {
        let socket = dir.join("serve.sock");
        let log = std::fs::File::create(dir.join("daemon.log"))
            .map_err(|e| format!("daemon log: {e}"))?;
        let log_err = log.try_clone().map_err(|e| format!("daemon log: {e}"))?;
        let begin = Instant::now();
        let child = Command::new(bin)
            .arg("serve")
            .arg("--listen")
            .arg(format!("unix:{}", socket.display()))
            .arg("--state-dir")
            .arg(dir.join("state"))
            .args(["--workers", WORKERS, "--shards", "4"])
            .args(["--timeout-secs", "60", "--grace-secs", "2"])
            .stdin(Stdio::null())
            .stdout(log)
            .stderr(log_err)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut daemon = Daemon {
            pid: child.id(),
            child: Some(child),
        };
        let client = Client::new(Endpoint::Unix(socket));
        let deadline = begin + Duration::from_secs(15);
        while !client.is_up() {
            if let Some(Ok(Some(status))) = daemon.child.as_mut().map(Child::try_wait) {
                return Err(format!("daemon exited during start-up: {status}"));
            }
            if Instant::now() > deadline {
                return Err("daemon did not answer within 15 s".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Ok((daemon, client, begin.elapsed().as_secs_f64()))
    }

    /// SIGTERMs the daemon and waits for its drain to exit cleanly.
    fn stop(&mut self) -> Result<(), String> {
        let Some(mut child) = self.child.take() else {
            return Ok(());
        };
        sigterm(self.pid)?;
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match child
                .try_wait()
                .map_err(|e| format!("wait for daemon: {e}"))?
            {
                Some(status) if status.success() => return Ok(()),
                Some(status) => return Err(format!("daemon drain exited {status}")),
                None if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(10)),
                None => {
                    child.kill().ok();
                    child.wait().ok();
                    return Err("daemon did not drain within 30 s of SIGTERM".into());
                }
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            child.kill().ok();
            child.wait().ok();
        }
    }
}

/// One prepared set-up: the pool on disk and a daemon serving it.
struct Prepared {
    pool: Vec<Instance>,
    daemon: Daemon,
    client: Client,
    times: pool::BuildTimes,
    write_s: f64,
    start_s: f64,
}

fn prepare(bin: &Path, dir: &Path) -> Result<Prepared, String> {
    std::fs::create_dir_all(dir.join("bench"))
        .map_err(|e| format!("create {}: {e}", dir.display()))?;
    let (pool, times) = pool::serve_pool()?;
    let begin = Instant::now();
    for inst in &pool {
        for (suffix, netlist) in [("orig", &inst.original), ("locked", &inst.locked.netlist)] {
            let path = dir
                .join("bench")
                .join(format!("{}.{suffix}.bench", inst.id));
            std::fs::write(&path, bench_io::write(netlist))
                .map_err(|e| format!("write {}: {e}", path.display()))?;
        }
    }
    let write_s = begin.elapsed().as_secs_f64();
    let (daemon, client, start_s) = Daemon::start(bin, dir)?;
    Ok(Prepared {
        pool,
        daemon,
        client,
        times,
        write_s,
        start_s,
    })
}

/// The job `id` running the pinned attack on one locked circuit.
fn job_spec(bin: &Path, dir: &Path, id: &str, inst: &Instance) -> JobSpec {
    let bench = |suffix: &str| {
        dir.join("bench")
            .join(format!("{}.{suffix}.bench", inst.id))
            .display()
            .to_string()
    };
    let mut spec = JobSpec::new(id, bin.display().to_string())
        .arg("attack")
        .arg(bench("locked"))
        .arg("--oracle")
        .arg(bench("orig"));
    for arg in [
        "--timeout",
        "30",
        "--threads",
        "1",
        "--certify",
        "model",
        "--oracle-votes",
        "1",
        "--oracle-retries",
        "3",
        "--checkpoint",
        "{job_dir}/ck.json",
        "--json",
        "{job_dir}/report.json",
    ] {
        spec = spec.arg(arg);
    }
    spec.timeout_secs(60.0)
}

/// The service job id of the `index`-th job, on `inst`.
fn job_id(index: usize, inst: &Instance) -> String {
    format!("j{index:04}-{}", inst.id)
}

/// What one client observed of one job.
struct JobRun {
    /// Position in the job list.
    index: usize,
    submit_start: Instant,
    submit_end: Instant,
    done: Instant,
    /// `None` when the job reached `done`, else why not.
    problem: Option<String>,
    attempts: u64,
}

/// Runs `jobs` (indices into `pool`) through the daemon with `CLIENTS`
/// closed-loop clients; returns one run per job, in job order.
fn drive(
    client: &Client,
    bin: &Path,
    dir: &Path,
    pool: &[Instance],
    jobs: &[usize],
) -> Vec<JobRun> {
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let mut runs = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::SeqCst);
                        let Some(inst) = jobs.get(index).map(|&i| &pool[i]) else {
                            return runs;
                        };
                        let id = job_id(index, inst);
                        let submit_start = Instant::now();
                        let submitted = client.submit("bench", job_spec(bin, dir, &id, inst));
                        let submit_end = Instant::now();
                        let (problem, attempts) = match submitted {
                            Err(e) => (Some(format!("submit: {e}")), 0),
                            Ok(reply) if reply.error_code().is_some() => {
                                (Some(format!("submit refused: {reply:?}")), 0)
                            }
                            Ok(_) => match client.wait(&id, Duration::from_secs(120)) {
                                Err(e) => (Some(format!("wait: {e}")), 0),
                                Ok(reply) => job_end(&reply),
                            },
                        };
                        runs.push(JobRun {
                            index,
                            submit_start,
                            submit_end,
                            done: Instant::now(),
                            problem,
                            attempts,
                        });
                    }
                })
            })
            .collect();
        let mut runs: Vec<JobRun> = workers
            .into_iter()
            .flat_map(|w| w.join().expect("client thread panicked"))
            .collect();
        runs.sort_by_key(|r| r.index);
        runs
    })
}

fn job_end(reply: &ServiceReply) -> (Option<String>, u64) {
    let ServiceReply::Ok(json) = reply else {
        return (Some(format!("status: {reply:?}")), 0);
    };
    let job = json.get("job");
    let attempts = job
        .and_then(|j| j.get("attempts"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    match job.and_then(|j| j.get("state")).and_then(Json::as_str) {
        Some("done") => (None, attempts),
        other => (Some(format!("job ended {other:?}")), attempts),
    }
}

/// What the job directory says about one finished job.
struct JobReport {
    /// The attack as the job's wire report tells it; `wall_s` is the
    /// child's reported attack time.
    attempt: Attempt,
    solver: SolverStats,
    checkpoints: u64,
    checkpoint_bytes: u64,
    proven: bool,
}

impl JobReport {
    fn failed(why: String) -> JobReport {
        JobReport {
            attempt: Attempt {
                wall_s: 0.0,
                dips: 0,
                queries: 0,
                verdict: Verdict::Failed(why),
            },
            solver: SolverStats::default(),
            checkpoints: 0,
            checkpoint_bytes: 0,
            proven: false,
        }
    }
}

fn read_report(dir: &Path, id: &str) -> JobReport {
    let job_dir = dir.join("state").join("jobs").join(id);
    let report = match std::fs::read_to_string(job_dir.join("report.json")) {
        Ok(text) => AttackReport::from_json(&text).map_err(|e| e.to_string()),
        Err(e) => Err(e.to_string()),
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => return JobReport::failed(format!("report.json: {e}")),
    };
    JobReport {
        attempt: Attempt {
            wall_s: report.elapsed.as_secs_f64(),
            dips: report.iterations,
            queries: report.oracle_queries,
            verdict: judge(&report.outcome, report.key_certificate.as_ref()),
        },
        solver: report.solver,
        checkpoints: report.resilience.checkpoints_written,
        checkpoint_bytes: std::fs::metadata(job_dir.join("ck.json")).map_or(0, |m| m.len()),
        proven: report
            .key_certificate
            .as_ref()
            .is_some_and(|c| c.is_proven()),
    }
}

/// Checks the daemon's own account after the run: every job completed
/// once, nothing shed, persistence healthy. Returns the persistence
/// failure and shed counters.
fn check_health(client: &Client, jobs: usize) -> Result<(u64, u64), String> {
    let reply = client.health().map_err(|e| format!("health: {e}"))?;
    let ServiceReply::Ok(json) = reply else {
        return Err(format!("health refused: {reply:?}"));
    };
    let health = json
        .get("health")
        .ok_or("health reply without \"health\"")?;
    let int = |section: &str, field: &str| {
        health
            .get(section)
            .and_then(|s| s.get(field))
            .and_then(Json::as_u64)
            .ok_or(format!("health reply without {section}.{field}"))
    };
    let completed = int("counters", "completed")?;
    let shed = int("counters", "shed")?;
    let failures = int("persist", "failures")?;
    let healthy = health
        .get("persist")
        .and_then(|p| p.get("healthy"))
        .and_then(Json::as_bool);
    if completed != jobs as u64 || shed != 0 || healthy != Some(true) {
        return Err(format!(
            "daemon health: completed {completed} of {jobs}, shed {shed}, persist healthy {healthy:?}"
        ));
    }
    Ok((failures, shed))
}

/// Runs the service workload: `count` jobs, in the order `seed` shuffles,
/// with the daemon's socket and state and the pool's files under `work`.
///
/// # Errors
///
/// A set-up step that fails (missing `fulllock` binary, daemon that does
/// not start, unwritable work directory).
pub fn run(seed: u64, count: usize, trace: Option<&Path>, work: &Path) -> Result<Outcome, String> {
    let bin = fulllock_binary()?;
    let tracer = Tracer::new();
    let mut setups = Vec::new();
    let mut starts = Vec::new();
    // Half the set-ups before the measurement (the last one serves it),
    // half after it, each in a fresh directory.
    let mut set_up = |rep: usize| -> Result<(PathBuf, Prepared), String> {
        let dir = work.join(format!("rep{rep}"));
        let begin = Instant::now();
        let prepared = prepare(&bin, &dir)?;
        setups.push(begin.elapsed().as_secs_f64());
        starts.push(prepared.start_s);
        Ok((dir, prepared))
    };
    let discard = |(dir, mut prepared): (PathBuf, Prepared)| -> Result<(), String> {
        prepared.daemon.stop()?;
        std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))
    };
    let half = crate::SETUP_REPS / 2;
    for rep in 0..half - 1 {
        discard(set_up(rep)?)?;
    }
    let (dir, mut prepared) = set_up(half - 1)?;

    // The host is probed beside the jobs, on the core the one running
    // attack leaves free: its speed while they run is what they get.
    // Probes taken before and after the jobs tracked them worse than no
    // scaling at all.
    let jobs = pool::serve_jobs(seed, count);
    let done = AtomicBool::new(false);
    let (runs, probe) = std::thread::scope(|scope| {
        let prober = scope.spawn(|| {
            let mut probe = Probe::new();
            while !done.load(Ordering::SeqCst) {
                probe.sample(1);
                std::thread::sleep(PROBE_EVERY);
            }
            probe
        });
        let runs = drive(&prepared.client, &bin, &dir, &prepared.pool, &jobs);
        done.store(true, Ordering::SeqCst);
        (runs, prober.join().expect("probe thread panicked"))
    });
    let health = check_health(&prepared.client, jobs.len());
    let daemon_rss_mb = peak_rss_mb(&prepared.daemon.pid.to_string()).unwrap_or(0.0);
    let drained = prepared.daemon.stop();
    for rep in half..crate::SETUP_REPS {
        discard(set_up(rep)?)?;
    }

    let job_pool = |run: &JobRun| &prepared.pool[jobs[run.index]];
    let reports: Vec<JobReport> = runs
        .iter()
        .map(|run| match &run.problem {
            Some(why) => JobReport::failed(why.clone()),
            None => read_report(&dir, &job_id(run.index, job_pool(run))),
        })
        .collect();
    let (failed, mut wrong) = crate::tally(
        runs.iter()
            .map(job_pool)
            .zip(reports.iter().map(|r| &r.attempt)),
    );
    let (persist_failures, shed) = health.unwrap_or_else(|e| {
        wrong.push(e);
        (0, 0)
    });
    wrong.extend(drained.err());

    let latency = |run: &JobRun| run.done.duration_since(run.submit_start).as_secs_f64();
    let latencies = sorted(&runs.iter().map(latency).collect::<Vec<_>>());
    let first = runs.iter().map(|r| r.submit_start).min();
    let last = runs.iter().map(|r| r.done).max();
    let makespan_s = match (first, last) {
        (Some(a), Some(b)) => b.duration_since(a).as_secs_f64(),
        _ => 0.0,
    };
    let n = runs.len().max(1) as f64;
    let sum = |f: fn(&JobReport) -> f64| reports.iter().map(f).sum::<f64>();
    let break_s = sum(|r| r.attempt.wall_s);
    let dips = sum(|r| r.attempt.dips as f64);
    eprintln!(
        "serve_attacks: makespan {makespan_s:.3} s; job latency {}",
        describe_latency(&latencies)
    );

    let mut values = Values::default();
    if let Some(path) = trace {
        for run in &runs {
            tracer.set_instance(run.index as u32);
            let job = tracer.record("service.job", run.submit_start, run.done, None);
            tracer.record(
                "service.submit",
                run.submit_start,
                run.submit_end,
                Some(job),
            );
        }
        tracer
            .write_ndjson(path)
            .map_err(|e| format!("write trace {}: {e}", path.display()))?;
        let mut solver = SolverStats::default();
        for r in &reports {
            solver.merge(&r.solver);
        }
        fill_solver(&solver, &mut values);
        let submits = sorted(&tracer.durations_s("service.submit"));
        let attacks = sorted(&reports.iter().map(|r| r.attempt.wall_s).collect::<Vec<_>>());
        let overheads = sorted(
            &runs
                .iter()
                .zip(&reports)
                .map(|(run, r)| latency(run) - r.attempt.wall_s)
                .collect::<Vec<_>>(),
        );
        values.set("service.daemon_start_s", median(&starts));
        values.set("service.submit_p50_s", percentile(&submits, 50.0));
        values.set("service.submit_p95_s", percentile(&submits, 95.0));
        values.set("service.attack_p50_s", percentile(&attacks, 50.0));
        values.set("service.overhead_p50_s", percentile(&overheads, 50.0));
        values.set("service.overhead_p95_s", percentile(&overheads, 95.0));
        values.set(
            "service.attempts_per_job",
            runs.iter().map(|r| r.attempts as f64).sum::<f64>() / n,
        );
        values.set("service.shed", shed as f64);
        values.set("service.persist_failures", persist_failures as f64);
        values.set(
            "service.checkpoints_per_job",
            sum(|r| r.checkpoints as f64) / n,
        );
        values.set("checkpoint.bytes", sum(|r| r.checkpoint_bytes as f64) / n);
        values.set("certificate.proven", sum(|r| f64::from(u8::from(r.proven))));
        values.set("oracle.queries", sum(|r| r.attempt.queries as f64));
        values.set("netlist.bench_write_s", prepared.write_s);
        crate::fill_build(&mut values, &prepared.pool, prepared.times);
    } else {
        values.set("setup_s", median(&setups));
        values.set("break_s", break_s);
        values.set("secs_per_dip", break_s / dips.max(1.0));
        values.set("dip_iterations", dips);
        values.set("oracle_queries", sum(|r| r.attempt.queries as f64));
        values.set("jobs_per_min", 60.0 * n / makespan_s.max(f64::MIN_POSITIVE));
        values.set("job_latency_p50_s", percentile(&latencies, 50.0));
        values.set("job_latency_p95_s", percentile(&latencies, 95.0));
        values.set("peak_rss_mb", daemon_rss_mb);
    }
    for w in &wrong {
        eprintln!("serve_attacks: WRONG {w}");
    }
    Ok(Outcome {
        correct: wrong.is_empty(),
        attempted: runs.len() as u64,
        failed,
        metrics: crate::report_host(&mut values, &probe, trace.is_some()),
    })
}
