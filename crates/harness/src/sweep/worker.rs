//! The sweep worker: claim → execute → settle, then steal and
//! speculate.
//!
//! A worker is one OS process (isolation: a SIGKILL, OOM, or panic takes
//! down only its own claims). Its loop:
//!
//! 1. **Claim** any free unit ([`LeaseDir::try_claim`]) and execute it,
//!    renewing the lease from a heartbeat thread while the executor
//!    runs.
//! 2. **Steal** expired or corrupt leases from dead workers — the units
//!    of a SIGKILLed worker migrate here without any coordinator help.
//! 3. **Speculate** on stragglers: when nothing is claimable but
//!    unsettled units remain, re-execute (without the lease) any unit
//!    whose lease age exceeds `max(min_age, factor × p95)` of this
//!    worker's own observed unit durations — first result wins.
//!
//! A unit settles when its result file appears: the worker syncs the
//! sealed record to a private dotfile and [`std::fs::hard_link`]s it to
//! `results/<unit>.json`, first-wins like a fresh claim
//! ([`crate::sweep::results::settle`]). That is what makes the sweep
//! exactly-once: one file per unit, whose record is durable before it
//! is visible. A result file can be invalid only if its write *lied*
//! (torn), and the coordinator's fold detects exactly that case and
//! re-runs the unit.
//!
//! The worker exits 0 once every unit of the plan is settled.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fulllock_sat::faults::{self, FaultAction};

use crate::sweep::grid::{SweepPlan, WorkUnit};
use crate::sweep::lease::{now_millis, read_lease, Lease, LeaseDir, LeaseState};
use crate::sweep::results::{is_settled, settle, SampleRecord};
use crate::{HarnessError, Result};

/// The measurements an executor reports for one unit (the worker adds
/// identity, wall time, and the stolen/speculative provenance).
#[derive(Debug, Clone, PartialEq)]
pub struct UnitSample {
    /// Verdict word (`sat`, `unsat`, `unknown`, `recovered`, `timeout`,
    /// `error`, ...).
    pub verdict: String,
    /// Solver conflicts spent.
    pub conflicts: u64,
    /// Instance variables.
    pub vars: u64,
    /// Instance clauses.
    pub clauses: u64,
    /// Instance clause/variable ratio.
    pub clause_var_ratio: f64,
}

/// Provenance of one execution, passed to the executor (the synthetic
/// bench executor uses it to model first-owner stragglers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecContext<'a> {
    /// Executing worker's display name.
    pub worker: &'a str,
    /// Whether the unit runs under a stolen lease.
    pub stolen: bool,
    /// Whether this is a speculative re-execution.
    pub speculative: bool,
}

/// Executes one work unit into a [`UnitSample`]. Implementations live
/// where their dependencies do: the synthetic random-3-SAT executor
/// ([`SatUnitExecutor`]) here in the harness, the CLN hardness-atlas
/// executor in the `full-lock` crate.
pub trait UnitExecutor {
    /// Runs `unit`; an `Err` is recorded as a settled `error` verdict
    /// (the sweep terminates either way — exactly-once includes failed
    /// units).
    fn execute(
        &self,
        unit: &WorkUnit,
        ctx: &ExecContext<'_>,
    ) -> std::result::Result<UnitSample, String>;
}

/// Synthetic executor: generates a random 3-SAT instance from the
/// unit's `vars` / `ratio` / `seed` params and solves it under a
/// conflict cap. Extra params make it a controllable robustness
/// workload:
///
/// * `sleep_ms` — simulated per-unit latency (the scaling bench's
///   latency-bound reference grid);
/// * `straggle_unit` + `straggle_ms` — the unit with that index sleeps
///   `straggle_ms` on its *first owner* (not on steals or speculation),
///   modelling a straggling machine that speculation must neutralize.
pub struct SatUnitExecutor {
    /// Base seed mixed into per-unit instance seeds.
    pub base_seed: u64,
    /// Conflict cap per instance.
    pub max_conflicts: u64,
}

impl SatUnitExecutor {
    /// Executor for a plan (seed from the plan, default conflict cap).
    pub fn from_plan(plan: &SweepPlan) -> SatUnitExecutor {
        SatUnitExecutor {
            base_seed: plan.seed,
            max_conflicts: 200_000,
        }
    }
}

impl UnitExecutor for SatUnitExecutor {
    fn execute(
        &self,
        unit: &WorkUnit,
        ctx: &ExecContext<'_>,
    ) -> std::result::Result<UnitSample, String> {
        use fulllock_sat::cdcl::{SolveLimits, SolveResult, Solver};
        use fulllock_sat::random_sat::{generate, RandomSatConfig};

        let param_u64 = |key: &str, default: u64| {
            unit.param(key)
                .map(|v| {
                    v.parse::<u64>()
                        .map_err(|_| format!("param {key}={v:?} not an integer"))
                })
                .transpose()
                .map(|v| v.unwrap_or(default))
        };
        if let Some(ms) = unit.param("sleep_ms") {
            let ms: u64 = ms
                .parse()
                .map_err(|_| format!("sleep_ms={ms:?} not an integer"))?;
            std::thread::sleep(Duration::from_millis(ms));
        }
        let straggle_unit = param_u64("straggle_unit", u64::MAX)?;
        if straggle_unit == unit.index as u64 && !ctx.stolen && !ctx.speculative {
            let ms = param_u64("straggle_ms", 0)?;
            std::thread::sleep(Duration::from_millis(ms));
        }
        let vars = usize::try_from(param_u64("vars", 50)?).map_err(|_| "vars too large")?;
        let ratio: f64 = unit
            .param("ratio")
            .unwrap_or("4.267")
            .parse()
            .map_err(|_| "ratio not a number")?;
        let seed = self.base_seed ^ param_u64("seed", unit.index as u64)?;
        let cnf = generate(RandomSatConfig::from_ratio(vars, ratio, 3, seed))
            .map_err(|e| format!("generate: {e}"))?;
        let clause_var_ratio = cnf.clause_to_variable_ratio();
        let clauses = cnf.num_clauses() as u64;
        let mut solver = Solver::from_cnf(&cnf);
        let limits = SolveLimits::builder()
            .max_conflicts(self.max_conflicts)
            .build();
        let verdict = match solver.solve_limited(&[], limits) {
            SolveResult::Sat => "sat",
            SolveResult::Unsat => "unsat",
            SolveResult::Unknown => "unknown",
        };
        Ok(UnitSample {
            verdict: verdict.to_string(),
            conflicts: solver.stats().conflicts,
            vars: vars as u64,
            clauses,
            clause_var_ratio,
        })
    }
}

/// Worker knobs. [`WorkerArgs`] carries the same values over a command
/// line between coordinator and worker process.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// The sweep directory (plan, leases, result files).
    pub dir: PathBuf,
    /// Display name, unique across all workers ever spawned into this
    /// sweep (`w0`, `w1`, ... — respawns keep counting).
    pub worker: String,
    /// Failpoint context index for `sweep.lease` / `sweep.result`.
    pub worker_index: usize,
    /// Lease time-to-live; heartbeats renew at a third of this.
    pub lease_ttl: Duration,
    /// Idle poll between passes when nothing was runnable.
    pub poll: Duration,
    /// Floor on the straggler age before speculation may re-execute.
    pub speculation_min_age: Duration,
}

/// What a worker did, as printed on exit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerSummary {
    /// Units executed (all kinds).
    pub executed: u64,
    /// Executions under a stolen lease.
    pub stolen: u64,
    /// Speculative re-executions.
    pub speculative: u64,
    /// Settle races won.
    pub settle_wins: u64,
    /// Settle races lost (another worker's result counted).
    pub settle_losses: u64,
}

/// Runs the worker loop until every unit of the plan is settled.
///
/// # Errors
///
/// Only infrastructure failures are errors (unreadable plan, result-file
/// IO including injected `enospc`/`eio`); unit execution failures
/// settle with an `error` verdict and the loop continues.
pub fn run_worker(
    plan: &SweepPlan,
    config: &WorkerConfig,
    executor: &dyn UnitExecutor,
) -> Result<WorkerSummary> {
    let io_err = |path: &Path, what: &str, e: io::Error| HarnessError::Io {
        path: path.to_path_buf(),
        message: format!("{what}: {e}"),
    };
    let units = plan.grid.units();
    let leases = LeaseDir::new(&config.dir, config.worker.clone(), config.worker_index);
    leases
        .ensure()
        .map_err(|e| io_err(&config.dir, "create leases dir", e))?;
    let mut summary = WorkerSummary::default();
    let mut durations_ms: Vec<u64> = Vec::new();

    loop {
        let mut progressed = false;
        let mut unsettled = 0usize;

        // Pass 1: fresh claims.
        for unit in &units {
            if is_settled(&config.dir, &unit.id) {
                continue;
            }
            unsettled += 1;
            if let Some(lease) = leases
                .try_claim(&unit.id, config.lease_ttl)
                .map_err(|e| io_err(&config.dir, "claim lease", e))?
            {
                // The prior owner may have settled and released between
                // our settled-check and the claim; re-check under the
                // lease so a finished unit is not re-executed.
                if is_settled(&config.dir, &unit.id) {
                    leases.release(&lease);
                    continue;
                }
                execute_unit(
                    config,
                    executor,
                    &leases,
                    &mut summary,
                    &mut durations_ms,
                    unit,
                    Some(lease),
                    false,
                    false,
                )?;
                progressed = true;
            }
        }
        if unsettled == 0 {
            break;
        }

        // Pass 2: steal expired/corrupt leases from dead workers.
        for unit in &units {
            if is_settled(&config.dir, &unit.id) {
                continue;
            }
            let state = read_lease(&leases.lease_path(&unit.id), now_millis());
            let prior_generation = match state {
                LeaseState::Expired(old) => old.generation,
                LeaseState::Corrupt => 0,
                _ => continue,
            };
            if let Some(lease) = leases
                .try_steal(&unit.id, prior_generation, config.lease_ttl)
                .map_err(|e| io_err(&config.dir, "steal lease", e))?
            {
                if is_settled(&config.dir, &unit.id) {
                    leases.release(&lease);
                    continue;
                }
                execute_unit(
                    config,
                    executor,
                    &leases,
                    &mut summary,
                    &mut durations_ms,
                    unit,
                    Some(lease),
                    true,
                    false,
                )?;
                progressed = true;
            }
        }

        // Pass 3: speculate on stragglers — live leases older than the
        // percentile deadline. One per round, without taking the lease.
        if !progressed {
            let deadline_ms = speculation_deadline_ms(config, &durations_ms);
            for unit in &units {
                if is_settled(&config.dir, &unit.id) {
                    continue;
                }
                let LeaseState::Held(held) = read_lease(&leases.lease_path(&unit.id), now_millis())
                else {
                    continue;
                };
                if held.worker != config.worker && held.age_millis(now_millis()) > deadline_ms {
                    execute_unit(
                        config,
                        executor,
                        &leases,
                        &mut summary,
                        &mut durations_ms,
                        unit,
                        None,
                        false,
                        true,
                    )?;
                    progressed = true;
                    break;
                }
            }
        }

        if !progressed {
            std::thread::sleep(config.poll);
        }
    }
    Ok(summary)
}

/// Straggler deadline factor: speculate when a live lease's age exceeds
/// this multiple of the p95 of the worker's own unit durations.
const SPECULATION_FACTOR: f64 = 4.0;

/// The lease age past which a live-leased unit counts as a straggler.
fn speculation_deadline_ms(config: &WorkerConfig, durations_ms: &[u64]) -> u64 {
    let min_age = config
        .lease_ttl
        .as_millis()
        .max(config.speculation_min_age.as_millis()) as u64;
    if durations_ms.is_empty() {
        return min_age;
    }
    let mut sorted = durations_ms.to_vec();
    sorted.sort_unstable();
    let idx = ((sorted.len() * 95).div_ceil(100)).saturating_sub(1);
    let p95 = sorted[idx.min(sorted.len() - 1)];
    min_age.max((SPECULATION_FACTOR * p95 as f64) as u64)
}

/// Executes one unit end to end: heartbeat, executor, first-wins
/// settlement through a durable result file, lease release.
#[allow(clippy::too_many_arguments)]
fn execute_unit(
    config: &WorkerConfig,
    executor: &dyn UnitExecutor,
    leases: &LeaseDir,
    summary: &mut WorkerSummary,
    durations_ms: &mut Vec<u64>,
    unit: &WorkUnit,
    lease: Option<Lease>,
    stolen: bool,
    speculative: bool,
) -> Result<()> {
    // The sweep.unit failpoint targets grid points by *unit* index:
    // delay makes this unit a straggler, panic kills the worker while it
    // holds the lease, trigger fails the execution spuriously.
    let injected_error = match faults::evaluate(faults::site::SWEEP_UNIT, unit.index) {
        Some(FaultAction::Panic) => panic!("sweep.unit failpoint: injected panic"),
        Some(delay @ FaultAction::DelayMs(_)) => {
            faults::apply_delay(delay);
            false
        }
        Some(FaultAction::Trigger) => true,
        _ => false,
    };

    // Heartbeat: renew the lease from a side thread at ttl/3 while the
    // executor runs, so live progress is never stolen.
    let stop = Arc::new(AtomicBool::new(false));
    let heartbeat = lease.as_ref().map(|lease| {
        let stop = Arc::clone(&stop);
        let leases = leases.clone();
        let mut lease = lease.clone();
        let ttl = config.lease_ttl;
        std::thread::spawn(move || {
            let interval = ttl / 3;
            loop {
                let slept = Instant::now();
                while slept.elapsed() < interval {
                    if stop.load(Ordering::Relaxed) {
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(5).min(interval));
                }
                if stop.load(Ordering::Relaxed) {
                    return;
                }
                // A lost renewal means we were stolen; keep going — the
                // first result file decides whose result counts.
                let _ = leases.renew(&mut lease, ttl);
            }
        })
    });

    let started = Instant::now();
    let ctx = ExecContext {
        worker: &config.worker,
        stolen,
        speculative,
    };
    let outcome = if injected_error {
        Err("sweep.unit failpoint: injected execution failure".to_string())
    } else {
        executor.execute(unit, &ctx)
    };
    let wall = started.elapsed();
    stop.store(true, Ordering::Relaxed);
    if let Some(handle) = heartbeat {
        let _ = handle.join();
    }

    let sample = match outcome {
        Ok(sample) => sample,
        Err(message) => {
            eprintln!(
                "worker {}: unit {} failed: {message}",
                config.worker, unit.id
            );
            UnitSample {
                verdict: "error".to_string(),
                conflicts: 0,
                vars: 0,
                clauses: 0,
                clause_var_ratio: 0.0,
            }
        }
    };
    let record = SampleRecord {
        unit: unit.id.clone(),
        worker: config.worker.clone(),
        stolen,
        speculative,
        verdict: sample.verdict,
        conflicts: sample.conflicts,
        vars: sample.vars,
        clauses: sample.clauses,
        clause_var_ratio: sample.clause_var_ratio,
        wall_secs: wall.as_secs_f64(),
    };
    let won = settle(&config.dir, &record, config.worker_index).map_err(|e| HarnessError::Io {
        path: config.dir.clone(),
        message: format!("settle {}: {e}", unit.id),
    })?;

    summary.executed += 1;
    summary.stolen += u64::from(stolen);
    summary.speculative += u64::from(speculative);
    if won {
        summary.settle_wins += 1;
    } else {
        summary.settle_losses += 1;
    }
    durations_ms.push(wall.as_millis().min(u128::from(u64::MAX)) as u64);
    if let Some(lease) = lease {
        leases.release(&lease);
    }
    Ok(())
}

/// The worker half of the coordinator↔worker command line: flags a
/// coordinator passes when spawning `<program> <prefix...> --dir ...`,
/// parsed back by worker `main`s.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerArgs {
    /// The sweep directory.
    pub dir: PathBuf,
    /// Worker number (display name `w<N>` and failpoint context).
    pub worker_index: usize,
    /// Lease TTL in milliseconds.
    pub lease_ttl_millis: u64,
    /// Idle poll in milliseconds.
    pub poll_millis: u64,
    /// Speculation age floor in milliseconds.
    pub spec_min_age_millis: u64,
}

impl WorkerArgs {
    /// Parses `--dir D --worker N [--lease-ttl-millis M] [--poll-millis M]
    /// [--spec-min-age-millis M]`.
    pub fn parse(args: &[String]) -> std::result::Result<WorkerArgs, String> {
        let mut parsed = WorkerArgs {
            dir: PathBuf::new(),
            worker_index: 0,
            lease_ttl_millis: 2000,
            poll_millis: 50,
            spec_min_age_millis: 500,
        };
        let mut have_dir = false;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || {
                it.next()
                    .map(String::as_str)
                    .ok_or_else(|| format!("flag {flag} needs a value"))
            };
            match flag.as_str() {
                "--dir" => {
                    parsed.dir = PathBuf::from(value()?);
                    have_dir = true;
                }
                "--worker" => {
                    parsed.worker_index = value()?.parse().map_err(|e| format!("--worker: {e}"))?;
                }
                "--lease-ttl-millis" => {
                    parsed.lease_ttl_millis = value()?
                        .parse()
                        .map_err(|e| format!("--lease-ttl-millis: {e}"))?;
                }
                "--poll-millis" => {
                    parsed.poll_millis = value()?
                        .parse()
                        .map_err(|e| format!("--poll-millis: {e}"))?;
                }
                "--spec-min-age-millis" => {
                    parsed.spec_min_age_millis = value()?
                        .parse()
                        .map_err(|e| format!("--spec-min-age-millis: {e}"))?;
                }
                other => return Err(format!("unknown worker flag {other:?}")),
            }
        }
        if !have_dir {
            return Err("missing required flag --dir".to_string());
        }
        Ok(parsed)
    }

    /// The flag list [`parse`](WorkerArgs::parse) reads back.
    pub fn to_args(&self) -> Vec<String> {
        vec![
            "--dir".to_string(),
            self.dir.display().to_string(),
            "--worker".to_string(),
            self.worker_index.to_string(),
            "--lease-ttl-millis".to_string(),
            self.lease_ttl_millis.to_string(),
            "--poll-millis".to_string(),
            self.poll_millis.to_string(),
            "--spec-min-age-millis".to_string(),
            self.spec_min_age_millis.to_string(),
        ]
    }

    /// The [`WorkerConfig`] these args describe.
    pub fn to_config(&self) -> WorkerConfig {
        WorkerConfig {
            dir: self.dir.clone(),
            worker: format!("w{}", self.worker_index),
            worker_index: self.worker_index,
            lease_ttl: Duration::from_millis(self.lease_ttl_millis),
            poll: Duration::from_millis(self.poll_millis),
            speculation_min_age: Duration::from_millis(self.spec_min_age_millis),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::grid::SweepGrid;
    use crate::sweep::results::{count_settled, fold_results};

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("fulllock-worker-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    fn tiny_plan() -> SweepPlan {
        SweepPlan::new(
            SweepGrid::new("tiny")
                .axis("vars", ["20"])
                .axis("ratio", ["3.0"])
                .axis("seed", ["0", "1", "2", "3"]),
        )
    }

    fn config(dir: &Path, index: usize) -> WorkerConfig {
        WorkerConfig {
            dir: dir.to_path_buf(),
            worker: format!("w{index}"),
            worker_index: index,
            lease_ttl: Duration::from_millis(500),
            poll: Duration::from_millis(5),
            speculation_min_age: Duration::from_millis(100),
        }
    }

    #[test]
    fn single_worker_settles_every_unit_exactly_once() {
        let dir = scratch("solo");
        let plan = tiny_plan();
        let summary = run_worker(&plan, &config(&dir, 0), &SatUnitExecutor::from_plan(&plan))
            .expect("worker runs");
        assert_eq!(summary.executed, 4);
        assert_eq!(summary.settle_wins, 4);
        assert_eq!(summary.settle_losses, 0);
        let fold = fold_results(&dir, &plan.grid.units()).expect("fold");
        assert_eq!(fold.samples.len(), 4);
        assert!(fold.orphans.is_empty());
        assert_eq!(count_settled(&dir), 4);
        for sample in fold.samples.values() {
            assert!(matches!(
                sample.verdict.as_str(),
                "sat" | "unsat" | "unknown"
            ));
            assert!(sample.vars == 20);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn worker_args_round_trip() {
        let args = WorkerArgs {
            dir: PathBuf::from("/tmp/sweepdir"),
            worker_index: 3,
            lease_ttl_millis: 1500,
            poll_millis: 25,
            spec_min_age_millis: 300,
        };
        let back = WorkerArgs::parse(&args.to_args()).expect("round trip");
        assert_eq!(back, args);
        assert!(WorkerArgs::parse(&["--worker".to_string(), "1".to_string()]).is_err());
        assert!(WorkerArgs::parse(&["--bogus".to_string()]).is_err());
        let cfg = args.to_config();
        assert_eq!(cfg.worker, "w3");
        assert_eq!(cfg.lease_ttl, Duration::from_millis(1500));
    }

    #[test]
    fn two_threads_of_workers_share_a_grid_without_duplicates() {
        let dir = scratch("pair");
        let plan = tiny_plan();
        let d1 = dir.clone();
        let p1 = plan.clone();
        let t = std::thread::spawn(move || {
            run_worker(&p1, &config(&d1, 1), &SatUnitExecutor::from_plan(&p1))
                .expect("worker 1 runs")
        });
        let s0 = run_worker(&plan, &config(&dir, 0), &SatUnitExecutor::from_plan(&plan))
            .expect("worker 0 runs");
        let s1 = t.join().expect("thread joins");
        assert_eq!(
            s0.settle_wins + s1.settle_wins,
            4,
            "every unit settled once"
        );
        let fold = fold_results(&dir, &plan.grid.units()).expect("fold");
        assert_eq!(fold.samples.len(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }
}
