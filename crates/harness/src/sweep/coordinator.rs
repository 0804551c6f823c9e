//! The sweep coordinator: spawns worker processes, respawns casualties,
//! reconciles resumes, and folds result files into the final atlas.
//!
//! The coordinator is deliberately dumb about work distribution — the
//! lease files in the sweep directory are the only scheduler, so a
//! coordinator crash (or a partition between coordinator and workers)
//! never stalls unit migration. What the coordinator *does* own:
//!
//! * **Plan identity.** A resume recomputes the plan's config hash
//!   (which folds in the `FULLLOCK_*` ambient fingerprint) and refuses
//!   to continue a sweep whose parameters or environment drifted.
//! * **Reconciliation.** On `--resume`, stale leases are cleared and
//!   result files that are not a valid record (the write tore) are
//!   deleted so those units re-run.
//! * **Worker lifecycle.** Dead workers are respawned under *fresh*
//!   worker names (their leases and result dotfiles are never reused);
//!   once every unit is settled, lingering workers get a grace period
//!   and are then killed — a straggling execution whose unit was
//!   already won by speculation must not hold the sweep open.
//! * **The fold.** One result file per unit is read, verified to cover
//!   every unit exactly once, aggregated into percentile summaries
//!   (`atlas.json`) and a compact columnar store (`columns.json`).

use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::sweep::aggregate::{aggregate, write_columns, SweepAggregates};
use crate::sweep::grid::SweepPlan;
use crate::sweep::lease::LeaseDir;
use crate::sweep::results::{count_settled, fold_results, remove_result, ResultFold};
use crate::sweep::worker::WorkerArgs;
use crate::{HarnessError, Result};

/// Bounded re-run rounds for orphans discovered at fold time (result
/// file present, record torn).
const MAX_RERUN_ROUNDS: usize = 3;

/// How a coordinator runs a sweep.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Sweep directory (plan, leases, result files, atlas).
    pub out_dir: PathBuf,
    /// Worker processes to keep alive.
    pub workers: usize,
    /// Program spawned per worker (usually the current executable).
    pub worker_program: PathBuf,
    /// Arguments placed before the generated worker flags (e.g.
    /// `["sweep-worker"]` to select the subcommand).
    pub worker_args_prefix: Vec<String>,
    /// Extra environment for workers, on top of the inherited one.
    pub worker_env: Vec<(String, String)>,
    /// Lease time-to-live handed to workers.
    pub lease_ttl: Duration,
    /// Coordinator poll interval (reap + progress checks).
    pub poll: Duration,
    /// Continue an existing sweep directory instead of requiring a
    /// fresh one.
    pub resume: bool,
    /// Respawn budget for dead workers across the whole run.
    pub max_respawns: usize,
    /// Overall wall-clock budget; exceeding it kills the fleet and
    /// fails the sweep. `None` means unbounded.
    pub max_wall: Option<Duration>,
    /// Grace period for workers to exit on their own after the last
    /// unit settles, before they are killed.
    pub shutdown_grace: Duration,
    /// Speculation age floor handed to workers.
    pub speculation_min_age: Duration,
    /// Ambient `FULLLOCK_*` fingerprint override (`None` reads the
    /// current process environment).
    pub ambient_hash: Option<u64>,
}

impl SweepConfig {
    /// A config with house defaults for `out_dir`, spawning
    /// `worker_program` with `worker_args_prefix`.
    pub fn new(
        out_dir: impl Into<PathBuf>,
        worker_program: impl Into<PathBuf>,
        worker_args_prefix: Vec<String>,
    ) -> SweepConfig {
        SweepConfig {
            out_dir: out_dir.into(),
            workers: 4,
            worker_program: worker_program.into(),
            worker_args_prefix,
            worker_env: Vec::new(),
            lease_ttl: Duration::from_millis(2000),
            poll: Duration::from_millis(50),
            resume: false,
            max_respawns: 16,
            max_wall: Some(Duration::from_secs(1800)),
            shutdown_grace: Duration::from_millis(1500),
            speculation_min_age: Duration::from_millis(500),
            ambient_hash: None,
        }
    }
}

/// What resume reconciliation found and repaired.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResumeReport {
    /// Units already settled with a valid record (skipped entirely).
    pub settled: usize,
    /// Invalid result files deleted (torn or corrupt — those units
    /// re-run).
    pub orphans_cleared: usize,
    /// Stale lease files cleared.
    pub leases_cleared: usize,
}

/// The coordinator's account of a finished sweep.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// Final aggregates (also persisted to `atlas.json`).
    pub aggregates: SweepAggregates,
    /// Where the aggregates were written.
    pub atlas_path: PathBuf,
    /// Where the columnar samples were written.
    pub columns_path: PathBuf,
    /// Dead workers respawned.
    pub respawns: usize,
    /// Orphan re-run rounds that were needed.
    pub rerun_rounds: usize,
    /// Reconciliation performed before the run (all zero on a fresh
    /// sweep).
    pub resume: ResumeReport,
    /// Total coordinator wall time.
    pub elapsed: Duration,
}

fn io_err(path: &Path, what: &str, e: io::Error) -> HarnessError {
    HarnessError::Io {
        path: path.to_path_buf(),
        message: format!("{what}: {e}"),
    }
}

/// Reconciles an interrupted sweep directory back to a consistent
/// state: every unit either has a valid result file or none. Stale
/// leases are cleared — no worker is running when this is called.
pub fn reconcile_resume(dir: &Path, plan: &SweepPlan) -> Result<ResumeReport> {
    let leases = LeaseDir::new(dir, "coordinator", 0);
    let leases_cleared = leases
        .clear_all()
        .map_err(|e| io_err(dir, "clear stale leases", e))?;
    let fold = fold_results(dir, &plan.grid.units()).map_err(|e| io_err(dir, "fold results", e))?;
    clear_orphans(dir, &fold)?;
    Ok(ResumeReport {
        settled: fold.samples.len(),
        orphans_cleared: fold.orphans.len(),
        leases_cleared,
    })
}

/// Deletes the fold's orphan result files so their units re-run.
fn clear_orphans(dir: &Path, fold: &ResultFold) -> Result<()> {
    for unit in &fold.orphans {
        remove_result(dir, unit).map_err(|e| io_err(dir, "clear orphan result", e))?;
    }
    Ok(())
}

struct Fleet {
    children: Vec<(usize, Child)>,
    next_index: usize,
    respawns: usize,
}

impl Fleet {
    fn spawn_one(&mut self, config: &SweepConfig) -> Result<()> {
        let index = self.next_index;
        self.next_index += 1;
        let worker_args = WorkerArgs {
            dir: config.out_dir.clone(),
            worker_index: index,
            lease_ttl_millis: config.lease_ttl.as_millis() as u64,
            poll_millis: config.poll.as_millis().max(1) as u64,
            spec_min_age_millis: config.speculation_min_age.as_millis() as u64,
        };
        let logs = config.out_dir.join("logs");
        std::fs::create_dir_all(&logs).map_err(|e| io_err(&logs, "create logs dir", e))?;
        let log_path = logs.join(format!("w{index}.log"));
        let log = std::fs::File::create(&log_path)
            .map_err(|e| io_err(&log_path, "create worker log", e))?;
        let log_err = log
            .try_clone()
            .map_err(|e| io_err(&log_path, "clone worker log", e))?;
        let mut command = Command::new(&config.worker_program);
        command
            .args(&config.worker_args_prefix)
            .args(worker_args.to_args())
            .stdin(Stdio::null())
            .stdout(Stdio::from(log))
            .stderr(Stdio::from(log_err));
        for (key, value) in &config.worker_env {
            command.env(key, value);
        }
        let child = command
            .spawn()
            .map_err(|e| io_err(&config.worker_program, "spawn worker", e))?;
        self.children.push((index, child));
        Ok(())
    }

    /// Reaps exited children; returns how many died abnormally.
    fn reap(&mut self) -> usize {
        let mut casualties = 0;
        self.children
            .retain_mut(|(index, child)| match child.try_wait() {
                Ok(Some(status)) => {
                    if !status.success() {
                        eprintln!("sweep: worker w{index} died: {status}");
                        casualties += 1;
                    }
                    false
                }
                Ok(None) => true,
                Err(_) => true,
            });
        casualties
    }

    fn kill_all(&mut self) {
        for (_, child) in &mut self.children {
            let _ = child.kill();
        }
        for (_, child) in &mut self.children {
            let _ = child.wait();
        }
        self.children.clear();
    }
}

/// Runs a sweep end to end: persist/verify the plan, reconcile (on
/// resume), run the worker fleet to full settlement, bounded re-run
/// rounds for orphan result files, final fold + aggregation.
///
/// # Errors
///
/// Fails on plan/environment drift during resume, an exhausted respawn
/// or re-run budget, the wall-clock budget, and any coordinator-side IO
/// failure. The sweep directory is left intact for `--resume` in every
/// failure mode.
pub fn run_sweep(plan: &SweepPlan, config: &SweepConfig) -> Result<SweepOutcome> {
    let started = Instant::now();
    plan.validate()?;
    if config.workers == 0 {
        return Err(HarnessError::PlanFormat {
            kind: "sweep plan",
            path: None,
            message: "sweep needs at least one worker".to_string(),
        });
    }
    let dir = &config.out_dir;
    std::fs::create_dir_all(dir).map_err(|e| io_err(dir, "create sweep dir", e))?;
    let ambient = config
        .ambient_hash
        .unwrap_or_else(crate::plan::current_ambient_fingerprint);

    let plan_path = crate::sweep::grid::plan_path(dir);
    let mut resume_report = ResumeReport::default();
    if plan_path.exists() {
        if !config.resume {
            return Err(HarnessError::PlanFormat {
                kind: "sweep plan",
                path: Some(plan_path),
                message: "sweep directory already holds a plan; pass resume to continue it"
                    .to_string(),
            });
        }
        let (stored_plan, stored_hash) = SweepPlan::load(dir)?;
        let current_hash = plan.config_hash(ambient);
        if stored_hash != current_hash {
            let drift = if stored_plan.config_hash(ambient) == stored_hash {
                "the sweep parameters changed"
            } else {
                "the FULLLOCK_* environment drifted since the sweep started"
            };
            return Err(HarnessError::PlanFormat {
                kind: "sweep plan",
                path: Some(plan_path),
                message: format!(
                    "refusing to resume: {drift} (stored config hash {stored_hash:016x}, \
                     current {current_hash:016x})"
                ),
            });
        }
        resume_report = reconcile_resume(dir, plan)?;
    } else {
        plan.save(dir, ambient)?;
    }

    let units = plan.grid.unit_count();
    let mut fleet = Fleet {
        children: Vec::new(),
        next_index: 0,
        respawns: 0,
    };
    let mut rerun_rounds = 0usize;

    let outcome = loop {
        // Keep the fleet at strength until every unit is settled.
        while fleet.children.len() < config.workers && count_settled(dir) < units {
            fleet.spawn_one(config)?;
        }
        loop {
            let casualties = fleet.reap();
            if casualties > 0 && count_settled(dir) < units {
                for _ in 0..casualties {
                    if fleet.respawns >= config.max_respawns {
                        fleet.kill_all();
                        return Err(HarnessError::Io {
                            path: dir.clone(),
                            message: format!(
                                "respawn budget exhausted ({} respawns) with {}/{units} units settled",
                                fleet.respawns,
                                count_settled(dir)
                            ),
                        });
                    }
                    fleet.respawns += 1;
                    fleet.spawn_one(config)?;
                }
            }
            if count_settled(dir) >= units {
                break;
            }
            if fleet.children.is_empty() {
                return Err(HarnessError::Io {
                    path: dir.clone(),
                    message: format!(
                        "all workers exited with {}/{units} units settled",
                        count_settled(dir)
                    ),
                });
            }
            if let Some(max_wall) = config.max_wall {
                if started.elapsed() > max_wall {
                    fleet.kill_all();
                    return Err(HarnessError::Io {
                        path: dir.clone(),
                        message: format!(
                            "sweep exceeded wall budget {:.0?} with {}/{units} units settled \
                             (directory kept for resume)",
                            max_wall,
                            count_settled(dir)
                        ),
                    });
                }
            }
            std::thread::sleep(config.poll);
        }

        // All units settled. Let workers drain on their own, then kill
        // stragglers: an execution that lost its race (a neutralized
        // straggler) must not hold the sweep open.
        let grace_until = Instant::now() + config.shutdown_grace;
        while !fleet.children.is_empty() && Instant::now() < grace_until {
            fleet.reap();
            std::thread::sleep(config.poll);
        }
        fleet.kill_all();

        // Fold and check every result file: a torn write can leave a
        // result file whose record never landed. Bounded re-runs.
        let fold =
            fold_results(dir, &plan.grid.units()).map_err(|e| io_err(dir, "fold results", e))?;
        if fold.orphans.is_empty() {
            break finish(plan, dir, fold, units)?;
        }
        if rerun_rounds >= MAX_RERUN_ROUNDS {
            return Err(HarnessError::Io {
                path: dir.clone(),
                message: format!(
                    "{} units still lack a durable record after {rerun_rounds} re-run rounds",
                    fold.orphans.len()
                ),
            });
        }
        rerun_rounds += 1;
        clear_orphans(dir, &fold)?;
    };

    Ok(SweepOutcome {
        aggregates: outcome.0,
        atlas_path: outcome.1,
        columns_path: outcome.2,
        respawns: fleet.respawns,
        rerun_rounds,
        resume: resume_report,
        elapsed: started.elapsed(),
    })
}

/// Final verification + persistence: exactly-once coverage, aggregate
/// summaries, columnar store.
fn finish(
    plan: &SweepPlan,
    dir: &Path,
    fold: ResultFold,
    units: usize,
) -> Result<(SweepAggregates, PathBuf, PathBuf)> {
    for unit in plan.grid.units() {
        if !fold.samples.contains_key(&unit.id) {
            return Err(HarnessError::Io {
                path: dir.to_path_buf(),
                message: format!("unit {} settled without a valid record", unit.id),
            });
        }
    }
    if fold.samples.len() != units {
        return Err(HarnessError::Io {
            path: dir.to_path_buf(),
            message: format!(
                "fold holds {} samples for {units} units — exactly-once violated",
                fold.samples.len()
            ),
        });
    }
    let aggregates = aggregate(&fold, units);
    let atlas_path = dir.join("atlas.json");
    aggregates
        .save(&atlas_path)
        .map_err(|e| io_err(&atlas_path, "write atlas", e))?;
    let columns_path = dir.join("columns.json");
    write_columns(&columns_path, fold.samples.values())
        .map_err(|e| io_err(&columns_path, "write columns", e))?;
    Ok((aggregates, atlas_path, columns_path))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::grid::SweepGrid;
    use crate::sweep::results::{is_settled, settle, SampleRecord};

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fulllock-coord-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    fn plan_of(units: usize) -> SweepPlan {
        let seeds: Vec<String> = (0..units).map(|i| i.to_string()).collect();
        SweepPlan::new(SweepGrid::new("t").axis("seed", seeds))
    }

    fn record(unit: &str) -> SampleRecord {
        SampleRecord {
            unit: unit.to_string(),
            worker: "w0".to_string(),
            stolen: false,
            speculative: false,
            verdict: "sat".to_string(),
            conflicts: 10,
            vars: 20,
            clauses: 60,
            clause_var_ratio: 3.0,
            wall_secs: 0.01,
        }
    }

    #[test]
    fn reconcile_keeps_valid_results_and_deletes_torn_ones() {
        let dir = scratch("reconcile");
        let plan = plan_of(3);
        // unit-00000: a valid result. unit-00001: a torn one (the
        // orphan). unit-00002: never settled.
        settle(&dir, &record("unit-00000"), 0).expect("settle");
        settle(&dir, &record("unit-00001"), 0).expect("settle");
        let torn = dir.join("results").join("unit-00001.json");
        let bytes = std::fs::read(&torn).expect("read");
        std::fs::write(&torn, &bytes[..bytes.len() / 2]).expect("tear");
        let report = reconcile_resume(&dir, &plan).expect("reconcile");
        assert_eq!(report.settled, 1);
        assert_eq!(report.orphans_cleared, 1);
        assert!(is_settled(&dir, "unit-00000"), "valid result kept");
        assert!(!is_settled(&dir, "unit-00001"), "torn result deleted");
        assert!(!is_settled(&dir, "unit-00002"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fresh_dir_refuses_to_run_without_resume_once_planned() {
        let dir = scratch("refuse");
        let plan = plan_of(2);
        plan.save(&dir, 7).expect("save plan");
        let config = SweepConfig::new(&dir, "/nonexistent-worker", vec![]);
        let err = run_sweep(&plan, &config).expect_err("must refuse");
        assert!(err.to_string().contains("resume"), "got: {err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_detects_ambient_drift() {
        let dir = scratch("drift");
        let plan = plan_of(2);
        plan.save(&dir, 7).expect("save plan");
        let mut config = SweepConfig::new(&dir, "/nonexistent-worker", vec![]);
        config.resume = true;
        config.ambient_hash = Some(8); // drifted FULLLOCK_* fingerprint
        let err = run_sweep(&plan, &config).expect_err("must refuse");
        assert!(
            err.to_string().contains("environment drifted"),
            "got: {err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_detects_plan_change() {
        let dir = scratch("replan");
        plan_of(2).save(&dir, 7).expect("save plan");
        let changed = plan_of(3);
        let mut config = SweepConfig::new(&dir, "/nonexistent-worker", vec![]);
        config.resume = true;
        config.ambient_hash = Some(7);
        let err = run_sweep(&changed, &config).expect_err("must refuse");
        assert!(err.to_string().contains("parameters changed"), "got: {err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
