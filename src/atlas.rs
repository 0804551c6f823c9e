//! The hardness-atlas sweep executor: locks a fresh host circuit with a
//! Full-Lock CLN at each grid point and measures how hard the SAT
//! attack finds it.
//!
//! This is the production payload behind `fulllock sweep --executor
//! atlas`. The grid axes are ordinary sweep params:
//!
//! | param     | meaning                                   | default |
//! |-----------|-------------------------------------------|---------|
//! | `cln`     | PLR/CLN size (key bits grow superlinearly)| `4`     |
//! | `gates`   | host circuit gate count                   | `150`   |
//! | `inputs`  | host primary inputs                       | `12`    |
//! | `outputs` | host primary outputs                      | `6`     |
//! | `cyclic`  | `1` allows cycle-creating insertion       | `0`     |
//! | `seed`    | host + lock RNG seed                      | unit idx|
//!
//! Each unit reports the attack verdict (`recovered` / `timeout` /
//! `unresolved`), the solver conflicts spent, and the final attack
//! formula's size and mean clause/variable ratio — the measurements the
//! paper's Fig. 5–7 plot against CLN size. The sweep machinery
//! (leases, result files, percentile folds) lives in
//! [`harness::sweep`](fulllock_harness::sweep); this module only turns
//! one work unit into one sample.

use std::time::Duration;

use fulllock_attacks::{AttackOutcome, SatAttack, SatAttackConfig, SimOracle};
use fulllock_harness::sweep::worker::{ExecContext, UnitExecutor, UnitSample};
use fulllock_harness::sweep::{SweepPlan, WorkUnit};
use fulllock_locking::{FullLock, FullLockConfig, LockingScheme, PlrSpec, WireSelection};
use fulllock_netlist::random::{generate, RandomCircuitConfig};

/// Executes one hardness-atlas grid point: generate host, lock with a
/// CLN, attack, measure.
pub struct AtlasUnitExecutor {
    /// Base seed mixed into per-unit seeds (from the sweep plan).
    pub base_seed: u64,
    /// Wall-clock budget per attack (the sweep plan's unit timeout).
    pub unit_timeout: Duration,
}

impl AtlasUnitExecutor {
    /// Executor configured from a sweep plan.
    pub fn from_plan(plan: &SweepPlan) -> AtlasUnitExecutor {
        AtlasUnitExecutor {
            base_seed: plan.seed,
            unit_timeout: Duration::from_secs_f64(plan.unit_timeout_secs.max(0.1)),
        }
    }
}

fn param_u64(unit: &WorkUnit, key: &str, default: u64) -> Result<u64, String> {
    match unit.param(key) {
        None => Ok(default),
        Some(v) => v
            .parse::<u64>()
            .map_err(|_| format!("param {key}={v:?} not an unsigned integer")),
    }
}

impl UnitExecutor for AtlasUnitExecutor {
    fn execute(&self, unit: &WorkUnit, _ctx: &ExecContext<'_>) -> Result<UnitSample, String> {
        let cln = usize::try_from(param_u64(unit, "cln", 4)?).map_err(|_| "cln too large")?;
        let gates =
            usize::try_from(param_u64(unit, "gates", 150)?).map_err(|_| "gates too large")?;
        let inputs =
            usize::try_from(param_u64(unit, "inputs", 12)?).map_err(|_| "inputs too large")?;
        let outputs =
            usize::try_from(param_u64(unit, "outputs", 6)?).map_err(|_| "outputs too large")?;
        let cyclic = param_u64(unit, "cyclic", 0)? != 0;
        let seed = self.base_seed ^ param_u64(unit, "seed", unit.index as u64)?;

        let host = generate(RandomCircuitConfig {
            inputs,
            outputs,
            gates,
            max_fanin: 3,
            seed,
        })
        .map_err(|e| format!("host generation: {e}"))?;
        let lock_config = FullLockConfig {
            plrs: vec![PlrSpec::new(cln)],
            selection: if cyclic {
                WireSelection::Cyclic
            } else {
                WireSelection::Acyclic
            },
            twist_probability: 0.5,
            seed: seed.wrapping_add(1),
        };
        let locked = FullLock::new(lock_config)
            .lock(&host)
            .map_err(|e| format!("locking: {e}"))?;
        let oracle = SimOracle::new(&host).map_err(|e| format!("oracle: {e}"))?;
        let attack_config = SatAttackConfig {
            timeout: Some(self.unit_timeout),
            ..Default::default()
        };
        let report = SatAttack::new(&locked, &oracle, attack_config)
            .map_err(|e| format!("attack setup: {e}"))?
            .run()
            .map_err(|e| format!("attack: {e}"))?;
        let verdict = match report.outcome {
            AttackOutcome::KeyRecovered { .. } => "recovered",
            AttackOutcome::Timeout => "timeout",
            _ => "unresolved",
        };
        Ok(UnitSample {
            verdict: verdict.to_string(),
            conflicts: report.solver.conflicts,
            vars: report.formula.0 as u64,
            clauses: report.formula.1 as u64,
            clause_var_ratio: report.mean_clause_var_ratio,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fulllock_harness::sweep::SweepGrid;

    #[test]
    fn atlas_executor_measures_a_tiny_grid_point() {
        let plan = SweepPlan::new(
            SweepGrid::new("tiny-atlas")
                .axis("cln", ["4"])
                .axis("gates", ["60"])
                .axis("seed", ["3"]),
        );
        let executor = AtlasUnitExecutor::from_plan(&plan);
        let unit = plan.grid.units().remove(0);
        let ctx = ExecContext {
            worker: "t",
            stolen: false,
            speculative: false,
        };
        let sample = executor.execute(&unit, &ctx).expect("executes");
        assert!(matches!(sample.verdict.as_str(), "recovered" | "timeout"));
        assert!(sample.vars > 0 && sample.clauses > 0);
        assert!(sample.clause_var_ratio > 0.0);
    }
}
