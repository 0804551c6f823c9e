//! AppSAT: the approximate SAT attack (Shamsi et al., HOST 2017).
//!
//! Against point-function schemes (SARLock, Anti-SAT) the exact SAT attack
//! needs `2^m` iterations, but almost every key is *almost* correct —
//! AppSAT exploits this by interleaving DIP iterations with random-query
//! probing and settling for a key whose measured error rate is below a
//! threshold. Against high-corruption schemes like Full-Lock, an
//! approximate key is as useless as a random one, which is exactly the
//! property §4.2 claims (and [`AppSatConfig`]'s reports quantify —
//! run it through the [`Attack`] trait).

use std::time::Duration;

use fulllock_locking::{Key, LockedCircuit};
use fulllock_netlist::topo;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::oracle::Oracle;
use crate::report::{Attack, AttackDetails, AttackOutcome, AttackReport};
use crate::sat_attack::{reproduces, KeyCheck, SatAttack, SatAttackConfig, Step};
use crate::Result;

/// The check on the key the DIP loop converges to: one query on each of
/// 32 patterns (two corners plus 30 random ones) when the key is right.
const KEY_CHECK: KeyCheck = KeyCheck {
    samples: 30,
    seed: 0xA995,
    vote_every_pattern: false,
};

/// DIP iterations between settlement probes.
const PROBE_INTERVAL: u64 = 4;
/// Random patterns per probe.
const PROBE_SAMPLES: usize = 64;
/// Settle when the measured error rate is at most this.
const ERROR_THRESHOLD: f64 = 0.01;
/// RNG seed for probing.
const PROBE_SEED: u64 = 0;

/// Configuration of an AppSAT run: the base SAT attack it interleaves
/// with probes. The probe schedule is fixed: a probe of 64 random
/// patterns every 4 DIPs, settling below 1% error.
#[derive(Debug, Clone, Copy)]
pub struct AppSatConfig {
    /// Base SAT attack limits (timeout / iteration cap).
    pub base: SatAttackConfig,
}

impl Default for AppSatConfig {
    fn default() -> Self {
        AppSatConfig {
            base: SatAttackConfig {
                timeout: Some(Duration::from_secs(60)),
                ..Default::default()
            },
        }
    }
}

/// AppSAT's settlement data; the iteration count, time and solver
/// counters are the envelope's.
#[derive(Debug, Clone)]
pub struct AppSatReport {
    /// The best (possibly approximate) key found, if any.
    pub key: Option<Key>,
    /// Error rate of that key measured on the final probe (fraction of
    /// sampled patterns with any wrong output).
    pub measured_error: f64,
    /// Whether the attack settled below the threshold (approximate
    /// success) rather than running out of budget.
    pub settled: bool,
    /// Whether the DIP loop actually converged (exact success).
    pub exact: bool,
}

/// The AppSAT loop over a pre-built engine (fresh or resumed from a
/// checkpoint — the engine-level I/O log covers DIPs *and* reinforcement
/// queries, so a restored engine carries both back). A probe under the
/// error threshold ends it with an approximate key; a converged DIP loop
/// ends through the engine's [`settle`](SatAttack::settle) step, as the
/// SAT attack and Double-DIP do; budget exhaustion ends it in a timeout.
fn drive_appsat(
    engine: &mut SatAttack<'_>,
    locked: &LockedCircuit,
) -> Result<(AttackOutcome, AppSatReport)> {
    let mut rng = StdRng::seed_from_u64(PROBE_SEED);
    let mut best: Option<(Key, f64)> = None;
    let mut healing_rounds = 0u32;
    // The iteration count of the last probe: a pass back from a healed
    // settlement has no new DIP to probe after, and a fresh probe would
    // only draw more unguarded answers into the ledger.
    let mut probed_at = None;

    loop {
        // A settlement probe runs before the first DIP too: point-function
        // schemes are approximately broken by *any* consistent key.
        let iterations = engine.iterations();
        if iterations.is_multiple_of(PROBE_INTERVAL) && probed_at != Some(iterations) {
            probed_at = Some(iterations);
            if let Some(key) = engine.extract_key()? {
                let (error, mismatches) = probe_error(engine, locked, &key, &mut rng)?;
                // AppSAT reinforcement: failed probes become constraints.
                let reinforced = !mismatches.is_empty();
                for (x, y) in mismatches {
                    engine.assert_io(&x, &y);
                }
                if best.as_ref().is_none_or(|(_, e)| error < *e) {
                    engine.set_candidate_key(key.clone());
                    best = Some((key.clone(), error));
                }
                if reinforced {
                    // Persist the reinforcement constraints too — they cost
                    // oracle queries, same as DIPs.
                    engine.checkpoint_now();
                }
                if error <= ERROR_THRESHOLD {
                    let outcome = AttackOutcome::ApproximateKey {
                        key: key.clone(),
                        measured_error: error,
                    };
                    let report = AppSatReport {
                        key: Some(key),
                        measured_error: error,
                        settled: true,
                        exact: false,
                    };
                    return Ok((outcome, report));
                }
            }
        }
        match engine.step()? {
            Step::Dip(_) => continue,
            Step::NoMoreDips => {
                let Some(outcome) = engine.settle(KEY_CHECK, &mut healing_rounds)? else {
                    continue;
                };
                let key = match &outcome {
                    AttackOutcome::KeyRecovered { key, .. } => Some(key.clone()),
                    _ => None,
                };
                let (error, _) = match &key {
                    Some(k) => probe_error(engine, locked, k, &mut rng)?,
                    None => (1.0, Vec::new()),
                };
                let report = AppSatReport {
                    settled: error <= ERROR_THRESHOLD,
                    exact: key.is_some(),
                    measured_error: error,
                    key,
                };
                return Ok((outcome, report));
            }
            Step::Budget => {
                let (key, error) = match best {
                    Some((k, e)) => (Some(k), e),
                    // A resumed run may not have re-probed yet; fall back
                    // to the checkpoint's candidate key with unknown
                    // (pessimistic) error.
                    None => (engine.candidate_key().cloned(), 1.0),
                };
                let report = AppSatReport {
                    key,
                    measured_error: error,
                    settled: false,
                    exact: false,
                };
                return Ok((AttackOutcome::Timeout, report));
            }
        }
    }
}

impl Attack for AppSatConfig {
    fn name(&self) -> &'static str {
        "appsat"
    }

    /// Runs AppSAT and folds its settlement data into the common
    /// envelope: a settled approximate key maps to
    /// [`AttackOutcome::ApproximateKey`] and budget exhaustion to
    /// [`AttackOutcome::Timeout`]; an exact convergence ends as the SAT
    /// attack's does ([`AttackOutcome::KeyRecovered`], or
    /// [`AttackOutcome::Inconclusive`] for an empty key space that
    /// healing cannot repair).
    ///
    /// # Example
    ///
    /// ```no_run
    /// use fulllock_attacks::{AppSatConfig, Attack, SimOracle};
    /// use fulllock_locking::{LockingScheme, SarLock};
    /// use fulllock_netlist::benchmarks;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let original = benchmarks::load("c432")?;
    /// let locked = SarLock::new(16, 0).lock(&original)?;
    /// let oracle = SimOracle::new(&original)?;
    /// // SARLock's error rate is 2^-16: AppSAT settles almost immediately.
    /// let report = AppSatConfig::default().run(&locked, &oracle)?;
    /// assert!(matches!(
    ///     report.outcome,
    ///     fulllock_attacks::AttackOutcome::ApproximateKey { .. }
    /// ));
    /// # Ok(())
    /// # }
    /// ```
    fn run(&self, locked: &LockedCircuit, oracle: &dyn Oracle) -> Result<AttackReport> {
        let mut engine = SatAttack::new(locked, oracle, self.base)?;
        engine.set_checkpoint_label("appsat");
        envelope(&mut engine, locked)
    }

    fn run_checkpointed(
        &self,
        locked: &LockedCircuit,
        oracle: &dyn Oracle,
        checkpoint: &std::path::Path,
        resume: bool,
    ) -> Result<AttackReport> {
        let mut engine = SatAttack::new(locked, oracle, self.base)?;
        engine.set_checkpoint_label("appsat");
        engine.attach_checkpoint(checkpoint, resume)?;
        envelope(&mut engine, locked)
    }
}

/// Drives the AppSAT loop and folds its settlement data into the common
/// envelope through [`SatAttack::seal`].
fn envelope(engine: &mut SatAttack<'_>, locked: &LockedCircuit) -> Result<AttackReport> {
    let (outcome, report) = drive_appsat(engine, locked)?;
    engine.seal(outcome, AttackDetails::AppSat(report))
}

/// Measures a key's error rate on [`PROBE_SAMPLES`] random patterns;
/// returns the rate and the mismatching (input, oracle-output) pairs for
/// reinforcement. The queries go through the engine's resilient layer, so
/// a dropped answer is retried.
///
/// # Errors
///
/// [`AttackError::Oracle`](crate::AttackError::Oracle) when a query still
/// fails after its retries.
#[allow(clippy::type_complexity)]
fn probe_error(
    engine: &SatAttack<'_>,
    locked: &LockedCircuit,
    key: &Key,
    rng: &mut StdRng,
) -> Result<(f64, Vec<(Vec<bool>, Vec<bool>)>)> {
    let width = locked.data_inputs.len();
    let cyclic = topo::is_cyclic(&locked.netlist);
    let mut wrong = 0usize;
    let mut mismatches = Vec::new();
    for _ in 0..PROBE_SAMPLES {
        let x: Vec<bool> = (0..width).map(|_| rng.gen_bool(0.5)).collect();
        let want = engine.query(&x)?;
        if !reproduces(locked, cyclic, &x, key, &want) {
            wrong += 1;
            if mismatches.len() < 8 {
                mismatches.push((x, want));
            }
        }
    }
    Ok((wrong as f64 / PROBE_SAMPLES as f64, mismatches))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimOracle;
    use fulllock_locking::{FullLock, FullLockConfig, LockingScheme, SarLock};
    use fulllock_netlist::random::{generate, RandomCircuitConfig};

    /// Runs AppSAT through the envelope; returns it with its details.
    fn run_appsat(
        locked: &LockedCircuit,
        oracle: &dyn Oracle,
        config: AppSatConfig,
    ) -> (AttackReport, AppSatReport) {
        let report = config.run(locked, oracle).unwrap();
        let AttackDetails::AppSat(details) = report.details.clone() else {
            panic!("AppSAT reported {:?}", report.details);
        };
        (report, details)
    }

    fn host(seed: u64) -> fulllock_netlist::Netlist {
        generate(RandomCircuitConfig {
            inputs: 12,
            outputs: 6,
            gates: 120,
            max_fanin: 3,
            seed,
        })
        .unwrap()
    }

    #[test]
    fn appsat_settles_on_sarlock_quickly() {
        // SARLock with 10 key bits: exact attack needs ~2^10 iterations;
        // AppSAT should settle in a handful (error 2^-10 < threshold).
        let original = host(1);
        let locked = SarLock::new(10, 2).lock(&original).unwrap();
        let oracle = SimOracle::new(&original).unwrap();
        let (envelope, report) = run_appsat(&locked, &oracle, AppSatConfig::default());
        assert!(report.settled, "AppSAT should settle on SARLock");
        assert!(
            envelope.iterations < 100,
            "needed {} iterations",
            envelope.iterations
        );
        assert!(report.measured_error <= 0.01);
    }

    #[test]
    fn appsat_gains_nothing_on_fulllock() {
        // Full-Lock's corruption is high: within a small budget AppSAT
        // neither settles nor converges, and its best key stays badly
        // wrong — the paper's §4.2 claim.
        let original = host(2);
        let locked = FullLock::new(FullLockConfig::single_plr(16))
            .lock(&original)
            .unwrap();
        let oracle = SimOracle::new(&original).unwrap();
        let config = AppSatConfig {
            base: SatAttackConfig {
                timeout: Some(Duration::from_millis(300)),
                ..Default::default()
            },
        };
        let (_, report) = run_appsat(&locked, &oracle, config);
        assert!(!report.settled);
        assert!(!report.exact);
        assert!(
            report.measured_error > 0.05,
            "approximate key suspiciously good: {}",
            report.measured_error
        );
    }

    #[test]
    fn appsat_is_exact_on_small_schemes() {
        let original = host(3);
        let locked = fulllock_locking::Rll::new(8, 1).lock(&original).unwrap();
        let oracle = SimOracle::new(&original).unwrap();
        let (_, report) = run_appsat(&locked, &oracle, AppSatConfig::default());
        // Either settles early (error 0 measured) or converges exactly;
        // both count as breaking RLL.
        assert!(report.settled || report.exact);
        let key = report.key.expect("a key must be produced");
        // The key must be near-perfect functionally.
        let mut rng = StdRng::seed_from_u64(9);
        let sim = fulllock_netlist::Simulator::new(&original).unwrap();
        let mut errors = 0;
        for _ in 0..64 {
            let x: Vec<bool> = (0..original.inputs().len())
                .map(|_| rng.gen_bool(0.5))
                .collect();
            if locked.eval(&x, &key).unwrap() != sim.run(&x).unwrap() {
                errors += 1;
            }
        }
        assert!(errors <= 2, "{errors}/64 errors");
    }
}
