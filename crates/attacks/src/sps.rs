//! SPS: the Signal Probability Skew attack (Yasin et al., ASP-DAC 2017).
//!
//! Anti-SAT's protection block ends in `f = g ∧ ḡ'`: a wire whose
//! probability of being 1 (under uniform inputs *and* uniform keys) is
//! astronomically small. SPS scans the locked netlist for such skewed
//! wires, declares the most skewed one the protection block's output, and
//! neutralizes it by stuck-at-forcing it to its quiescent value.
//!
//! Full-Lock has no such wire — CLN MUXes and XOR inverters keep signal
//! probabilities balanced — which is one of the removal-family resistances
//! §2 claims.

use fulllock_locking::LockedCircuit;
use fulllock_netlist::{probability, topo, GateKind, SignalId, Simulator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::oracle::Oracle;
use crate::report::{Attack, AttackDetails, AttackOutcome, AttackReport};
use crate::{AttackError, Result};

/// Result of an SPS scan + neutralization attempt.
#[derive(Debug, Clone)]
pub struct SpsReport {
    /// The most skewed key-dependent wire, if any exceeded the threshold.
    pub suspect: Option<SignalId>,
    /// That wire's `|P(1) − 0.5|` skew (0.5 = fully skewed).
    pub skew: f64,
    /// Functional error rate of the neutralized netlist vs the oracle
    /// (only if a suspect was found): 0.0 means the attack succeeded.
    pub error_rate: Option<f64>,
}

impl SpsReport {
    /// Whether neutralization recovered the original function on every
    /// sampled pattern.
    pub fn succeeded(&self) -> bool {
        self.error_rate == Some(0.0)
    }
}

/// Runs the SPS attack: probability scan (key inputs treated as uniform
/// unknowns), suspect selection among key-dependent wires, stuck-at
/// neutralization, and functional comparison against the oracle.
///
/// # Example
///
/// ```no_run
/// use fulllock_attacks::{sps, SimOracle};
/// use fulllock_locking::{AntiSat, LockingScheme};
/// use fulllock_netlist::benchmarks;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let original = benchmarks::load("c432")?;
/// let locked = AntiSat::new(16, 0).lock(&original)?;
/// let oracle = SimOracle::new(&original)?;
/// let report = sps::scan_with_oracle(&locked, &oracle, 0.45, 200, 0)?;
/// assert!(report.succeeded()); // Anti-SAT's skewed block is found & cut
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Returns [`AttackError::Unsupported`] for cyclic locked netlists
/// (probability propagation needs a DAG) and propagates simulation errors.
pub fn scan_with_oracle(
    locked: &LockedCircuit,
    oracle: &dyn Oracle,
    skew_threshold: f64,
    samples: usize,
    seed: u64,
) -> Result<SpsReport> {
    if topo::is_cyclic(&locked.netlist) {
        return Err(AttackError::Unsupported(
            "SPS probability propagation requires an acyclic netlist".into(),
        ));
    }
    let probs = probability::static_probabilities(&locked.netlist)?;

    // Only key-dependent wires are candidate protection-block outputs.
    let key_cone = crate::removal::key_logic_cone(locked);
    let mut best: Option<(SignalId, f64)> = None;
    for &s in &key_cone {
        let skew = (probs[s.index()] - 0.5).abs();
        if skew >= skew_threshold && best.is_none_or(|(_, b)| skew > b) {
            best = Some((s, skew));
        }
    }
    let Some((suspect, skew)) = best else {
        return Ok(SpsReport {
            suspect: None,
            skew: key_cone
                .iter()
                .map(|s| (probs[s.index()] - 0.5).abs())
                .fold(0.0, f64::max),
            error_rate: None,
        });
    };

    // Neutralize: readers of the suspect see its quiescent constant.
    let stuck_value = probs[suspect.index()] < 0.5;
    let mut repaired = locked.netlist.clone();
    let pi = repaired.inputs()[0];
    let not_pi = repaired.add_gate(GateKind::Not, &[pi])?;
    let constant = if stuck_value {
        // quiescent 0: AND(p, ¬p)
        repaired.add_gate(GateKind::And, &[pi, not_pi])?
    } else {
        repaired.add_gate(GateKind::Or, &[pi, not_pi])?
    };
    repaired.redirect_fanouts(suspect, constant, &[])?;

    // Compare against the oracle: key inputs driven with random constants
    // (a neutralized point-function block makes the key irrelevant).
    let sim = Simulator::new(&repaired)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let key_guess: Vec<bool> = (0..locked.key_inputs.len())
        .map(|_| rng.gen_bool(0.5))
        .collect();
    let data_positions: Vec<usize> = locked
        .data_inputs
        .iter()
        .map(|&d| {
            locked
                .netlist
                .inputs()
                .iter()
                .position(|&i| i == d)
                .expect("data inputs are primary inputs")
        })
        .collect();
    let key_positions: Vec<usize> = locked
        .key_inputs
        .iter()
        .map(|&k| {
            locked
                .netlist
                .inputs()
                .iter()
                .position(|&i| i == k)
                .expect("key inputs are primary inputs")
        })
        .collect();
    let mut wrong = 0usize;
    for _ in 0..samples {
        let x: Vec<bool> = (0..oracle.num_inputs())
            .map(|_| rng.gen_bool(0.5))
            .collect();
        let mut full = vec![false; repaired.inputs().len()];
        for (slot, &pos) in data_positions.iter().enumerate() {
            full[pos] = x[slot];
        }
        for (slot, &pos) in key_positions.iter().enumerate() {
            full[pos] = key_guess[slot];
        }
        if sim.run(&full)? != oracle.try_query(&x)? {
            wrong += 1;
        }
    }
    Ok(SpsReport {
        suspect: Some(suspect),
        skew,
        error_rate: Some(wrong as f64 / samples.max(1) as f64),
    })
}

/// Minimum `|P(1) - 0.5|` skew for a wire to count as a suspect.
const SKEW_THRESHOLD: f64 = 0.45;
/// Random patterns for the functional comparison.
const SAMPLES: usize = 200;
/// RNG seed for the key guess and those patterns.
const SEED: u64 = 0;

/// The SPS attack as an [`Attack`] object: [`scan_with_oracle`] with a
/// 0.45 skew threshold and 200 comparison patterns.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sps;

impl Attack for Sps {
    fn name(&self) -> &'static str {
        "sps"
    }

    fn run(&self, locked: &LockedCircuit, oracle: &dyn Oracle) -> Result<AttackReport> {
        let start = std::time::Instant::now();
        let report = scan_with_oracle(locked, oracle, SKEW_THRESHOLD, SAMPLES, SEED)?;
        let outcome = match report.error_rate {
            Some(error_rate) => AttackOutcome::Bypassed {
                error_rate,
                exact: error_rate == 0.0,
            },
            None => AttackOutcome::Defeated {
                reason: format!(
                    "no key-dependent wire skewed above {SKEW_THRESHOLD} (best {:.3})",
                    report.skew
                ),
            },
        };
        Ok(AttackReport {
            attack: "sps",
            outcome,
            iterations: 0,
            elapsed: start.elapsed(),
            oracle_queries: oracle.queries(),
            solver: Default::default(),
            resilience: Default::default(),
            key_certificate: None,
            details: AttackDetails::Sps(report),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimOracle;
    use fulllock_locking::{AntiSat, FullLock, FullLockConfig, LockingScheme};
    use fulllock_netlist::random::{generate, RandomCircuitConfig};
    use fulllock_netlist::Netlist;

    fn host(seed: u64) -> Netlist {
        generate(RandomCircuitConfig {
            inputs: 14,
            outputs: 6,
            gates: 150,
            max_fanin: 3,
            seed,
        })
        .unwrap()
    }

    #[test]
    fn sps_breaks_antisat() {
        let original = host(1);
        let locked = AntiSat::new(12, 0).lock(&original).unwrap();
        let oracle = SimOracle::new(&original).unwrap();
        let report = scan_with_oracle(&locked, &oracle, 0.45, 200, 2).unwrap();
        assert!(report.suspect.is_some(), "no skewed wire found");
        assert!(report.skew > 0.45);
        assert!(
            report.succeeded(),
            "neutralization left error {:?}",
            report.error_rate
        );
    }

    #[test]
    fn sps_finds_no_handle_on_fulllock() {
        let original = host(2);
        let locked = FullLock::new(FullLockConfig::single_plr(8))
            .lock(&original)
            .unwrap();
        let oracle = SimOracle::new(&original).unwrap();
        let report = scan_with_oracle(&locked, &oracle, 0.45, 100, 3).unwrap();
        // Either no wire is skewed enough, or neutralizing the best
        // candidate breaks the circuit — both mean SPS fails.
        match report.suspect {
            None => assert!(report.skew < 0.45),
            Some(_) => assert!(!report.succeeded()),
        }
    }

    #[test]
    fn sps_rejects_cyclic_netlists() {
        let original = host(3);
        let config = FullLockConfig {
            plrs: vec![fulllock_locking::PlrSpec::new(8)],
            selection: fulllock_locking::WireSelection::Cyclic,
            twist_probability: 0.5,
            seed: 9,
        };
        let locked = FullLock::new(config).lock(&original).unwrap();
        if topo::is_cyclic(&locked.netlist) {
            let oracle = SimOracle::new(&original).unwrap();
            assert!(matches!(
                scan_with_oracle(&locked, &oracle, 0.45, 10, 0),
                Err(AttackError::Unsupported(_))
            ));
        }
    }
}
