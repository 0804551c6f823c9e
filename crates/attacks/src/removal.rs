//! Removal attacks: excising the locking block and re-wiring around it.
//!
//! Against pure interconnect locking, an attacker who identifies the
//! routing block can cut it out and guess (or recover, e.g. from layout
//! proximity) the permutation it implemented. §4.2.2 of the paper argues
//! Full-Lock survives this *even in the attacker's best case* — perfect
//! recovery of the CLN's permutation — because the gates leading the CLN
//! were negated ("twisted") and only the CLN's key-configurable inverters
//! compensate.
//!
//! [`excise_cln`] models exactly that best case using the locker's own
//! insertion trace; [`RemovalStudy`] quantifies the residual error.

use fulllock_locking::{FullLockTrace, LockedCircuit};
use fulllock_netlist::{Netlist, SignalId, Simulator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::oracle::Oracle;
use crate::report::{Attack, AttackDetails, AttackOutcome, AttackReport};
use crate::Result;

/// Outcome of a removal attempt.
#[derive(Debug, Clone)]
pub struct RemovalStudy {
    /// The bypassed netlist (CLN cut out, wires reconnected with the
    /// *correct* permutation — the attacker's best case).
    pub bypassed: Netlist,
    /// Fraction of sampled input patterns with any wrong output.
    pub error_rate: f64,
    /// Whether the bypass is exact on every sampled pattern (removal
    /// succeeded).
    pub recovered: bool,
}

/// Cuts every CLN out of a Full-Lock-ed netlist, reconnecting each routed
/// wire directly to its source **with the correct permutation** (perfect
/// routing recovery). Key inputs remain as dangling ports; LUTs, if any,
/// keep their (unknown-key) MUX trees in place.
///
/// The result is what an ideal removal attacker obtains; its functional
/// error against the oracle is Full-Lock's removal resistance.
pub fn excise_cln(locked: &LockedCircuit, trace: &FullLockTrace) -> Netlist {
    let mut nl = locked.netlist.clone();
    for plr in &trace.plrs {
        for (token, &source) in plr.sources.iter().enumerate() {
            let cln_output = plr.cln_outputs[plr.permutation[token]];
            // Readers of the CLN output now read the (possibly negated)
            // source wire directly.
            nl.redirect_fanouts(cln_output, source, &[])
                .expect("trace signals are valid in the locked netlist");
        }
    }
    let (swept, _) = nl.sweep();
    swept
}

/// Runs the best-case removal attack against a Full-Lock circuit and
/// measures the residual functional error on `samples` random patterns,
/// with the reference function taken from any [`Oracle`] (an activated
/// chip).
///
/// `key_guess_zero`: the dangling key inputs of the bypassed netlist (LUT
/// keys, if LUTs were enabled) are driven with zeros — the attacker has no
/// better information once the CLN is gone.
///
/// # Example
///
/// ```no_run
/// use fulllock_attacks::{removal, SimOracle};
/// use fulllock_locking::{FullLock, FullLockConfig};
/// use fulllock_netlist::benchmarks;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let original = benchmarks::load("c432")?;
/// let (locked, trace) =
///     FullLock::new(FullLockConfig::single_plr(16)).lock_with_trace(&original)?;
/// let oracle = SimOracle::new(&original)?;
/// let study = removal::study_with_oracle(&locked, &trace, &oracle, 500, 0)?;
/// assert!(!study.recovered); // twisting defeats even perfect routing recovery
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Propagates simulation errors (the bypassed netlist of an acyclic lock
/// is acyclic).
pub fn study_with_oracle(
    locked: &LockedCircuit,
    trace: &FullLockTrace,
    oracle: &dyn Oracle,
    samples: usize,
    seed: u64,
) -> Result<RemovalStudy> {
    let bypassed = excise_cln(locked, trace);
    let sim = Simulator::new(&bypassed)?;

    // Bypassed inputs = data inputs + (dangling) key inputs, in the same
    // positions as the locked netlist (sweep preserves input order).
    let mut rng = StdRng::seed_from_u64(seed);
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
    let mut wrong = 0usize;
    for _ in 0..samples {
        let x: Vec<bool> = (0..oracle.num_inputs())
            .map(|_| rng.gen_bool(0.5))
            .collect();
        let mut full = vec![false; bypassed.inputs().len()];
        for (slot, &pos) in data_positions.iter().enumerate() {
            full[pos] = x[slot];
        }
        if sim.run(&full)? != oracle.try_query(&x)? {
            wrong += 1;
        }
    }
    let error_rate = wrong as f64 / samples.max(1) as f64;
    Ok(RemovalStudy {
        bypassed,
        error_rate,
        recovered: wrong == 0,
    })
}

/// The best-case removal attack as an [`Attack`] object. Carries the
/// locker's insertion trace (the attacker's assumed perfect structural
/// knowledge) plus sampling parameters.
#[derive(Debug, Clone)]
pub struct Removal {
    /// The locker's insertion trace — models perfect identification and
    /// routing recovery of every CLN.
    pub trace: FullLockTrace,
    /// Random patterns for the residual-error measurement.
    pub samples: usize,
    /// RNG seed for those patterns.
    pub seed: u64,
}

impl Removal {
    /// A removal attack with the default sampling budget (500 patterns).
    pub fn new(trace: FullLockTrace) -> Removal {
        Removal {
            trace,
            samples: 500,
            seed: 0,
        }
    }
}

impl Attack for Removal {
    fn name(&self) -> &'static str {
        "removal"
    }

    fn run(&self, locked: &LockedCircuit, oracle: &dyn Oracle) -> Result<AttackReport> {
        let start = std::time::Instant::now();
        let study = study_with_oracle(locked, &self.trace, oracle, self.samples, self.seed)?;
        Ok(AttackReport {
            attack: "removal",
            outcome: AttackOutcome::Bypassed {
                error_rate: study.error_rate,
                exact: study.recovered,
            },
            iterations: 0,
            elapsed: start.elapsed(),
            oracle_queries: oracle.queries(),
            solver: Default::default(),
            resilience: Default::default(),
            key_certificate: None,
            details: AttackDetails::Removal(study),
        })
    }
}

/// Counts the gates an attacker can structurally identify as key logic
/// (the fan-out cone of the key inputs) — the identification step every
/// removal attack starts from.
pub fn key_logic_cone(locked: &LockedCircuit) -> Vec<SignalId> {
    let fanouts = locked.netlist.fanouts();
    let mut tainted = vec![false; locked.netlist.len()];
    let mut stack: Vec<SignalId> = locked.key_inputs.clone();
    for &k in &locked.key_inputs {
        tainted[k.index()] = true;
    }
    while let Some(s) = stack.pop() {
        for &g in &fanouts[s.index()] {
            if !tainted[g.index()] {
                tainted[g.index()] = true;
                stack.push(g);
            }
        }
    }
    locked
        .netlist
        .signals()
        .filter(|s| tainted[s.index()] && !locked.key_inputs.contains(s))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimOracle;
    use fulllock_locking::{FullLock, FullLockConfig, PlrSpec, WireSelection};
    use fulllock_netlist::random::{generate, RandomCircuitConfig};

    fn host(seed: u64) -> Netlist {
        generate(RandomCircuitConfig {
            inputs: 12,
            outputs: 6,
            gates: 150,
            max_fanin: 3,
            seed,
        })
        .unwrap()
    }

    fn lock_config(twist: f64, luts: bool) -> FullLockConfig {
        FullLockConfig {
            plrs: vec![PlrSpec {
                cln_size: 8,
                topology: fulllock_locking::ClnTopology::AlmostNonBlocking,
                with_luts: luts,
                with_inverters: true,
            }],
            selection: WireSelection::Acyclic,
            twist_probability: twist,
            seed: 21,
        }
    }

    #[test]
    fn untwisted_cln_only_lock_falls_to_removal() {
        // Without twisting (and without LUTs), perfect routing recovery
        // restores the original function exactly — pure interconnect
        // locking is removable.
        let original = host(1);
        let (locked, trace) = FullLock::new(lock_config(0.0, false))
            .lock_with_trace(&original)
            .unwrap();
        let study = study_with_oracle(&locked, &trace, &SimOracle::new(&original).unwrap(), 200, 3)
            .unwrap();
        assert!(study.recovered, "error rate {}", study.error_rate);
    }

    #[test]
    fn twisted_fulllock_survives_removal() {
        // With twisting, the same best-case removal leaves negated gates
        // uncompensated: the bypassed circuit is functionally wrong.
        let original = host(2);
        let (locked, trace) = FullLock::new(lock_config(1.0, false))
            .lock_with_trace(&original)
            .unwrap();
        let study = study_with_oracle(&locked, &trace, &SimOracle::new(&original).unwrap(), 200, 4)
            .unwrap();
        assert!(!study.recovered);
        assert!(
            study.error_rate > 0.1,
            "twisting should corrupt the bypass: {}",
            study.error_rate
        );
    }

    #[test]
    fn luts_also_defeat_removal() {
        // Even untwisted, LUT replacement leaves unknown logic behind when
        // the CLN is cut out (keys guessed as zero).
        let original = host(3);
        let (locked, trace) = FullLock::new(lock_config(0.0, true))
            .lock_with_trace(&original)
            .unwrap();
        let study = study_with_oracle(&locked, &trace, &SimOracle::new(&original).unwrap(), 200, 5)
            .unwrap();
        assert!(!study.recovered);
    }

    #[test]
    fn key_cone_covers_the_plr() {
        let original = host(4);
        let (locked, _) = FullLock::new(lock_config(0.5, true))
            .lock_with_trace(&original)
            .unwrap();
        let cone = key_logic_cone(&locked);
        // The CLN alone has stages · (N MUXes + N XORs) gates; the cone
        // must at least cover them.
        assert!(cone.len() > 50, "cone only {} gates", cone.len());
    }
}
