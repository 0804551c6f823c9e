//! Post-hoc key certification — independent evidence that a recovered
//! key is right.
//!
//! An attack's own "verified" flag comes from the machinery that produced
//! the key: the same encoder, the same solver, sometimes the very model
//! the key was read from. A bug there produces a confidently wrong
//! answer. [`certify_key`] re-derives the verdict from scratch:
//!
//! 1. **Simulation**: the locked netlist is unlocked with the candidate
//!    key and simulated 64 patterns at a time
//!    ([`Simulator::run_u64`]) against fresh oracle queries — the
//!    attack's constraint encoding is never consulted. Attacks certify
//!    through their [`ResilientOracle`](crate::ResilientOracle), which
//!    retries a lost answer; a query that still fails counts as a
//!    mismatch, so the certificate is not clean, and nothing panics;
//! 2. **Formal**: when the oracle exposes its reference netlist
//!    ([`Oracle::netlist`]), [`LockedCircuit::prove_key`] proves (or
//!    refutes) equivalence under the key — exhaustive over the whole input
//!    space, not a sample. The proof folds and hashes first
//!    ([`fulllock_sat::equiv`]): the key is tied to constants in one
//!    netlist holding both circuits, [`opt::optimize`] closes every output
//!    pair that lands on one signal, and only the fanin cone of the pairs
//!    still open reaches the SAT solver. An `Equivalent` verdict therefore
//!    trusts `opt::optimize`'s rewrite rules as well as the solver. They
//!    are judged by simulation, never by this proof:
//!    `prove_key_agrees_with_brute_force`,
//!    `optimizer_is_equivalence_preserving` and
//!    `cec_counterexamples_are_genuine` (see [`fulllock_sat::equiv`]).
//!
//! The result is a [`KeyCertificate`] attached to the
//! [`AttackReport`](crate::AttackReport) envelope, so a paper table can
//! state not just "key recovered" but "key recovered *and independently
//! certified*".
//!
//! [`opt::optimize`]: fulllock_netlist::opt::optimize

use fulllock_locking::{Key, LockedCircuit};
use fulllock_netlist::Simulator;
use fulllock_sat::equiv::EquivResult;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::oracle::Oracle;
use crate::report::{FormalVerdict, KeyCertificate};

/// Certifies `key` against the oracle: `samples` random patterns (plus
/// the all-zeros and all-ones corners) of bit-parallel simulation, then a
/// formal equivalence check when the oracle exposes a reference netlist.
///
/// Never fails — a check that cannot run is recorded as
/// [`FormalVerdict::Unavailable`] with the reason, and a mis-sized key
/// simply mismatches on every pattern.
pub fn certify_key(
    locked: &LockedCircuit,
    oracle: &dyn Oracle,
    key: &Key,
    samples: usize,
    seed: u64,
) -> KeyCertificate {
    let (samples, mismatches) = simulate(locked, oracle, key, samples, seed);
    let formal = match oracle.netlist() {
        None => FormalVerdict::Unavailable("oracle exposes no reference netlist".into()),
        Some(original) => match locked.prove_key(key, original) {
            Ok(EquivResult::Equivalent) => FormalVerdict::Equivalent,
            Ok(EquivResult::Counterexample(_)) => FormalVerdict::NotEquivalent,
            Ok(EquivResult::Unknown) => FormalVerdict::Unknown,
            Err(e) => FormalVerdict::Unavailable(e.to_string()),
        },
    };
    KeyCertificate {
        samples,
        mismatches,
        formal,
    }
}

/// Simulates the unlocked circuit against the oracle and counts
/// disagreeing patterns. Acyclic netlists run 64 patterns per
/// [`Simulator::run_u64`] sweep; cyclic ones fall back to per-pattern
/// ternary fixed-point evaluation (an unsettled output counts as a
/// mismatch). A query that fails ([`Oracle::try_query`]) counts as a
/// mismatch too: no answer is no evidence for the key.
fn simulate(
    locked: &LockedCircuit,
    oracle: &dyn Oracle,
    key: &Key,
    samples: usize,
    seed: u64,
) -> (u64, u64) {
    let width = locked.data_inputs.len();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut patterns: Vec<Vec<bool>> = vec![vec![false; width], vec![true; width]];
    patterns.extend((0..samples).map(|_| (0..width).map(|_| rng.gen_bool(0.5)).collect()));
    let total = patterns.len() as u64;

    if key.len() != locked.key_inputs.len() {
        return (total, total);
    }

    let Ok(sim) = Simulator::new(&locked.netlist) else {
        // Cyclic locked netlist: per-pattern ternary evaluation.
        let mismatches = patterns
            .iter()
            .filter(|x| {
                let Ok(want) = oracle.try_query(x) else {
                    return true;
                };
                match locked.eval_cyclic(x, key) {
                    Ok(eval) => {
                        !eval.all_outputs_known()
                            || eval
                                .outputs
                                .iter()
                                .zip(&want)
                                .any(|(t, w)| t.to_bool() != Some(*w))
                    }
                    Err(_) => true,
                }
            })
            .count() as u64;
        return (total, mismatches);
    };

    // Positions of the data/key inputs inside the netlist's input vector.
    let position_of = |sig| {
        locked
            .netlist
            .inputs()
            .iter()
            .position(|&i| i == sig)
            .expect("data/key inputs are primary inputs")
    };
    let data_positions: Vec<usize> = locked.data_inputs.iter().map(|&s| position_of(s)).collect();
    let key_positions: Vec<usize> = locked.key_inputs.iter().map(|&s| position_of(s)).collect();

    let mut mismatches = 0u64;
    for block in patterns.chunks(64) {
        let mut words = vec![0u64; locked.netlist.inputs().len()];
        for (slot, &position) in key_positions.iter().enumerate() {
            if key.bits()[slot] {
                words[position] = u64::MAX;
            }
        }
        for (lane, x) in block.iter().enumerate() {
            for (slot, &position) in data_positions.iter().enumerate() {
                if x[slot] {
                    words[position] |= 1u64 << lane;
                }
            }
        }
        let got = sim
            .run_u64(&words)
            .expect("input vector sized off the netlist");
        for (lane, x) in block.iter().enumerate() {
            let agrees = oracle.try_query(x).is_ok_and(|want| {
                got.iter()
                    .zip(&want)
                    .all(|(&word, &w)| (word >> lane & 1 == 1) == w)
            });
            if !agrees {
                mismatches += 1;
            }
        }
    }
    (total, mismatches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{OracleError, SimOracle};
    use fulllock_locking::{LockingScheme, Rll};
    use fulllock_netlist::benchmarks;

    #[test]
    fn correct_key_certifies_clean_and_proven() {
        let original = benchmarks::load("c17").unwrap();
        let locked = Rll::new(4, 0).lock(&original).unwrap();
        let oracle = SimOracle::new(&original).unwrap();
        let cert = certify_key(&locked, &oracle, &locked.correct_key.clone(), 64, 7);
        assert_eq!(cert.mismatches, 0, "{cert:?}");
        assert_eq!(cert.formal, FormalVerdict::Equivalent);
        assert!(cert.is_clean() && cert.is_proven());
        assert_eq!(cert.samples, 66, "64 samples plus two corners");
    }

    #[test]
    fn wrong_key_is_caught_by_both_checks() {
        let original = benchmarks::load("c17").unwrap();
        let locked = Rll::new(4, 0).lock(&original).unwrap();
        let oracle = SimOracle::new(&original).unwrap();
        let mut bits: Vec<bool> = locked.correct_key.bits().to_vec();
        for b in &mut bits {
            *b = !*b;
        }
        let wrong = Key::from_bits(bits);
        let cert = certify_key(&locked, &oracle, &wrong, 64, 7);
        assert!(cert.mismatches > 0, "{cert:?}");
        assert_eq!(cert.formal, FormalVerdict::NotEquivalent);
        assert!(!cert.is_clean());
    }

    /// A real chip: no reference netlist. A `dead` one loses every
    /// response.
    struct Chip<'a> {
        inner: SimOracle<'a>,
        dead: bool,
    }

    impl Oracle for Chip<'_> {
        fn num_inputs(&self) -> usize {
            self.inner.num_inputs()
        }
        fn num_outputs(&self) -> usize {
            self.inner.num_outputs()
        }
        fn query(&self, _: &[bool]) -> Vec<bool> {
            unreachable!("certification queries through try_query")
        }
        fn try_query(&self, inputs: &[bool]) -> Result<Vec<bool>, OracleError> {
            if self.dead {
                return Err(OracleError::Transient("lost response".into()));
            }
            self.inner.try_query(inputs)
        }
        fn queries(&self) -> u64 {
            self.inner.queries()
        }
        // netlist() keeps the default None.
    }

    #[test]
    fn oracle_without_netlist_degrades_to_sampled_evidence() {
        let original = benchmarks::load("c17").unwrap();
        let locked = Rll::new(4, 0).lock(&original).unwrap();
        let oracle = Chip {
            inner: SimOracle::new(&original).unwrap(),
            dead: false,
        };
        let cert = certify_key(&locked, &oracle, &locked.correct_key.clone(), 16, 3);
        assert_eq!(cert.mismatches, 0);
        assert!(matches!(cert.formal, FormalVerdict::Unavailable(_)));
        assert!(cert.is_clean() && !cert.is_proven());
    }

    #[test]
    fn failed_queries_count_as_mismatches() {
        let original = benchmarks::load("c17").unwrap();
        let locked = Rll::new(4, 0).lock(&original).unwrap();
        let oracle = Chip {
            inner: SimOracle::new(&original).unwrap(),
            dead: true,
        };
        let cert = certify_key(&locked, &oracle, &locked.correct_key.clone(), 16, 3);
        assert_eq!(cert.mismatches, cert.samples);
        assert!(!cert.is_clean());
    }

    #[test]
    fn mis_sized_key_mismatches_everywhere() {
        let original = benchmarks::load("c17").unwrap();
        let locked = Rll::new(4, 0).lock(&original).unwrap();
        let oracle = SimOracle::new(&original).unwrap();
        let cert = certify_key(&locked, &oracle, &Key::from_bits([true]), 8, 3);
        assert_eq!(cert.mismatches, cert.samples);
        assert!(!cert.is_clean());
    }
}
