//! Keys and locked circuits.

use std::fmt;

use fulllock_netlist::cyclic::{CyclicEval, CyclicSimulator};
use fulllock_netlist::{Netlist, SignalId, Simulator};
use rand::Rng;

use crate::{LockError, Result};

/// A locking key: an ordered bit vector, one bit per key input.
///
/// # Example
///
/// ```
/// use fulllock_locking::Key;
///
/// let key = Key::from_bits([true, false, true, true]);
/// assert_eq!(key.len(), 4);
/// assert_eq!(format!("{key}"), "1011");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Key {
    bits: Vec<bool>,
}

impl Key {
    /// Creates a key from bits (first bit ↔ first key input).
    pub fn from_bits(bits: impl IntoIterator<Item = bool>) -> Key {
        Key {
            bits: bits.into_iter().collect(),
        }
    }

    /// An all-zero key of the given width.
    pub fn zeros(len: usize) -> Key {
        Key {
            bits: vec![false; len],
        }
    }

    /// A uniformly random key of the given width.
    pub fn random(len: usize, rng: &mut impl Rng) -> Key {
        Key {
            bits: (0..len).map(|_| rng.gen_bool(0.5)).collect(),
        }
    }

    /// Number of key bits.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Whether the key has no bits.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// The bits, first key input first.
    pub fn bits(&self) -> &[bool] {
        &self.bits
    }

    /// Flips one bit (useful for building near-miss wrong keys in tests).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn flip(&mut self, index: usize) {
        self.bits[index] = !self.bits[index];
    }

    /// Hamming distance to another key of the same width.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn hamming_distance(&self, other: &Key) -> usize {
        assert_eq!(self.len(), other.len(), "keys must have equal width");
        self.bits
            .iter()
            .zip(&other.bits)
            .filter(|(a, b)| a != b)
            .count()
    }
}

impl FromIterator<bool> for Key {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Key {
        Key::from_bits(iter)
    }
}

impl std::str::FromStr for Key {
    type Err = LockError;

    /// Parses a binary key string like `"1011"` (first character ↔ first
    /// key input), the format [`Key`]'s `Display` produces.
    fn from_str(s: &str) -> Result<Key> {
        s.chars()
            .map(|c| match c {
                '0' => Ok(false),
                '1' => Ok(true),
                other => Err(LockError::BadConfig(format!(
                    "key strings are binary; found {other:?}"
                ))),
            })
            .collect()
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for &b in &self.bits {
            write!(f, "{}", u8::from(b))?;
        }
        Ok(())
    }
}

/// A locked netlist: the obfuscated circuit, which key inputs drive it, and
/// the correct key.
///
/// The netlist's primary inputs are the disjoint union of `data_inputs` and
/// `key_inputs` (in whatever interleaving the scheme produced); evaluation
/// helpers take the data pattern and key separately and assemble the full
/// input vector.
#[derive(Debug, Clone)]
pub struct LockedCircuit {
    /// The locked netlist (may be cyclic for cyclic insertion modes).
    pub netlist: Netlist,
    /// The original circuit's inputs, in original order.
    pub data_inputs: Vec<SignalId>,
    /// The key inputs, in key-bit order.
    pub key_inputs: Vec<SignalId>,
    /// The key that restores the original functionality.
    pub correct_key: Key,
}

impl LockedCircuit {
    /// Number of key bits.
    pub fn key_len(&self) -> usize {
        self.key_inputs.len()
    }

    /// Assembles a full primary-input vector from a data pattern and a key.
    ///
    /// # Errors
    ///
    /// Returns [`LockError::KeyLength`] for a mis-sized key and propagates
    /// [`LockError::Netlist`] for a mis-sized data pattern (detected at
    /// simulation time).
    pub fn assemble_inputs(&self, data: &[bool], key: &Key) -> Result<Vec<bool>> {
        if key.len() != self.key_inputs.len() {
            return Err(LockError::KeyLength {
                expected: self.key_inputs.len(),
                got: key.len(),
            });
        }
        if data.len() != self.data_inputs.len() {
            return Err(LockError::Netlist(
                fulllock_netlist::NetlistError::InputCount {
                    expected: self.data_inputs.len(),
                    got: data.len(),
                },
            ));
        }
        let mut values = vec![false; self.netlist.inputs().len()];
        let position_of = |sig: SignalId| {
            self.netlist
                .inputs()
                .iter()
                .position(|&i| i == sig)
                .expect("data/key inputs are primary inputs")
        };
        for (slot, &sig) in self.data_inputs.iter().enumerate() {
            values[position_of(sig)] = data[slot];
        }
        for (slot, &sig) in self.key_inputs.iter().enumerate() {
            values[position_of(sig)] = key.bits()[slot];
        }
        Ok(values)
    }

    /// Evaluates the locked circuit (acyclic netlists only).
    ///
    /// # Errors
    ///
    /// Returns [`LockError::KeyLength`] for a mis-sized key and
    /// [`LockError::Netlist`] for cyclic netlists or mis-sized data.
    pub fn eval(&self, data: &[bool], key: &Key) -> Result<Vec<bool>> {
        let inputs = self.assemble_inputs(data, key)?;
        let sim = Simulator::new(&self.netlist)?;
        Ok(sim.run(&inputs)?)
    }

    /// Evaluates with ternary fixed-point semantics (works for cyclic
    /// netlists; unsettled outputs come back as `X`).
    ///
    /// # Errors
    ///
    /// Returns [`LockError::KeyLength`] for a mis-sized key and
    /// [`LockError::Netlist`] for mis-sized data.
    pub fn eval_cyclic(&self, data: &[bool], key: &Key) -> Result<CyclicEval> {
        let inputs = self.assemble_inputs(data, key)?;
        let sim = CyclicSimulator::new(&self.netlist);
        Ok(sim.run(&inputs)?)
    }

    /// Formally proves that this circuit under `key` computes exactly
    /// `original` — the exhaustive counterpart of sampled verification.
    ///
    /// The proof folds and hashes before it calls SAT
    /// ([`fulllock_sat::equiv::check_under_constants`]): the key inputs
    /// become constants in one netlist that holds both circuits over shared
    /// data inputs, [`fulllock_netlist::opt::optimize`] folds the key logic
    /// and merges the gates the two copies share, every output pair that
    /// lands on one signal counts as proven, and only the fanin cone of the
    /// pairs still open goes to the SAT solver. `Equivalent` therefore
    /// trusts `optimize`'s rewrite rules as well as the solver. Tests
    /// judge those rules by simulation, never by this proof:
    /// `prove_key_agrees_with_brute_force` (exhaustive, in this crate's
    /// `tests/proptest_locking.rs`) and the optimizer tests named in
    /// [`fulllock_sat::equiv`].
    ///
    /// # Errors
    ///
    /// Returns [`LockError::KeyLength`] for a mis-sized key and
    /// [`LockError::BadConfig`] if either netlist is cyclic or the data
    /// interface does not match.
    ///
    /// # Example
    ///
    /// ```
    /// use fulllock_locking::{LockingScheme, Rll};
    /// use fulllock_netlist::benchmarks;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let original = benchmarks::load("c17")?;
    /// let locked = Rll::new(3, 0).lock(&original)?;
    /// let verdict = locked.prove_key(&locked.correct_key.clone(), &original)?;
    /// assert!(verdict.is_equivalent());
    /// # Ok(())
    /// # }
    /// ```
    pub fn prove_key(
        &self,
        key: &Key,
        original: &Netlist,
    ) -> Result<fulllock_sat::equiv::EquivResult> {
        if key.len() != self.key_inputs.len() {
            return Err(LockError::KeyLength {
                expected: self.key_inputs.len(),
                got: key.len(),
            });
        }
        let position_of = |sig: SignalId| {
            self.netlist
                .inputs()
                .iter()
                .position(|&i| i == sig)
                .expect("key inputs are primary inputs")
        };
        let constants: Vec<(usize, bool)> = self
            .key_inputs
            .iter()
            .zip(key.bits())
            .map(|(&sig, &bit)| (position_of(sig), bit))
            .collect();
        // `check_under_constants` matches the remaining (data) inputs of
        // the locked netlist positionally with the original's inputs; our
        // schemes preserve the original input order, assert it anyway.
        let key_positions: Vec<usize> = constants.iter().map(|&(p, _)| p).collect();
        let free_positions: Vec<usize> = (0..self.netlist.inputs().len())
            .filter(|p| !key_positions.contains(p))
            .collect();
        let expected: Vec<usize> = self.data_inputs.iter().map(|&d| position_of(d)).collect();
        if free_positions != expected {
            return Err(LockError::BadConfig(
                "data inputs are not in original order; sampled verification only".into(),
            ));
        }
        fulllock_sat::equiv::check_under_constants(&self.netlist, &constants, original, None)
            .map_err(|e| LockError::BadConfig(e.to_string()))
    }

    /// Removes dead logic (gates no longer reachable from any output),
    /// remapping `data_inputs` / `key_inputs` accordingly.
    pub fn sweep(&mut self) {
        let _ = self.sweep_with_remap();
    }

    /// Resynthesizes the locked netlist with the logic optimizer
    /// ([`fulllock_netlist::opt`]): constant folding, identities, and
    /// structural hashing. Functionality under every key is preserved (the
    /// optimizer never sees key values). Returns the optimizer statistics.
    ///
    /// # Errors
    ///
    /// Returns [`LockError::Netlist`] for cyclic locked netlists (cyclic
    /// insertion mode cannot be resynthesized by the acyclic pass).
    pub fn optimize(&mut self) -> Result<fulllock_netlist::opt::OptStats> {
        let optimized = fulllock_netlist::opt::optimize(&self.netlist)?;
        let remap_sig =
            |s: SignalId| optimized.remap[s.index()].expect("primary inputs survive optimization");
        self.data_inputs = self.data_inputs.iter().map(|&s| remap_sig(s)).collect();
        self.key_inputs = self.key_inputs.iter().map(|&s| remap_sig(s)).collect();
        self.netlist = optimized.netlist;
        Ok(optimized.stats)
    }

    /// Like [`LockedCircuit::sweep`], returning the old-index → new-id remap
    /// table so callers holding pre-sweep [`SignalId`]s (e.g. insertion
    /// traces) can follow along.
    pub fn sweep_with_remap(&mut self) -> Vec<Option<SignalId>> {
        let (swept, remap) = self.netlist.sweep();
        let remap_sig = |s: SignalId| remap[s.index()].expect("primary inputs survive sweeping");
        self.data_inputs = self.data_inputs.iter().map(|&s| remap_sig(s)).collect();
        self.key_inputs = self.key_inputs.iter().map(|&s| remap_sig(s)).collect();
        self.netlist = swept;
        remap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fulllock_netlist::GateKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn xor_locked() -> LockedCircuit {
        // y = a XOR k : correct key 0 makes y = a.
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let k = nl.add_input("keyinput0");
        let y = nl.add_gate(GateKind::Xor, &[a, k]).unwrap();
        nl.mark_output(y);
        LockedCircuit {
            netlist: nl,
            data_inputs: vec![a],
            key_inputs: vec![k],
            correct_key: Key::zeros(1),
        }
    }

    #[test]
    fn key_display_and_flip() {
        let mut k = Key::from_bits([true, false]);
        assert_eq!(format!("{k}"), "10");
        k.flip(1);
        assert_eq!(format!("{k}"), "11");
    }

    #[test]
    fn key_parses_from_its_display() {
        let key = Key::from_bits([true, false, true]);
        let parsed: Key = format!("{key}").parse().unwrap();
        assert_eq!(parsed, key);
        assert!("10x1".parse::<Key>().is_err());
        assert_eq!("".parse::<Key>().unwrap(), Key::zeros(0));
    }

    #[test]
    fn key_hamming() {
        let a = Key::from_bits([true, false, true]);
        let b = Key::from_bits([false, false, true]);
        assert_eq!(a.hamming_distance(&b), 1);
        assert_eq!(a.hamming_distance(&a), 0);
    }

    #[test]
    fn random_key_is_deterministic_in_seed() {
        let mut r1 = StdRng::seed_from_u64(5);
        let mut r2 = StdRng::seed_from_u64(5);
        assert_eq!(Key::random(32, &mut r1), Key::random(32, &mut r2));
    }

    #[test]
    fn eval_with_correct_and_wrong_key() {
        let lc = xor_locked();
        assert_eq!(lc.eval(&[true], &lc.correct_key).unwrap(), vec![true]);
        assert_eq!(lc.eval(&[false], &lc.correct_key).unwrap(), vec![false]);
        let wrong = Key::from_bits([true]);
        assert_eq!(lc.eval(&[true], &wrong).unwrap(), vec![false]);
    }

    #[test]
    fn mis_sized_key_errors() {
        let lc = xor_locked();
        assert!(matches!(
            lc.eval(&[true], &Key::zeros(2)),
            Err(LockError::KeyLength {
                expected: 1,
                got: 2
            })
        ));
    }

    #[test]
    fn mis_sized_data_errors() {
        let lc = xor_locked();
        assert!(lc.eval(&[], &Key::zeros(1)).is_err());
    }

    #[test]
    fn optimize_preserves_locked_function() {
        use crate::schemes::LockingScheme;
        let original = fulllock_netlist::benchmarks::load("c432").unwrap();
        let mut locked = crate::FullLock::new(crate::FullLockConfig::single_plr(8))
            .lock(&original)
            .unwrap();
        let before = locked.netlist.stats().gates;
        let correct = locked.correct_key.clone();
        let stats = locked.optimize().unwrap();
        assert_eq!(stats.gates_before, before);
        assert!(stats.gates_after <= before);
        // Still provably equivalent under the correct key.
        assert!(locked
            .prove_key(&correct, &original)
            .unwrap()
            .is_equivalent());
    }

    #[test]
    fn sweep_remaps_inputs() {
        let mut lc = xor_locked();
        // Add a dead gate, then sweep.
        let a = lc.data_inputs[0];
        lc.netlist.add_gate(GateKind::Not, &[a]).unwrap();
        let gates_before = lc.netlist.stats().gates;
        lc.sweep();
        assert_eq!(lc.netlist.stats().gates, gates_before - 1);
        assert_eq!(lc.eval(&[true], &Key::zeros(1)).unwrap(), vec![true]);
    }
}
