//! Property-based tests of the locking layer: every scheme must be
//! functionality-preserving under its correct key on arbitrary hosts, and
//! the CLN routing algebra must stay consistent with its netlist
//! realization.

use fulllock_locking::{
    AntiSat, ClnStructure, ClnTopology, CrossLock, FullLock, FullLockConfig, Key, LockedCircuit,
    LockingScheme, LutLock, PlrSpec, Rll, SarLock, WireSelection,
};
use fulllock_netlist::random::{generate, RandomCircuitConfig};
use fulllock_netlist::{Netlist, Simulator};
use fulllock_sat::equiv::EquivResult;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

fn host(seed: u64) -> Netlist {
    generate(RandomCircuitConfig {
        inputs: 14,
        outputs: 6,
        gates: 160,
        max_fanin: 3,
        seed,
    })
    .expect("valid config")
}

fn check_roundtrip(
    original: &Netlist,
    scheme: &dyn LockingScheme,
    samples: usize,
) -> Result<(), TestCaseError> {
    let Ok(locked) = scheme.lock(original) else {
        return Ok(()); // host too small for this configuration: documented error
    };
    prop_assert_eq!(locked.key_len(), locked.correct_key.len());
    let sim = Simulator::new(original).expect("acyclic host");
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0FFEE);
    for _ in 0..samples {
        let x: Vec<bool> = (0..original.inputs().len())
            .map(|_| rng.gen_bool(0.5))
            .collect();
        prop_assert_eq!(
            locked.eval(&x, &locked.correct_key).expect("interface"),
            sim.run(&x).expect("sized")
        );
    }
    Ok(())
}

/// Every input pattern of an `inputs`-wide netlist, 64 per word: lane
/// `l` of word `w` is pattern `64·w + l`, and input `i` carries bit `i` of
/// the pattern.
fn exhaustive_words(inputs: usize) -> impl Iterator<Item = Vec<u64>> {
    (0..(1usize << inputs).div_ceil(64)).map(move |w| {
        (0..inputs)
            .map(|i| {
                (0..64)
                    .filter(|l| (64 * w + l) >> i & 1 == 1)
                    .fold(0, |acc, l| acc | 1u64 << l)
            })
            .collect()
    })
}

/// Whether `locked` under `key` differs from `original` on some data
/// pattern, by exhaustive bit-parallel simulation.
fn differs_somewhere(locked: &LockedCircuit, key: &Key, original: &Netlist) -> bool {
    let sim_locked = Simulator::new(&locked.netlist).expect("acyclic lock");
    let sim_original = Simulator::new(original).expect("acyclic host");
    let position_of = |sig| {
        locked
            .netlist
            .inputs()
            .iter()
            .position(|&i| i == sig)
            .expect("primary input")
    };
    exhaustive_words(locked.data_inputs.len()).any(|data| {
        let mut words = vec![0u64; locked.netlist.inputs().len()];
        for (&sig, &word) in locked.data_inputs.iter().zip(&data) {
            words[position_of(sig)] = word;
        }
        for (&sig, &bit) in locked.key_inputs.iter().zip(key.bits()) {
            words[position_of(sig)] = if bit { u64::MAX } else { 0 };
        }
        sim_locked.run_u64(&words).expect("sized") != sim_original.run_u64(&data).expect("sized")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn rll_round_trips(host_seed in any::<u64>(), lock_seed in any::<u64>(), bits in 1usize..24) {
        check_roundtrip(&host(host_seed), &Rll::new(bits, lock_seed), 8)?;
    }

    #[test]
    fn sarlock_round_trips(host_seed in any::<u64>(), lock_seed in any::<u64>(), bits in 1usize..14) {
        check_roundtrip(&host(host_seed), &SarLock::new(bits, lock_seed), 8)?;
    }

    #[test]
    fn antisat_round_trips(host_seed in any::<u64>(), lock_seed in any::<u64>(), bits in 1usize..14) {
        check_roundtrip(&host(host_seed), &AntiSat::new(bits, lock_seed), 8)?;
    }

    #[test]
    fn lutlock_round_trips(host_seed in any::<u64>(), lock_seed in any::<u64>(), luts in 1usize..20) {
        check_roundtrip(&host(host_seed), &LutLock::new(luts, lock_seed), 8)?;
    }

    #[test]
    fn crosslock_round_trips(host_seed in any::<u64>(), lock_seed in any::<u64>(), size_pow in 2u32..4) {
        check_roundtrip(&host(host_seed), &CrossLock::new(1 << size_pow, lock_seed), 8)?;
    }

    #[test]
    fn fulllock_round_trips_across_feature_combinations(
        host_seed in any::<u64>(),
        lock_seed in any::<u64>(),
        with_luts in any::<bool>(),
        with_inverters in any::<bool>(),
        twist in 0.0f64..1.0,
        topology_pick in 0usize..4,
    ) {
        let topology = [
            ClnTopology::Shuffle,
            ClnTopology::Banyan,
            ClnTopology::AlmostNonBlocking,
            ClnTopology::Benes,
        ][topology_pick];
        let config = FullLockConfig {
            plrs: vec![PlrSpec { cln_size: 8, topology, with_luts, with_inverters }],
            selection: WireSelection::Acyclic,
            twist_probability: twist,
            seed: lock_seed,
        };
        check_roundtrip(&host(host_seed), &FullLock::new(config), 8)?;
    }

    /// Routing the structural model with random switch states always
    /// yields a permutation, and the parity tracker is consistent with
    /// flipping inverter bits along final positions.
    #[test]
    fn cln_routing_is_permutation(seed in any::<u64>(), topology_pick in 0usize..4, size_pow in 2u32..5) {
        let topology = [
            ClnTopology::Shuffle,
            ClnTopology::Banyan,
            ClnTopology::AlmostNonBlocking,
            ClnTopology::Benes,
        ][topology_pick];
        let n = 1usize << size_pow;
        let structure = ClnStructure::new(topology, n).expect("valid size");
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let states = structure.random_states(&mut rng);
        let perm = structure.route(&states);
        let mut seen = vec![false; n];
        for &o in &perm {
            prop_assert!(!seen[o]);
            seen[o] = true;
        }
        // Flipping one final-layer inverter flips exactly that token's
        // parity.
        let mut inv = vec![false; structure.stages() * n];
        let token = (seed as usize) % n;
        inv[(structure.stages() - 1) * n + structure.final_position(&perm, token)] = true;
        let (perm2, parity) = structure.route_with_parity(&states, &inv);
        prop_assert_eq!(perm2, perm);
        for (t, &p) in parity.iter().enumerate() {
            prop_assert_eq!(p, t == token);
        }
    }

    /// Resynthesizing a locked circuit (optimizer pass) preserves its
    /// behaviour under the correct key.
    #[test]
    fn optimizer_preserves_locked_behaviour(host_seed in any::<u64>(), lock_seed in any::<u64>()) {
        let original = host(host_seed);
        let config = FullLockConfig {
            plrs: vec![PlrSpec::new(8)],
            selection: WireSelection::Acyclic,
            twist_probability: 0.5,
            seed: lock_seed,
        };
        let Ok(mut locked) = FullLock::new(config).lock(&original) else { return Ok(()) };
        let correct = locked.correct_key.clone();
        let before = locked.netlist.stats().gates;
        let stats = locked.optimize().expect("acyclic lock");
        prop_assert_eq!(stats.gates_before, before);
        prop_assert!(stats.gates_after <= before);
        let sim = Simulator::new(&original).expect("acyclic host");
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for _ in 0..8 {
            let x: Vec<bool> = (0..original.inputs().len()).map(|_| rng.gen_bool(0.5)).collect();
            prop_assert_eq!(
                locked.eval(&x, &correct).expect("interface"),
                sim.run(&x).expect("sized")
            );
        }
    }

    /// Locked circuits never lose or reorder the original data interface.
    #[test]
    fn data_interface_is_preserved(host_seed in any::<u64>()) {
        let original = host(host_seed);
        let locked = FullLock::new(FullLockConfig::single_plr(8))
            .lock(&original)
            .expect("160-gate hosts fit an 8-input PLR");
        prop_assert_eq!(locked.data_inputs.len(), original.inputs().len());
        for (slot, &d) in locked.data_inputs.iter().enumerate() {
            prop_assert_eq!(
                locked.netlist.signal_name(d),
                original.signal_name(original.inputs()[slot])
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `prove_key` says `Equivalent` exactly when exhaustive simulation
    /// finds no differing pattern, and each counterexample it returns
    /// really differs. Tried on the correct key, random keys and one-bit
    /// flips of the correct key, for RLL, SARLock, a Full-Lock PLR and a
    /// CLN-only PLR on hosts of at most 12 data inputs.
    #[test]
    fn prove_key_agrees_with_brute_force(
        host_seed in any::<u64>(),
        lock_seed in any::<u64>(),
        inputs in 6usize..=12,
        scheme_pick in 0usize..4,
    ) {
        let original = generate(RandomCircuitConfig {
            inputs,
            outputs: 4,
            gates: 80,
            max_fanin: 3,
            seed: host_seed,
        })
        .expect("valid config");
        let plr = |spec| FullLockConfig {
            plrs: vec![spec],
            selection: WireSelection::Acyclic,
            twist_probability: 0.5,
            seed: lock_seed,
        };
        let scheme: Box<dyn LockingScheme> = match scheme_pick {
            0 => Box::new(Rll::new(8, lock_seed)),
            1 => Box::new(SarLock::new(inputs.min(8), lock_seed)),
            2 => Box::new(FullLock::new(plr(PlrSpec::new(4)))),
            _ => Box::new(FullLock::new(plr(PlrSpec { with_luts: false, ..PlrSpec::new(4) }))),
        };
        let Ok(locked) = scheme.lock(&original) else {
            return Ok(()); // host too small for this configuration
        };
        let correct = locked.correct_key.bits().to_vec();
        let mut rng = rand::rngs::StdRng::seed_from_u64(lock_seed);
        let mut keys = vec![correct.clone()];
        for _ in 0..3 {
            keys.push((0..correct.len()).map(|_| rng.gen_bool(0.5)).collect());
        }
        for _ in 0..6 {
            let mut flipped = correct.clone();
            let bit = rng.gen_range(0..flipped.len());
            flipped[bit] = !flipped[bit];
            keys.push(flipped);
        }
        let sim = Simulator::new(&original).expect("acyclic host");
        for bits in keys {
            let key = Key::from_bits(bits);
            let differs = differs_somewhere(&locked, &key, &original);
            match locked.prove_key(&key, &original).expect("acyclic, ordered lock") {
                EquivResult::Equivalent => prop_assert!(!differs, "proved a wrong key {:?}", key),
                EquivResult::Counterexample(x) => {
                    prop_assert!(differs);
                    prop_assert_ne!(
                        locked.eval(&x, &key).expect("interface"),
                        sim.run(&x).expect("sized")
                    );
                }
                EquivResult::Unknown => prop_assert!(false, "no limits were set"),
            }
        }
    }
}
