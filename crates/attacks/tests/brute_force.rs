//! Brute-force check of the SAT-family attacks. On random lockings small
//! enough to enumerate (at most 12 key bits and 10 data inputs), the
//! functionally-correct keys are found by exhaustive bit-parallel
//! simulation, a judge that shares no code with the attacks. SAT and
//! Double-DIP must recover a key in that class; AppSAT must too whenever
//! it reports an exact key. Every attack runs with CDCL inprocessing on
//! and off, under the generic encoding, and without cone reduction; under
//! `FULLLOCK_CERTIFY=proof` every solver answer is certified as well.

use std::time::Duration;

use fulllock_attacks::{
    AppSatConfig, Attack, AttackOutcome, DoubleDip, EncodeStyle, SatAttackConfig, SimOracle,
};
use fulllock_locking::{
    FullLock, FullLockConfig, LockedCircuit, LockingScheme, PlrSpec, Rll, WireSelection,
};
use fulllock_netlist::random::{generate, RandomCircuitConfig};
use fulllock_netlist::{Netlist, Simulator};
use fulllock_sat::cdcl::SolverConfig;
use fulllock_sat::BackendSpec;

const MAX_KEY_BITS: usize = 12;
const MAX_DATA_INPUTS: usize = 10;

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

/// Every key under which `locked` agrees with `original` on every data
/// pattern, by enumerating the key space.
fn correct_keys(locked: &LockedCircuit, original: &Netlist) -> Vec<Vec<bool>> {
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
    let data_at: Vec<usize> = locked.data_inputs.iter().map(|&s| position_of(s)).collect();
    let key_at: Vec<usize> = locked.key_inputs.iter().map(|&s| position_of(s)).collect();
    let patterns: Vec<(Vec<u64>, Vec<u64>)> = exhaustive_words(data_at.len())
        .map(|data| {
            let want = sim_original.run_u64(&data).expect("sized");
            (data, want)
        })
        .collect();
    (0..1u64 << key_at.len())
        .map(|k| {
            (0..key_at.len())
                .map(|b| k >> b & 1 == 1)
                .collect::<Vec<bool>>()
        })
        .filter(|key| {
            patterns.iter().all(|(data, want)| {
                let mut words = vec![0u64; locked.netlist.inputs().len()];
                for (&at, &word) in data_at.iter().zip(data) {
                    words[at] = word;
                }
                for (&at, &bit) in key_at.iter().zip(key) {
                    words[at] = if bit { u64::MAX } else { 0 };
                }
                sim_locked.run_u64(&words).expect("sized") == *want
            })
        })
        .collect()
}

/// The lockings under test: RLL and the smallest Full-Lock PLR (a 4-wide
/// CLN without LUTs or inverters, 8 key bits) on random hosts.
fn lockings() -> Vec<(String, Netlist, LockedCircuit)> {
    let mut out = Vec::new();
    for seed in 0..6u64 {
        let host = generate(RandomCircuitConfig {
            inputs: 5 + seed as usize,
            outputs: 4,
            gates: 80,
            max_fanin: 3,
            seed,
        })
        .expect("valid config");
        let plr = FullLock::new(FullLockConfig {
            plrs: vec![PlrSpec {
                with_luts: false,
                with_inverters: false,
                ..PlrSpec::new(4)
            }],
            selection: WireSelection::Acyclic,
            twist_probability: 0.5,
            seed,
        });
        let schemes: [(&str, Box<dyn LockingScheme>); 2] = [
            ("rll", Box::new(Rll::new(7 + seed as usize, seed))),
            ("full-lock", Box::new(plr)),
        ];
        for (name, scheme) in schemes {
            let locked = scheme.lock(&host).expect("the host fits the lock");
            assert!(
                locked.key_len() <= MAX_KEY_BITS,
                "{name}: {} key bits",
                locked.key_len()
            );
            assert!(locked.data_inputs.len() <= MAX_DATA_INPUTS);
            out.push((format!("{name} seed {seed}"), host.clone(), locked));
        }
    }
    out
}

#[test]
fn recovered_keys_are_functionally_correct() {
    // The most inprocessing rounds one attack ran: a solver's first round
    // sees the whole formula, its later growth rounds only what the DIP
    // loop added since.
    let mut max_rounds = 0;
    for (name, host, locked) in lockings() {
        let correct = correct_keys(&locked, &host);
        assert!(
            correct.contains(&locked.correct_key.bits().to_vec()),
            "{name}: the enumeration misses the locking's own key"
        );
        let configured = |inprocess| SatAttackConfig {
            backend: BackendSpec::Configured(SolverConfig { inprocess }),
            ..SatAttackConfig::default()
        };
        let configs = [
            configured(true),
            configured(false),
            SatAttackConfig {
                encode_style: EncodeStyle::Generic,
                ..SatAttackConfig::default()
            },
            SatAttackConfig {
                cone_reduce: false,
                ..SatAttackConfig::default()
            },
        ];
        for config in configs {
            let base = SatAttackConfig {
                timeout: Some(Duration::from_secs(60)),
                ..config
            };
            let attacks: [Box<dyn Attack>; 3] = [
                Box::new(base),
                Box::new(DoubleDip { base }),
                Box::new(AppSatConfig { base }),
            ];
            for attack in attacks {
                let oracle = SimOracle::new(&host).expect("acyclic host");
                let report = attack.run(&locked, &oracle).expect("attack runs");
                let context = format!(
                    "{name}, {}, {:?} encoding, cone reduction {}, backend {:?}",
                    report.attack, base.encode_style, base.cone_reduce, base.backend
                );
                max_rounds = max_rounds.max(report.solver.inprocessings);
                match (&report.outcome, report.attack) {
                    (AttackOutcome::KeyRecovered { key, .. }, _) => assert!(
                        correct.contains(&key.bits().to_vec()),
                        "{context}: recovered {key}, outside the {} correct key(s)",
                        correct.len()
                    ),
                    (_, "appsat") => {}
                    (other, _) => panic!("{context}: {other:?}"),
                }
            }
        }
    }
    assert!(max_rounds >= 2, "no attack ran a second inprocessing round");
}
