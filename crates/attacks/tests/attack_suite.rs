//! The whole attack suite through the unified `Attack` trait: every
//! attack runs against the same Full-Lock-ed circuit via
//! `Vec<Box<dyn Attack>>` and returns the common report envelope.

use fulllock_attacks::{
    AppSatConfig, Attack, AttackOutcome, DoubleDip, Removal, SatAttackConfig, SimOracle, Sps,
};
use fulllock_locking::{FullLock, FullLockConfig, LockingScheme};
use fulllock_netlist::random::{generate, RandomCircuitConfig};
use std::time::Duration;

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
fn all_five_attacks_run_through_the_trait() {
    let original = host(42);
    let (locked, trace) = FullLock::new(FullLockConfig::single_plr(4))
        .lock_with_trace(&original)
        .unwrap();

    let base = SatAttackConfig {
        timeout: Some(Duration::from_secs(20)),
        ..Default::default()
    };
    let suite: Vec<Box<dyn Attack>> = vec![
        Box::new(base),
        Box::new(AppSatConfig { base }),
        Box::new(DoubleDip { base }),
        Box::new(Removal::new(trace)),
        Box::new(Sps),
    ];

    let mut names = Vec::new();
    for attack in &suite {
        let oracle = SimOracle::new(&original).unwrap();
        let report = attack.run(&locked, &oracle).unwrap();
        assert_eq!(report.attack, attack.name());
        assert!(report.elapsed <= Duration::from_secs(60));
        // A 4x4 PLR is within easy reach of the SAT family; the structural
        // attacks must *fail* on Full-Lock (the paper's resistance claim).
        match report.attack {
            "sat" | "double-dip" => assert!(report.outcome.is_broken(), "{:?}", report.outcome),
            "appsat" => assert!(report.outcome.is_compromised(), "{:?}", report.outcome),
            "removal" | "sps" => {
                assert!(!report.outcome.is_compromised(), "{:?}", report.outcome)
            }
            other => panic!("unexpected attack name {other}"),
        }
        // SAT-family attacks must carry real solver counters.
        if matches!(report.attack, "sat" | "double-dip") {
            assert!(report.solver.decisions > 0);
        }
        names.push(report.attack);
    }
    assert_eq!(names, ["sat", "appsat", "double-dip", "removal", "sps"]);
}

#[test]
fn attack_trait_breaks_rll() {
    let original = host(9);
    let locked = fulllock_locking::Rll::new(4, 0)
        .lock(&original)
        .expect("rll lock");
    let oracle = SimOracle::new(&original).unwrap();
    let report = SatAttackConfig::default().run(&locked, &oracle).unwrap();
    assert!(matches!(report.outcome, AttackOutcome::KeyRecovered { .. }));
}
