//! Scaled-down qualitative checks of the paper's headline claims — every
//! table/figure's *shape*, small enough to run in the test suite. The
//! full-size regenerations live in `crates/bench/src/bin/`.

use std::time::Duration;

use full_lock::attacks::{removal, sps, AppSatConfig, Attack, SatAttackConfig, SimOracle};
use full_lock::bench::cln_testbed;
use full_lock::locking::{
    corruption, AntiSat, ClnTopology, FullLock, FullLockConfig, LockingScheme, PlrSpec, SarLock,
    WireSelection,
};
use full_lock::netlist::benchmarks;
use full_lock::sat::dpll;
use full_lock::sat::random_sat::{generate, RandomSatConfig};

/// Fig 1: the easy-hard-easy DPLL effort curve.
#[test]
fn claim_fig1_hard_band_exists() {
    let median_calls = |ratio: f64| -> u64 {
        let mut calls: Vec<u64> = (0..7)
            .map(|seed| {
                let cnf = generate(RandomSatConfig::from_ratio(35, ratio, 3, seed)).unwrap();
                dpll::solve(&cnf, None).stats.recursive_calls
            })
            .collect();
        calls.sort_unstable();
        calls[calls.len() / 2]
    };
    let easy_low = median_calls(2.0);
    let hard = median_calls(4.5);
    let easy_high = median_calls(8.0);
    assert!(
        hard > 2 * easy_low,
        "hard {hard} vs under-constrained {easy_low}"
    );
    assert!(
        hard > easy_high,
        "hard {hard} vs over-constrained {easy_high}"
    );
}

/// Table 2: almost non-blocking CLNs are much harder than blocking CLNs
/// of equal size.
#[test]
fn claim_table2_nonblocking_beats_blocking() {
    let time_for = |topology: ClnTopology| {
        let (host, locked) = cln_testbed(16, topology, 2);
        let oracle = SimOracle::new(&host).unwrap();
        let report = SatAttackConfig {
            timeout: Some(Duration::from_secs(120)),
            ..Default::default()
        }
        .run(&locked, &oracle)
        .unwrap();
        assert!(report.outcome.is_broken(), "N=16 should fall within 2 min");
        report.elapsed
    };
    let blocking = time_for(ClnTopology::Shuffle);
    let almost = time_for(ClnTopology::AlmostNonBlocking);
    assert!(
        almost > 3 * blocking,
        "almost non-blocking ({almost:?}) should dwarf blocking ({blocking:?})"
    );
}

/// Table 2 growth: attack time increases steeply with CLN size.
#[test]
fn claim_table2_exponential_growth() {
    let time_for = |n: usize| {
        let (host, locked) = cln_testbed(n, ClnTopology::Shuffle, 3);
        let oracle = SimOracle::new(&host).unwrap();
        let report = SatAttackConfig::default().run(&locked, &oracle).unwrap();
        assert!(report.outcome.is_broken());
        report.elapsed
    };
    let t8 = time_for(8);
    let t32 = time_for(32);
    assert!(t32 > 5 * t8, "N=32 ({t32:?}) should dwarf N=8 ({t8:?})");
}

/// §2/§4.2: Full-Lock corrupts heavily; SARLock barely corrupts.
#[test]
fn claim_corruption_separation() {
    let original = benchmarks::load("c432").unwrap();
    let fl = FullLock::new(FullLockConfig::single_plr(8))
        .lock(&original)
        .unwrap();
    let sl = SarLock::new(16, 0).lock(&original).unwrap();
    let fl_err = corruption::measure(&fl, &original, 6, 24, 1)
        .unwrap()
        .pattern_error_rate();
    let sl_err = corruption::measure(&sl, &original, 6, 24, 1)
        .unwrap()
        .pattern_error_rate();
    assert!(fl_err > 0.5, "Full-Lock corruption {fl_err}");
    assert!(sl_err < 0.05, "SARLock corruption {sl_err}");
}

/// §4.2: AppSAT settles on SARLock, gains nothing on Full-Lock.
#[test]
fn claim_appsat_separation() {
    let original = benchmarks::load("c432").unwrap();
    let oracle = SimOracle::new(&original).unwrap();
    let sl = SarLock::new(12, 1).lock(&original).unwrap();
    let sl_report = AppSatConfig::default().run(&sl, &oracle).unwrap();
    assert!(
        sl_report.outcome.is_compromised(),
        "AppSAT must settle on SARLock: {:?}",
        sl_report.outcome
    );

    let fl = FullLock::new(FullLockConfig::single_plr(16))
        .lock(&original)
        .unwrap();
    let oracle = SimOracle::new(&original).unwrap();
    let fl_report = AppSatConfig {
        base: SatAttackConfig {
            timeout: Some(Duration::from_millis(500)),
            ..Default::default()
        },
    }
    .run(&fl, &oracle)
    .unwrap();
    assert!(!fl_report.outcome.is_compromised());
    let full_lock::attacks::AttackDetails::AppSat(details) = &fl_report.details else {
        panic!("appsat reports AppSat details");
    };
    assert!(details.measured_error > 0.05);
}

/// §4.2.2: best-case removal fails exactly when twisting is on.
#[test]
fn claim_removal_separation() {
    let original = benchmarks::load("c880").unwrap();
    let lock_with_twist = |twist: f64| {
        let config = FullLockConfig {
            plrs: vec![PlrSpec {
                cln_size: 8,
                topology: ClnTopology::AlmostNonBlocking,
                with_luts: false,
                with_inverters: true,
            }],
            selection: WireSelection::Acyclic,
            twist_probability: twist,
            seed: 6,
        };
        FullLock::new(config).lock_with_trace(&original).unwrap()
    };
    let oracle = SimOracle::new(&original).unwrap();
    let (plain, plain_trace) = lock_with_twist(0.0);
    let study = removal::study_with_oracle(&plain, &plain_trace, &oracle, 200, 7).unwrap();
    assert!(study.recovered, "untwisted CLN-only lock must be removable");

    let (twisted, twisted_trace) = lock_with_twist(1.0);
    let study = removal::study_with_oracle(&twisted, &twisted_trace, &oracle, 200, 8).unwrap();
    assert!(!study.recovered, "twisted Full-Lock must survive removal");
}

/// §4.2.3 + SPS: Anti-SAT's skewed block is findable; Full-Lock's is not.
#[test]
fn claim_sps_separation() {
    let original = benchmarks::load("c432").unwrap();
    let anti = AntiSat::new(16, 2).lock(&original).unwrap();
    let oracle = SimOracle::new(&original).unwrap();
    let report = sps::scan_with_oracle(&anti, &oracle, 0.45, 150, 9).unwrap();
    assert!(report.succeeded(), "SPS must break Anti-SAT");

    let fl = FullLock::new(FullLockConfig::single_plr(8))
        .lock(&original)
        .unwrap();
    let oracle = SimOracle::new(&original).unwrap();
    let report = sps::scan_with_oracle(&fl, &oracle, 0.45, 150, 10).unwrap();
    assert!(!report.succeeded(), "SPS must not break Full-Lock");
}

/// Fig 7: the MUX-mesh schemes (Full-Lock, Cross-Lock) produce markedly
/// denser CNF than XOR/point-function locking.
#[test]
fn claim_fig7_ratio_ordering() {
    use full_lock::attacks::encode_locked;
    use full_lock::sat::Cnf;

    let original = benchmarks::load("c432").unwrap();
    let asymptotic = |locked: &full_lock::locking::LockedCircuit| {
        let mut cnf = Cnf::new();
        let data: Vec<_> = locked.data_inputs.iter().map(|_| cnf.new_var()).collect();
        let keys: Vec<_> = locked.key_inputs.iter().map(|_| cnf.new_var()).collect();
        encode_locked(locked, &mut cnf, &data, &keys);
        cnf.num_clauses() as f64 / (cnf.num_vars() - keys.len()) as f64
    };
    let fl = FullLock::new(FullLockConfig {
        plrs: vec![PlrSpec::new(16), PlrSpec::new(16)],
        selection: WireSelection::Acyclic,
        twist_probability: 0.5,
        seed: 1,
    })
    .lock(&original)
    .unwrap();
    let sl = SarLock::new(16, 1).lock(&original).unwrap();
    let fl_ratio = asymptotic(&fl);
    let sl_ratio = asymptotic(&sl);
    assert!(
        fl_ratio > 3.4,
        "Full-Lock ratio {fl_ratio} should sit in the hard band"
    );
    assert!(
        fl_ratio > sl_ratio + 0.4,
        "Full-Lock ({fl_ratio}) must clearly exceed SARLock ({sl_ratio})"
    );
}
