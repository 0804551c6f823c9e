//! Chaos tests at the attack level: a checkpoint save torn underneath a
//! running DIP loop, and the attack run under the ambient fault plan. The
//! attack must still converge (or degrade to a clean budget outcome).
//!
//! These tests require the `failpoints` feature:
//!
//! ```text
//! cargo test -p fulllock-attacks --features failpoints --test chaos_attacks
//! ```
//!
//! The fault-plan registry is process-global, so every test that installs
//! a plan serializes on [`chaos_lock`] and clears the plan before
//! releasing it.
#![cfg(feature = "failpoints")]

use std::sync::{Mutex, MutexGuard, PoisonError};

use fulllock_attacks::{Attack, AttackOutcome, SatAttackConfig, SimOracle};
use fulllock_locking::{LockingScheme, Rll};
use fulllock_netlist::random::{generate, RandomCircuitConfig};
use fulllock_sat::faults::{self, site, Failpoint, FaultAction, FaultPlan};

/// Serializes tests that install a global fault plan.
fn chaos_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn host(seed: u64) -> fulllock_netlist::Netlist {
    generate(RandomCircuitConfig {
        inputs: 10,
        outputs: 5,
        gates: 90,
        max_fanin: 3,
        seed,
    })
    .expect("valid circuit config")
}

/// The crash the checkpoint layer exists for: a save is torn mid-write
/// (power cut, OOM-kill, lying fsync), leaving a half-written snapshot as
/// the primary file. Resume must detect the corruption by checksum,
/// quarantine the torn file, fall back to the previous generation, and
/// still finish the attack with the same key as an uninterrupted run.
#[test]
fn torn_checkpoint_save_resumes_from_the_previous_generation() {
    let _guard = chaos_lock();
    let original = host(14);
    // SARLock pays ~2^m - 1 DIPs: a long run with one save per iteration.
    let locked = fulllock_locking::SarLock::new(5, 3)
        .lock(&original)
        .expect("lock");
    let path = std::env::temp_dir().join(format!("fulllock-{}-torn.ckpt", std::process::id()));
    let quarantine = path.with_extension("ckpt.corrupt");
    let previous = path.with_extension("ckpt.1");
    for p in [&path, &quarantine, &previous] {
        let _ = std::fs::remove_file(p);
    }

    let fresh_oracle = SimOracle::new(&original).expect("oracle");
    let fresh = SatAttackConfig::default()
        .run(&locked, &fresh_oracle)
        .expect("fresh run");
    let AttackOutcome::KeyRecovered { key: fresh_key, .. } = &fresh.outcome else {
        panic!("expected a recovered key, got {:?}", fresh.outcome);
    };
    assert!(fresh.iterations > 12, "need a long run to interrupt");

    // Tear exactly the LAST save of the capped run (the 10th): `.after(9)`
    // skips the healthy ones and `.times(1)` spends the fault, so the
    // rotated previous generation keeps iteration 9 intact.
    faults::install(
        FaultPlan::new().with(
            Failpoint::new(site::PERSIST_WRITE, None, FaultAction::Torn)
                .after(9)
                .times(1),
        ),
    );
    let capped_oracle = SimOracle::new(&original).expect("oracle");
    let capped = SatAttackConfig {
        max_iterations: Some(10),
        ..Default::default()
    }
    .run_checkpointed(&locked, &capped_oracle, &path, false)
    .expect("capped run");
    faults::clear();
    assert_eq!(capped.outcome, AttackOutcome::IterationLimit);
    assert_eq!(capped.resilience.checkpoints_written, 10);

    // Resume in a "new process": the torn primary must not poison it.
    let resume_oracle = SimOracle::new(&original).expect("oracle");
    let resumed = SatAttackConfig::default()
        .resume(&locked, &resume_oracle, &path)
        .expect("resumed run");
    let AttackOutcome::KeyRecovered { key, .. } = &resumed.outcome else {
        panic!("expected a recovered key, got {:?}", resumed.outcome);
    };
    assert_eq!(key, fresh_key);
    assert_eq!(
        resumed.resilience.resumed_from,
        Some(9),
        "must fall back to the generation before the torn save"
    );
    assert!(
        quarantine.exists(),
        "torn primary must be quarantined as evidence"
    );
    let certificate = resumed.key_certificate.as_ref().expect("certificate");
    assert!(certificate.is_clean());

    for p in [&path, &quarantine, &previous] {
        let _ = std::fs::remove_file(p);
    }
}

/// Run by the CI chaos matrix with `FULLLOCK_FAILPOINTS` set: whatever the
/// ambient plan injects, the attack must either break the scheme with a
/// verified key or end in a clean budget outcome — never panic or hang.
#[test]
fn env_plan_never_escapes_the_attack() {
    let _guard = chaos_lock();
    faults::clear(); // fall back to the FULLLOCK_FAILPOINTS plan, if any

    let original = host(13);
    let locked = Rll::new(6, 2).lock(&original).expect("lock");
    let oracle = SimOracle::new(&original).expect("oracle");
    let report = SatAttackConfig::default()
        .run(&locked, &oracle)
        .expect("attack");
    match report.outcome {
        AttackOutcome::KeyRecovered { verified, .. } => assert!(verified),
        AttackOutcome::Timeout | AttackOutcome::IterationLimit => {}
        other => panic!("unexpected outcome under ambient faults: {other:?}"),
    }
}
