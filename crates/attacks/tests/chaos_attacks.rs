//! Chaos tests at the attack level: kill portfolio workers underneath a
//! running DIP loop and assert the attack still converges (or degrades to
//! a clean budget outcome), with the faults recorded in the report's
//! resilience block.
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
use fulllock_sat::BackendSpec;

/// Serializes tests that install a global fault plan.
fn chaos_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Silences the unwind traces of panics injected by failpoints, which
/// would make a passing chaos run look alarming.
fn quiet_injected_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|m| m.contains("injected failpoint"))
                || info
                    .payload()
                    .downcast_ref::<&str>()
                    .is_some_and(|m| m.contains("injected failpoint"));
            if !injected {
                default(info);
            }
        }));
    });
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

fn portfolio_config() -> SatAttackConfig {
    SatAttackConfig {
        backend: BackendSpec::portfolio(4),
        ..Default::default()
    }
}

/// The headline chaos scenario: one of four portfolio workers is killed
/// mid-attack; the DIP loop must still recover a verified key, and the
/// report must record the absorbed panic.
#[test]
fn sat_attack_recovers_key_despite_worker_kill() {
    let _guard = chaos_lock();
    quiet_injected_panics();
    faults::install(
        FaultPlan::new()
            .with(Failpoint::new(site::WORKER_CHUNK, Some(1), FaultAction::Panic).times(1)),
    );

    let original = host(11);
    let locked = Rll::new(8, 2).lock(&original).expect("lock");
    let oracle = SimOracle::new(&original).expect("oracle");
    let report = portfolio_config().run(&locked, &oracle).expect("attack");

    let AttackOutcome::KeyRecovered { verified, .. } = report.outcome else {
        panic!(
            "RLL must fall despite the worker kill, got {:?}",
            report.outcome
        );
    };
    assert!(verified);
    assert_eq!(report.resilience.worker_panics, 1);
    assert_eq!(report.resilience.worker_failures.len(), 1);
    assert!(
        report.resilience.worker_failures[0].contains("injected"),
        "{:?}",
        report.resilience.worker_failures
    );
    assert!(report.resilience.is_eventful());
    faults::clear();
}

/// With every worker dying on every solve, the attack cannot converge —
/// but it must end in a clean `Timeout`, never a panic or a hang, with
/// all the drop-outs on record.
#[test]
fn sat_attack_degrades_cleanly_when_all_workers_die() {
    let _guard = chaos_lock();
    quiet_injected_panics();
    faults::install(FaultPlan::new().with(Failpoint::new(
        site::WORKER_CHUNK,
        None,
        FaultAction::Panic,
    )));

    let original = host(12);
    let locked = Rll::new(6, 2).lock(&original).expect("lock");
    let oracle = SimOracle::new(&original).expect("oracle");
    let report = portfolio_config().run(&locked, &oracle).expect("attack");

    assert_eq!(report.outcome, AttackOutcome::Timeout);
    assert!(report.resilience.worker_panics >= 4);
    faults::clear();
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
    quiet_injected_panics();
    faults::clear(); // fall back to the FULLLOCK_FAILPOINTS plan, if any

    let original = host(13);
    let locked = Rll::new(6, 2).lock(&original).expect("lock");
    let oracle = SimOracle::new(&original).expect("oracle");
    let report = portfolio_config().run(&locked, &oracle).expect("attack");
    match report.outcome {
        AttackOutcome::KeyRecovered { verified, .. } => assert!(verified),
        AttackOutcome::Timeout | AttackOutcome::IterationLimit => {}
        other => panic!("unexpected outcome under ambient faults: {other:?}"),
    }
}
