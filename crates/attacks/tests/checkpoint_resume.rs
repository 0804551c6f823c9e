//! Crash-safe checkpoint/resume: property tests on the snapshot format
//! and end-to-end kill-and-resume runs of the DIP-loop attacks.

use std::path::PathBuf;

use fulllock_attacks::{
    AppSatConfig, Attack, AttackCheckpoint, AttackDetails, AttackError, AttackOutcome, DoubleDip,
    IoPair, Oracle, SatAttackConfig, SimOracle,
};
use fulllock_locking::{Key, LockingScheme, Rll, SarLock};
use fulllock_netlist::random::{generate, RandomCircuitConfig};
use proptest::prelude::*;

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

/// A unique scratch path; the temp dir is shared, so names carry the pid
/// and a per-test tag.
fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("fulllock-{}-{tag}.ckpt", std::process::id()))
}

fn recovered_key(outcome: &AttackOutcome) -> &Key {
    let AttackOutcome::KeyRecovered { key, verified } = outcome else {
        panic!("expected a recovered key, got {outcome:?}");
    };
    assert!(verified);
    key
}

/// Kill-and-resume, end to end: cap a SAT-attack run mid-loop (the stand-in
/// for a crash — the checkpoint on disk is exactly what a killed process
/// leaves behind), then resume from the snapshot and require the same key
/// as an uninterrupted run, without re-buying the completed iterations'
/// oracle queries.
#[test]
fn sat_attack_resumes_without_redoing_iterations() {
    let original = host(21);
    // SARLock pays ~2^m - 1 DIPs: plenty of room to interrupt.
    let locked = SarLock::new(5, 3).lock(&original).expect("lock");
    let path = scratch("sat-resume");
    let _ = std::fs::remove_file(&path);

    let fresh_oracle = SimOracle::new(&original).expect("oracle");
    let fresh = SatAttackConfig::default()
        .run(&locked, &fresh_oracle)
        .expect("fresh run");
    let fresh_key = recovered_key(&fresh.outcome).clone();
    assert!(fresh.iterations > 12, "need a long run to interrupt");

    // "Crash" after 10 iterations.
    let capped_oracle = SimOracle::new(&original).expect("oracle");
    let capped = SatAttackConfig {
        max_iterations: Some(10),
        ..Default::default()
    }
    .run_checkpointed(&locked, &capped_oracle, &path, false)
    .expect("capped run");
    assert_eq!(capped.outcome, AttackOutcome::IterationLimit);
    assert_eq!(capped.resilience.checkpoints_written, 10);
    assert_eq!(capped.resilience.checkpoint_failures, 0);

    // Resume in a "new process" (fresh oracle) and finish the job.
    let resume_oracle = SimOracle::new(&original).expect("oracle");
    let resumed = SatAttackConfig::default()
        .resume(&locked, &resume_oracle, &path)
        .expect("resumed run");
    assert_eq!(recovered_key(&resumed.outcome), &fresh_key);
    assert_eq!(resumed.resilience.resumed_from, Some(10));
    assert_eq!(resumed.iterations, fresh.iterations);
    // The 10 completed DIPs were replayed from the snapshot, not re-queried:
    // this process paid only for the remaining iterations (+ verification).
    assert!(
        resume_oracle.queries() + 10 <= fresh_oracle.queries(),
        "resume re-bought oracle queries: {} vs fresh {}",
        resume_oracle.queries(),
        fresh_oracle.queries()
    );
    // The cumulative count in the report covers both processes; the key
    // certificate's simulation samples are queried after the attack, so
    // they appear on the oracle but not in the attack's own count.
    let certificate = resumed.key_certificate.as_ref().expect("certificate");
    assert!(certificate.is_clean());
    assert_eq!(
        resumed.oracle_queries + certificate.samples,
        10 + resume_oracle.queries()
    );

    let _ = std::fs::remove_file(&path);
}

/// Resume with no checkpoint file present starts fresh (restart scripts can
/// pass `--resume` unconditionally).
#[test]
fn resume_without_a_file_starts_fresh() {
    let original = host(22);
    let locked = Rll::new(6, 2).lock(&original).expect("lock");
    let path = scratch("sat-fresh");
    let _ = std::fs::remove_file(&path);

    let oracle = SimOracle::new(&original).expect("oracle");
    let report = SatAttackConfig::default()
        .resume(&locked, &oracle, &path)
        .expect("run");
    recovered_key(&report.outcome);
    assert_eq!(report.resilience.resumed_from, None);
    assert!(report.resilience.checkpoints_written > 0);
    let _ = std::fs::remove_file(&path);
}

/// Double-DIP records its phase: a snapshot taken in the clean-up phase
/// resumes there, never falling back into the 2-DIP search.
#[test]
fn double_dip_resumes_in_the_recorded_phase() {
    let original = host(23);
    // SARLock admits no 2-DIP, so all progress is clean-up iterations and
    // any mid-run snapshot is in phase 2.
    let locked = SarLock::new(5, 3).lock(&original).expect("lock");
    let path = scratch("ddip-resume");
    let _ = std::fs::remove_file(&path);

    let capped_oracle = SimOracle::new(&original).expect("oracle");
    let capped = DoubleDip {
        base: SatAttackConfig {
            max_iterations: Some(5),
            ..Default::default()
        },
    }
    .run_checkpointed(&locked, &capped_oracle, &path, false)
    .expect("capped run");
    assert_eq!(capped.outcome, AttackOutcome::IterationLimit);

    let snapshot = AttackCheckpoint::load(&path).expect("snapshot");
    assert_eq!(snapshot.attack, "double-dip");
    assert_eq!(snapshot.phase, 2, "SARLock progress is all clean-up phase");

    let resume_oracle = SimOracle::new(&original).expect("oracle");
    let resumed = DoubleDip::default()
        .resume(&locked, &resume_oracle, &path)
        .expect("resumed run");
    recovered_key(&resumed.outcome);
    assert_eq!(resumed.resilience.resumed_from, Some(5));
    let _ = std::fs::remove_file(&path);
}

/// The other half of the phase record: a run capped while 2-DIPs remain
/// leaves a phase-1 snapshot, and resuming it finishes both phases.
#[test]
fn double_dip_resumes_inside_the_2dip_phase() {
    let original = host(2);
    // RLL aliases many keys to one function, so 2-DIPs are plentiful.
    let locked = Rll::new(10, 3).lock(&original).expect("lock");
    let path = scratch("ddip-phase1");
    let _ = std::fs::remove_file(&path);

    let capped_oracle = SimOracle::new(&original).expect("oracle");
    let capped = DoubleDip {
        base: SatAttackConfig {
            max_iterations: Some(2),
            ..Default::default()
        },
    }
    .run_checkpointed(&locked, &capped_oracle, &path, false)
    .expect("capped run");
    assert_eq!(capped.outcome, AttackOutcome::IterationLimit);

    let snapshot = AttackCheckpoint::load(&path).expect("snapshot");
    assert_eq!(snapshot.attack, "double-dip");
    assert_eq!(snapshot.phase, 1, "the cap lands among the 2-DIPs");
    assert_eq!((snapshot.iterations, snapshot.cleanup_iterations), (2, 0));

    let resume_oracle = SimOracle::new(&original).expect("oracle");
    let resumed = DoubleDip::default()
        .resume(&locked, &resume_oracle, &path)
        .expect("resumed run");
    recovered_key(&resumed.outcome);
    assert_eq!(resumed.resilience.resumed_from, Some(2));
    let AttackDetails::DoubleDip(details) = &resumed.details else {
        panic!("expected Double-DIP details, got {:?}", resumed.details);
    };
    assert!(
        resumed.iterations - details.cleanup_iterations > 2,
        "the resumed run must keep searching 2-DIPs: {} iterations, {details:?}",
        resumed.iterations
    );
    let _ = std::fs::remove_file(&path);
}

/// AppSAT checkpoints its probe loop like the exact attacks.
#[test]
fn appsat_checkpointed_run_writes_snapshots() {
    let original = host(24);
    let locked = Rll::new(6, 2).lock(&original).expect("lock");
    let path = scratch("appsat");
    let _ = std::fs::remove_file(&path);

    let oracle = SimOracle::new(&original).expect("oracle");
    let report = AppSatConfig::default()
        .run_checkpointed(&locked, &oracle, &path, false)
        .expect("run");
    assert!(report.resilience.checkpoints_written > 0);
    let snapshot = AttackCheckpoint::load(&path).expect("snapshot");
    assert_eq!(snapshot.attack, "appsat");
    let _ = std::fs::remove_file(&path);
}

/// A checkpoint never resumes an attack it was not written by.
#[test]
fn checkpoint_of_one_attack_is_rejected_by_another() {
    let original = host(25);
    let locked = SarLock::new(5, 3).lock(&original).expect("lock");
    let path = scratch("cross-attack");
    let _ = std::fs::remove_file(&path);

    let oracle = SimOracle::new(&original).expect("oracle");
    SatAttackConfig {
        max_iterations: Some(3),
        ..Default::default()
    }
    .run_checkpointed(&locked, &oracle, &path, false)
    .expect("capped run");

    let oracle2 = SimOracle::new(&original).expect("oracle");
    let err = DoubleDip::default()
        .resume(&locked, &oracle2, &path)
        .expect_err("cross-attack resume must fail");
    assert!(matches!(err, AttackError::CheckpointFormat { .. }), "{err}");
    assert!(err.to_string().contains("sat"), "{err}");
    let _ = std::fs::remove_file(&path);
}

/// Structural attacks opt out of checkpointing with a typed error.
#[test]
fn non_dip_attacks_reject_checkpointing() {
    let original = host(26);
    let locked = Rll::new(4, 1).lock(&original).expect("lock");
    let oracle = SimOracle::new(&original).expect("oracle");
    let err = fulllock_attacks::Sps
        .run_checkpointed(&locked, &oracle, &scratch("sps"), false)
        .expect_err("sps has no DIP loop to checkpoint");
    assert!(matches!(err, AttackError::Unsupported(_)), "{err}");
}

/// Deterministic bit vectors from a seed (the vendored proptest stub has
/// no `flat_map`, so size-dependent sub-structures are derived here).
fn bits_from(seed: &mut u64, n: usize) -> Vec<bool> {
    (0..n)
        .map(|_| {
            // xorshift64
            *seed ^= *seed << 13;
            *seed ^= *seed >> 7;
            *seed ^= *seed << 17;
            *seed & 1 == 1
        })
        .collect()
}

fn arb_checkpoint() -> impl Strategy<Value = AttackCheckpoint> {
    (
        (1usize..12, 1usize..10, 1usize..6, 0usize..20),
        (1u64..u64::MAX, any::<bool>(), 0usize..3),
        (0u64..3, 0u64..1_000_000, 0u64..1_000_000),
        // Dyadic ratios and whole-millisecond durations round-trip
        // exactly through the decimal text format.
        (0u64..1_000_000, 0u64..10_000_000),
        (any::<u64>(), any::<u64>()),
        (0usize..8, any::<u64>()),
    )
        .prop_map(
            |(
                (data_bits, key_bits, out_bits, num_pairs),
                (mut seed, has_key, attack_pick),
                (phase, iterations, cleanup_iterations),
                (ratio_64ths, elapsed_ms),
                (oracle_queries, conflicts),
                (lbd_bucket, lbd_count),
            )| {
                let attack = ["sat", "appsat", "double-dip"][attack_pick];
                let mut cp = AttackCheckpoint::new(attack, data_bits, key_bits);
                cp.phase = phase;
                cp.iterations = iterations;
                cp.cleanup_iterations = cleanup_iterations;
                cp.candidate_key = has_key.then(|| Key::from_bits(bits_from(&mut seed, key_bits)));
                cp.ratio_sum = ratio_64ths as f64 / 64.0;
                cp.ratio_samples = iterations;
                cp.elapsed = std::time::Duration::from_millis(elapsed_ms);
                cp.oracle_queries = oracle_queries;
                cp.solver.conflicts = conflicts;
                cp.solver.lbd_histogram[lbd_bucket] = lbd_count;
                cp.io_pairs = (0..num_pairs)
                    .map(|i| IoPair {
                        inputs: bits_from(&mut seed, data_bits),
                        outputs: bits_from(&mut seed, out_bits),
                        votes: 1 + seed % 5,
                        quarantined: i % 7 == 3,
                    })
                    .collect();
                cp
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any checkpoint survives the JSON text format bit-for-bit.
    #[test]
    fn checkpoint_json_round_trip(cp in arb_checkpoint()) {
        let back = AttackCheckpoint::from_json(&cp.to_json()).expect("round trip");
        prop_assert_eq!(back, cp);
    }

    /// And the file round trip (atomic save + load) is just as exact.
    #[test]
    fn checkpoint_file_round_trip(cp in arb_checkpoint(), tag in 0u32..1_000_000) {
        let path = scratch(&format!("prop-{tag}"));
        cp.save(&path).expect("save");
        let back = AttackCheckpoint::load(&path).expect("load");
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(back, cp);
    }

    /// Flipping any single byte of a sealed checkpoint on disk surfaces as
    /// a typed error — the FNV seal (or the JSON parser, when the flip
    /// mangles the envelope frame) catches it. Never a panic, never a
    /// silently-wrong resume.
    #[test]
    fn mutated_checkpoint_is_a_typed_error(
        cp in arb_checkpoint(),
        pos in any::<usize>(),
        replacement in any::<u8>(),
        tag in 0u32..1_000_000,
    ) {
        let path = scratch(&format!("flip-{tag}"));
        let quarantine = path.with_extension("ckpt.corrupt");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&quarantine).ok();

        cp.save(&path).expect("save");
        let mut bytes = std::fs::read(&path).expect("read sealed checkpoint");
        let at = pos % bytes.len();
        let fresh = 0x20 + (replacement % 0x5f);
        bytes[at] = if fresh == bytes[at] { b'#' } else { fresh };
        std::fs::write(&path, &bytes).expect("write mutated checkpoint");

        let err = AttackCheckpoint::load(&path).expect_err("corruption must not load");
        prop_assert!(
            matches!(
                err,
                AttackError::CheckpointFormat { .. } | AttackError::CheckpointIo { .. }
            ),
            "unexpected error kind: {}",
            err
        );
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&quarantine).ok();
    }
}
