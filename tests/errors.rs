//! Error-type contract tests (the C-GOOD-ERR checklist): every public
//! error implements `Display` + `Error`, produces lowercase-ish concise
//! messages, and is `Send + Sync` for multithreaded harnesses.

use std::error::Error;

use full_lock::attacks::AttackError;
use full_lock::locking::LockError;
use full_lock::netlist::NetlistError;
use full_lock::sat::SatError;

fn assert_well_behaved<E: Error + Send + Sync + 'static>(error: E) {
    let message = error.to_string();
    assert!(!message.is_empty());
    assert!(
        !message.ends_with('.'),
        "error messages should not end with punctuation: {message:?}"
    );
    let boxed: Box<dyn Error + Send + Sync> = Box::new(error);
    assert!(boxed.source().is_some() || boxed.source().is_none()); // callable
}

#[test]
fn netlist_errors_are_well_behaved() {
    assert_well_behaved(NetlistError::BadArity {
        kind: "NOT",
        got: 3,
    });
    assert_well_behaved(NetlistError::UnknownSignal(7));
    assert_well_behaved(NetlistError::Cyclic { on_cycle: 2 });
    assert_well_behaved(NetlistError::InputCount {
        expected: 4,
        got: 2,
    });
    assert_well_behaved(NetlistError::Parse {
        line: 3,
        message: "bad token".into(),
    });
    assert_well_behaved(NetlistError::DuplicateName("x".into()));
    assert_well_behaved(NetlistError::UndefinedName("y".into()));
    assert_well_behaved(NetlistError::BadConfig("nope".into()));
}

#[test]
fn sat_errors_are_well_behaved() {
    assert_well_behaved(SatError::Dimacs {
        line: 1,
        message: "bad literal".into(),
    });
    assert_well_behaved(SatError::BadConfig("nope".into()));
    assert_well_behaved(SatError::FaultSpec {
        spec: "site=frob".into(),
        message: "unknown action".into(),
    });
    let wrapped = SatError::Netlist(NetlistError::UnknownSignal(1));
    assert!(wrapped.source().is_some(), "wrapped errors expose a source");
    assert_well_behaved(wrapped);
}

#[test]
fn lock_errors_are_well_behaved() {
    assert_well_behaved(LockError::BadConfig("nope".into()));
    assert_well_behaved(LockError::HostTooSmall {
        needed: 8,
        available: 3,
    });
    assert_well_behaved(LockError::SelectionFailed("stuck".into()));
    assert_well_behaved(LockError::KeyLength {
        expected: 4,
        got: 2,
    });
    let wrapped = LockError::Netlist(NetlistError::UnknownSignal(1));
    assert!(wrapped.source().is_some());
    assert_well_behaved(wrapped);
}

#[test]
fn attack_errors_are_well_behaved() {
    assert_well_behaved(AttackError::InterfaceMismatch {
        locked_inputs: 4,
        oracle_inputs: 5,
    });
    assert_well_behaved(AttackError::Unsupported("cyclic".into()));
    assert_well_behaved(AttackError::CheckpointIo {
        path: "/tmp/x.ckpt".into(),
        message: "disk full".into(),
    });
    assert_well_behaved(AttackError::CheckpointFormat {
        path: "/tmp/x.ckpt".into(),
        message: "version 99".into(),
    });
    assert_well_behaved(AttackError::CheckpointFormat {
        path: std::path::PathBuf::new(),
        message: "wrong attack".into(),
    });
    let wrapped = AttackError::Lock(LockError::BadConfig("nope".into()));
    assert!(wrapped.source().is_some());
    assert_well_behaved(wrapped);
}

/// Malformed `.bench` text must come back as a typed parse error with the
/// offending line — never a panic (regression guard for the writer/parser
/// I/O paths).
#[test]
fn malformed_bench_is_a_typed_error() {
    use full_lock::netlist::bench_io;
    for (bad, what) in [
        ("INPUT(a)\nz = FROB(a)\nOUTPUT(z)", "unknown gate"),
        ("INPUT(a)\nz = AND(a, ghost)\nOUTPUT(z)", "undefined fanin"),
        ("INPUT(a)\nz = NOT(a, a)\nOUTPUT(z)", "bad arity"),
        ("INPUT(a)\nz = AND a, a\nOUTPUT(z)", "missing parens"),
        ("garbage line\n", "free-form garbage"),
    ] {
        let err = bench_io::parse(bad, "bad").expect_err(what);
        assert_well_behaved(err);
    }
}

/// Harness errors name the subsystem that failed: a queue shard that
/// cannot be written, and a sweep resumed under changed parameters, are
/// not campaign errors.
#[test]
fn harness_errors_name_their_subsystem() {
    use full_lock::harness::plan::JobSpec;
    use full_lock::harness::service::ShardedQueue;
    use full_lock::harness::{run_sweep, SweepConfig, SweepGrid, SweepPlan};

    let dir = std::env::temp_dir().join(format!("fulllock_errors_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // A directory where the shard's temporary file goes fails the save.
    let queue_dir = dir.join("queue");
    let mut queue = ShardedQueue::open(&queue_dir, 1).expect("open queue");
    std::fs::create_dir_all(queue_dir.join("shard-00.json.tmp")).expect("block the shard");
    let err = queue
        .submit("acme", JobSpec::new("j1", "/bin/true"))
        .expect_err("the shard write fails");
    let message = err.to_string();
    assert!(message.contains("queue shard"), "{message}");
    assert!(!message.contains("campaign"), "{message}");
    assert_well_behaved(err);

    let sweep_dir = dir.join("sweep");
    std::fs::create_dir_all(&sweep_dir).expect("sweep dir");
    let plan = |vars: &str| SweepPlan::new(SweepGrid::new("drift").axis("vars", [vars]));
    plan("20").save(&sweep_dir, 7).expect("save plan");
    let mut config = SweepConfig::new(&sweep_dir, "/nonexistent-worker", vec![]);
    config.resume = true;
    config.ambient_hash = Some(7);
    let err = run_sweep(&plan("30"), &config).expect_err("a drifted resume is refused");
    let message = err.to_string();
    assert!(message.contains("sweep plan"), "{message}");
    assert!(!message.contains("campaign"), "{message}");
    assert_well_behaved(err);

    std::fs::remove_dir_all(&dir).ok();
}
