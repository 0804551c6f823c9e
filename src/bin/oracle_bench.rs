//! Bench guard for the Byzantine-resilient oracle layer.
//!
//! Two claims are measured and enforced, and both land in
//! `BENCH_oracle.json`:
//!
//! 1. **Clean-oracle overhead.** With a faithful oracle, the resilient
//!    layer at its default policy (guard on, votes = 1) must add less
//!    than `--max-overhead` (default 5%) end-to-end DIP-loop wall time
//!    over the historical trust-everything path
//!    (`OracleResilience::off()`). Measured as the sum over several
//!    locked hosts of the minimum wall time across `--reps` interleaved
//!    repetitions per configuration, so machine noise and per-instance
//!    solver-path luck average out.
//!
//! 2. **Byzantine recovery** (needs `--features failpoints`). With an
//!    `oracle.query=flip` plan injected — one output bit of every 50th
//!    response inverted — the unguarded loop must demonstrably fail
//!    (wrong key or spurious UNSAT/inconclusive verdict) while the
//!    resilient loop recovers the **exact** key, verified independently
//!    by simulation.
//!
//! ```text
//! cargo run --release --features failpoints --bin oracle_bench
//! ```
//!
//! Options: `--reps N` (default 5), `--max-overhead X` (default 0.05),
//! `--out PATH` (default BENCH_oracle.json). Exits 1 when either claim
//! fails; without the `failpoints` feature the flip phase is recorded
//! as skipped and only the overhead claim gates the exit code.

use std::time::{Duration, Instant};

use full_lock::attacks::{Attack, AttackOutcome, OracleResilience, SatAttackConfig, SimOracle};
#[cfg(feature = "failpoints")]
use full_lock::attacks::{AttackError, AttackReport};
use full_lock::bench::record::{parse_flag, BenchRecord, Cmp};
use full_lock::locking::{
    FullLock, FullLockConfig, Key, LockedCircuit, LockingScheme, PlrSpec, WireSelection,
};
use full_lock::netlist::random::{generate, RandomCircuitConfig};
use full_lock::netlist::{Netlist, Simulator};
use full_lock::sat::faults::{self, FaultPlan};

/// A c432-class combinational host (same class the chaos suite uses).
fn host(seed: u64) -> Netlist {
    generate(RandomCircuitConfig {
        inputs: 12,
        outputs: 7,
        gates: 160,
        max_fanin: 3,
        seed,
    })
    .expect("valid circuit config")
}

/// Locks the host with a 4x4 configurable logic-and-routing network.
fn cln_locked(original: &Netlist) -> LockedCircuit {
    FullLock::new(FullLockConfig {
        plrs: vec![PlrSpec::new(4)],
        selection: WireSelection::Acyclic,
        twist_probability: 0.5,
        seed: 9,
    })
    .lock(original)
    .expect("lock")
}

/// Does the recovered key restore the oracle's function exactly? Checked
/// by random simulation, independently of the attack's own verification.
fn key_correct(original: &Netlist, locked: &LockedCircuit, key: &Key) -> bool {
    let sim = Simulator::new(original).expect("simulator");
    let width = locked.data_inputs.len();
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..256 {
        let x: Vec<bool> = (0..width)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state & 1 == 1
            })
            .collect();
        let want = sim.run(&x).expect("oracle sim");
        let got = locked.eval(&x, key).expect("unlock eval");
        if got != want {
            return false;
        }
    }
    true
}

fn config(resilience: OracleResilience) -> SatAttackConfig {
    SatAttackConfig {
        timeout: Some(Duration::from_secs(600)),
        resilience,
        ..Default::default()
    }
}

/// One full attack run; the report must be a verified, simulation-exact
/// key (the clean phase tolerates no other outcome).
fn run_clean(original: &Netlist, locked: &LockedCircuit, resilience: OracleResilience) -> f64 {
    let oracle = SimOracle::new(original).expect("oracle");
    let start = Instant::now();
    let report = config(resilience)
        .run(locked, &oracle)
        .expect("clean attack");
    let elapsed = start.elapsed().as_secs_f64();
    let AttackOutcome::KeyRecovered { key, verified } = &report.outcome else {
        panic!("clean attack must break the lock, got {:?}", report.outcome);
    };
    assert!(verified, "clean attack key must verify");
    assert!(
        key_correct(original, locked, key),
        "clean attack key must match the oracle"
    );
    if std::env::var("ORACLE_BENCH_DEBUG").is_ok() {
        println!(
            "  debug: iters={} queries={} conflicts={} props={} elapsed={elapsed:.4}",
            report.iterations,
            report.oracle_queries,
            report.solver.conflicts,
            report.solver.propagations
        );
    }
    elapsed
}

/// Compact, stable description of an attack verdict for the record.
#[cfg(feature = "failpoints")]
fn describe(result: &Result<AttackReport, AttackError>) -> String {
    match result {
        Ok(report) => match &report.outcome {
            AttackOutcome::KeyRecovered { verified, .. } => {
                format!("KeyRecovered (verified={verified})")
            }
            other => format!("{other:?}"),
        },
        Err(e) => format!("error: {e}"),
    }
}

/// Byzantine phase: every 50th oracle response has one output bit
/// flipped. The unguarded loop must fail; the resilient loop must
/// recover the exact key.
#[cfg(feature = "failpoints")]
fn flip_phase(original: &Netlist, locked: &LockedCircuit, record: &mut BenchRecord) {
    use full_lock::sat::faults::{site, Failpoint, FaultAction};

    fn flip_plan() -> FaultPlan {
        let mut plan = FaultPlan::new();
        for k in 0..200 {
            plan = plan.with(Failpoint::new(
                site::ORACLE_QUERY,
                Some(2 + 50 * k),
                FaultAction::Flip,
            ));
        }
        plan
    }

    faults::install(flip_plan());
    let unguarded_oracle = SimOracle::new(original).expect("oracle");
    let unguarded = config(OracleResilience::off()).run(locked, &unguarded_oracle);
    let unguarded_fooled = match &unguarded {
        Ok(report) => match &report.outcome {
            // A "recovered" key only refutes the failure claim when it is
            // actually the oracle's function — a wrong key or an
            // unverified one is exactly the Byzantine corruption the
            // guard exists to stop.
            AttackOutcome::KeyRecovered { key, .. } => !key_correct(original, locked, key),
            _ => true,
        },
        Err(_) => true,
    };

    // Fresh plan (resets failpoint hit counters) for the guarded run.
    faults::install(flip_plan());
    let resilient_oracle = SimOracle::new(original).expect("oracle");
    let resilient = config(OracleResilience::default()).run(locked, &resilient_oracle);
    faults::install(FaultPlan::new());
    let (resilient_exact_key, requeries, quarantined) = match &resilient {
        Ok(report) => {
            let exact = match &report.outcome {
                AttackOutcome::KeyRecovered { key, verified } => {
                    *verified && key_correct(original, locked, key)
                }
                _ => false,
            };
            (
                exact,
                report.resilience.oracle_requeries,
                report.resilience.quarantined_pairs,
            )
        }
        Err(_) => (false, 0, 0),
    };

    println!(
        "oracle bench: flip injection: unguarded -> {} (fooled: {unguarded_fooled}), \
         resilient -> {} (exact key: {resilient_exact_key}, {requeries} re-queries, \
         {quarantined} quarantined)",
        describe(&unguarded),
        describe(&resilient),
    );
    record
        .metric("flip_injected", "oracle.query=flip at 2, 52, 102, ...")
        .metric("flip_unguarded_outcome", describe(&unguarded))
        .metric("flip_unguarded_fooled", unguarded_fooled)
        .metric("flip_resilient_outcome", describe(&resilient))
        .metric("flip_resilient_exact_key", resilient_exact_key)
        .metric("flip_resilient_requeries", requeries)
        .metric("flip_resilient_quarantined", quarantined)
        .bar("flip_unguarded_fooled", Cmp::Eq, true)
        .bar("flip_resilient_exact_key", Cmp::Eq, true);
}

#[cfg(not(feature = "failpoints"))]
fn flip_phase(_original: &Netlist, _locked: &LockedCircuit, record: &mut BenchRecord) {
    println!("oracle bench: flip injection skipped — built without --features failpoints");
    record.metric("flip_injected", "skipped: no failpoints feature");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let reps: usize = parse_flag(&args, "--reps", 5);
    let max_overhead: f64 = parse_flag(&args, "--max-overhead", 0.05);
    let out: String = parse_flag(&args, "--out", "BENCH_oracle.json".to_string());
    assert!(reps >= 1, "--reps must be at least 1");

    let seeds = [42u64, 11, 13];
    let workloads: Vec<(Netlist, LockedCircuit)> = seeds
        .iter()
        .map(|&seed| {
            let original = host(seed);
            let locked = cln_locked(&original);
            (original, locked)
        })
        .collect();

    // Phase 1: clean-oracle overhead. An installed empty plan shadows any
    // ambient FULLLOCK_FAILPOINTS row, so the baseline really is clean.
    faults::install(FaultPlan::new());
    println!(
        "oracle bench: {} hosts x {reps} reps, resilient (votes=1) vs unguarded",
        workloads.len()
    );
    let mut wall_off = 0.0f64;
    let mut wall_guarded = 0.0f64;
    for (i, (original, locked)) in workloads.iter().enumerate() {
        let mut best_off = f64::INFINITY;
        let mut best_guarded = f64::INFINITY;
        for _ in 0..reps {
            best_off = best_off.min(run_clean(original, locked, OracleResilience::off()));
            best_guarded =
                best_guarded.min(run_clean(original, locked, OracleResilience::default()));
        }
        println!(
            "oracle bench: host {} (seed {}): unguarded {best_off:.3}s, resilient {best_guarded:.3}s",
            i, seeds[i]
        );
        wall_off += best_off;
        wall_guarded += best_guarded;
    }
    let overhead = (wall_guarded - wall_off) / wall_off;
    println!(
        "oracle bench: clean overhead {:.2}% (budget {:.2}%)",
        overhead * 100.0,
        max_overhead * 100.0
    );
    let mut record = BenchRecord::new(format!(
        "oracle-guided SAT attack on {} CLN-locked c432-class hosts; clean overhead = sum of \
         per-host minimum wall over {reps} interleaved reps, resilient layer (guard on, \
         votes=1) vs OracleResilience::off(); flip phase injects oracle.query=flip and \
         compares verdicts",
        workloads.len()
    ));
    record
        .metric("hosts", workloads.len())
        .metric("reps", reps)
        .metric("clean_wall_unguarded_secs", wall_off)
        .metric("clean_wall_resilient_secs", wall_guarded)
        .metric("clean_overhead_fraction", overhead)
        .bar("clean_overhead_fraction", Cmp::Lt, max_overhead);

    // Phase 2: Byzantine recovery under an injected flip plan.
    let (flip_original, flip_locked) = &workloads[0];
    flip_phase(flip_original, flip_locked, &mut record);
    faults::clear();
    record.finish(&out);
}
