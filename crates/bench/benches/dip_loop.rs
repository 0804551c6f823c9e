//! End-to-end DIP-loop benchmark: the SAT attack on the cln32 workload —
//! a random multi-thousand-gate host locked with a 32-wire almost
//! non-blocking CLN (the paper's hard routing topology embedded in real
//! logic) — with the legacy encoding pipeline versus the current one.
//!
//! "Legacy" replays the seed-commit attack loop: two full circuit copies
//! appended per observed I/O pair, per-gate Table 1 clauses, and no
//! solver inprocessing. "Current" is the default configuration:
//! cone-reduced I/O assertions, structure-aware CLN clause forms, and
//! CDCL inprocessing between restarts. The host logic is what separates
//! the two: under a known DIP everything outside the key-dependent fanin
//! cone constant-folds away, so the legacy pipeline re-encodes ~2×`GATES`
//! gates per iteration while the current one asserts only the key cones.
//! (On the *bare-wire* `cln_testbed`, where every gate is key-dependent
//! by construction, the pipelines are deliberately near-identical — that
//! testbed isolates the routing network, not the encoding.)
//!
//! Besides the criterion timing, the bench writes `BENCH_dip_loop.json`
//! at the repository root with both absolute numbers, and fails below
//! a 2x per-iteration speedup over the legacy pipeline. It also records
//! how much of the current pipeline's time its inprocessing rounds take
//! (`current_inprocess_s`).
//!
//! Run with: `cargo bench -p fulllock-bench --bench dip_loop`

use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fulllock_attacks::{EncodeStyle, SatAttack, SatAttackConfig, SimOracle};
use fulllock_bench::cln_locked_host;
use fulllock_bench::record::{BenchRecord, Cmp};
use fulllock_locking::ClnTopology;
use fulllock_sat::cdcl::SolverConfig;
use fulllock_sat::BackendSpec;

/// CLN width of the workload (the paper's Table 2 column the attack
/// still finishes in CI time).
const CLN_SIZE: usize = 32;

/// Host-circuit size: large enough that full-copy re-encoding dominates
/// the legacy pipeline, small enough for a CI smoke run.
const HOST_GATES: usize = 6000;

/// DIP iterations per measured run: enough that the per-iteration
/// formula growth dominates, small enough for a CI smoke run. Neither
/// pipeline converges within this budget on the workload, so both run
/// exactly this many iterations and the per-iteration figures compare
/// identical amounts of attack progress.
const DIP_BUDGET: u64 = 24;

/// Required end-to-end advantage of the current pipeline over the legacy
/// one on this workload.
const MIN_SPEEDUP: f64 = 2.0;

/// The seed-commit attack loop: full-copy I/O assertions, generic
/// per-gate clauses, no inprocessing.
fn legacy_config() -> SatAttackConfig {
    SatAttackConfig {
        max_iterations: Some(DIP_BUDGET),
        backend: BackendSpec::Configured(SolverConfig { inprocess: false }),
        cone_reduce: false,
        encode_style: EncodeStyle::Generic,
        ..SatAttackConfig::default()
    }
}

/// The current default pipeline, same iteration budget.
fn current_config() -> SatAttackConfig {
    SatAttackConfig {
        max_iterations: Some(DIP_BUDGET),
        ..SatAttackConfig::default()
    }
}

/// One measured attack run; returns (iterations, seconds, clauses,
/// seconds spent in inprocessing rounds).
fn run_attack(
    locked: &fulllock_locking::LockedCircuit,
    oracle: &SimOracle,
    config: SatAttackConfig,
) -> (u64, f64, usize, f64) {
    let mut engine = SatAttack::new(locked, oracle, config).expect("interfaces match");
    let start = Instant::now();
    let report = engine.run().expect("complete models");
    let secs = start.elapsed().as_secs_f64();
    let inprocess_s = report.solver.inprocess_ns as f64 / 1e9;
    (report.iterations, secs, report.formula.1, inprocess_s)
}

fn bench_dip_loop(c: &mut Criterion) {
    let (host, locked) =
        cln_locked_host(HOST_GATES, CLN_SIZE, ClnTopology::AlmostNonBlocking, 0xD1B);
    let oracle = SimOracle::new(&host).expect("random host is acyclic");

    let mut group = c.benchmark_group("dip_loop_cln32");
    group.sample_size(10);
    for (name, config) in [("legacy", legacy_config()), ("current", current_config())] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &config, |b, config| {
            b.iter(|| run_attack(&locked, &oracle, std::hint::black_box(*config)));
        });
    }
    group.finish();

    // Snapshot pass: un-benchmarked runs for a stable end-to-end figure,
    // written to BENCH_dip_loop.json. Per-iteration normalization keeps
    // the figure meaningful if one pipeline converges inside the budget.
    let mut legacy_best = f64::INFINITY;
    let mut current_best = f64::INFINITY;
    let mut legacy_last = (0u64, 0.0f64, 0usize, 0.0f64);
    let mut current_last = (0u64, 0.0f64, 0usize, 0.0f64);
    for _ in 0..3 {
        let run = run_attack(&locked, &oracle, legacy_config());
        legacy_best = legacy_best.min(run.1 / run.0.max(1) as f64);
        legacy_last = run;
        let run = run_attack(&locked, &oracle, current_config());
        current_best = current_best.min(run.1 / run.0.max(1) as f64);
        current_last = run;
    }
    let snapshot_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_dip_loop.json");
    BenchRecord::new(format!(
        "{HOST_GATES}-gate random host locked with a cln{CLN_SIZE} almost non-blocking CLN, \
         {DIP_BUDGET} DIP budget"
    ))
    .metric("legacy_iterations", legacy_last.0)
    .metric("legacy_seconds", legacy_last.1)
    .metric("legacy_final_clauses", legacy_last.2)
    .metric("legacy_secs_per_iteration", legacy_best)
    .metric("current_iterations", current_last.0)
    .metric("current_seconds", current_last.1)
    .metric("current_inprocess_s", current_last.3)
    .metric("current_final_clauses", current_last.2)
    .metric("current_secs_per_iteration", current_best)
    .metric("speedup", legacy_best / current_best)
    .bar("speedup", Cmp::Ge, MIN_SPEEDUP)
    .finish(snapshot_path);
}

criterion_group!(benches, bench_dip_loop);
criterion_main!(benches);
