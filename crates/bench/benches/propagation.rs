//! Criterion benchmark of CDCL unit-propagation throughput on a fixed
//! locked-miter workload, with a machine-readable regression snapshot.
//!
//! The workload is the hot loop of every table/figure in the paper: a
//! Full-Lock miter (two key copies of a locked circuit sharing inputs,
//! outputs XOR-ed) solved under a fixed conflict budget. Besides the
//! criterion timing, the bench writes `BENCH_cdcl.json` at the repository
//! root. It records propagations/second against the seed baseline, with
//! no bar, and asserts one bar: `Model`-level certification costs under
//! 5% of that throughput. Propagations/second divides by the wall time of
//! the whole solve, which includes inprocessing rounds; the record gives
//! their share as `inprocess_s` next to `seconds`.
//!
//! Run with: `cargo bench -p fulllock-bench --bench propagation`

use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fulllock_bench::miter_workload;
use fulllock_bench::record::{BenchRecord, Cmp};
use fulllock_sat::backend::BackendSpec;
use fulllock_sat::cdcl::{SolveLimits, SolveResult, Solver};
use fulllock_sat::{CertifyLevel, Cnf};

/// Propagations/second measured at the seed commit (separately-allocated
/// `Vec<Lit>` clauses, activity-only reduction) on the reference container:
/// 3.25M props/sec, 1.21 s per 30k-conflict solve on this workload. The
/// record compares against it; no bar judges throughput until the 1.5x
/// arena-rewrite bar is re-established on the recording host.
const BASELINE_PROPS_PER_SEC: f64 = 3_250_000.0;

/// Conflict budget per solve: large enough that propagation dominates,
/// small enough that one measurement stays under a second.
const CONFLICT_BUDGET: u64 = 30_000;

/// Acceptance bar for `Model`-level result certification: re-checking
/// every SAT model against a mirror of the original clauses must cost
/// less than this percentage of propagation throughput.
const MAX_CERTIFY_OVERHEAD_PCT: f64 = 5.0;

/// One measured solve; returns (propagations, seconds, seconds spent in
/// inprocessing rounds).
fn run_budgeted(cnf: &Cnf) -> (u64, f64, f64) {
    let mut solver = Solver::from_cnf(cnf);
    let start = Instant::now();
    let result = solver.solve_limited(
        &[],
        SolveLimits::builder()
            .max_conflicts(CONFLICT_BUDGET)
            .build(),
    );
    let secs = start.elapsed().as_secs_f64();
    assert_ne!(
        result,
        SolveResult::Unsat,
        "the miter of a keyed circuit must stay satisfiable"
    );
    let stats = solver.stats();
    (stats.propagations, secs, stats.inprocess_ns as f64 / 1e9)
}

/// One measured solve through a (possibly certifying) backend; returns
/// (propagations, seconds). Clause loading happens outside the timed
/// window on both sides, so the figure isolates the certification layer's
/// steady-state cost.
fn run_budgeted_certified(cnf: &Cnf, level: CertifyLevel) -> (u64, f64) {
    let mut solver = BackendSpec::Single.create_certified(level);
    solver.ensure_vars(cnf.num_vars());
    for clause in cnf.clauses() {
        solver.add_clause(clause);
    }
    let start = Instant::now();
    let result = solver.solve_limited(
        &[],
        SolveLimits::builder()
            .max_conflicts(CONFLICT_BUDGET)
            .build(),
    );
    let secs = start.elapsed().as_secs_f64();
    assert_ne!(
        result,
        SolveResult::Unsat,
        "the miter of a keyed circuit must stay satisfiable"
    );
    (solver.stats().propagations, secs)
}

fn bench_propagation(c: &mut Criterion) {
    let cnf = miter_workload(16, 24, 0xBEEF);
    let mut group = c.benchmark_group("propagation_miter16");
    group.sample_size(10);
    group.bench_with_input(
        BenchmarkId::from_parameter(format!("budget{CONFLICT_BUDGET}")),
        &cnf,
        |b, cnf| {
            b.iter(|| run_budgeted(std::hint::black_box(cnf)));
        },
    );
    group.finish();

    // Snapshot pass: a few un-benchmarked runs to compute a stable
    // propagations/sec figure, written to BENCH_cdcl.json.
    let mut best_props_per_sec = 0.0f64;
    let mut last = (0u64, 0.0f64, 0.0f64);
    for _ in 0..3 {
        last = run_budgeted(&cnf);
        best_props_per_sec = best_props_per_sec.max(last.0 as f64 / last.1);
    }
    // Certification overhead pass: the same workload through the
    // certifying backend at Off and Model levels. Model-level checking
    // must stay essentially free (its cost is a clause mirror and one
    // model walk per SAT answer, not per propagation).
    let mut certify_off = 0.0f64;
    let mut certify_model = 0.0f64;
    for _ in 0..3 {
        let (props, secs) = run_budgeted_certified(&cnf, CertifyLevel::Off);
        certify_off = certify_off.max(props as f64 / secs);
        let (props, secs) = run_budgeted_certified(&cnf, CertifyLevel::Model);
        certify_model = certify_model.max(props as f64 / secs);
    }
    let certify_overhead_pct = (1.0 - certify_model / certify_off) * 100.0;

    let snapshot_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_cdcl.json");
    BenchRecord::new(format!(
        "cln16 almost-non-blocking miter, {CONFLICT_BUDGET} conflicts"
    ))
    .metric("vars", cnf.num_vars())
    .metric("clauses", cnf.num_clauses())
    .metric("propagations", last.0)
    .metric("seconds", last.1)
    .metric("inprocess_s", last.2)
    .metric("props_per_sec", best_props_per_sec)
    .metric("baseline_props_per_sec", BASELINE_PROPS_PER_SEC)
    .metric("certify_off_props_per_sec", certify_off)
    .metric("certify_model_props_per_sec", certify_model)
    .metric("certify_overhead_pct", certify_overhead_pct)
    .bar("certify_overhead_pct", Cmp::Lt, MAX_CERTIFY_OVERHEAD_PCT)
    .finish(snapshot_path);
}

criterion_group!(benches, bench_propagation);
criterion_main!(benches);
