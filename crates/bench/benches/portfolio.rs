//! Portfolio-vs-sequential race on the BENCH_cdcl locked-miter workload
//! family, with a machine-readable snapshot (`BENCH_portfolio.json`).
//!
//! The race solves satisfiable Full-Lock CLN miters — the DIP-search
//! instances of the SAT attack — once with the sequential [`Solver`]
//! (default configuration, the exact single-thread baseline) and once
//! with a 4-thread [`PortfolioSolver`] (diversified restart/decay/
//! polarity configs, glue-clause exchange, first-finisher-wins).
//!
//! The snapshot records both sides' wall-clock and the measured speedup,
//! which must reach 1.3x. The record carries the host's core count: on a
//! host with fewer cores than workers the four solvers time-share them,
//! and the measured speedup is what that host gets.
//!
//! Run with: `cargo bench -p fulllock-bench --bench portfolio`

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use fulllock_bench::miter_workload;
use fulllock_bench::record::{BenchRecord, Cmp};
use fulllock_sat::cdcl::{SolveLimits, SolveResult, Solver};
use fulllock_sat::{Cnf, PortfolioConfig, PortfolioSolver};

/// DIP-search instances: 32-input almost-non-blocking CLN miters under a
/// handful of IO-pair constraints (satisfiable, near the hardness peak of
/// the Table 2 family).
const WORKLOAD: &[(usize, usize, u64)] = &[(32, 5, 0x8), (32, 5, 0x9), (32, 5, 0x13)];

const THREADS: usize = 4;

fn workload() -> Vec<Cnf> {
    WORKLOAD
        .iter()
        .map(|&(n, pairs, seed)| miter_workload(n, pairs, seed))
        .collect()
}

/// Sequential side of the race: one default-config solver per instance.
fn run_single(instances: &[Cnf]) -> f64 {
    let start = Instant::now();
    for cnf in instances {
        let mut solver = Solver::from_cnf(cnf);
        let result = solver.solve_limited(&[], SolveLimits::default());
        assert_eq!(result, SolveResult::Sat, "DIP instances are satisfiable");
    }
    start.elapsed().as_secs_f64()
}

/// Portfolio side: a 4-thread race per instance.
fn run_portfolio(instances: &[Cnf]) -> f64 {
    let start = Instant::now();
    for cnf in instances {
        let mut solver = PortfolioSolver::from_cnf(cnf, PortfolioConfig::with_threads(THREADS));
        let result = solver.solve_limited(&[], SolveLimits::default());
        assert_eq!(result, SolveResult::Sat, "DIP instances are satisfiable");
        assert!(solver.winner().is_some(), "a worker must win the race");
    }
    start.elapsed().as_secs_f64()
}

fn bench_portfolio(c: &mut Criterion) {
    let instances = workload();

    let mut group = c.benchmark_group("portfolio_race");
    group.sample_size(10);
    group.bench_function("single", |b| {
        b.iter(|| run_single(std::hint::black_box(&instances)))
    });
    group.bench_function(format!("portfolio{THREADS}"), |b| {
        b.iter(|| run_portfolio(std::hint::black_box(&instances)))
    });
    group.finish();

    // Snapshot pass: best-of-3 wall-clock per side, written to
    // BENCH_portfolio.json at the repository root.
    let mut single_secs = f64::INFINITY;
    let mut portfolio_secs = f64::INFINITY;
    for _ in 0..3 {
        single_secs = single_secs.min(run_single(&instances));
        portfolio_secs = portfolio_secs.min(run_portfolio(&instances));
    }

    let snapshot_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_portfolio.json");
    BenchRecord::new(format!(
        "cln32 almost-non-blocking DIP miters x{}",
        instances.len()
    ))
    .metric("threads", THREADS)
    .metric("single_secs", single_secs)
    .metric("portfolio_secs", portfolio_secs)
    .metric("speedup", single_secs / portfolio_secs)
    .bar("speedup", Cmp::Ge, 1.3)
    .finish(snapshot_path);
}

criterion_group!(benches, bench_portfolio);
criterion_main!(benches);
