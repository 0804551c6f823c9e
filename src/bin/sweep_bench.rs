//! Scaling benchmark for the distributed sweep executor: the same
//! latency-bound grid run under 1 worker and under N workers, through
//! the **real** coordinator/worker process machinery (leases, result
//! files — nothing mocked).
//!
//! The reference grid is deliberately adversarial to naive fan-out:
//!
//! * every unit carries `sleep_ms` of simulated latency (so the bench
//!   measures coordination, not SAT solving — the embedded instances
//!   are tiny);
//! * unit 0 is a deterministic straggler (`straggle_unit=0`,
//!   `straggle_ms`): its *first owner* sleeps several seconds, modelling
//!   one bad machine. The single-worker baseline has no choice but to
//!   eat that sleep serially; the N-worker run must neutralize it via
//!   speculative re-execution (first result wins), so the straggler
//!   costs roughly one speculation deadline instead of `straggle_ms`.
//!
//! Reported speedup is `wall(1 worker) / wall(N workers)` for the
//! identical plan, and the run fails (exit 1) below `--floor` or when
//! the straggler's first owner won. Results land in `BENCH_sweep.json`
//! with the measurement basis spelled out.
//!
//! ```text
//! cargo run --release --bin sweep_bench
//! ```
//!
//! Options: `--workers N` (default 8), `--units N` (default 128),
//! `--sleep-ms N` (default 50), `--straggle-ms N` (default 8000),
//! `--floor X` (default 8.0), `--out PATH` (default BENCH_sweep.json).
//!
//! The binary re-execs itself as the worker process (first argument
//! `internal-worker`), so a release build of this one target is the
//! whole deployment.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use full_lock::bench::record::{parse_flag, BenchRecord, Cmp};
use full_lock::harness::sweep::worker::{run_worker, SatUnitExecutor, WorkerArgs};
use full_lock::harness::sweep::{
    fold_results, run_sweep, SweepConfig, SweepGrid, SweepOutcome, SweepPlan,
};

/// Worker mode: `sweep_bench internal-worker --dir ... --worker N ...`.
/// The coordinator spawns these; they coordinate purely through the
/// sweep directory.
fn worker_main(args: &[String]) -> ! {
    let parsed = match WorkerArgs::parse(args) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("sweep_bench internal-worker: {message}");
            std::process::exit(64);
        }
    };
    let (plan, _hash) = match SweepPlan::load(&parsed.dir) {
        Ok(loaded) => loaded,
        Err(e) => {
            eprintln!("sweep_bench internal-worker: load plan: {e}");
            std::process::exit(64);
        }
    };
    let executor = SatUnitExecutor::from_plan(&plan);
    match run_worker(&plan, &parsed.to_config(), &executor) {
        Ok(_) => std::process::exit(0),
        Err(e) => {
            eprintln!("sweep_bench internal-worker: {e}");
            std::process::exit(1);
        }
    }
}

/// The reference plan: `units` grid points of `sleep_ms` latency each,
/// with unit 0 straggling `straggle_ms` on its first owner.
fn bench_plan(units: usize, sleep_ms: u64, straggle_ms: u64) -> SweepPlan {
    let seeds: Vec<String> = (0..units).map(|i| i.to_string()).collect();
    let mut plan = SweepPlan::new(
        SweepGrid::new("sweep-scaling-bench")
            .axis("vars", ["20"])
            .axis("sleep_ms", [sleep_ms.to_string()])
            .axis("straggle_unit", ["0"])
            .axis("straggle_ms", [straggle_ms.to_string()])
            .axis("seed", seeds),
    );
    plan.unit_timeout_secs = 120.0;
    plan
}

fn bench_config(dir: &Path, workers: usize) -> SweepConfig {
    let me = std::env::current_exe().expect("current exe");
    let mut config = SweepConfig::new(dir, me, vec!["internal-worker".to_string()]);
    config.workers = workers;
    config.lease_ttl = Duration::from_millis(400);
    config.poll = Duration::from_millis(20);
    config.shutdown_grace = Duration::from_millis(300);
    config.speculation_min_age = Duration::from_millis(300);
    config.max_wall = Some(Duration::from_secs(600));
    config
}

fn run_once(dir: &Path, plan: &SweepPlan, workers: usize) -> (f64, SweepOutcome) {
    std::fs::remove_dir_all(dir).ok();
    let start = Instant::now();
    let outcome = run_sweep(plan, &bench_config(dir, workers)).expect("sweep completes");
    let elapsed = start.elapsed().as_secs_f64();
    let units = plan.grid.unit_count();
    assert_eq!(
        outcome.aggregates.samples as usize, units,
        "exactly-once broken: {} samples for {units} units",
        outcome.aggregates.samples
    );
    (elapsed, outcome)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("internal-worker") {
        worker_main(&args[1..]);
    }

    let workers: usize = parse_flag(&args, "--workers", 8);
    let units: usize = parse_flag(&args, "--units", 128);
    let sleep_ms: u64 = parse_flag(&args, "--sleep-ms", 50);
    let straggle_ms: u64 = parse_flag(&args, "--straggle-ms", 8_000);
    let floor: f64 = parse_flag(&args, "--floor", 8.0);
    let out: String = parse_flag(&args, "--out", "BENCH_sweep.json".to_string());
    assert!(workers >= 2, "--workers must be at least 2");

    let plan = bench_plan(units, sleep_ms, straggle_ms);
    let scratch: PathBuf =
        std::env::temp_dir().join(format!("fulllock-sweep-bench-{}", std::process::id()));
    println!(
        "sweep bench: {units} units x {sleep_ms}ms, straggler {straggle_ms}ms, \
         comparing 1 vs {workers} workers"
    );

    let dir1 = scratch.join("w1");
    let (t1, _one) = run_once(&dir1, &plan, 1);
    println!("sweep bench: 1 worker: {t1:.2}s");

    let dir_n = scratch.join(format!("w{workers}"));
    let (tn, outcome) = run_once(&dir_n, &plan, workers);
    let fold = fold_results(&dir_n, &plan.grid.units()).expect("fold N-worker results");
    let straggler = &fold.samples["unit-00000"];
    let neutralized = straggler.stolen || straggler.speculative;
    println!(
        "sweep bench: {workers} workers: {tn:.2}s (straggler unit-00000 won by {} via {})",
        straggler.worker,
        if straggler.speculative {
            "speculation"
        } else if straggler.stolen {
            "a steal"
        } else {
            "its first owner"
        },
    );

    std::fs::remove_dir_all(&scratch).ok();

    BenchRecord::new(format!(
        "distributed sweep of {units} latency-bound units ({sleep_ms}ms sleep each; unit 0 \
         straggles {straggle_ms}ms on its first owner) through the real coordinator + worker \
         processes; speedup = wall(1 worker) / wall({workers} workers) for the identical plan"
    ))
    .metric("units", units)
    .metric("sleep_ms", sleep_ms)
    .metric("straggle_ms", straggle_ms)
    .metric("workers", workers)
    .metric("wall_1_worker_secs", t1)
    .metric("wall_n_workers_secs", tn)
    .metric("speedup", t1 / tn)
    .metric("straggler_neutralized", neutralized)
    .metric("speculative_wins", outcome.aggregates.speculative)
    .metric("stolen_wins", outcome.aggregates.stolen)
    .metric("respawns", outcome.respawns)
    .bar("speedup", Cmp::Ge, floor)
    .bar("straggler_neutralized", Cmp::Eq, true)
    .finish(&out);
}
