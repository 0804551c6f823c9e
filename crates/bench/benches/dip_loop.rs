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
//! The bench runs each pipeline once per seed of [`SEEDS`], each seed
//! its own host and lock, and writes `BENCH_dip_loop.json` at the
//! repository root with every seed's figures. A seed's speedup is legacy
//! seconds per DIP over current seconds per DIP; the guard fails when
//! their geometric mean falls below 2x. It also records how much of the
//! current pipeline's time its inprocessing rounds take
//! (`current_inprocess_s`).
//!
//! Run with: `cargo bench -p fulllock-bench --bench dip_loop`

use std::time::Instant;

use fulllock_attacks::{EncodeStyle, SatAttack, SatAttackConfig, SimOracle};
use fulllock_bench::cln_locked_host;
use fulllock_bench::record::{BenchRecord, Cmp};
use fulllock_harness::json::Json;
use fulllock_locking::{ClnTopology, LockedCircuit};
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
/// one on this workload: the geometric mean of the per-seed speedups.
const MIN_SPEEDUP: f64 = 2.0;

/// Host and lock seeds: the original workload seed plus a contiguous
/// range, fixed before any run was judged against the bar.
const SEEDS: [u64; 6] = [0xD1B, 50, 51, 52, 53, 54];

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

/// One measured attack run.
struct Run {
    iterations: u64,
    seconds: f64,
    final_clauses: usize,
    inprocess_s: f64,
}

impl Run {
    fn secs_per_iteration(&self) -> f64 {
        self.seconds / self.iterations.max(1) as f64
    }
}

fn run_attack(locked: &LockedCircuit, oracle: &SimOracle, config: SatAttackConfig) -> Run {
    let mut engine = SatAttack::new(locked, oracle, config).expect("interfaces match");
    let start = Instant::now();
    let report = engine.run().expect("complete models");
    Run {
        iterations: report.iterations,
        seconds: start.elapsed().as_secs_f64(),
        final_clauses: report.formula.1,
        inprocess_s: report.solver.inprocess_ns as f64 / 1e9,
    }
}

fn main() {
    let mut rows = Vec::new();
    let mut log_speedup_sum = 0.0;
    for seed in SEEDS {
        let (host, locked) =
            cln_locked_host(HOST_GATES, CLN_SIZE, ClnTopology::AlmostNonBlocking, seed);
        let oracle = SimOracle::new(&host).expect("random host is acyclic");
        let legacy = run_attack(&locked, &oracle, legacy_config());
        let current = run_attack(&locked, &oracle, current_config());
        let speedup = legacy.secs_per_iteration() / current.secs_per_iteration();
        eprintln!(
            "seed {seed}: legacy {:.2}s, current {:.2}s, speedup {speedup:.3}",
            legacy.seconds, current.seconds
        );
        log_speedup_sum += speedup.ln();
        rows.push(Json::Object(
            [
                ("seed", Json::from(seed)),
                ("legacy_iterations", legacy.iterations.into()),
                ("legacy_seconds", legacy.seconds.into()),
                ("legacy_final_clauses", legacy.final_clauses.into()),
                (
                    "legacy_secs_per_iteration",
                    legacy.secs_per_iteration().into(),
                ),
                ("current_iterations", current.iterations.into()),
                ("current_seconds", current.seconds.into()),
                ("current_inprocess_s", current.inprocess_s.into()),
                ("current_final_clauses", current.final_clauses.into()),
                (
                    "current_secs_per_iteration",
                    current.secs_per_iteration().into(),
                ),
                ("speedup", speedup.into()),
            ]
            .into_iter()
            .map(|(name, value)| (name.to_string(), value))
            .collect(),
        ));
    }
    let geomean = (log_speedup_sum / SEEDS.len() as f64).exp();
    let snapshot_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_dip_loop.json");
    BenchRecord::new(format!(
        "{HOST_GATES}-gate random host locked with a cln{CLN_SIZE} almost non-blocking CLN, \
         {DIP_BUDGET} DIP budget, one run per pipeline on each of {} seeds",
        SEEDS.len()
    ))
    .metric("seeds", Json::Array(rows))
    .metric("speedup_geomean", geomean)
    .bar("speedup_geomean", Cmp::Ge, MIN_SPEEDUP)
    .finish(snapshot_path);
}
