//! Chaos acceptance tests for the distributed sweep executor: real
//! worker *processes* (the `sweep_worker` test binary) coordinating
//! purely through lease files and result files, under SIGKILL, torn
//! writes, and injected disk faults. The invariant under every
//! schedule: **every unit settles exactly once** — one valid result
//! file per grid point, no unit lost.

#![cfg(unix)]

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use fulllock_harness::sweep::coordinator::{run_sweep, SweepConfig};
use fulllock_harness::sweep::grid::{SweepGrid, SweepPlan};
use fulllock_harness::sweep::lease::{read_lease, LeaseState};
use fulllock_harness::sweep::results::{count_settled, fold_results, results_dir};
use fulllock_harness::sweep::worker::WorkerArgs;

fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("fulllock-sweep-chaos-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn worker_args(dir: &Path, index: usize) -> WorkerArgs {
    WorkerArgs {
        dir: dir.to_path_buf(),
        worker_index: index,
        lease_ttl_millis: 400,
        poll_millis: 20,
        spec_min_age_millis: 60_000, // keep speculation out of steal tests
    }
}

fn spawn_worker(dir: &Path, index: usize) -> Child {
    Command::new(env!("CARGO_BIN_EXE_sweep_worker"))
        .args(worker_args(dir, index).to_args())
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn sweep worker")
}

fn wait_for<F: Fn() -> bool>(what: &str, deadline: Duration, check: F) {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if check() {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("timed out waiting for {what}");
}

/// A SIGKILLed worker's claimed unit migrates to a live worker through
/// lease expiry + steal — no coordinator involved — and the final fold
/// still holds exactly one sample per unit.
#[test]
fn sigkilled_workers_unit_is_stolen_and_settles_exactly_once() {
    let dir = scratch("sigkill-steal");
    // Unit 0 straggles 60s *on its first owner only* (stolen and
    // speculative re-executions run it instantly), so worker A is
    // guaranteed to be stuck inside it when the SIGKILL lands.
    let plan = SweepPlan::new(
        SweepGrid::new("kill")
            .axis("vars", ["20"])
            .axis("straggle_unit", ["0"])
            .axis("straggle_ms", ["60000"])
            .axis("seed", ["0", "1", "2", "3", "4", "5"]),
    );
    let units = plan.grid.unit_count();
    assert_eq!(units, 6);
    plan.save(&dir, 0).expect("save plan");

    let mut victim = spawn_worker(&dir, 0);
    // Wait until the victim actually holds unit 0's lease (it claims
    // unit 0 first and hangs inside the straggle sleep).
    let lease_path = dir.join("leases").join("unit-00000.lease");
    wait_for(
        "victim to claim unit 0",
        Duration::from_secs(10),
        || matches!(read_lease(&lease_path, 0), LeaseState::Held(l) if l.worker == "w0"),
    );
    victim.kill().expect("SIGKILL victim");
    victim.wait().expect("reap victim");

    // A live worker must finish the whole grid alone: fresh claims for
    // the untouched units, a steal for the orphaned unit 0 once the
    // dead worker's lease expires.
    let mut survivor = spawn_worker(&dir, 1);
    let status = survivor.wait().expect("survivor runs to completion");
    assert!(status.success(), "survivor exit: {status}");

    assert_eq!(count_settled(&dir), units, "every unit settled");
    let fold = fold_results(&dir, &plan.grid.units()).expect("fold");
    assert_eq!(fold.samples.len(), units, "exactly one sample per unit");
    let unit0 = &fold.samples["unit-00000"];
    assert_eq!(unit0.worker, "w1", "the survivor's result won");
    assert!(unit0.stolen, "unit 0 arrived via a steal");
    for sample in fold.samples.values() {
        assert!(
            matches!(sample.verdict.as_str(), "sat" | "unsat" | "unknown"),
            "unexpected verdict {:?}",
            sample.verdict
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

fn coordinator_config(dir: &Path, workers: usize) -> SweepConfig {
    let mut config = SweepConfig::new(dir, env!("CARGO_BIN_EXE_sweep_worker"), vec![]);
    config.workers = workers;
    config.lease_ttl = Duration::from_millis(400);
    config.poll = Duration::from_millis(20);
    config.max_wall = Some(Duration::from_secs(120));
    config.shutdown_grace = Duration::from_millis(500);
    config.ambient_hash = Some(0);
    config
}

/// Crash-then-resume: after a completed sweep loses one record to a
/// torn result file (the file exists, so the unit counts as settled,
/// but its record is half written), `resume` must delete exactly that
/// file, re-run exactly that unit, and leave every other result file
/// untouched.
#[test]
fn resume_reruns_exactly_the_torn_result() {
    let dir = scratch("torn-resume");
    let plan = SweepPlan::new(
        SweepGrid::new("torn")
            .axis("vars", ["20"])
            .axis("seed", ["0", "1", "2", "3"]),
    );
    let units = plan.grid.unit_count();
    let outcome = run_sweep(&plan, &coordinator_config(&dir, 2)).expect("fresh sweep");
    assert_eq!(outcome.aggregates.samples as usize, units);

    // Tear one result file in half: a write the filesystem acknowledged
    // but never made durable.
    let read_all = || -> Vec<(String, Vec<u8>)> {
        plan.grid
            .units()
            .into_iter()
            .map(|u| {
                let path = results_dir(&dir).join(format!("{}.json", u.id));
                (u.id, std::fs::read(path).expect("read result"))
            })
            .collect()
    };
    let before = read_all();
    let (lost, bytes) = &before[2];
    let victim = results_dir(&dir).join(format!("{lost}.json"));
    std::fs::write(&victim, &bytes[..bytes.len() / 2]).expect("tear result");
    let torn = fold_results(&dir, &plan.grid.units()).expect("fold after tear");
    assert_eq!(torn.orphans, std::slice::from_ref(lost));
    assert_eq!(count_settled(&dir), units, "the torn file still counts");

    let mut config = coordinator_config(&dir, 2);
    config.resume = true;
    let resumed = run_sweep(&plan, &config).expect("resume sweep");
    assert_eq!(
        resumed.resume.orphans_cleared, 1,
        "the torn result was caught"
    );
    assert_eq!(resumed.resume.settled, units - 1, "intact units were kept");
    assert_eq!(resumed.rerun_rounds, 0);
    assert_eq!(
        resumed.aggregates.samples as usize, units,
        "coverage restored"
    );
    let fold = fold_results(&dir, &plan.grid.units()).expect("final fold");
    assert!(fold.orphans.is_empty());
    assert!(fold.samples.contains_key(lost), "the lost unit re-ran");
    for ((unit, old), (_, new)) in before.iter().zip(read_all()) {
        if unit != lost {
            assert_eq!(old, &new, "{unit} was not re-run");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Resume refuses to continue when the FULLLOCK_* ambient environment
/// drifted since the sweep started (the plan's config hash folds in the
/// ambient fingerprint).
#[test]
fn resume_refuses_a_drifted_ambient_environment() {
    let dir = scratch("ambient-drift");
    let plan = SweepPlan::new(
        SweepGrid::new("drift")
            .axis("vars", ["20"])
            .axis("seed", ["0"]),
    );
    let outcome = run_sweep(&plan, &coordinator_config(&dir, 1)).expect("fresh sweep");
    assert_eq!(outcome.aggregates.samples, 1);

    let mut config = coordinator_config(&dir, 1);
    config.resume = true;
    config.ambient_hash = Some(0xdead_beef); // a FULLLOCK_* var changed
    let err = run_sweep(&plan, &config).expect_err("must refuse");
    assert!(
        err.to_string().contains("environment drifted"),
        "got: {err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Injected disk faults (torn result files + slowed lease writes) via
/// FULLLOCK_FAILPOINTS in the workers' environment: the coordinator
/// must detect the units whose result files are torn, re-run them in
/// bounded rounds, and still deliver exactly-once coverage.
#[cfg(feature = "failpoints")]
#[test]
fn injected_torn_appends_are_rerun_to_exactly_once() {
    let dir = scratch("failpoint-torn");
    let seeds: Vec<String> = (0..12).map(|i| i.to_string()).collect();
    let plan = SweepPlan::new(
        SweepGrid::new("fp")
            .axis("vars", ["20"])
            .axis("seed", seeds),
    );
    let units = plan.grid.unit_count();

    let mut config = coordinator_config(&dir, 2);
    // Each worker process: 2 clean result writes, then one torn write
    // that reports success; lease writes get a 10ms delay to widen
    // races.
    config.worker_env = vec![(
        "FULLLOCK_FAILPOINTS".to_string(),
        "sweep.result=torn@2x1;sweep.lease=delay:10".to_string(),
    )];
    let outcome = run_sweep(&plan, &config).expect("sweep survives torn appends");
    assert_eq!(outcome.aggregates.samples as usize, units, "exactly-once");
    assert!(
        outcome.rerun_rounds >= 1,
        "the torn units must have needed a re-run round"
    );
    let fold = fold_results(&dir, &plan.grid.units()).expect("fold");
    assert_eq!(fold.samples.len(), units);
    assert!(fold.orphans.is_empty());
    std::fs::remove_dir_all(&dir).ok();
}
