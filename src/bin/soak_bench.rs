//! Chaos-soak harness for the **real** `fulllock serve` daemon: spawns
//! the CLI binary as a child process, runs a client swarm against it,
//! and repeatedly kills the daemon (SIGKILL, no warning), corrupts a
//! queue shard while it is down, and arms rotating `FULLLOCK_FAILPOINTS`
//! schedules (worker delays, `persist.write=enospc`, `queue.seal=torn`,
//! `persist.sync=eio`) — then checks the invariants that the service
//! promises to keep under exactly this abuse:
//!
//! - **exactly-once completion**: no job is ever observed with
//!   `completions > 1`, and after a final clean incarnation every
//!   accepted job is `done` with `completions == 1`;
//! - **monotone completions**: a job's completion count never decreases
//!   between snapshots within one daemon incarnation (across a SIGKILL
//!   the queue may rewind to its last sealed generation — the designed
//!   behavior — and the harness re-submits what vanished);
//! - **quota-ledger conservation**: after the drain, the rebuilt ledger
//!   reports zero in-flight slots and cumulative charges that equal the
//!   per-job charges summed from the queue.
//!
//! Two focused phases follow the soak: an **overload** burst against a
//! one-worker, `--max-pending 8` daemon (expecting typed `overloaded`
//! sheds and bounded submit latency for admitted requests), and a
//! **slow-loris** client against a `--io-timeout-secs 1` daemon
//! (expecting a typed disconnect while concurrent clients stay live).
//!
//! Results land in `BENCH_soak.json`; any violated invariant makes the
//! run exit non-zero. Build the daemon with failpoints so the disk-fault
//! schedules actually bite:
//!
//! ```text
//! cargo run --release --features failpoints --bin soak_bench
//! ```
//!
//! Options: `--secs N` (chaos-phase length, default 60), `--seed N`
//! (default 7 — a seed whose schedule includes shard-corruption
//! events), `--out PATH` (default BENCH_soak.json).

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::io::{BufRead, BufReader, Read as _, Write as _};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use full_lock::bench::record::{parse_flag, percentile, BenchRecord, Cmp};
use full_lock::harness::json::Json;
use full_lock::harness::plan::JobSpec;
use full_lock::harness::service::{Client, Endpoint, JobState, ShardedQueue};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Failpoint schedules rotated across daemon incarnations. Each row is
/// what `FULLLOCK_FAILPOINTS` is set to for that incarnation (empty =
/// no injected faults, just the kill).
const SCHEDULES: &[&str] = &[
    "",
    "service.worker=delay:150x20",
    "persist.write=enospc@20x3",
    "queue.seal=torn@15x1",
    "persist.sync=eio@10x2",
];

const SIGTERM: i32 = 15;

fn send_signal(pid: u32, sig: i32) {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    unsafe {
        kill(pid as i32, sig);
    }
}

/// The `fulllock` CLI binary, expected next to this benchmark binary
/// (both are targets of the root package, so cargo builds them into the
/// same directory).
fn fulllock_binary() -> PathBuf {
    let me = std::env::current_exe().expect("current exe");
    let bin = me.with_file_name("fulllock");
    assert!(
        bin.exists(),
        "daemon binary not found at {} (build it first: \
         cargo build --release --features failpoints --bin fulllock)",
        bin.display()
    );
    bin
}

/// One daemon incarnation: the spawned child plus what it was armed with.
struct Daemon {
    child: Child,
    schedule: &'static str,
}

fn spawn_daemon(
    bin: &Path,
    sock: &Path,
    state: &Path,
    log: &Path,
    schedule: &'static str,
    extra: &[&str],
) -> Daemon {
    let log_file = std::fs::File::create(log).expect("daemon log file");
    let log_err = log_file.try_clone().expect("clone log handle");
    let mut command = Command::new(bin);
    command
        .arg("serve")
        .arg("--listen")
        .arg(format!("unix:{}", sock.display()))
        .arg("--state-dir")
        .arg(state)
        .args(["--workers", "3", "--shards", "4"])
        .args(["--grace-secs", "1", "--max-attempts", "25"])
        .args(["--timeout-secs", "60"])
        .args(extra)
        .stdin(Stdio::null())
        .stdout(Stdio::from(log_file))
        .stderr(Stdio::from(log_err));
    if schedule.is_empty() {
        command.env_remove("FULLLOCK_FAILPOINTS");
    } else {
        command.env("FULLLOCK_FAILPOINTS", schedule);
    }
    let child = command.spawn().expect("spawn fulllock serve");
    Daemon { child, schedule }
}

fn wait_up(client: &Client, mut child: Option<&mut Child>) {
    let deadline = Instant::now() + Duration::from_secs(15);
    while !client.is_up() {
        if let Some(child) = child.as_deref_mut() {
            if let Ok(Some(status)) = child.try_wait() {
                panic!("daemon exited during startup: {status}");
            }
        }
        assert!(Instant::now() < deadline, "daemon never came up");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// SIGTERMs the daemon and waits for the graceful drain to finish.
fn drain_daemon(daemon: &mut Daemon) {
    send_signal(daemon.child.id(), SIGTERM);
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match daemon.child.try_wait().expect("wait daemon") {
            Some(status) => {
                assert!(status.success(), "drain exited {status}");
                return;
            }
            None if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(50)),
            None => {
                daemon.child.kill().ok();
                panic!("daemon did not drain within 30s of SIGTERM");
            }
        }
    }
}

/// Everything the swarm and monitor share.
struct Soak {
    endpoint: Endpoint,
    stop: AtomicBool,
    next_id: AtomicUsize,
    /// Job ids the daemon acked (or reported as duplicates — an earlier
    /// ack that this client lost to a kill).
    accepted: Mutex<BTreeSet<String>>,
    /// Typed refusals observed by the swarm, by error code.
    refusals: Mutex<BTreeMap<String, u64>>,
    /// Invariant violations; non-empty fails the run.
    violations: Mutex<Vec<String>>,
    /// Highest completion count seen per job within the current daemon
    /// incarnation (a restart may rewind to the last sealed generation,
    /// so the baseline resets at every kill boundary).
    baseline: Mutex<HashMap<String, u64>>,
}

impl Soak {
    fn violation(&self, what: String) {
        eprintln!("soak: INVARIANT VIOLATION: {what}");
        self.violations.lock().expect("violations lock").push(what);
    }
}

fn job_spec(id: &str) -> JobSpec {
    JobSpec::new(id, "/bin/sh")
        .arg("-c")
        .arg("sleep 0.05")
        .max_attempts(25)
}

/// One closed-loop swarm client: submits new jobs as long as the soak
/// runs, riding through daemon kills and typed refusals by retrying.
fn swarm_client(soak: &Soak, client_index: usize) {
    /// Total-job cap: keeps the final settle phase bounded no matter how
    /// fast the swarm outruns the workers during the chaos window.
    const MAX_JOBS: usize = 400;
    let client = Client::new(soak.endpoint.clone());
    let tenant = format!("tenant-{}", client_index % 3);
    while !soak.stop.load(Ordering::SeqCst) {
        if soak.accepted.lock().expect("accepted lock").len() >= MAX_JOBS {
            std::thread::sleep(Duration::from_millis(100));
            continue;
        }
        let i = soak.next_id.fetch_add(1, Ordering::Relaxed);
        let id = format!("soak-{i:05}");
        // Retry this submission until it is acked or the soak ends; a
        // kill can eat the ack, so `duplicate_job` also counts as acked.
        loop {
            if soak.stop.load(Ordering::SeqCst) {
                return;
            }
            match client.submit(&tenant, job_spec(&id)) {
                Ok(reply) => match reply.error_code() {
                    None | Some("duplicate_job") => {
                        soak.accepted.lock().expect("accepted lock").insert(id);
                        break;
                    }
                    Some(code) => {
                        *soak
                            .refusals
                            .lock()
                            .expect("refusals lock")
                            .entry(code.to_string())
                            .or_insert(0) += 1;
                        std::thread::sleep(Duration::from_millis(50));
                    }
                },
                // Daemon down or mid-kill: wait for the next incarnation.
                Err(_) => std::thread::sleep(Duration::from_millis(100)),
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// A `list` row's id, state and completion count.
fn list_row(job: &Json) -> Result<(&str, &str, u64), String> {
    Ok((
        job.late_field("id", "?")?,
        job.late_field("state", "?")?,
        job.late_field("completions", 0)?,
    ))
}

/// One `list` snapshot checked against the exactly-once and monotonicity
/// invariants. Returns the number of accepted jobs currently done.
fn check_snapshot(soak: &Soak, client: &Client) -> Option<usize> {
    let reply = client.list(None).ok()?;
    let full_lock::harness::service::ServiceReply::Ok(json) = reply else {
        return None;
    };
    let jobs = json.array_field("jobs").ok()?;
    let mut done = 0usize;
    let mut baseline = soak.baseline.lock().expect("baseline lock");
    for job in jobs {
        let (id, state, completions) = match list_row(job) {
            Ok(row) => row,
            Err(e) => {
                soak.violation(format!("malformed list row: {e}"));
                continue;
            }
        };
        if completions > 1 {
            soak.violation(format!(
                "job {id} observed with completions={completions} (exactly-once broken)"
            ));
        }
        if state == "done" {
            if completions != 1 {
                soak.violation(format!(
                    "job {id} is done with completions={completions} (want exactly 1)"
                ));
            }
            done += 1;
        }
        let seen = baseline.entry(id.to_string()).or_insert(0);
        if completions < *seen {
            soak.violation(format!(
                "job {id} completions regressed {seen} -> {completions} \
                 within one incarnation"
            ));
        }
        *seen = (*seen).max(completions);
    }
    Some(done)
}

/// Checks each tenant's quota ledger in `health` against the per-job
/// charges in `list`: equal conflicts and wall time, no in-flight slot
/// once every job is done. Returns the ledger rows for the record.
fn check_ledger(
    soak: &Soak,
    health: &Json,
    list: Option<&Json>,
    accepted: usize,
) -> Result<Vec<Json>, String> {
    let mut by_tenant: HashMap<String, (u64, f64)> = HashMap::new();
    let jobs: &[Json] = match list {
        Some(list) => list.late_field::<&[Json]>("jobs", &[])?,
        None => &[],
    };
    for job in jobs {
        let entry = by_tenant
            .entry(job.late_field("tenant", "?")?.to_string())
            .or_insert((0, 0.0));
        entry.0 += job.late_field("charged_conflicts", 0)?;
        entry.1 += job.late_field("charged_wall_secs", 0.0)?;
    }
    let mut ledger = Vec::new();
    for row in health.late_field::<&[Json]>("tenants", &[])? {
        let tenant = row.late_field("tenant", "?")?;
        let in_flight = row.late_field("in_flight", 0u64)?;
        let conflicts = row.late_field("conflicts", 0)?;
        let wall = row.late_field("wall_secs", 0.0)?;
        if in_flight != 0 {
            soak.violation(format!(
                "tenant {tenant} holds {in_flight} in-flight slots after settling"
            ));
        }
        let (job_conflicts, job_wall) = by_tenant.get(tenant).copied().unwrap_or((0, 0.0));
        if conflicts != job_conflicts {
            soak.violation(format!(
                "tenant {tenant} ledger conflicts {conflicts} != queue sum {job_conflicts}"
            ));
        }
        if (wall - job_wall).abs() > 1e-3 * (accepted as f64).max(1.0) {
            soak.violation(format!(
                "tenant {tenant} ledger wall {wall:.6}s != queue sum {job_wall:.6}s"
            ));
        }
        ledger.push(Json::Object(vec![
            ("tenant".to_string(), Json::from(tenant)),
            ("in_flight".to_string(), Json::from(in_flight)),
            ("conflicts".to_string(), Json::from(conflicts)),
            ("wall_secs".to_string(), Json::from(wall)),
        ]));
    }
    Ok(ledger)
}

/// Deliberately corrupts one shard's primary file (garbage mid-file),
/// simulating on-disk damage while the daemon is dead. The next open
/// must fall back to the previous sealed generation.
fn corrupt_random_shard(queue_dir: &Path, rng: &mut SmallRng) -> Option<u32> {
    let shard = rng.gen_range(0u32..4);
    let path = queue_dir.join(format!("shard-{shard:02}.json"));
    let text = std::fs::read_to_string(&path).ok()?;
    if text.len() < 8 {
        return None;
    }
    let mut bytes = text.into_bytes();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x55;
    bytes[mid / 2] ^= 0xAA;
    std::fs::write(&path, bytes).ok()?;
    Some(shard)
}

/// The main soak: kill/corrupt/fault-inject loop, then a clean final
/// incarnation that must finish every accepted job and drain.
#[allow(clippy::too_many_lines)]
fn chaos_phase(
    soak: &Arc<Soak>,
    dir: &Path,
    bin: &Path,
    secs: u64,
    rng: &mut SmallRng,
    record: &mut BenchRecord,
) {
    let sock = dir.join("serve.sock");
    let state = dir.join("state");
    let queue_dir = state.join("queue");
    let monitor = Client::new(soak.endpoint.clone());

    let swarm: Vec<_> = (0..4)
        .map(|i| {
            let soak = Arc::clone(soak);
            std::thread::spawn(move || swarm_client(&soak, i))
        })
        .collect();

    let chaos_deadline = Instant::now() + Duration::from_secs(secs);
    let mut incarnations = 0usize;
    let mut kills = 0usize;
    let mut corruptions = 0usize;
    while Instant::now() < chaos_deadline {
        let schedule = SCHEDULES[incarnations % SCHEDULES.len()];
        let log = dir.join(format!("incarnation-{incarnations:03}.log"));
        let mut daemon = spawn_daemon(bin, &sock, &state, &log, schedule, &[]);
        incarnations += 1;
        wait_up(&monitor, Some(&mut daemon.child));
        println!(
            "soak: incarnation {incarnations} up (failpoints: {})",
            if daemon.schedule.is_empty() {
                "none"
            } else {
                daemon.schedule
            }
        );

        // Let the swarm hammer this incarnation, watching invariants,
        // then kill it without warning.
        let lifetime = Duration::from_millis(rng.gen_range(3_000u64..8_000));
        let kill_at = Instant::now() + lifetime;
        while Instant::now() < kill_at && Instant::now() < chaos_deadline {
            check_snapshot(soak, &monitor);
            std::thread::sleep(Duration::from_millis(200));
        }
        daemon.child.kill().expect("SIGKILL daemon");
        daemon.child.wait().expect("reap daemon");
        kills += 1;
        // Completions are strictly monotone *within* an incarnation (the
        // monitor reads live state). Across a SIGKILL the queue rewinds
        // to its last sealed generation, which under injected persist
        // faults legitimately lags memory — reset the baseline at the
        // boundary.
        soak.baseline.lock().expect("baseline lock").clear();

        // Sometimes damage a shard while the daemon is down: the next
        // open must fall back to the previous sealed generation.
        if rng.gen_bool(0.3) {
            if let Some(shard) = corrupt_random_shard(&queue_dir, rng) {
                corruptions += 1;
                println!("soak: corrupted shard {shard:02} while the daemon was down");
            }
        }
    }
    soak.stop.store(true, Ordering::SeqCst);
    for handle in swarm {
        handle.join().expect("swarm thread");
    }

    // Final clean incarnation: no failpoints, re-submit anything a
    // rollback made vanish, and require every accepted job to finish
    // exactly once.
    let log = dir.join("incarnation-final.log");
    let mut daemon = spawn_daemon(bin, &sock, &state, &log, "", &[]);
    wait_up(&monitor, Some(&mut daemon.child));
    let accepted: Vec<String> = soak
        .accepted
        .lock()
        .expect("accepted lock")
        .iter()
        .cloned()
        .collect();
    println!(
        "soak: final incarnation up; settling {} accepted jobs",
        accepted.len()
    );
    let settle_deadline = Instant::now() + Duration::from_secs(180);
    let mut completed = 0usize;
    loop {
        // Re-submit vanished jobs (lost to a corruption rollback).
        let mut missing = 0usize;
        for id in &accepted {
            let Ok(reply) = monitor.status(id) else {
                continue;
            };
            if reply.error_code() == Some("unknown_job") {
                missing += 1;
                let _ = monitor.submit("tenant-resubmit", job_spec(id));
            }
        }
        completed = check_snapshot(soak, &monitor).unwrap_or(completed);
        if completed >= accepted.len() && missing == 0 {
            break;
        }
        assert!(
            Instant::now() < settle_deadline,
            "only {completed}/{} jobs settled before the deadline",
            accepted.len()
        );
        std::thread::sleep(Duration::from_millis(250));
    }

    // Quota-ledger conservation: the rebuilt ledger must agree exactly
    // with the per-job charges in the queue, and hold zero in-flight
    // slots now that everything is done.
    let tenant_ledger = match monitor.health() {
        Ok(full_lock::harness::service::ServiceReply::Ok(json)) => {
            let health = json.get("health").expect("health body");
            if health.nested_field("persist", |p| p.bool_field("healthy")) != Ok(true) {
                soak.violation("final health reports persistence unhealthy".to_string());
            }
            let list = match monitor.list(None) {
                Ok(full_lock::harness::service::ServiceReply::Ok(list)) => Some(list),
                _ => None,
            };
            check_ledger(soak, health, list.as_ref(), accepted.len()).unwrap_or_else(|e| {
                soak.violation(format!("malformed health or list reply: {e}"));
                Vec::new()
            })
        }
        _ => {
            soak.violation("final health request failed".to_string());
            Vec::new()
        }
    };

    drain_daemon(&mut daemon);

    // Offline verification of what the drain left on disk: every
    // accepted job sealed as done with exactly one completion.
    let queue = ShardedQueue::open(&queue_dir, 4).expect("post-drain queue opens");
    for id in &accepted {
        match queue.job(id) {
            None => soak.violation(format!("job {id} missing from the drained queue")),
            Some(job) if job.state != JobState::Done || job.completions != 1 => {
                soak.violation(format!(
                    "drained job {id} sealed as {:?} with completions={}",
                    job.state, job.completions
                ));
            }
            Some(_) => {}
        }
    }

    record
        .metric("incarnations", incarnations)
        .metric("kills", kills)
        .metric("corruptions", corruptions)
        .metric("jobs_accepted", accepted.len())
        .metric("jobs_completed", completed)
        .metric("tenant_ledger", Json::Array(tenant_ledger));
}

/// Overload burst against a deliberately tiny daemon: one worker, eight
/// pending slots. Excess submissions must shed with a typed
/// `overloaded` error while admission decisions stay fast.
fn overload_phase(dir: &Path, bin: &Path, soak: &Soak, record: &mut BenchRecord) {
    let sock = dir.join("overload.sock");
    let state = dir.join("overload-state");
    let log = dir.join("overload.log");
    let mut daemon = spawn_daemon(
        bin,
        &sock,
        &state,
        &log,
        "",
        &["--max-pending", "8", "--max-connections", "64"],
    );
    // A one-worker daemon: `--workers` in `extra` would conflict with
    // the default args, so occupy all three workers instead.
    let client = Client::new(Endpoint::Unix(sock.clone()));
    wait_up(&client, Some(&mut daemon.child));
    for i in 0..3 {
        let reply = client
            .submit(
                "burst",
                JobSpec::new(format!("occupier-{i}"), "/bin/sh")
                    .arg("-c")
                    .arg("sleep 30"),
            )
            .expect("submit occupier");
        assert!(reply.error_code().is_none(), "{reply:?}");
    }
    let running_deadline = Instant::now() + Duration::from_secs(15);
    loop {
        let running = (0..3)
            .filter(|i| {
                client
                    .status(&format!("occupier-{i}"))
                    .ok()
                    .and_then(|r| r.job_state())
                    == Some(JobState::Running)
            })
            .count();
        if running == 3 {
            break;
        }
        assert!(Instant::now() < running_deadline, "occupiers never started");
        std::thread::sleep(Duration::from_millis(20));
    }

    let burst = 40usize;
    let mut admitted = 0usize;
    let mut shed = 0usize;
    let mut latencies = Vec::with_capacity(burst);
    for i in 0..burst {
        let begin = Instant::now();
        let reply = client
            .submit("burst", JobSpec::new(format!("burst-{i:03}"), "/bin/true"))
            .expect("submit burst");
        latencies.push(begin.elapsed().as_secs_f64());
        match reply.error_code() {
            None => admitted += 1,
            Some("overloaded") => shed += 1,
            Some(code) => soak.violation(format!(
                "overload burst refused with {code}, want overloaded"
            )),
        }
    }
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latency"));
    let submit_p99_ms = percentile(&latencies, 99.0) * 1e3;
    if shed == 0 {
        soak.violation(format!(
            "overload burst of {burst} against max-pending 8 shed nothing"
        ));
    }
    if admitted > 8 {
        soak.violation(format!(
            "overload admitted {admitted} submissions past a pending cap of 8"
        ));
    }
    if submit_p99_ms > 1_000.0 {
        soak.violation(format!(
            "overload submit p99 {submit_p99_ms:.1}ms is not bounded (want <1000ms)"
        ));
    }
    println!(
        "soak: overload burst {burst}: {admitted} admitted, {shed} shed, \
         submit p99 {submit_p99_ms:.1}ms"
    );

    // State is disposable here; a hard kill is fine and fast.
    daemon.child.kill().ok();
    daemon.child.wait().ok();
    record
        .metric("overload_burst", burst)
        .metric("overload_admitted", admitted)
        .metric("overload_shed", shed)
        .metric("overload_submit_p99_ms", submit_p99_ms);
}

/// Slow-loris: a client that trickles a partial request line and never
/// finishes it. The daemon must disconnect it at the io deadline with a
/// typed error, without stalling well-behaved clients.
fn loris_phase(dir: &Path, bin: &Path, soak: &Soak, record: &mut BenchRecord) {
    let sock = dir.join("loris.sock");
    let state = dir.join("loris-state");
    let log = dir.join("loris.log");
    let mut daemon = spawn_daemon(bin, &sock, &state, &log, "", &["--io-timeout-secs", "1"]);
    let client = Client::new(Endpoint::Unix(sock.clone()));
    wait_up(&client, Some(&mut daemon.child));

    let mut loris = UnixStream::connect(&sock).expect("loris connect");
    loris.write_all(b"{\"verb\":\"lis").expect("partial write");
    loris
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");

    // Well-behaved clients keep getting served while the loris hangs.
    let mut concurrent_ok = 0usize;
    for _ in 0..5 {
        if client.list(None).is_ok_and(|r| r.error_code().is_none()) {
            concurrent_ok += 1;
        }
        std::thread::sleep(Duration::from_millis(100));
    }

    let mut reader = BufReader::new(&mut loris);
    let mut response = String::new();
    let got_error =
        reader.read_line(&mut response).is_ok() && response.contains("deadline_exceeded");
    let mut rest = Vec::new();
    let got_eof = reader
        .read_to_end(&mut rest)
        .map(|n| n == 0)
        .unwrap_or(false);
    let disconnected = got_error && got_eof;
    if !disconnected {
        soak.violation(format!(
            "slow-loris not disconnected cleanly (typed error: {got_error}, eof: {got_eof}, \
             response {response:?})"
        ));
    }
    if concurrent_ok < 5 {
        soak.violation(format!(
            "only {concurrent_ok}/5 concurrent requests succeeded while the loris hung"
        ));
    }
    println!(
        "soak: slow-loris disconnected={disconnected}, {concurrent_ok}/5 concurrent requests ok"
    );

    daemon.child.kill().ok();
    daemon.child.wait().ok();
    record
        .metric("slow_loris_disconnected", disconnected)
        .metric("slow_loris_concurrent_ok", concurrent_ok);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let secs: u64 = parse_flag(&args, "--secs", 60);
    let seed: u64 = parse_flag(&args, "--seed", 7);
    let out: String = parse_flag(&args, "--out", "BENCH_soak.json".to_string());
    let bin = fulllock_binary();
    let mut rng = SmallRng::seed_from_u64(seed);

    let dir = std::env::temp_dir().join(format!("fulllock-soak-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("soak scratch dir");
    println!(
        "soak: {secs}s chaos phase, seed {seed}, daemon {}, scratch {}",
        bin.display(),
        dir.display()
    );

    let soak = Arc::new(Soak {
        endpoint: Endpoint::Unix(dir.join("serve.sock")),
        stop: AtomicBool::new(false),
        next_id: AtomicUsize::new(0),
        accepted: Mutex::new(BTreeSet::new()),
        refusals: Mutex::new(BTreeMap::new()),
        violations: Mutex::new(Vec::new()),
        baseline: Mutex::new(HashMap::new()),
    });

    let mut record = BenchRecord::new(
        "chaos soak of the real fulllock serve binary: SIGKILL every 3-8s, rotating failpoint \
         schedules, shard corruption, 4-client swarm; then an overload burst and a slow-loris \
         client",
    );
    record.metric("chaos_secs", secs).metric("seed", seed);
    let start = Instant::now();
    chaos_phase(&soak, &dir, &bin, secs, &mut rng, &mut record);
    overload_phase(&dir, &bin, &soak, &mut record);
    loris_phase(&dir, &bin, &soak, &mut record);
    std::fs::remove_dir_all(&dir).ok();

    let violations = soak.violations.lock().expect("violations lock");
    let codes = soak.refusals.lock().expect("refusals lock");
    let refusals = codes.iter().map(|(code, &n)| (code.clone(), Json::from(n)));
    record
        .metric("elapsed_secs", start.elapsed().as_secs_f64())
        .metric("refusals", Json::Object(refusals.collect()))
        .metric("violations", violations.len())
        .metric(
            "violation_messages",
            Json::Array(violations.iter().map(|v| Json::from(v.as_str())).collect()),
        )
        .bar("violations", Cmp::Eq, 0u64)
        .finish(&out);
}
