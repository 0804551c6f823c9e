//! Load test for the `fulllock serve` daemon: an in-process server on a
//! unix socket, a pool of closed-loop clients each submitting a small
//! job and waiting for it to finish, repeated until the job budget is
//! spent. Reports sustained throughput (jobs/min) and submit→done
//! latency percentiles, and writes `BENCH_service.json` at the
//! repository root (next to the other `BENCH_*.json` snapshots) so
//! future PRs can detect service regressions.
//!
//! Run with: `cargo run --release --bin serve_bench`
//!
//! Options: `--jobs N` (default 500), `--workers N` (default 4),
//! `--clients N` (default 8), `--out PATH` (default BENCH_service.json).

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use full_lock::bench::record::{parse_flag, percentile, BenchRecord, Cmp};
use full_lock::harness::plan::JobSpec;
use full_lock::harness::service::{serve, Client, Endpoint, ServiceConfig};

/// Sustained throughput the service must clear on this workload.
const MIN_JOBS_PER_MIN: f64 = 100.0;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let jobs: usize = parse_flag(&args, "--jobs", 500);
    let workers: usize = parse_flag(&args, "--workers", 4);
    let clients: usize = parse_flag(&args, "--clients", 8);
    let out: String = parse_flag(&args, "--out", "BENCH_service.json".to_string());

    let dir = std::env::temp_dir().join(format!("fulllock-serve-bench-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("bench scratch dir");
    let endpoint = Endpoint::Unix(dir.join("serve.sock"));

    let mut config = ServiceConfig::new(endpoint.clone(), dir.join("state"));
    config.workers = workers;
    config.poll_interval = Duration::from_millis(1);
    config.default_timeout = Duration::from_secs(30);
    let shutdown = Arc::new(AtomicBool::new(false));
    let server = {
        let shutdown = Arc::clone(&shutdown);
        std::thread::spawn(move || serve(config, shutdown).expect("serve"))
    };
    let probe = Client::new(endpoint.clone());
    let deadline = Instant::now() + Duration::from_secs(10);
    while !probe.is_up() {
        assert!(Instant::now() < deadline, "server never came up");
        std::thread::sleep(Duration::from_millis(5));
    }

    println!(
        "serve-bench: {jobs} jobs, {workers} workers, {clients} closed-loop clients, \
         endpoint {endpoint}"
    );

    // Closed-loop clients: each claims the next job index, submits it,
    // waits for it to reach a terminal state, and records the
    // submit→done latency.
    let next = Arc::new(AtomicUsize::new(0));
    let start = Instant::now();
    let mut handles = Vec::new();
    for client_index in 0..clients {
        let next = Arc::clone(&next);
        let endpoint = endpoint.clone();
        handles.push(std::thread::spawn(move || {
            let client = Client::new(endpoint);
            let mut latencies = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= jobs {
                    return latencies;
                }
                let id = format!("bench-{i:06}");
                let tenant = format!("tenant-{}", client_index % 4);
                let spec = JobSpec::new(&id, "/bin/true");
                let begin = Instant::now();
                let reply = client.submit(&tenant, spec).expect("submit");
                assert!(reply.error_code().is_none(), "job {id} refused: {reply:?}");
                let done = client
                    .wait(&id, Duration::from_secs(60))
                    .expect("wait for job");
                let state = done.job_state().map(|s| s.as_str());
                assert_eq!(state, Some("done"), "job {id} ended {done:?}");
                latencies.push(begin.elapsed().as_secs_f64());
            }
        }));
    }

    let mut latencies: Vec<f64> = Vec::with_capacity(jobs);
    for handle in handles {
        latencies.extend(handle.join().expect("client thread"));
    }
    let elapsed = start.elapsed().as_secs_f64();

    shutdown.store(true, Ordering::SeqCst);
    let summary = server.join().expect("server thread");
    assert_eq!(summary.completed, jobs as u64, "all jobs must complete");

    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latency"));
    let throughput = jobs as f64 / elapsed * 60.0;
    let p50 = percentile(&latencies, 50.0);
    let p95 = percentile(&latencies, 95.0);
    let p99 = percentile(&latencies, 99.0);

    println!(
        "serve-bench: {jobs} jobs in {elapsed:.2}s = {throughput:.0} jobs/min \
         (p50 {:.1}ms, p95 {:.1}ms, p99 {:.1}ms)",
        p50 * 1e3,
        p95 * 1e3,
        p99 * 1e3
    );

    std::fs::remove_dir_all(&dir).ok();
    BenchRecord::new(format!(
        "{jobs} /bin/true jobs over a unix socket, {workers} workers, {clients} closed-loop clients"
    ))
    .metric("jobs", jobs)
    .metric("workers", workers)
    .metric("clients", clients)
    .metric("elapsed_secs", elapsed)
    .metric("throughput_jobs_per_min", throughput)
    .metric("latency_p50_secs", p50)
    .metric("latency_p95_secs", p95)
    .metric("latency_p99_secs", p99)
    .bar("throughput_jobs_per_min", Cmp::Ge, MIN_JOBS_PER_MIN)
    .finish(&out);
}
