//! `benchmark` — time-to-break of Full-Lock lockings on four seeded
//! workloads, end to end (untraced) or layer by layer (traced).
//!
//! ```text
//! benchmark --workload <sat_break|cln_bare|double_dip_break|serve_attacks>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! The workload's instances are generated here from `--seed`; the
//! program under test only ever receives the generated netlists. The
//! last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: every end-to-end metric untraced,
//! every per-layer metric traced (spans also go to
//! `.bench_work/trace-<workload>-seed<N>.ndjson`). Reported times are
//! wall times divided by the host slowdown the run measured (see
//! `host`). Progress and a readable summary go to standard error. See
//! `README.md` for the workloads, the metrics and the first recorded
//! numbers.
//!
//! Exit codes: 0 when every output checked out, 1 when an output was
//! wrong (the JSON line is still printed, with `"correct": false`), a
//! set-up step failed, or `BENCHMARK.json` in the working directory does
//! not declare the workloads and metrics this program reports, 2 on bad
//! arguments or any `FULLLOCK_*`
//! environment variable (those silently change certification, oracle
//! and inprocessing behaviour, so a run under them would not measure the
//! pinned configuration).

mod attack;
mod host;
mod metrics;
mod pool;
mod serve;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use attack::{attack_traced, attack_untraced, AttackKind, Attempt, LayerTotals, Verdict};
use metrics::{Values, END_TO_END, PER_LAYER};
use pool::{Family, Instance, Workload};
use stats::{describe_latency, median, peak_rss_mb, percentile, sorted, Outcome};
use trace::Tracer;

const USAGE: &str =
    "usage: benchmark --workload <sat_break|cln_bare|double_dip_break|serve_attacks> \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// Set-ups per run, half before the measurement and half after it;
/// `setup_s` is their median. Set-ups last milliseconds, and how fast
/// this host runs them shifts for seconds at a time, so repetitions far
/// apart sample more of those shifts than back-to-back ones.
const SETUP_REPS: usize = 8;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0;
    let mut seconds = 25.0;
    let mut trace = false;
    let mut rest = raw.iter();
    while let Some(flag) = rest.next() {
        let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|e| format!("--seed {value:?}: {e}"))?
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if !(seconds > 0.0 && f64::is_finite(seconds)) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// The first `FULLLOCK_*` variable in the environment, if any.
fn pinned_env_violation() -> Option<String> {
    std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .find(|k| k.starts_with("FULLLOCK_"))
}

/// Writes the `netlist.*` and `locking.*` metrics of a built pool.
fn fill_build(values: &mut Values, pool: &[Instance], times: pool::BuildTimes) {
    let n = pool.len().max(1) as f64;
    values.set("netlist.load_s", times.load_s);
    values.set("locking.lock_s", times.lock_s);
    values.set(
        "netlist.gates",
        pool.iter()
            .map(|i| i.original.stats().gates as f64)
            .sum::<f64>()
            / n,
    );
    values.set(
        "locking.key_bits",
        pool.iter().map(|i| i.locked.key_len() as f64).sum::<f64>() / n,
    );
}

/// Records the host slowdown and selects the run's metrics, with times
/// and rates scaled by it.
fn report_host(values: &mut Values, probe: &host::Probe, traced: bool) -> Vec<stats::Metric> {
    let slowdown = probe.slowdown();
    values.set("host.slowdown", slowdown);
    eprintln!(
        "benchmark: host slowdown {slowdown:.4} over {} probes; reported times are wall times divided by it",
        probe.samples()
    );
    values.select(if traced { &PER_LAYER } else { &END_TO_END }, slowdown)
}

/// Builds the pool `reps` times; returns each build's seconds and the
/// last pool.
fn build_timed(
    family: Family,
    seed: u64,
    count: usize,
    reps: usize,
) -> Result<(Vec<f64>, Vec<Instance>, pool::BuildTimes), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let begin = Instant::now();
        let built = pool::build(family, seed, count)?;
        times.push(begin.elapsed().as_secs_f64());
        last = Some(built);
    }
    let (pool, build) = last.expect("at least one set-up");
    Ok((times, pool, build))
}

/// Tallies one attempt per instance: (failed, wrong-answer messages).
fn tally<'a>(
    attempts: impl IntoIterator<Item = (&'a Instance, &'a Attempt)>,
) -> (u64, Vec<String>) {
    let mut failed = 0;
    let mut wrong = Vec::new();
    for (inst, a) in attempts {
        match &a.verdict {
            Verdict::Certified => {}
            Verdict::Failed(why) => {
                failed += 1;
                eprintln!("benchmark: {} (seed {}) failed: {why}", inst.id, inst.seed);
            }
            Verdict::Wrong(why) => {
                failed += 1;
                wrong.push(format!("{} (seed {}): {why}", inst.id, inst.seed));
            }
        }
    }
    (failed, wrong)
}

/// The worse of two attempts at one instance: a wrong answer before a
/// failure before a certified key.
fn worse(a: Attempt, b: Attempt) -> Attempt {
    let rank = |v: &Verdict| match v {
        Verdict::Certified => 0,
        Verdict::Failed(_) => 1,
        Verdict::Wrong(_) => 2,
    };
    if rank(&b.verdict) > rank(&a.verdict) {
        b
    } else {
        a
    }
}

/// Runs an in-process workload: `kind` on `count` instances of `family`.
/// Traced runs attack each instance untraced and traced, alternating
/// which goes first, and write their spans to `trace`; an instance counts
/// as failed once if either attempt failed.
fn run_inprocess(
    kind: AttackKind,
    family: Family,
    seed: u64,
    count: usize,
    trace: Option<&Path>,
    scratch: &Path,
) -> Result<Outcome, String> {
    let (mut setups, pool, build) = build_timed(family, seed, count, SETUP_REPS / 2)?;
    let mut values = Values::default();
    let mut probe = host::Probe::new();
    let attempts: Vec<Attempt> = if let Some(path) = trace {
        std::fs::create_dir_all(scratch)
            .map_err(|e| format!("create {}: {e}", scratch.display()))?;
        let tracer = Tracer::new();
        let mut totals = LayerTotals::default();
        let mut attempts = Vec::with_capacity(pool.len());
        let (mut plain_s, mut traced_s) = (0.0, 0.0);
        for (index, inst) in pool.iter().enumerate() {
            tracer.set_instance(index as u32);
            let mut traced = || attack_traced(kind, inst, &tracer, &mut totals, scratch);
            let (plain, traced) = if index % 2 == 0 {
                let plain = attack_untraced(kind, inst);
                (plain, traced())
            } else {
                let traced = traced();
                (attack_untraced(kind, inst), traced)
            };
            probe.sample_after(plain.wall_s + traced.wall_s);
            plain_s += plain.wall_s;
            traced_s += traced.wall_s;
            attempts.push(worse(plain, traced));
        }
        tracer
            .write_ndjson(path)
            .map_err(|e| format!("write trace {}: {e}", path.display()))?;
        totals.fill(&tracer, &mut values);
        fill_build(&mut values, &pool, build);
        values.set("trace.overhead_frac", traced_s / plain_s - 1.0);
        values.set("trace.coverage_frac", tracer.coverage("instance"));
        eprintln!("benchmark: spans -> {}", path.display());
        attempts
    } else {
        let attempts: Vec<Attempt> = pool
            .iter()
            .map(|inst| {
                let attempt = attack_untraced(kind, inst);
                probe.sample_after(attempt.wall_s);
                attempt
            })
            .collect();
        setups.extend(build_timed(family, seed, count, SETUP_REPS / 2)?.0);
        let walls = sorted(&attempts.iter().map(|a| a.wall_s).collect::<Vec<_>>());
        let break_s: f64 = walls.iter().sum();
        let dips: u64 = attempts.iter().map(|a| a.dips).sum();
        values.set("setup_s", median(&setups));
        values.set("break_s", break_s);
        values.set("secs_per_dip", break_s / dips.max(1) as f64);
        values.set("dip_iterations", dips as f64);
        values.set(
            "oracle_queries",
            attempts.iter().map(|a| a.queries as f64).sum(),
        );
        values.set("jobs_per_min", 60.0 * pool.len() as f64 / break_s);
        values.set("job_latency_p50_s", percentile(&walls, 50.0));
        values.set("job_latency_p95_s", percentile(&walls, 95.0));
        values.set("peak_rss_mb", peak_rss_mb("self").unwrap_or(0.0));
        eprintln!("benchmark: instance wall time {}", describe_latency(&walls));
        attempts
    };
    let (failed, wrong) = tally(pool.iter().zip(&attempts));
    for w in &wrong {
        eprintln!("benchmark: WRONG {w}");
    }
    Ok(Outcome {
        correct: wrong.is_empty(),
        attempted: pool.len() as u64,
        failed,
        metrics: report_host(&mut values, &probe, trace.is_some()),
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    let work_root = PathBuf::from(".bench_work");
    let scratch = work_root.join(format!("{}-{}", args.workload.name(), std::process::id()));
    let trace_path = args.trace.then(|| {
        work_root.join(format!(
            "trace-{}-seed{}.ndjson",
            args.workload.name(),
            args.seed
        ))
    });
    std::fs::create_dir_all(&work_root)
        .map_err(|e| format!("create {}: {e}", work_root.display()))?;
    let mut count = args.workload.instances_for(args.seconds);
    let in_process = args.workload.in_process();
    if args.trace && in_process.is_some() {
        // Traced runs attack every instance twice.
        count = (count / 2).max(1);
    }
    eprintln!(
        "benchmark: {} seed {} — {count} instances, budget {} s, trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace
    );
    let result = match in_process {
        Some((kind, family)) => run_inprocess(
            kind,
            family,
            args.seed,
            count,
            trace_path.as_deref(),
            &scratch,
        ),
        None => serve::run(args.seed, count, trace_path.as_deref(), &scratch),
    };
    if scratch.exists() {
        std::fs::remove_dir_all(&scratch)
            .map_err(|e| format!("remove {}: {e}", scratch.display()))?;
    }
    result
}

fn main() -> ExitCode {
    if let Some(var) = pinned_env_violation() {
        eprintln!(
            "benchmark: {var} is set; unset every FULLLOCK_* variable (they change \
             certification, oracle and inprocessing behaviour)"
        );
        return ExitCode::from(2);
    }
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Run from the repository root, whose `BENCHMARK.json` must declare
    // what this program reports.
    let declared = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("read BENCHMARK.json (run from the repository root): {e}"))
        .and_then(|text| metrics::check_declaration(&text));
    if let Err(e) = declared {
        eprintln!("benchmark: {e}");
        return ExitCode::FAILURE;
    }
    let started = Instant::now();
    match run(&args) {
        Ok(outcome) => {
            for m in &outcome.metrics {
                eprintln!("  {:<32} {:>16.6} {}", m.name, m.value, m.unit);
            }
            eprintln!(
                "benchmark: {} attempted, {} failed, correct {} ({:.1} s)",
                outcome.attempted,
                outcome.failed,
                outcome.correct,
                started.elapsed().as_secs_f64()
            );
            println!("{}", outcome.to_json());
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    /// A traced run attacks each instance twice; the instance counts as
    /// failed once, by its worse attempt.
    #[test]
    fn an_instance_fails_once_by_its_worse_attempt() {
        let attempt = |verdict| Attempt {
            wall_s: 1.0,
            dips: 1,
            queries: 1,
            verdict,
        };
        let certified = || attempt(Verdict::Certified);
        let failed = || attempt(Verdict::Failed("timeout".into()));
        let wrong = || attempt(Verdict::Wrong("bad key".into()));
        assert_eq!(worse(certified(), certified()).verdict, Verdict::Certified);
        assert_eq!(worse(certified(), failed()).verdict, failed().verdict);
        assert_eq!(worse(failed(), certified()).verdict, failed().verdict);
        assert_eq!(worse(failed(), wrong()).verdict, wrong().verdict);
        assert_eq!(worse(wrong(), failed()).verdict, wrong().verdict);

        let (pool, _) = pool::build(Family::BareCln { n: 4 }, 1, 2).expect("pool builds");
        let attempts = [worse(failed(), wrong()), worse(certified(), failed())];
        let (failed_count, wrong_list) = tally(pool.iter().zip(&attempts));
        assert_eq!(failed_count, 2);
        assert_eq!(wrong_list.len(), 1);
    }

    #[test]
    fn parses_the_command_line() {
        let parsed = args(&[
            "--workload",
            "cln_bare",
            "--seed",
            "7",
            "--seconds",
            "25",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(
            parsed,
            Args {
                workload: Workload::ClnBare,
                seed: 7,
                seconds: 25.0,
                trace: true,
            }
        );
        assert!(args(&["--seed", "1"]).is_err());
        assert!(args(&["--workload", "sat_break", "--trace", "yes"]).is_err());
        assert!(args(&["--workload", "sat_break", "--seconds", "0"]).is_err());
        assert!(args(&["--workload", "sat_break", "--bogus", "1"]).is_err());
        assert!(args(&["--workload"]).is_err());
    }

    fn smoke(kind: AttackKind, family: Family, name: &str) {
        let scratch = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.bench_work")
            .join(format!("test-{name}-{}", std::process::id()));
        let trace_path = scratch.with_extension("ndjson");
        let plain = run_inprocess(kind, family, 3, 2, None, &scratch).expect("untraced run");
        assert!(plain.correct && plain.failed == 0, "{plain:?}");
        assert_eq!(plain.attempted, 2);
        let names: Vec<&str> = plain.metrics.iter().map(|m| m.name).collect();
        assert_eq!(names, END_TO_END.map(|(n, _)| n));
        let value = |o: &Outcome, n: &str| o.metrics.iter().find(|m| m.name == n).expect(n).value;
        assert!(value(&plain, "break_s") > 0.0 && value(&plain, "setup_s") > 0.0);

        let traced =
            run_inprocess(kind, family, 3, 2, Some(&trace_path), &scratch).expect("traced run");
        assert!(traced.correct && traced.failed == 0, "{traced:?}");
        let names: Vec<&str> = traced.metrics.iter().map(|m| m.name).collect();
        assert_eq!(names, PER_LAYER.map(|(n, _)| n));
        assert!(value(&traced, "oracle.queries") > 0.0);
        assert!(value(&traced, "sat.propagations") > 0.0);
        assert!(value(&traced, "trace.coverage_frac") > 0.9, "{traced:?}");
        let spans = std::fs::read_to_string(&trace_path).expect("trace written");
        assert!(spans
            .lines()
            .all(|l| fulllock_harness::json::Json::parse(l).is_ok()));
        assert!(spans.contains("\"name\": \"instance\""));
        std::fs::remove_file(&trace_path).ok();
        std::fs::remove_dir_all(&scratch).ok();
    }

    /// A debug-build run of each in-process workload at tiny size.
    #[test]
    fn tiny_workloads_run_clean() {
        smoke(AttackKind::Sat, Family::BareCln { n: 4 }, "bare");
        smoke(
            AttackKind::Sat,
            Family::FullLockHost { gates: 80, cln: 4 },
            "host",
        );
        smoke(AttackKind::DoubleDip, Family::BareCln { n: 4 }, "dd");
    }
}
