//! `fulllock` — command-line front end for locking, attacking, and
//! inspecting gate-level netlists.
//!
//! ```text
//! fulllock stats  <circuit.bench>
//! fulllock lock   <circuit.bench> -o locked.bench [--scheme S] [--plr 16,8]
//!                 [--cyclic] [--twist P] [--seed N] [--key-out key.txt]
//! fulllock verify <locked.bench> --oracle <circuit.bench> --key 0110…
//! fulllock attack <locked.bench> --oracle <circuit.bench> [--timeout SECS]
//!                 [--threads N] [--certify off|model|proof]
//!                 [--checkpoint FILE [--resume]]
//! fulllock export <circuit.bench> --format verilog|bench|dimacs [-o FILE]
//! fulllock campaign --plan <file|builtin:paper> [--resume] [--jobs N]
//!                   [--timeout-secs S] [--out-dir DIR]
//! fulllock serve --listen <unix:PATH|tcp:ADDR> [--state-dir DIR]
//!                [--workers N] [--quota TENANT=JOBS,CONFLICTS,SECS]
//! ```
//!
//! Locked `.bench` files follow the literature's convention: key inputs
//! are the primary inputs whose names start with `keyinput`.

use std::error::Error;
use std::fs;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use full_lock::atlas::AtlasUnitExecutor;
use full_lock::attacks::{
    Attack, AttackDetails, AttackOutcome, OracleResilience, SatAttackConfig, SimOracle,
};
use full_lock::harness::plan::CampaignPlan;
use full_lock::harness::service::{serve, Endpoint, QuotaSpec, ServiceConfig};
use full_lock::harness::supervisor::{run_campaign, SupervisorConfig};
use full_lock::harness::sweep::worker::{run_worker, SatUnitExecutor, UnitExecutor, WorkerArgs};
use full_lock::harness::sweep::{run_sweep, SweepConfig, SweepGrid, SweepPlan};
use full_lock::harness::{CampaignManifest, JobStatus, RetryPolicy};
use full_lock::locking::{
    AntiSat, CrossLock, FullLock, FullLockConfig, Key, LockedCircuit, LockingScheme, LutLock,
    PlrSpec, Rll, SarLock, WireSelection,
};
use full_lock::netlist::{bench_io, topo, verilog, Netlist};
use full_lock::sat::ambient::{parse_oracle_qps, parse_oracle_retries, parse_oracle_votes};
use full_lock::sat::tseytin;
use full_lock::sat::AmbientConfig;
use full_lock::sat::CertifyLevel;
use full_lock::tech::Technology;

type CliResult = Result<(), Box<dyn Error>>;

const USAGE: &str = "\
fulllock — logic locking & SAT-attack toolbox (Full-Lock reproduction)

USAGE:
  fulllock stats  <circuit.bench>
  fulllock lock   <circuit.bench> -o <locked.bench> [options]
  fulllock verify <locked.bench> --oracle <circuit.bench> --key <bits>
  fulllock attack <locked.bench> --oracle <circuit.bench> [--timeout SECS] [--threads N]
                  [--certify <off|model|proof>] [--checkpoint <file> [--resume]]
                  [--oracle-votes N] [--oracle-retries N] [--oracle-qps Q]
  fulllock export <circuit.bench> --format <verilog|bench|dimacs> [-o FILE]
  fulllock optimize <circuit.bench> -o <optimized.bench>
  fulllock campaign --plan <file|builtin:paper> [--resume] [--jobs N]
                    [--timeout-secs S] [--grace-secs S] [--max-attempts N]
                    [--out-dir DIR] [--strict] [--print-plan]
  fulllock sweep --grid \"axis=v1,v2;axis2=v3\" [--name NAME] [--executor sat|atlas]
                 [--out-dir DIR] [--workers N] [--resume] [--seed N]
                 [--unit-timeout-secs S] [--lease-ttl-millis M]
                 [--max-respawns N] [--max-wall-secs S] [--print-plan]
  fulllock serve --listen <unix:PATH|tcp:HOST:PORT> [--state-dir DIR]
                 [--workers N] [--shards N] [--timeout-secs S] [--grace-secs S]
                 [--max-attempts N] [--quota TENANT=JOBS,CONFLICTS,SECS]
                 [--default-quota JOBS,CONFLICTS,SECS]
                 [--max-connections N] [--max-pending N] [--io-timeout-secs S]
                 [--max-request-line BYTES] [--watchdog-secs S]

ATTACK OPTIONS:
  --threads <n>        0 or 1: every attack solves on one sequential
                       CDCL solver; larger values are refused
  --checkpoint <file>  write a crash-safe snapshot after every DIP iteration
  --resume             restore the checkpoint file first (fresh start if absent)
  --certify <level>    check the solver's answers: off (trust it), model
                       (re-check every SAT model), proof (also DRAT-check
                       UNSAT answers); defaults to $FULLLOCK_CERTIFY or off
  --json <file|->      also write the report as versioned JSON (the serve
                       wire schema); - for stdout
  --oracle-votes <n>   repeat every oracle query n times (odd) and take the
                       per-bit majority — tolerates transiently flipped
                       responses                                 (default 1)
  --oracle-retries <n> retry budget per query for transient oracle
                       failures (dropped responses, timeouts)    (default 3)
  --oracle-qps <q>     token-bucket rate limit on oracle queries, in
                       queries per second             (default: unlimited)
  Defaults for --timeout/--certify come from the FULLLOCK_* environment
  (FULLLOCK_TIMEOUT_SECS, FULLLOCK_CERTIFY; FULLLOCK_THREADS, if set, must
  be 1); the oracle knobs honor FULLLOCK_ORACLE_VOTES / _RETRIES / _QPS.

SERVE OPTIONS:
  --listen <ep>       unix:PATH, tcp:HOST:PORT, or a bare socket path
                      (default unix:fulllock.sock)
  --state-dir <dir>   queue shards + per-job scratch dirs  (default serve-state)
  --workers <n>       concurrent job slots                 (default 2)
  --shards <n>        queue shard files                    (default 4)
  --quota TENANT=JOBS,CONFLICTS,SECS
                      per-tenant caps: concurrent jobs, cumulative solver
                      conflicts, cumulative wall seconds; - = unlimited,
                      repeatable. --default-quota covers everyone else.
  --max-connections <n>   concurrent client connections; excess get a
                          typed `overloaded` refusal        (default 128)
  --max-pending <n>       pending-queue depth before submissions are
                          shed with `overloaded`            (default 4096)
  --io-timeout-secs <s>   per-request-line socket deadline; slow-loris
                          clients are disconnected          (default 30)
  --max-request-line <b>  request-line byte cap, refused with
                          `request_too_large`               (default 262144)
  --watchdog-secs <s>     worker heartbeat timeout before the watchdog
                          recycles a stuck worker slot      (default 60)
  The `health` verb reports queue depth, worker liveness, persistence
  status, and per-tenant quota pressure.
  SIGTERM drains gracefully: in-flight attacks checkpoint and re-queue.

CAMPAIGN OPTIONS:
  --plan <file|builtin:paper>  job set: a JSON plan file, or the built-in
                               paper sweep (one job per experiment binary)
  --resume            skip jobs already succeeded in <out-dir>/campaign.json
  --jobs <n>          run up to n jobs concurrently           (default 1)
  --timeout-secs <s>  per-job wall-clock budget               (default 3600)
  --grace-secs <s>    SIGTERM -> SIGKILL escalation grace     (default 2)
  --max-attempts <n>  attempt budget per job                  (default 2)
  --out-dir <dir>     manifest + captured logs                (default campaign)
  --strict            exit non-zero if any job failed or timed out
  --print-plan        print the job ids and exit without running anything

SWEEP OPTIONS:
  --grid <spec>       parameter grid: semicolon-separated axes, each
                      axis=comma,separated,values — e.g.
                      \"cln=4,8,16;seed=0,1,2\" (the hardness atlas) or
                      \"vars=50,100;ratio=4.0,4.3;seed=0,1\" (random SAT)
  --executor <e>      what one grid point runs: sat (random 3-SAT
                      hardness probe) or atlas (lock a host circuit
                      with a CLN and SAT-attack it)     (default sat)
  --workers <n>       isolated worker processes          (default 4)
  --out-dir <dir>     sweep state: plan, leases, one result file per
                      unit, atlas.json + columns.json    (default sweep)
  --resume            continue an interrupted sweep: stale leases and
                      torn results are cleared, settled units are
                      skipped, and the plan + FULLLOCK_* environment
                      must not have drifted since the sweep started
  --unit-timeout-secs <s>  per-unit attack/solve budget  (default 60)
  --lease-ttl-millis <m>   work-unit lease TTL; a worker that misses
                           renewal (crashed, partitioned) has its units
                           stolen by live workers        (default 2000)
  --max-respawns <n>  dead-worker respawn budget         (default 16)
  --max-wall-secs <s> overall wall budget; 0 = unbounded (default 1800)
  --print-plan        print the expanded unit list and exit
  Each unit settles as one checksummed result file, first writer wins;
  the coordinator folds them into exactly one sample per unit, with
  exact p50/p90/p99 aggregates in <out-dir>/atlas.json.

LOCK OPTIONS:
  --scheme <fulllock|rll|sarlock|antisat|lutlock|crosslock>   (default fulllock)
  --plr <sizes>     comma-separated CLN sizes, e.g. 16 or 16,8 (fulllock)
  --bits <n>        key bits / LUT count / crossbar size (other schemes)
  --cyclic          allow cycle-creating insertion (fulllock)
  --twist <p>       leading-gate negation probability (default 0.5)
  --seed <n>        RNG seed (default 0)
  --key-out <file>  write the correct key (binary string) to a file
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("stats") => cmd_stats(&args[1..]),
        Some("lock") => cmd_lock(&args[1..]),
        Some("verify") => cmd_verify(&args[1..]),
        Some("attack") => cmd_attack(&args[1..]),
        Some("export") => cmd_export(&args[1..]),
        Some("optimize") => cmd_optimize(&args[1..]),
        Some("campaign") => cmd_campaign(&args[1..]),
        Some("sweep") => cmd_sweep(&args[1..]),
        Some("sweep-worker") => cmd_sweep_worker(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some(other) => Err(format!("unknown subcommand {other:?}\n\n{USAGE}").into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Minimal flag parser: positionals + `--flag value` + boolean `--flag`.
struct Args {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    /// Parses the arguments of `command`, which takes the value flags
    /// and the boolean flags named, space-separated, in `values` and
    /// `booleans`; `-o` is `--out`. Any other flag, or a value flag with
    /// no value, is an error naming it.
    fn parse(command: &str, raw: &[String], values: &str, booleans: &str) -> Result<Args, String> {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut tokens = raw.iter();
        while let Some(token) = tokens.next() {
            let name = match token.strip_prefix("--") {
                Some(name) => name,
                None if token == "-o" => "out",
                None => {
                    positional.push(token.clone());
                    continue;
                }
            };
            if booleans.split_whitespace().any(|flag| flag == name) {
                flags.push((name.to_string(), None));
            } else if values.split_whitespace().any(|flag| flag == name) {
                let value = tokens
                    .next()
                    .ok_or_else(|| format!("{command}: {token} needs a value"))?;
                flags.push((name.to_string(), Some(value.clone())));
            } else {
                return Err(format!("{command}: unknown flag {token}"));
            }
        }
        Ok(Args { positional, flags })
    }

    fn flag(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    /// Every value of a repeatable flag, in order.
    fn flag_all(&self, name: &str) -> Vec<&str> {
        self.flags
            .iter()
            .filter(|(n, _)| n == name)
            .filter_map(|(_, v)| v.as_deref())
            .collect()
    }
}

/// The value of a seconds flag, if given: a finite number >= 0 (what
/// `Duration` holds), or an error naming the flag.
fn secs_flag(args: &Args, name: &str) -> Result<Option<Duration>, String> {
    args.flag(name)
        .map(|text| {
            text.parse()
                .ok()
                .and_then(|secs| Duration::try_from_secs_f64(secs).ok())
                .ok_or_else(|| {
                    format!("--{name} {text:?}: expected a finite number of seconds >= 0")
                })
        })
        .transpose()
}

fn load_netlist(path: &str) -> Result<Netlist, Box<dyn Error>> {
    let text = fs::read_to_string(path)?;
    let name = std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("circuit");
    Ok(bench_io::parse(&text, name)?)
}

/// Splits a parsed `.bench` into a [`LockedCircuit`] by the `keyinput`
/// naming convention (correct key unknown — zero-filled placeholder).
fn as_locked(netlist: Netlist) -> Result<LockedCircuit, Box<dyn Error>> {
    let key_inputs: Vec<_> = netlist
        .inputs()
        .iter()
        .copied()
        .filter(|&i| netlist.signal_name(i).starts_with("keyinput"))
        .collect();
    if key_inputs.is_empty() {
        return Err("no key inputs found (inputs named keyinput*)".into());
    }
    let data_inputs: Vec<_> = netlist
        .inputs()
        .iter()
        .copied()
        .filter(|i| !key_inputs.contains(i))
        .collect();
    let placeholder = Key::zeros(key_inputs.len());
    Ok(LockedCircuit {
        netlist,
        data_inputs,
        key_inputs,
        correct_key: placeholder,
    })
}

fn cmd_stats(raw: &[String]) -> CliResult {
    let args = Args::parse("stats", raw, "", "")?;
    let path = args
        .positional
        .first()
        .ok_or("stats: missing <circuit.bench>")?;
    let nl = load_netlist(path)?;
    let stats = nl.stats();
    println!("{nl}");
    println!("  cyclic: {}", topo::is_cyclic(&nl));
    if let Ok(depth) = topo::depth(&nl) {
        println!("  depth: {depth} levels");
    }
    println!("  max fan-in: {}", stats.max_fanin);
    for (kind, count) in nl.gate_histogram() {
        println!("  {:>5}: {count}", kind.name());
    }
    let keyish = nl
        .inputs()
        .iter()
        .filter(|&&i| nl.signal_name(i).starts_with("keyinput"))
        .count();
    if keyish > 0 {
        println!("  key inputs (keyinput*): {keyish}");
    }
    if let Ok(ppa) = Technology::generic_32nm().netlist_ppa(&nl) {
        println!(
            "  PPA (generic 32nm model): {:.1} um^2, {:.0} nW, {:.2} ns",
            ppa.area_um2, ppa.power_nw, ppa.delay_ns
        );
    }
    Ok(())
}

fn cmd_lock(raw: &[String]) -> CliResult {
    let args = Args::parse(
        "lock",
        raw,
        "out scheme plr bits twist seed key-out",
        "cyclic",
    )?;
    let path = args
        .positional
        .first()
        .ok_or("lock: missing <circuit.bench>")?;
    let out = args.flag("out").ok_or("lock: missing -o <locked.bench>")?;
    let seed: u64 = args.flag("seed").unwrap_or("0").parse()?;
    let original = load_netlist(path)?;

    let scheme_name = args.flag("scheme").unwrap_or("fulllock");
    let bits: usize = args.flag("bits").unwrap_or("16").parse()?;
    let scheme: Box<dyn LockingScheme> = match scheme_name {
        "fulllock" => {
            let sizes: Vec<usize> = args
                .flag("plr")
                .unwrap_or("16")
                .split(',')
                .map(str::parse)
                .collect::<Result<_, _>>()?;
            let config = FullLockConfig {
                plrs: sizes.into_iter().map(PlrSpec::new).collect(),
                selection: if args.has("cyclic") {
                    WireSelection::Cyclic
                } else {
                    WireSelection::Acyclic
                },
                twist_probability: args.flag("twist").unwrap_or("0.5").parse()?,
                seed,
            };
            Box::new(FullLock::new(config))
        }
        "rll" => Box::new(Rll::new(bits, seed)),
        "sarlock" => Box::new(SarLock::new(bits, seed)),
        "antisat" => Box::new(AntiSat::new(bits, seed)),
        "lutlock" => Box::new(LutLock::new(bits, seed)),
        "crosslock" => Box::new(CrossLock::new(bits, seed)),
        other => return Err(format!("unknown scheme {other:?}").into()),
    };

    let locked = scheme.lock(&original)?;
    fs::write(out, bench_io::write(&locked.netlist))?;
    println!(
        "locked {} with {}: {} gates (was {}), {} key bits -> {out}",
        original.name(),
        scheme.name(),
        locked.netlist.stats().gates,
        original.stats().gates,
        locked.key_len(),
    );
    if let Some(key_path) = args.flag("key-out") {
        fs::write(key_path, format!("{}\n", locked.correct_key))?;
        println!("correct key written to {key_path}");
    } else {
        println!("correct key: {}", locked.correct_key);
    }
    Ok(())
}

fn cmd_verify(raw: &[String]) -> CliResult {
    let args = Args::parse("verify", raw, "oracle key", "")?;
    let path = args
        .positional
        .first()
        .ok_or("verify: missing <locked.bench>")?;
    let oracle_path = args.flag("oracle").ok_or("verify: missing --oracle")?;
    let key_text = args.flag("key").ok_or("verify: missing --key <bits>")?;
    let locked = as_locked(load_netlist(path)?)?;
    let original = load_netlist(oracle_path)?;
    let key: Key = key_text.trim().parse()?;
    if key.len() != locked.key_len() {
        return Err(format!(
            "key has {} bits, circuit expects {}",
            key.len(),
            locked.key_len()
        )
        .into());
    }
    match locked.prove_key(&key, &original) {
        Ok(full_lock::sat::equiv::EquivResult::Equivalent) => {
            println!("PROVEN: the key restores the oracle's function exactly");
            Ok(())
        }
        Ok(full_lock::sat::equiv::EquivResult::Counterexample(cex)) => {
            let pattern: String = cex.iter().map(|&b| if b { '1' } else { '0' }).collect();
            Err(format!("key is WRONG: outputs differ on input {pattern}").into())
        }
        Ok(full_lock::sat::equiv::EquivResult::Unknown) => {
            Err("verification inconclusive (resource limit)".into())
        }
        Err(e) => Err(format!("formal check unavailable ({e}); try sampled verification").into()),
    }
}

fn cmd_attack(raw: &[String]) -> CliResult {
    let args = Args::parse(
        "attack",
        raw,
        "oracle timeout threads certify checkpoint json oracle-votes \
         oracle-retries oracle-qps",
        "resume",
    )?;
    let path = args
        .positional
        .first()
        .ok_or("attack: missing <locked.bench>")?;
    let oracle_path = args.flag("oracle").ok_or("attack: missing --oracle")?;
    // The FULLLOCK_* environment provides the defaults; flags override.
    let (ambient, ambient_warnings) =
        AmbientConfig::from_env().map_err(|e| format!("attack: {e}"))?;
    for w in &ambient_warnings {
        eprintln!("warning: {w}");
    }
    let timeout = secs_flag(&args, "timeout")?
        .or(ambient.timeout)
        .unwrap_or(Duration::from_secs(60));
    if let Some(threads) = args.flag("threads") {
        if threads.parse::<usize>()? > 1 {
            return Err(format!(
                "attack: --threads {threads}: only the sequential solver remains; \
                 pass 0 or 1"
            )
            .into());
        }
    }
    let checkpoint = args.flag("checkpoint").map(std::path::PathBuf::from);
    let resume = args.has("resume");
    if resume && checkpoint.is_none() {
        return Err("attack: --resume requires --checkpoint <path>".into());
    }
    // Certification and oracle-resilience knobs: flag beats
    // FULLLOCK_CERTIFY / FULLLOCK_ORACLE_* beats default.
    let certify = match args.flag("certify") {
        Some(level) => level
            .parse::<CertifyLevel>()
            .map_err(|e| format!("attack: {e}"))?,
        None => CertifyLevel::from_env(),
    };
    let json_out = args.flag("json").map(str::to_string);
    let mut resilience = OracleResilience::from_env();
    // A flag reads with its variable's grammar.
    if let Some(votes) = args.flag("oracle-votes") {
        resilience.votes =
            parse_oracle_votes(votes).map_err(|e| format!("attack: --oracle-votes: {e}"))?;
    }
    if let Some(retries) = args.flag("oracle-retries") {
        resilience.retries =
            parse_oracle_retries(retries).map_err(|e| format!("attack: --oracle-retries: {e}"))?;
    }
    if let Some(qps) = args.flag("oracle-qps") {
        resilience.qps =
            Some(parse_oracle_qps(qps).map_err(|e| format!("attack: --oracle-qps: {e}"))?);
    }
    let locked = as_locked(load_netlist(path)?)?;
    let original = load_netlist(oracle_path)?;
    let oracle = SimOracle::new(&original)?;
    // `--json -` keeps stdout machine-readable: progress goes to stderr,
    // the JSON report is the only stdout output.
    let quiet = json_out.as_deref() == Some("-");
    if !quiet {
        println!(
            "attacking {} ({} key bits, cyclic: {}) with a {}s budget…",
            locked.netlist.name(),
            locked.key_len(),
            topo::is_cyclic(&locked.netlist),
            timeout.as_secs_f64(),
        );
        if certify != CertifyLevel::Off {
            println!("certifying solver answers at level {certify}");
        }
    }
    let config = SatAttackConfig {
        timeout: Some(timeout),
        certify,
        resilience,
        ..Default::default()
    };
    let report = match &checkpoint {
        Some(ckpt) => config.run_checkpointed(&locked, &oracle, ckpt, resume)?,
        None => config.run(&locked, &oracle)?,
    };
    if let Some(dest) = &json_out {
        let text = report.to_json();
        if dest == "-" {
            println!("{text}");
            return Ok(());
        }
        fs::write(dest, &text)?;
        println!("report JSON -> {dest}");
    }
    if let Some(from) = report.resilience.resumed_from {
        println!("resumed from checkpoint at iteration {from}");
    }
    match report.outcome {
        AttackOutcome::KeyRecovered { key, verified } => {
            println!(
                "BROKEN in {} iterations / {:?} ({} oracle queries, verified: {verified})",
                report.iterations, report.elapsed, report.oracle_queries
            );
            println!("recovered key: {key}");
            if let Some(cert) = &report.key_certificate {
                println!(
                    "key certificate: {}/{} simulation samples agree, formal: {:?}",
                    cert.samples - cert.mismatches,
                    cert.samples,
                    cert.formal
                );
            }
        }
        AttackOutcome::Timeout => println!(
            "TIMEOUT after {} iterations / {:?} — the lock held",
            report.iterations, report.elapsed
        ),
        other => println!(
            "attack ended: {other:?} after {} iterations",
            report.iterations
        ),
    }
    if let AttackDetails::Sat(details) = &report.details {
        println!(
            "formula: {} vars, {} clauses (mean clause/var ratio {:.2})",
            details.formula.0, details.formula.1, details.mean_clause_var_ratio
        );
    }
    let solver = &report.solver;
    println!(
        "solver reuse: {} incremental solve(s), {} learnt clause(s) carried across solves",
        solver.solves, solver.learnts_carried
    );
    if solver.inprocessings > 0 {
        println!(
            "inprocessing: {} round(s) in {:?} — {} var(s) eliminated, \
             {} clause(s) subsumed, {} strengthened, {} vivified",
            solver.inprocessings,
            Duration::from_nanos(solver.inprocess_ns),
            solver.vars_eliminated,
            solver.clauses_subsumed,
            solver.clauses_strengthened,
            solver.vivification_shrinks
        );
    }
    let res = &report.resilience;
    if checkpoint.is_some() {
        println!(
            "checkpointing: {} snapshot(s) written, {} failed",
            res.checkpoints_written, res.checkpoint_failures
        );
    }
    if res.oracle_retries > 0 || res.oracle_requeries > 0 || res.quarantined_pairs > 0 {
        println!(
            "oracle faults absorbed: {} retry(s), {} suspect re-query(s), \
             {} pair(s) quarantined",
            res.oracle_retries, res.oracle_requeries, res.quarantined_pairs
        );
    }
    Ok(())
}

fn cmd_optimize(raw: &[String]) -> CliResult {
    let args = Args::parse("optimize", raw, "out", "")?;
    let path = args
        .positional
        .first()
        .ok_or("optimize: missing <circuit.bench>")?;
    let out = args.flag("out").ok_or("optimize: missing -o <file>")?;
    let nl = load_netlist(path)?;
    let optimized = full_lock::netlist::opt::optimize(&nl)?;
    fs::write(out, bench_io::write(&optimized.netlist))?;
    println!(
        "{}: {} -> {} gates ({} shared subexpressions) -> {out}",
        nl.name(),
        optimized.stats.gates_before,
        optimized.stats.gates_after,
        optimized.stats.deduplicated,
    );
    Ok(())
}

fn cmd_campaign(raw: &[String]) -> CliResult {
    let args = Args::parse(
        "campaign",
        raw,
        "plan jobs timeout-secs grace-secs max-attempts out-dir",
        "resume strict print-plan",
    )?;
    let plan_ref = args.flag("plan").ok_or("campaign: missing --plan")?;
    let plan = if plan_ref == "builtin:paper" {
        // The experiment binaries live next to this executable
        // (target/<profile>/); `cargo build --release` puts them there.
        let exe = std::env::current_exe()?;
        let bin_dir = exe
            .parent()
            .ok_or("campaign: cannot locate the directory of this executable")?;
        CampaignPlan::builtin_paper(bin_dir)
    } else {
        CampaignPlan::load(std::path::Path::new(plan_ref))?
    };
    if args.has("print-plan") {
        for job in &plan.jobs {
            println!("{}", job.id);
        }
        return Ok(());
    }

    let mut config = SupervisorConfig {
        resume: args.has("resume"),
        out_dir: args.flag("out-dir").unwrap_or("campaign").into(),
        parallelism: args.flag("jobs").unwrap_or("1").parse()?,
        default_timeout: secs_flag(&args, "timeout-secs")?.unwrap_or(Duration::from_secs(3600)),
        grace: secs_flag(&args, "grace-secs")?.unwrap_or(Duration::from_secs(2)),
        ..Default::default()
    };
    config.retry = RetryPolicy {
        max_attempts: args.flag("max-attempts").unwrap_or("2").parse()?,
        ..RetryPolicy::default()
    };

    println!(
        "campaign {:?}: {} job(s), {} slot(s), {:.0}s budget each -> {}",
        plan.name,
        plan.jobs.len(),
        config.parallelism.max(1),
        config.default_timeout.as_secs_f64(),
        config.out_dir.display(),
    );
    let outcome = run_campaign(&plan, &config)?;

    let manifest = CampaignManifest::load(&outcome.manifest_path)?;
    for job in &plan.jobs {
        let Some(rec) = manifest.job(&job.id) else {
            continue;
        };
        let mut line = format!(
            "  {:<24} {:<9} {} attempt(s), {:.2}s",
            rec.id,
            rec.status.as_str(),
            rec.attempts,
            rec.duration_secs
        );
        if let Some(rss) = rec.peak_rss_kb {
            line.push_str(&format!(", peak {rss} kB"));
        }
        if rec.status != JobStatus::Succeeded && rec.status != JobStatus::Skipped {
            if let Some(err) = &rec.last_error {
                line.push_str(&format!(" — {err}"));
            }
        }
        println!("{line}");
    }
    println!(
        "campaign {}: {} succeeded, {} skipped (resume), {} failed, {} timed out of {} \
         (manifest: {})",
        outcome.status_word(),
        outcome.succeeded,
        outcome.skipped,
        outcome.failed,
        outcome.timed_out,
        outcome.total,
        outcome.manifest_path.display(),
    );
    if args.has("strict") && !outcome.all_succeeded() {
        return Err(format!(
            "campaign ended {}: {} job(s) failed, {} timed out (--strict)",
            outcome.status_word(),
            outcome.failed,
            outcome.timed_out
        )
        .into());
    }
    Ok(())
}

fn cmd_sweep(raw: &[String]) -> CliResult {
    let args = Args::parse(
        "sweep",
        raw,
        "grid name executor out-dir workers seed unit-timeout-secs \
         lease-ttl-millis max-respawns max-wall-secs",
        "resume print-plan",
    )?;
    let grid_spec = args.flag("grid").ok_or("sweep: missing --grid")?;
    let name = args.flag("name").unwrap_or("sweep");
    let grid = SweepGrid::parse_spec(name, grid_spec).map_err(|e| format!("sweep: {e}"))?;
    let mut plan = SweepPlan::new(grid);
    plan.executor = args.flag("executor").unwrap_or("sat").to_string();
    if !matches!(plan.executor.as_str(), "sat" | "atlas") {
        return Err(format!(
            "sweep: unknown executor {:?} (expected sat or atlas)",
            plan.executor
        )
        .into());
    }
    plan.unit_timeout_secs = args.flag("unit-timeout-secs").unwrap_or("60").parse()?;
    plan.seed = args.flag("seed").unwrap_or("0").parse()?;
    if args.has("print-plan") {
        for unit in plan.grid.units() {
            let params: Vec<String> = unit
                .params
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            println!("{}  {}", unit.id, params.join(" "));
        }
        return Ok(());
    }

    // Workers are re-invocations of this very binary with the
    // `sweep-worker` subcommand; they coordinate purely through files
    // in the sweep directory.
    let exe = std::env::current_exe()?;
    let mut config = SweepConfig::new(
        args.flag("out-dir").unwrap_or("sweep"),
        exe,
        vec!["sweep-worker".to_string()],
    );
    config.workers = args.flag("workers").unwrap_or("4").parse()?;
    config.resume = args.has("resume");
    config.lease_ttl =
        Duration::from_millis(args.flag("lease-ttl-millis").unwrap_or("2000").parse()?);
    config.max_respawns = args.flag("max-respawns").unwrap_or("16").parse()?;
    let max_wall = secs_flag(&args, "max-wall-secs")?.unwrap_or(Duration::from_secs(1800));
    config.max_wall = (!max_wall.is_zero()).then_some(max_wall);

    println!(
        "sweep {:?}: {} unit(s) on {} worker(s), executor {}, {}s/unit -> {}",
        plan.grid.name,
        plan.grid.unit_count(),
        config.workers,
        plan.executor,
        plan.unit_timeout_secs,
        config.out_dir.display(),
    );
    let outcome = run_sweep(&plan, &config)?;
    if outcome.resume != Default::default() {
        println!(
            "resume: {} settled unit(s) kept, {} torn result(s) cleared, \
             {} stale lease(s) dropped",
            outcome.resume.settled, outcome.resume.orphans_cleared, outcome.resume.leases_cleared,
        );
    }
    let agg = &outcome.aggregates;
    println!(
        "sweep done: {}/{} unit(s) in {:.2}s ({} respawn(s), {} re-run round(s), \
         {} stolen, {} speculative)",
        agg.samples,
        agg.units,
        outcome.elapsed.as_secs_f64(),
        outcome.respawns,
        outcome.rerun_rounds,
        agg.stolen,
        agg.speculative,
    );
    for (verdict, count) in &agg.verdicts {
        println!("  verdict {verdict:<10} {count}");
    }
    println!(
        "  conflicts  p50 {:.0}  p90 {:.0}  p99 {:.0}",
        agg.conflicts.p50, agg.conflicts.p90, agg.conflicts.p99
    );
    println!(
        "  wall secs  p50 {:.3}  p90 {:.3}  p99 {:.3}",
        agg.wall_secs.p50, agg.wall_secs.p90, agg.wall_secs.p99
    );
    println!(
        "atlas -> {} / columns -> {}",
        outcome.atlas_path.display(),
        outcome.columns_path.display()
    );
    Ok(())
}

fn cmd_sweep_worker(raw: &[String]) -> CliResult {
    let parsed = WorkerArgs::parse(raw).map_err(|e| format!("sweep-worker: {e}"))?;
    let (plan, _hash) = SweepPlan::load(&parsed.dir)?;
    let config = parsed.to_config();
    let executor: Box<dyn UnitExecutor> = match plan.executor.as_str() {
        "sat" => Box::new(SatUnitExecutor::from_plan(&plan)),
        "atlas" => Box::new(AtlasUnitExecutor::from_plan(&plan)),
        other => return Err(format!("sweep-worker: unknown executor {other:?}").into()),
    };
    let summary = run_worker(&plan, &config, executor.as_ref())?;
    println!(
        "sweep worker {}: executed={} stolen={} speculative={} wins={} losses={}",
        config.worker,
        summary.executed,
        summary.stolen,
        summary.speculative,
        summary.settle_wins,
        summary.settle_losses
    );
    Ok(())
}

/// Set by the SIGTERM/SIGINT handler; polled by the serve bridge thread.
static SHUTDOWN_REQUESTED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_shutdown_signal(_signum: i32) {
    // Only async-signal-safe work here: a relaxed atomic store.
    SHUTDOWN_REQUESTED.store(true, Ordering::Relaxed);
}

/// Installs SIGTERM/SIGINT handlers through the C runtime's `signal`
/// (std exposes no signal API and the workspace vendors no libc crate;
/// std itself links the C runtime, so the symbol is always present).
#[cfg(unix)]
fn install_shutdown_handler() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_shutdown_signal as *const () as usize);
        signal(SIGINT, on_shutdown_signal as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_shutdown_handler() {}

/// Parses `JOBS,CONFLICTS,SECS` (each a number or `-` for unlimited).
fn parse_quota_spec(text: &str) -> Result<QuotaSpec, Box<dyn Error>> {
    let parts: Vec<&str> = text.split(',').collect();
    if parts.len() != 3 {
        return Err(
            format!("quota {text:?}: expected JOBS,CONFLICTS,SECS (use - for unlimited)").into(),
        );
    }
    let num = |s: &str| -> Result<Option<u64>, Box<dyn Error>> {
        if s == "-" {
            Ok(None)
        } else {
            Ok(Some(s.parse()?))
        }
    };
    Ok(QuotaSpec {
        max_in_flight: num(parts[0])?,
        max_conflicts: num(parts[1])?,
        max_wall: num(parts[2])?.map(Duration::from_secs),
    })
}

fn cmd_serve(raw: &[String]) -> CliResult {
    let args = Args::parse(
        "serve",
        raw,
        "listen state-dir workers shards timeout-secs grace-secs \
         max-attempts quota default-quota max-connections max-pending \
         io-timeout-secs max-request-line watchdog-secs",
        "",
    )?;
    let endpoint = Endpoint::parse(args.flag("listen").unwrap_or("unix:fulllock.sock"))
        .map_err(|e| format!("serve: bad --listen: {e}"))?;
    let mut config = ServiceConfig::new(endpoint, args.flag("state-dir").unwrap_or("serve-state"));
    config.workers = args.flag("workers").unwrap_or("2").parse()?;
    config.shards = args.flag("shards").unwrap_or("4").parse()?;
    config.default_timeout = secs_flag(&args, "timeout-secs")?.unwrap_or(Duration::from_secs(3600));
    config.grace = secs_flag(&args, "grace-secs")?.unwrap_or(Duration::from_secs(2));
    config.retry.max_attempts = args.flag("max-attempts").unwrap_or("2").parse()?;
    if let Some(n) = args.flag("max-connections") {
        config.max_connections = n.parse()?;
    }
    if let Some(n) = args.flag("max-pending") {
        config.max_pending = n.parse()?;
    }
    if let Some(secs) = secs_flag(&args, "io-timeout-secs")? {
        config.io_timeout = secs;
    }
    if let Some(n) = args.flag("max-request-line") {
        config.max_request_line = n.parse()?;
    }
    if let Some(secs) = secs_flag(&args, "watchdog-secs")? {
        config.watchdog_timeout = secs;
    }
    if let Some(spec) = args.flag("default-quota") {
        config.default_quota = parse_quota_spec(spec)?;
    }
    for entry in args.flag_all("quota") {
        let (tenant, spec) = entry.split_once('=').ok_or_else(|| {
            format!("serve: --quota {entry:?}: expected TENANT=JOBS,CONFLICTS,SECS")
        })?;
        if tenant.is_empty() {
            return Err("serve: --quota with empty tenant name".into());
        }
        config
            .quotas
            .push((tenant.to_string(), parse_quota_spec(spec)?));
    }

    install_shutdown_handler();
    let shutdown = Arc::new(AtomicBool::new(false));
    {
        // Bridge the signal-handler static into the flag `serve` polls.
        let shutdown = Arc::clone(&shutdown);
        std::thread::spawn(move || loop {
            if SHUTDOWN_REQUESTED.load(Ordering::Relaxed) {
                shutdown.store(true, Ordering::SeqCst);
                return;
            }
            std::thread::sleep(Duration::from_millis(50));
        });
    }

    println!(
        "fulllock serve: listening on {} ({} worker(s), {} shard(s), state in {})",
        config.endpoint,
        config.workers,
        config.shards,
        config.state_dir.display(),
    );
    println!("SIGTERM or Ctrl-C drains gracefully (in-flight jobs re-queue).");
    let summary = serve(config, shutdown)?;
    println!(
        "drained: {} submitted, {} completed, {} failed, {} canceled, {} interrupted \
         ({} recovered from a previous run, {} shed, {} worker(s) recycled)",
        summary.submitted,
        summary.completed,
        summary.failed,
        summary.canceled,
        summary.drained,
        summary.recovered,
        summary.shed,
        summary.recycled,
    );
    Ok(())
}

fn cmd_export(raw: &[String]) -> CliResult {
    let args = Args::parse("export", raw, "format out", "")?;
    let path = args
        .positional
        .first()
        .ok_or("export: missing <circuit.bench>")?;
    let format = args.flag("format").ok_or("export: missing --format")?;
    let nl = load_netlist(path)?;
    let text = match format {
        "verilog" => verilog::write(&nl),
        "bench" => bench_io::write(&nl),
        "dimacs" => tseytin::encode(&nl).cnf.to_dimacs(),
        other => return Err(format!("unknown format {other:?}").into()),
    };
    match args.flag("out") {
        Some(out) => {
            fs::write(out, text)?;
            println!("wrote {format} to {out}");
        }
        None => print!("{text}"),
    }
    Ok(())
}
