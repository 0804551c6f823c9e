//! Integration tests of the `fulllock` command-line binary: the full
//! lock → verify → attack → export → optimize workflow over real files.

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};

use full_lock::attacks::AttackReport;

const C17: &str = "\
INPUT(G1)
INPUT(G2)
INPUT(G3)
INPUT(G6)
INPUT(G7)
OUTPUT(G22)
OUTPUT(G23)
G10 = NAND(G1, G3)
G11 = NAND(G3, G6)
G16 = NAND(G2, G11)
G19 = NAND(G11, G7)
G22 = NAND(G10, G16)
G23 = NAND(G16, G19)
";

fn workdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fulllock_cli_{tag}_{}", std::process::id()));
    fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fulllock"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

#[test]
fn help_lists_subcommands() {
    let out = run(&["--help"]);
    assert!(out.status.success());
    let text = stdout(&out);
    for sub in ["stats", "lock", "verify", "attack", "export", "optimize"] {
        assert!(text.contains(sub), "help missing {sub}");
    }
}

#[test]
fn unknown_subcommand_fails() {
    let out = run(&["frobnicate"]);
    assert!(!out.status.success());
}

#[test]
fn stats_reports_shape() {
    let dir = workdir("stats");
    let path = dir.join("c17.bench");
    fs::write(&path, C17).unwrap();
    let out = run(&["stats", path.to_str().unwrap()]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("5 inputs, 2 outputs, 6 gates"));
    assert!(text.contains("NAND: 6"));
}

#[test]
fn full_lock_attack_verify_flow() {
    let dir = workdir("flow");
    let original = dir.join("c17.bench");
    let locked = dir.join("locked.bench");
    let key_file = dir.join("key.txt");
    fs::write(&original, C17).unwrap();

    // Lock with RLL (small enough to attack instantly).
    let out = run(&[
        "lock",
        original.to_str().unwrap(),
        "-o",
        locked.to_str().unwrap(),
        "--scheme",
        "rll",
        "--bits",
        "4",
        "--seed",
        "7",
        "--key-out",
        key_file.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let key = fs::read_to_string(&key_file).unwrap().trim().to_string();
    assert_eq!(key.len(), 4);

    // Formal verification of the written key.
    let out = run(&[
        "verify",
        locked.to_str().unwrap(),
        "--oracle",
        original.to_str().unwrap(),
        "--key",
        &key,
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout(&out).contains("PROVEN"));

    // A wrong key must be rejected with a counterexample.
    let wrong: String = key
        .chars()
        .map(|c| if c == '0' { '1' } else { '0' })
        .collect();
    let out = run(&[
        "verify",
        locked.to_str().unwrap(),
        "--oracle",
        original.to_str().unwrap(),
        "--key",
        &wrong,
    ]);
    assert!(!out.status.success());

    // The SAT attack recovers a working key.
    let out = run(&[
        "attack",
        locked.to_str().unwrap(),
        "--oracle",
        original.to_str().unwrap(),
        "--timeout",
        "30",
    ]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("BROKEN"), "{text}");
    assert!(text.contains("verified: true"));
}

#[test]
fn inprocess_env_has_one_grammar() {
    let dir = workdir("inprocess");
    let original = dir.join("c17.bench");
    let locked = dir.join("locked.bench");
    fs::write(&original, C17).unwrap();
    let out = run(&[
        "lock",
        original.to_str().unwrap(),
        "-o",
        locked.to_str().unwrap(),
        "--scheme",
        "rll",
        "--bits",
        "4",
        "--seed",
        "7",
    ]);
    assert!(out.status.success());
    // Whether the attack under this FULLLOCK_INPROCESS value ran inprocessing.
    let inprocessed = |value: Option<&str>| {
        let mut attack = Command::new(env!("CARGO_BIN_EXE_fulllock"));
        attack.args([
            "attack",
            locked.to_str().unwrap(),
            "--oracle",
            original.to_str().unwrap(),
        ]);
        match value {
            Some(value) => attack.env("FULLLOCK_INPROCESS", value),
            None => attack.env_remove("FULLLOCK_INPROCESS"),
        };
        let out = attack.output().expect("binary runs");
        assert!(out.status.success(), "{value:?}: {}", stdout(&out));
        stdout(&out).contains("inprocessing:")
    };
    for off in ["off", "no", "0", "false"] {
        assert!(
            !inprocessed(Some(off)),
            "FULLLOCK_INPROCESS={off} ran inprocessing"
        );
    }
    assert!(inprocessed(None), "inprocessing is on by default");
}

/// `FULLLOCK_CERTIFY` and `FULLLOCK_ORACLE_VOTES` reach `fulllock
/// attack`, and its `--certify` and `--oracle-votes` flags override them.
#[test]
fn ambient_knobs_reach_attack() {
    let dir = workdir("ambient");
    let original = dir.join("c17.bench");
    let locked = dir.join("locked.bench");
    fs::write(&original, C17).unwrap();
    let (original, locked) = (original.to_str().unwrap(), locked.to_str().unwrap());
    let out = run(&[
        "lock", original, "-o", locked, "--scheme", "rll", "--bits", "4", "--seed", "7",
    ]);
    assert!(out.status.success());
    // The wire report of an attack under one ambient variable.
    let attack = |var: &str, value: &str, flags: &[&str]| {
        let mut command = Command::new(env!("CARGO_BIN_EXE_fulllock"));
        command
            .args(["attack", locked, "--oracle", original, "--json", "-"])
            .args(flags);
        for knob in [
            "FULLLOCK_CERTIFY",
            "FULLLOCK_ORACLE_VOTES",
            "FULLLOCK_ORACLE_RETRIES",
            "FULLLOCK_ORACLE_QPS",
        ] {
            command.env_remove(knob);
        }
        let out = command.env(var, value).output().expect("binary runs");
        assert!(
            out.status.success(),
            "{var}={value} {flags:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        AttackReport::from_json(stdout(&out).trim()).expect("one wire report on stdout")
    };
    let certified = attack("FULLLOCK_CERTIFY", "model", &[]);
    assert!(certified.solver.certified_models > 0, "{certified:?}");
    let overridden = attack("FULLLOCK_CERTIFY", "model", &["--certify", "off"]);
    assert_eq!(overridden.solver.certified_models, 0, "{overridden:?}");

    let voted = attack("FULLLOCK_ORACLE_VOTES", "3", &[]);
    let single = attack("FULLLOCK_ORACLE_VOTES", "3", &["--oracle-votes", "1"]);
    assert!(
        voted.oracle_queries > single.oracle_queries,
        "3 votes: {} queries, 1 vote: {}",
        voted.oracle_queries,
        single.oracle_queries
    );
}

/// Every attack solves on the one sequential solver: `--threads` runs at
/// 0 and 1 and `FULLLOCK_THREADS` at 1, and each refuses a larger value
/// with an `error:` line.
#[test]
fn thread_knobs_accept_only_the_sequential_solver() {
    let dir = workdir("threads");
    let original = dir.join("c17.bench");
    let locked = dir.join("locked.bench");
    fs::write(&original, C17).unwrap();
    let (original, locked) = (original.to_str().unwrap(), locked.to_str().unwrap());
    let out = run(&[
        "lock", original, "-o", locked, "--scheme", "rll", "--bits", "4", "--seed", "7",
    ]);
    assert!(out.status.success());
    let attack = |flag: Option<&str>, env: Option<&str>| {
        let mut command = Command::new(env!("CARGO_BIN_EXE_fulllock"));
        command.args(["attack", locked, "--oracle", original]);
        if let Some(threads) = flag {
            command.args(["--threads", threads]);
        }
        match env {
            Some(threads) => command.env("FULLLOCK_THREADS", threads),
            None => command.env_remove("FULLLOCK_THREADS"),
        };
        command.output().expect("binary runs")
    };
    for (flag, env) in [(Some("0"), None), (Some("1"), None), (None, Some("1"))] {
        let out = attack(flag, env);
        assert!(out.status.success(), "{flag:?} {env:?}: {}", stdout(&out));
        assert!(stdout(&out).contains("BROKEN"), "{flag:?} {env:?}");
    }
    for (flag, env) in [(Some("2"), None), (None, Some("2"))] {
        let out = attack(flag, env);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flag:?} {env:?}: {stderr}");
        assert!(
            stderr.contains("error: ") && stderr.contains("only the sequential solver remains"),
            "{flag:?} {env:?}: {stderr}"
        );
    }
}

/// A misspelled flag, or a value flag with no value, is an `error:` that
/// names it, not an attack run without the option the caller meant.
#[test]
fn unknown_and_valueless_flags_are_refused() {
    let dir = workdir("flags");
    let original = dir.join("c17.bench");
    let locked = dir.join("locked.bench");
    fs::write(&original, C17).unwrap();
    let (original, locked) = (original.to_str().unwrap(), locked.to_str().unwrap());
    let out = run(&[
        "lock", original, "-o", locked, "--scheme", "rll", "--bits", "4", "--seed", "7",
    ]);
    assert!(out.status.success());
    let attack = ["attack", locked, "--oracle", original];
    for (extra, named) in [
        (&["--certfy", "proof"][..], "unknown flag --certfy"),
        (&["--certify"][..], "--certify needs a value"),
    ] {
        let mut args = attack.to_vec();
        args.extend(extra);
        let out = run(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {}", stdout(&out));
        assert!(
            stderr.contains(&format!("error: attack: {named}")),
            "{args:?}: {stderr}"
        );
    }
    let out = run(&["stats", original, "-o", locked]);
    assert_eq!(out.status.code(), Some(1), "stats takes no -o");
}

/// A seconds flag refuses a value no `Duration` holds (negative, NaN,
/// infinite) with an `error:` line naming the flag, instead of
/// panicking.
#[test]
fn seconds_flags_refuse_negative_and_non_finite_values() {
    let dir = workdir("secs");
    let original = dir.join("c17.bench");
    let locked = dir.join("locked.bench");
    let plan = dir.join("plan.json");
    fs::write(&original, C17).unwrap();
    fs::write(
        &plan,
        r#"{"version":1,"name":"secs","jobs":[{"id":"a","program":"/bin/true"}]}"#,
    )
    .unwrap();
    let (original, locked, plan) = (
        original.to_str().unwrap(),
        locked.to_str().unwrap(),
        plan.to_str().unwrap(),
    );
    let out = run(&[
        "lock", original, "-o", locked, "--scheme", "rll", "--bits", "4",
    ]);
    assert!(out.status.success());
    let out_dir = dir.join("out");
    let out_dir = out_dir.to_str().unwrap();
    let socket = format!("unix:{}", dir.join("serve.sock").display());

    let attack = ["attack", locked, "--oracle", original];
    let campaign = ["campaign", "--plan", plan, "--out-dir", out_dir];
    let sweep = ["sweep", "--grid", "vars=20", "--out-dir", out_dir];
    let serve = ["serve", "--listen", &socket, "--state-dir", out_dir];
    let cases: [(&[&str], &str, &str); 8] = [
        (&attack, "timeout", "-1"),
        (&campaign, "timeout-secs", "-1"),
        (&campaign, "grace-secs", "inf"),
        (&sweep, "max-wall-secs", "inf"),
        (&serve, "timeout-secs", "-0.5"),
        (&serve, "grace-secs", "-inf"),
        (&serve, "io-timeout-secs", "NaN"),
        (&serve, "watchdog-secs", "nan"),
    ];
    for (command, flag, value) in cases {
        let flag = format!("--{flag}");
        let mut args = command.to_vec();
        args.extend([flag.as_str(), value]);
        let out = run(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("error: {flag} ")),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn export_formats() {
    let dir = workdir("export");
    let original = dir.join("c17.bench");
    fs::write(&original, C17).unwrap();

    let out = run(&["export", original.to_str().unwrap(), "--format", "verilog"]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("module c17"));

    let out = run(&["export", original.to_str().unwrap(), "--format", "dimacs"]);
    assert!(out.status.success());
    assert!(stdout(&out).starts_with("p cnf "));

    let out = run(&["export", original.to_str().unwrap(), "--format", "nonsense"]);
    assert!(!out.status.success());
}

#[test]
fn optimize_shrinks_redundant_logic() {
    let dir = workdir("opt");
    let redundant = dir.join("red.bench");
    // y = NOT(NOT(a)) — optimizes to a plain wire.
    fs::write(&redundant, "INPUT(a)\nOUTPUT(y)\nn = NOT(a)\ny = NOT(n)\n").unwrap();
    let out_path = dir.join("opt.bench");
    let out = run(&[
        "optimize",
        redundant.to_str().unwrap(),
        "-o",
        out_path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout(&out).contains("2 -> 0 gates"));
}
