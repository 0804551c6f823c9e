//! Shared harness for the paper-reproduction experiment binaries.
//!
//! Every table and figure of the paper has a binary in `src/bin/` (see
//! `EXPERIMENTS.md` at the repository root for the index). This library
//! holds what they share: wall-clock scaling, plain-text table rendering,
//! and the standalone-CLN testbed of Table 2. The [`record`] module is
//! the one writer of the `BENCH_*.json` guard records.
//!
//! # Scaling
//!
//! The paper's testbed ran attacks with a 2×10⁶-second timeout. The
//! binaries default to a seconds-scale budget so the whole suite runs on a
//! laptop; set `FULLLOCK_TIMEOUT_SECS` to raise it and `FULLLOCK_FULL=1`
//! to extend the sweeps toward the paper's sizes. `TO` rows mean the same
//! thing they mean in the paper — the attack did not finish within the
//! budget.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;
use std::time::Duration;

use fulllock_attacks::encode_locked;
use fulllock_harness::json::Json;
use fulllock_locking::{
    ClnTopology, FullLock, FullLockConfig, LockedCircuit, LockingScheme, PlrSpec, WireSelection,
};
use fulllock_netlist::{GateKind, Netlist};
use fulllock_sat::{AmbientConfig, AmbientError, Cnf, Lit, Var};

pub mod record;

/// Experiment scaling knobs, read from the environment.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Per-attack wall-clock budget (the paper's 2×10⁶ s, scaled down).
    pub timeout: Duration,
    /// Whether to run the extended (closer-to-paper) sweeps.
    pub full: bool,
}

/// Every `FULLLOCK_*` variable with a meaning somewhere in the
/// workspace — re-exported from the ambient-configuration layer in
/// `fulllock-sat`, which owns the canonical list (and the typo
/// spell-check built on it).
pub use fulllock_sat::ambient::KNOWN_FULLLOCK_VARS;

impl Scale {
    /// Reads the `FULLLOCK_*` scale knobs from the environment via
    /// [`Scale::parse`]. Malformed values are a hard error (printed to
    /// stderr, exit 2) rather than a silent fall-back to defaults, and
    /// unknown `FULLLOCK_*` variables produce a warning — so a typo like
    /// `FULLLOCK_TIMEOUT_SEC=3600` can no longer quietly run a sweep
    /// with the 10-second default.
    pub fn from_env() -> Scale {
        match Scale::parse(std::env::vars()) {
            Ok((scale, warnings)) => {
                for warning in warnings {
                    eprintln!("warning: {warning}");
                }
                scale
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        }
    }

    /// Parses the knobs from an explicit variable set (pure — the unit
    /// tests feed synthetic environments). Returns the scale plus
    /// warnings for unknown `FULLLOCK_*` variables.
    ///
    /// * `FULLLOCK_TIMEOUT_SECS`: per-attack budget in seconds (default
    ///   10; must be a positive finite number, clamped to ≥ 0.1).
    /// * `FULLLOCK_FULL`: extended sweeps (default off; accepts
    ///   `1`/`true`/`yes` and `0`/`false`/`no`/empty).
    /// * `FULLLOCK_THREADS`: accepted as 1 only (every attack solves on
    ///   the one sequential solver).
    ///
    /// Everything except `FULLLOCK_FULL` (the one bench-only knob)
    /// delegates to [`AmbientConfig::parse`], so the experiment binaries
    /// and the attack CLI validate the shared variables identically —
    /// one grammar, one set of error messages, one typo spell-check.
    ///
    /// # Errors
    ///
    /// Returns an [`AmbientError`] describing the first malformed value.
    pub fn parse<I>(vars: I) -> Result<(Scale, Vec<String>), AmbientError>
    where
        I: IntoIterator<Item = (String, String)>,
    {
        let vars: Vec<(String, String)> = vars.into_iter().collect();
        let mut full = false;
        for (name, value) in &vars {
            if name == "FULLLOCK_FULL" {
                full = match value.trim() {
                    "" | "0" | "false" | "no" => false,
                    "1" | "true" | "yes" => true,
                    other => {
                        return Err(AmbientError {
                            var: name.clone(),
                            value: value.clone(),
                            reason: format!("expected 0/1/true/false/yes/no, got {other:?}"),
                        })
                    }
                };
            }
        }
        let (ambient, warnings) = AmbientConfig::parse(vars)?;
        let scale = Scale {
            timeout: ambient
                .timeout
                .unwrap_or(Duration::from_secs(10))
                .max(Duration::from_millis(100)),
            full,
        };
        Ok((scale, warnings))
    }
}

/// The registry of experiment binaries regenerating the paper's tables
/// and figures — the single source of truth the built-in campaign plan
/// (`fulllock campaign --plan builtin:paper`) and the drift guard in
/// `tests/bins_smoke.rs` both consume.
pub mod registry {
    pub use fulllock_harness::plan::PAPER_BINS;
}

/// Formats a duration like the paper's tables: seconds with sensible
/// precision, or `TO` when `None`.
pub fn fmt_attack_time(elapsed: Option<Duration>) -> String {
    match elapsed {
        None => "TO".to_string(),
        Some(d) => {
            let s = d.as_secs_f64();
            if s < 0.1 {
                format!("{s:.3}")
            } else if s < 100.0 {
                format!("{s:.2}")
            } else {
                format!("{s:.0}")
            }
        }
    }
}

/// A plain-text table renderer for experiment output.
#[derive(Debug, Clone, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: impl IntoIterator<Item = S>) -> Table {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (padded/truncated to the header width).
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        row.resize(self.headers.len(), String::new());
        self.rows.push(row);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self, title: &str) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "\n=== {title} ===");
        let line = |out: &mut String, cells: &[String]| {
            let mut parts = Vec::with_capacity(cells.len());
            for (w, cell) in widths.iter().zip(cells) {
                parts.push(format!("{cell:<w$}"));
            }
            let _ = writeln!(out, "| {} |", parts.join(" | "));
        };
        line(&mut out, &self.headers);
        let total: usize = widths.iter().sum::<usize>() + 3 * widths.len() + 1;
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self, title: &str) {
        print!("{}", self.render(title));
    }

    /// Renders the rows as JSON lines: one object per row mapping each
    /// header to its cell, with a `"table"` key carrying the title. This
    /// is the machine-readable format campaign tooling ingests.
    pub fn render_json_lines(&self, title: &str) -> String {
        let mut out = String::new();
        for row in &self.rows {
            let mut members = vec![("table".to_string(), Json::Str(title.to_string()))];
            for (header, cell) in self.headers.iter().zip(row) {
                members.push((header.clone(), Json::Str(cell.clone())));
            }
            out.push_str(&Json::Object(members).to_text());
            out.push('\n');
        }
        out
    }

    /// Prints the table in the format the invocation asked for: JSON
    /// lines when `--json` is among the process arguments (see
    /// [`json_requested`]), the aligned plain-text table otherwise.
    pub fn emit(&self, title: &str) {
        if json_requested() {
            print!("{}", self.render_json_lines(title));
        } else {
            self.print(title);
        }
    }
}

/// Whether the current process was invoked with a `--json` argument
/// (the experiment binaries' machine-readable row output switch).
pub fn json_requested() -> bool {
    std::env::args().any(|a| a == "--json")
}

/// Builds the standalone CLN testbed of Table 2: an `n`-wire identity
/// circuit (input → buffer → output per wire) locked with a single CLN of
/// the given topology (no LUTs, no twisting — the table isolates the
/// routing network). Returns `(oracle netlist, locked circuit)`.
///
/// # Panics
///
/// Panics if `n` is not a power of two ≥ 4 (the CLN size rule).
pub fn cln_testbed(n: usize, topology: ClnTopology, seed: u64) -> (Netlist, LockedCircuit) {
    let mut host = Netlist::new(format!("wires{n}"));
    let inputs: Vec<_> = (0..n).map(|i| host.add_input(format!("x{i}"))).collect();
    for (i, &x) in inputs.iter().enumerate() {
        let b = host
            .add_named_gate(GateKind::Buf, &[x], format!("w{i}"))
            .expect("buffer arity is 1");
        host.mark_output(b);
    }
    let config = FullLockConfig {
        plrs: vec![PlrSpec {
            cln_size: n,
            topology,
            with_luts: false,
            with_inverters: true,
        }],
        selection: WireSelection::Acyclic,
        twist_probability: 0.0,
        seed,
    };
    let locked = FullLock::new(config)
        .lock(&host)
        .expect("an n-wire host always accommodates an n-input CLN");
    (host, locked)
}

/// Builds the DIP-loop benchmark workload: a random `gates`-gate host
/// (64 inputs, 32 outputs, fanin ≤ 3) locked with a single `cln_size`-wire
/// CLN of the given topology. Unlike [`cln_testbed`], the host carries
/// real logic around the routing network, so the key-dependent fanin cone
/// of each output is a small fraction of the circuit — the workload that
/// separates full-copy re-encoding from cone-reduced I/O assertions.
/// Returns `(oracle netlist, locked circuit)`.
///
/// # Panics
///
/// Panics if `cln_size` is not a power of two ≥ 4 (the CLN size rule).
pub fn cln_locked_host(
    gates: usize,
    cln_size: usize,
    topology: ClnTopology,
    seed: u64,
) -> (Netlist, LockedCircuit) {
    let host = fulllock_netlist::random::generate(fulllock_netlist::random::RandomCircuitConfig {
        inputs: 64,
        outputs: 32,
        gates,
        max_fanin: 3,
        seed,
    })
    .expect("fixed interface with gates >= outputs is a valid config");
    let config = FullLockConfig {
        plrs: vec![PlrSpec {
            cln_size,
            topology,
            with_luts: false,
            with_inverters: true,
        }],
        selection: WireSelection::Acyclic,
        twist_probability: 0.0,
        seed,
    };
    let locked = FullLock::new(config)
        .lock(&host)
        .expect("a multi-thousand-gate host accommodates the CLN");
    (host, locked)
}

/// Builds the fixed locked-miter workload of the solver benchmarks
/// (`BENCH_cdcl.json`): an `n`-wire identity host
/// locked with an almost non-blocking CLN (the paper's hard topology), two
/// key copies sharing data inputs, outputs forced to differ, plus
/// `io_pairs` asserted oracle I/O pairs. The I/O pairs replicate a
/// mid-attack solver state — the first bare-miter solve is trivially SAT,
/// but once both key copies must agree with the oracle (identity routing)
/// on many patterns, finding a remaining DIP forces a deep search.
///
/// # Panics
///
/// Panics if `n` is not a power of two ≥ 4 (the CLN size rule).
pub fn miter_workload(n: usize, io_pairs: usize, seed: u64) -> Cnf {
    let (_host, locked) = cln_testbed(n, ClnTopology::AlmostNonBlocking, seed);
    let mut cnf = Cnf::new();
    let x_vars: Vec<Var> = locked.data_inputs.iter().map(|_| cnf.new_var()).collect();
    let k1_vars: Vec<Var> = locked.key_inputs.iter().map(|_| cnf.new_var()).collect();
    let k2_vars: Vec<Var> = locked.key_inputs.iter().map(|_| cnf.new_var()).collect();
    let copy1 = encode_locked(&locked, &mut cnf, &x_vars, &k1_vars);
    let copy2 = encode_locked(&locked, &mut cnf, &x_vars, &k2_vars);
    let mut miter_clause = Vec::new();
    for (&a, &b) in copy1.output_vars.iter().zip(&copy2.output_vars) {
        let d = cnf.new_var();
        fulllock_sat::tseytin::encode_gate(&mut cnf, GateKind::Xor, d, &[a, b]);
        miter_clause.push(Lit::positive(d));
    }
    cnf.add_clause(miter_clause);

    // The host is an n-wire identity circuit, so the oracle's response to
    // any pattern is the pattern itself. Assert deterministic
    // (xorshift-generated) pairs for both key copies, as
    // `SatAttack::assert_io` would after `io_pairs` DIP iterations.
    let mut state = 0x9E37_79B9u64 ^ seed;
    for _ in 0..io_pairs {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let pattern: Vec<bool> = (0..n).map(|bit| state >> bit & 1 == 1).collect();
        for key_vars in [&k1_vars, &k2_vars] {
            let data_vars: Vec<Var> = (0..n).map(|_| cnf.new_var()).collect();
            let enc = encode_locked(&locked, &mut cnf, &data_vars, key_vars);
            for (slot, &v) in data_vars.iter().enumerate() {
                cnf.add_clause([Lit::with_polarity(v, pattern[slot])]);
            }
            for (o, &v) in enc.output_vars.iter().enumerate() {
                cnf.add_clause([Lit::with_polarity(v, pattern[o])]);
            }
        }
    }
    cnf
}

#[cfg(test)]
mod tests {
    use super::*;
    use fulllock_attacks::{Attack, SatAttackConfig, SimOracle};

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(["a", "long header"]);
        t.row(["1", "2"]);
        t.row(["wide cell", "x"]);
        let s = t.render("demo");
        assert!(s.contains("=== demo ==="));
        assert!(s.contains("| a         | long header |"));
    }

    #[test]
    fn fmt_attack_time_formats() {
        assert_eq!(fmt_attack_time(None), "TO");
        assert_eq!(fmt_attack_time(Some(Duration::from_millis(50))), "0.050");
        assert_eq!(fmt_attack_time(Some(Duration::from_secs(5))), "5.00");
        assert_eq!(fmt_attack_time(Some(Duration::from_secs(500))), "500");
    }

    #[test]
    fn cln_testbed_is_attackable_and_correct() {
        let (host, locked) = cln_testbed(4, ClnTopology::Shuffle, 0);
        // Correct key = identity-restoring routing.
        let x = [true, false, true, true];
        assert_eq!(locked.eval(&x, &locked.correct_key).unwrap(), x.to_vec());
        let oracle = SimOracle::new(&host).unwrap();
        let report = SatAttackConfig::default().run(&locked, &oracle).unwrap();
        assert!(report.outcome.is_broken(), "4-input CLN must fall quickly");
    }

    #[test]
    fn miter_workload_builds_a_hard_formula() {
        let cnf = miter_workload(8, 4, 1);
        assert!(cnf.num_vars() > 100);
        assert!(cnf.num_clauses() > cnf.num_vars());
    }

    #[test]
    fn scale_reads_defaults() {
        let scale = Scale::from_env();
        assert!(scale.timeout >= Duration::from_millis(100));
    }

    fn env(vars: &[(&str, &str)]) -> Vec<(String, String)> {
        vars.iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn scale_config_parses_valid_knobs() {
        let (scale, warnings) = Scale::parse(env(&[
            ("FULLLOCK_TIMEOUT_SECS", "2.5"),
            ("FULLLOCK_FULL", "1"),
            ("FULLLOCK_THREADS", "1"),
            ("PATH", "/usr/bin"),
        ]))
        .expect("valid knobs parse");
        assert_eq!(scale.timeout, Duration::from_secs_f64(2.5));
        assert!(scale.full);
        assert!(warnings.is_empty(), "{warnings:?}");
    }

    #[test]
    fn scale_config_rejects_garbage_loudly() {
        for (var, value) in [
            ("FULLLOCK_TIMEOUT_SECS", "soon"),
            ("FULLLOCK_TIMEOUT_SECS", "-3"),
            ("FULLLOCK_TIMEOUT_SECS", "inf"),
            ("FULLLOCK_THREADS", "many"),
            ("FULLLOCK_THREADS", "0"),
            ("FULLLOCK_THREADS", "4"),
            ("FULLLOCK_FULL", "maybe"),
        ] {
            let err = Scale::parse(env(&[(var, value)]))
                .expect_err(&format!("{var}={value} must be rejected"));
            assert_eq!(err.var, var);
            assert_eq!(err.value, value);
        }
    }

    #[test]
    fn scale_config_warns_on_unknown_vars_with_typo_hint() {
        let (scale, warnings) = Scale::parse(env(&[
            ("FULLLOCK_TIMEOUT_SEC", "3600"),
            ("FULLLOCK_TIMEOUT_SECS", "5"),
        ]))
        .expect("the well-formed knob still parses");
        // The typo did NOT silently set the timeout...
        assert_eq!(scale.timeout, Duration::from_secs(5));
        // ...and was called out with a suggestion.
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].contains("FULLLOCK_TIMEOUT_SEC"), "{warnings:?}");
        assert!(
            warnings[0].contains("did you mean FULLLOCK_TIMEOUT_SECS"),
            "{warnings:?}"
        );
    }

    #[test]
    fn known_fulllock_vars_do_not_warn() {
        let (_, warnings) =
            Scale::parse(env(&[("FULLLOCK_FAILPOINTS", "x=panic")])).expect("parses");
        assert!(warnings.is_empty(), "{warnings:?}");
    }

    #[test]
    fn table_renders_json_lines() {
        let mut t = Table::new(["circuit", "time"]);
        t.row(["c432", "1.25"]);
        t.row(["c880", "TO"]);
        let json = t.render_json_lines("Table 2");
        let lines: Vec<&str> = json.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"table\":\"Table 2\",\"circuit\":\"c432\",\"time\":\"1.25\"}"
        );
        assert!(lines[1].contains("\"time\":\"TO\""));
    }
}
