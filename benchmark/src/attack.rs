//! The in-process workloads: the SAT attack and Double-DIP driven through
//! the attacks crate's public API on one thread.
//!
//! Untraced, each instance is one `Attack::run` call, timed from outside.
//! Traced, each instance is attacked twice, once as above and once with
//! every layer call wrapped in a span: `SatAttack::new`, each `step`,
//! `extract_key`, `verify_key`, `certify_key`, and every oracle query
//! through [`TimedOracle`]. After the traced attack, the final
//! `snapshot()` is saved and loaded as a checkpoint and its I/O log is
//! replayed through `CircuitEncoder::encode_observation`; neither counts
//! toward the instance's time.

use std::path::Path;
use std::time::{Duration, Instant};

use fulllock_attacks::double_dip::DoubleDip;
use fulllock_attacks::sat_attack::Step;
use fulllock_attacks::{
    certify_key, Attack, AttackCheckpoint, AttackOutcome, AttackReport, CircuitEncoder,
    EncodeStyle, KeyCertificate, Oracle, OracleError, OracleResilience, SatAttack, SatAttackConfig,
    SimOracle,
};
use fulllock_netlist::Netlist;
use fulllock_sat::cdcl::SolverStats;
use fulllock_sat::{BackendSpec, CertifyLevel, Cnf, Var};

use crate::metrics::Values;
use crate::pool::Instance;
use crate::stats::{percentile, sorted};
use crate::trace::Tracer;

/// The attack configuration every workload uses, with each field set
/// explicitly so a changed default cannot silently change the workload.
pub fn pinned_config() -> SatAttackConfig {
    SatAttackConfig {
        timeout: Some(Duration::from_secs(30)),
        max_iterations: None,
        force_cycsat: false,
        backend: BackendSpec::Single,
        certify: CertifyLevel::Model,
        cone_reduce: true,
        encode_style: EncodeStyle::Structured,
        resilience: OracleResilience::default(),
    }
}

/// Which attack an in-process workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackKind {
    /// `SatAttackConfig` / `SatAttack`.
    Sat,
    /// `DoubleDip`.
    DoubleDip,
}

/// How one attack ended, from the benchmark's point of view.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// A verified key with a clean, formally proven certificate.
    Certified,
    /// No key: a timeout, a budget, or an error. Counts as failed.
    Failed(String),
    /// A key that is unverified or not certified correct: the program
    /// produced a wrong answer.
    Wrong(String),
}

/// Judges an attack result: only a verified key whose certificate is
/// clean and formally `Equivalent` passes.
pub fn judge(outcome: &AttackOutcome, certificate: Option<&KeyCertificate>) -> Verdict {
    match outcome {
        AttackOutcome::KeyRecovered { verified, .. } => {
            if !verified {
                return Verdict::Wrong("key recovered but not verified".into());
            }
            match certificate {
                // Proven means no simulation mismatch and a formal
                // `Equivalent`, so it implies clean.
                Some(c) if c.is_proven() => Verdict::Certified,
                Some(c) => Verdict::Wrong(format!("key certificate not proven clean: {c:?}")),
                None => Verdict::Wrong("key recovered without a certificate".into()),
            }
        }
        other => Verdict::Failed(format!("attack ended {other:?}")),
    }
}

/// One attacked instance.
#[derive(Debug, Clone)]
pub struct Attempt {
    /// Wall seconds of the attack, key certificate included.
    pub wall_s: f64,
    /// DIP iterations.
    pub dips: u64,
    /// Oracle queries the attack reports.
    pub queries: u64,
    /// How it ended.
    pub verdict: Verdict,
}

/// An oracle that forwards to a [`SimOracle`] and records a span per
/// query. It forwards `netlist()` too, so key certificates stay formal.
pub struct TimedOracle<'a> {
    inner: SimOracle<'a>,
    tracer: &'a Tracer,
}

impl<'a> TimedOracle<'a> {
    /// Wraps the simulation oracle of `original`.
    ///
    /// # Errors
    ///
    /// A cyclic `original` (never the case for the workload families).
    pub fn new(original: &'a Netlist, tracer: &'a Tracer) -> Result<TimedOracle<'a>, String> {
        Ok(TimedOracle {
            inner: SimOracle::new(original).map_err(|e| e.to_string())?,
            tracer,
        })
    }
}

impl Oracle for TimedOracle<'_> {
    fn num_inputs(&self) -> usize {
        self.inner.num_inputs()
    }

    fn num_outputs(&self) -> usize {
        self.inner.num_outputs()
    }

    fn query(&self, inputs: &[bool]) -> Vec<bool> {
        self.tracer
            .span("oracle.query", || self.inner.query(inputs))
    }

    fn try_query(&self, inputs: &[bool]) -> Result<Vec<bool>, OracleError> {
        self.tracer
            .span("oracle.query", || self.inner.try_query(inputs))
    }

    fn queries(&self) -> u64 {
        self.inner.queries()
    }

    fn netlist(&self) -> Option<&Netlist> {
        self.inner.netlist()
    }
}

fn run_attack(
    kind: AttackKind,
    inst: &Instance,
    oracle: &dyn Oracle,
) -> Result<AttackReport, String> {
    let result = match kind {
        AttackKind::Sat => pinned_config().run(&inst.locked, oracle),
        AttackKind::DoubleDip => DoubleDip {
            base: pinned_config(),
        }
        .run(&inst.locked, oracle),
    };
    result.map_err(|e| e.to_string())
}

fn attempt_from(wall_s: f64, result: Result<AttackReport, String>) -> Attempt {
    match result {
        Ok(report) => Attempt {
            wall_s,
            dips: report.iterations,
            queries: report.oracle_queries,
            verdict: judge(&report.outcome, report.key_certificate.as_ref()),
        },
        Err(e) => Attempt {
            wall_s,
            dips: 0,
            queries: 0,
            verdict: Verdict::Failed(e),
        },
    }
}

/// Attacks one instance with one `Attack::run` call.
pub fn attack_untraced(kind: AttackKind, inst: &Instance) -> Attempt {
    let oracle = match SimOracle::new(&inst.original) {
        Ok(o) => o,
        Err(e) => return attempt_from(0.0, Err(e.to_string())),
    };
    let start = Instant::now();
    let result = run_attack(kind, inst, &oracle);
    attempt_from(start.elapsed().as_secs_f64(), result)
}

/// Per-layer quantities the traced attacks accumulate beyond the spans.
#[derive(Debug, Default)]
pub struct LayerTotals {
    solver: SolverStats,
    dip_steps_s: Vec<f64>,
    final_unsat_s: f64,
    formula_vars: f64,
    formula_clauses: f64,
    clause_var_ratio: f64,
    formulas: u64,
    proven: u64,
    encoded_pairs: u64,
    encoded_clauses: u64,
    encoded_vars: u64,
    checkpoint_bytes: u64,
    checkpoints: u64,
    double_dip_residual_s: f64,
}

impl LayerTotals {
    /// Writes the per-layer metrics of the attack, encode, oracle,
    /// certificate, checkpoint and SAT layers.
    pub fn fill(&self, tracer: &Tracer, values: &mut Values) {
        fill_solver(&self.solver, values);
        values.set("attacks.setup_s", tracer.total_s("attacks.new"));
        values.set("attacks.step_self_s", tracer.self_total_s("attacks.step"));
        let steps = sorted(&self.dip_steps_s);
        values.set("attacks.dip_step_p50_s", percentile(&steps, 50.0));
        values.set("attacks.dip_step_max_s", percentile(&steps, 100.0));
        values.set("attacks.final_unsat_s", self.final_unsat_s);
        values.set(
            "attacks.extract_key_s",
            tracer.total_s("attacks.extract_key"),
        );
        values.set("attacks.verify_s", tracer.total_s("attacks.verify"));
        let formulas = self.formulas.max(1) as f64;
        values.set("attacks.formula_vars", self.formula_vars / formulas);
        values.set("attacks.formula_clauses", self.formula_clauses / formulas);
        values.set("attacks.clause_var_ratio", self.clause_var_ratio / formulas);
        values.set("attacks.double_dip.residual_s", self.double_dip_residual_s);
        let pairs = self.encoded_pairs.max(1) as f64;
        values.set("encode.s_per_dip", tracer.total_s("encode.replay") / pairs);
        values.set(
            "encode.clauses_per_dip",
            self.encoded_clauses as f64 / pairs,
        );
        values.set("encode.vars_per_dip", self.encoded_vars as f64 / pairs);
        let queries = tracer.count("oracle.query");
        let oracle_s = tracer.total_s("oracle.query");
        values.set("oracle.queries", queries as f64);
        values.set("oracle.s", oracle_s);
        values.set(
            "oracle.us_per_query",
            oracle_s * 1e6 / queries.max(1) as f64,
        );
        values.set("certificate.s", tracer.total_s("certificate"));
        values.set("certificate.proven", self.proven as f64);
        let checkpoints = self.checkpoints.max(1) as f64;
        values.set(
            "checkpoint.save_s",
            tracer.total_s("checkpoint.save") / checkpoints,
        );
        values.set(
            "checkpoint.load_s",
            tracer.total_s("checkpoint.load") / checkpoints,
        );
        values.set(
            "checkpoint.bytes",
            self.checkpoint_bytes as f64 / checkpoints,
        );
    }
}

/// Writes the `sat.*` metrics from summed solver counters.
pub fn fill_solver(s: &SolverStats, values: &mut Values) {
    let propagate_s = s.propagate_ns as f64 * 1e-9;
    values.set("sat.propagate_s", propagate_s);
    values.set("sat.props_per_s", s.props_per_cpu_sec());
    values.set("sat.analyze_s", s.analyze_ns as f64 * 1e-9);
    values.set("sat.conflicts", s.conflicts as f64);
    values.set("sat.decisions", s.decisions as f64);
    values.set("sat.propagations", s.propagations as f64);
    values.set("sat.restarts", s.restarts as f64);
    values.set("sat.solves", s.solves as f64);
    values.set("sat.learnts_carried", s.learnts_carried as f64);
    values.set("sat.deleted_learnts", s.deleted_learnts as f64);
    values.set("sat.inprocessings", s.inprocessings as f64);
    values.set("sat.vars_eliminated", s.vars_eliminated as f64);
    values.set("sat.mean_lbd", s.mean_lbd());
    values.set("sat.certified_models", s.certified_models as f64);
}

/// Attacks one instance with spans around every layer call, then
/// measures its checkpoint round trip and re-encodes its I/O log.
/// `scratch` receives the checkpoint file, which is removed again.
pub fn attack_traced(
    kind: AttackKind,
    inst: &Instance,
    tracer: &Tracer,
    totals: &mut LayerTotals,
    scratch: &Path,
) -> Attempt {
    let oracle = match TimedOracle::new(&inst.original, tracer) {
        Ok(o) => o,
        Err(e) => return attempt_from(0.0, Err(e)),
    };
    match kind {
        AttackKind::Sat => traced_sat(inst, &oracle, tracer, totals, scratch),
        AttackKind::DoubleDip => {
            let oracle_before = tracer.total_s("oracle.query");
            let start = Instant::now();
            let result = tracer.span("instance", || {
                tracer.span("attacks.run", || run_attack(kind, inst, &oracle))
            });
            let wall_s = start.elapsed().as_secs_f64();
            if let Ok(report) = &result {
                totals.solver.merge(&report.solver);
                let oracle_s = tracer.total_s("oracle.query") - oracle_before;
                let solve_s = (report.solver.propagate_ns + report.solver.analyze_ns) as f64 * 1e-9;
                totals.double_dip_residual_s += wall_s - oracle_s - solve_s;
                if report
                    .key_certificate
                    .as_ref()
                    .is_some_and(KeyCertificate::is_proven)
                {
                    totals.proven += 1;
                }
            }
            attempt_from(wall_s, result)
        }
    }
}

fn traced_sat(
    inst: &Instance,
    oracle: &TimedOracle<'_>,
    tracer: &Tracer,
    totals: &mut LayerTotals,
    scratch: &Path,
) -> Attempt {
    let start = Instant::now();
    let mut dips = 0;
    let mut queries = 0;
    let traced = tracer.span("instance", || -> Result<_, String> {
        let mut engine = tracer
            .span("attacks.new", || {
                SatAttack::new(&inst.locked, oracle, pinned_config())
            })
            .map_err(|e| e.to_string())?;
        loop {
            let begin = Instant::now();
            let step = tracer
                .span("attacks.step", || engine.step())
                .map_err(|e| e.to_string())?;
            let step_s = begin.elapsed().as_secs_f64();
            match step {
                Step::Dip(_) => totals.dip_steps_s.push(step_s),
                Step::NoMoreDips => {
                    totals.final_unsat_s += step_s;
                    break;
                }
                Step::Budget => {
                    return Ok((engine, Verdict::Failed("attack budget ran out".into())))
                }
            }
        }
        dips = engine.iterations();
        queries = engine.oracle_queries();
        let key = tracer
            .span("attacks.extract_key", || engine.extract_key())
            .map_err(|e| e.to_string())?;
        let Some(key) = key else {
            return Ok((
                engine,
                Verdict::Failed("no key satisfies the observations".into()),
            ));
        };
        let verified = tracer.span("attacks.verify", || engine.verify_key(&key, 32, 0xF17));
        let certificate = tracer.span("certificate", || {
            certify_key(&inst.locked, oracle, &key, 64, 0xCE87)
        });
        let verdict = match engine.certify_failure() {
            Some(failure) => {
                Verdict::Wrong(format!("solver answer failed certification: {failure}"))
            }
            None => judge(
                &AttackOutcome::KeyRecovered { key, verified },
                Some(&certificate),
            ),
        };
        if certificate.is_proven() {
            totals.proven += 1;
        }
        Ok((engine, verdict))
    });
    let wall_s = start.elapsed().as_secs_f64();
    let (engine, mut verdict) = match traced {
        Ok(done) => done,
        Err(e) => return attempt_from(wall_s, Err(e)),
    };

    let formula = engine.report(AttackOutcome::Inconclusive);
    totals.solver.merge(&formula.solver);
    totals.formula_vars += formula.formula.0 as f64;
    totals.formula_clauses += formula.formula.1 as f64;
    totals.clause_var_ratio += formula.mean_clause_var_ratio;
    totals.formulas += 1;

    let snapshot = engine.snapshot();
    if let Err(e) = checkpoint_round_trip(&snapshot, inst, tracer, totals, scratch) {
        verdict = Verdict::Wrong(e);
    }
    replay_encoding(inst, &snapshot, tracer, totals);
    Attempt {
        wall_s,
        dips,
        queries,
        verdict,
    }
}

/// Saves and reloads the final snapshot; the reloaded checkpoint must
/// carry the same I/O log.
fn checkpoint_round_trip(
    snapshot: &AttackCheckpoint,
    inst: &Instance,
    tracer: &Tracer,
    totals: &mut LayerTotals,
    scratch: &Path,
) -> Result<(), String> {
    let path = scratch.join(format!("{}.ckpt", inst.id));
    tracer
        .span("checkpoint.save", || snapshot.save(&path))
        .map_err(|e| format!("checkpoint save: {e}"))?;
    let loaded = tracer
        .span("checkpoint.load", || AttackCheckpoint::load(&path))
        .map_err(|e| format!("checkpoint load: {e}"))?;
    totals.checkpoint_bytes += std::fs::metadata(&path).map_or(0, |m| m.len());
    totals.checkpoints += 1;
    std::fs::remove_file(&path).map_err(|e| format!("remove checkpoint: {e}"))?;
    if loaded.io_pairs != snapshot.io_pairs || loaded.iterations != snapshot.iterations {
        return Err(format!("checkpoint of {} did not round-trip", inst.id));
    }
    Ok(())
}

/// Re-encodes the snapshot's I/O log for two key copies, as the attack
/// does for every DIP, into a fresh formula.
fn replay_encoding(
    inst: &Instance,
    snapshot: &AttackCheckpoint,
    tracer: &Tracer,
    totals: &mut LayerTotals,
) {
    let Some(encoder) = CircuitEncoder::new(&inst.locked, EncodeStyle::Structured) else {
        return;
    };
    let mut cnf = Cnf::new();
    let keys: [Vec<Var>; 2] = std::array::from_fn(|_| {
        inst.locked
            .key_inputs
            .iter()
            .map(|_| cnf.new_var())
            .collect()
    });
    let (vars, clauses) = (cnf.num_vars(), cnf.num_clauses());
    tracer.span("encode.replay", || {
        for pair in &snapshot.io_pairs {
            for key_vars in &keys {
                encoder.encode_observation(&mut cnf, &pair.inputs, &pair.outputs, key_vars);
            }
        }
    });
    totals.encoded_pairs += snapshot.io_pairs.len() as u64;
    totals.encoded_vars += (cnf.num_vars() - vars) as u64;
    totals.encoded_clauses += (cnf.num_clauses() - clauses) as u64;
}

#[cfg(test)]
mod tests {
    use super::*;
    use fulllock_attacks::FormalVerdict;
    use fulllock_locking::Key;

    fn certificate(mismatches: u64, formal: FormalVerdict) -> KeyCertificate {
        KeyCertificate {
            samples: 66,
            mismatches,
            formal,
        }
    }

    #[test]
    fn only_verified_proven_keys_pass() {
        let key = Key::from_bits([true, false]);
        let recovered = |verified| AttackOutcome::KeyRecovered {
            key: key.clone(),
            verified,
        };
        let proven = certificate(0, FormalVerdict::Equivalent);
        assert_eq!(judge(&recovered(true), Some(&proven)), Verdict::Certified);
        assert!(matches!(
            judge(&recovered(false), Some(&proven)),
            Verdict::Wrong(_)
        ));
        assert!(matches!(
            judge(
                &recovered(true),
                Some(&certificate(1, FormalVerdict::Equivalent))
            ),
            Verdict::Wrong(_)
        ));
        assert!(matches!(
            judge(
                &recovered(true),
                Some(&certificate(0, FormalVerdict::Unknown))
            ),
            Verdict::Wrong(_)
        ));
        assert!(matches!(judge(&recovered(true), None), Verdict::Wrong(_)));
        assert!(matches!(
            judge(&AttackOutcome::Timeout, None),
            Verdict::Failed(_)
        ));
    }
}
