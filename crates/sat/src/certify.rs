//! Result certification: trust-but-verify for every solver answer.
//!
//! The paper's tables stand or fall on SAT-attack outcomes, so no answer
//! should leave the solving layer unchecked. This module supplies the
//! integrity ladder:
//!
//! * [`CertifyLevel::Model`] — every `Sat` answer is replayed against a
//!   mirror of the *original* clauses via [`Cnf::is_satisfied_by`] before
//!   the caller sees it. A model that fails the check becomes a typed
//!   [`CertifyError`] and the answer degrades to
//!   [`Unknown`](crate::cdcl::SolveResult::Unknown) — never a silent
//!   wrong key.
//! * [`CertifyLevel::Proof`] — additionally, the CDCL core logs every
//!   learnt and deleted clause as a DRAT trace ([`DratTrace`]) and the
//!   built-in forward checker ([`check_unsat_proof`]) validates
//!   assumption-free `Unsat` answers by reverse unit propagation.
//!
//! The [`CertifyingBackend`] wrapper applies the chosen level to any
//! [`SolveBackend`] and is what
//! [`BackendSpec::create_certified`](crate::backend::BackendSpec::create_certified)
//! returns.
//!
//! # Example
//!
//! ```
//! use fulllock_sat::backend::BackendSpec;
//! use fulllock_sat::cdcl::SolveResult;
//! use fulllock_sat::certify::CertifyLevel;
//! use fulllock_sat::Lit;
//!
//! let mut backend = BackendSpec::Single.create_certified(CertifyLevel::Model);
//! let a = Lit::from_dimacs(1);
//! backend.add_clause(&[a]);
//! assert_eq!(backend.solve(&[]), SolveResult::Sat);
//! assert!(backend.certify_failure().is_none());
//! ```

use std::fmt;
use std::str::FromStr;

use crate::backend::SolveBackend;
use crate::cdcl::{SolveLimits, SolveResult, SolverStats};
use crate::{Cnf, Lit, Var};

/// Environment variable that selects the default certification level.
pub const CERTIFY_ENV: &str = "FULLLOCK_CERTIFY";

/// How much verification every solver answer receives before it is
/// believed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CertifyLevel {
    /// Trust the solver blindly (the historical behaviour).
    #[default]
    Off,
    /// Check every `Sat` model against the original clauses.
    Model,
    /// `Model`, plus DRAT proof logging and forward-checking of
    /// assumption-free `Unsat` answers.
    Proof,
}

impl CertifyLevel {
    /// The canonical lowercase name (`off` / `model` / `proof`).
    pub fn as_str(self) -> &'static str {
        match self {
            CertifyLevel::Off => "off",
            CertifyLevel::Model => "model",
            CertifyLevel::Proof => "proof",
        }
    }

    /// Reads [`CERTIFY_ENV`]; unset or unrecognized values mean
    /// [`CertifyLevel::Off`] (a typo must never crash a campaign job).
    pub fn from_env() -> CertifyLevel {
        match std::env::var(CERTIFY_ENV) {
            Ok(value) => value.parse().unwrap_or(CertifyLevel::Off),
            Err(_) => CertifyLevel::Off,
        }
    }
}

impl fmt::Display for CertifyLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for CertifyLevel {
    type Err = String;

    fn from_str(s: &str) -> Result<CertifyLevel, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "none" | "0" => Ok(CertifyLevel::Off),
            "model" | "1" => Ok(CertifyLevel::Model),
            "proof" | "2" => Ok(CertifyLevel::Proof),
            other => Err(format!(
                "unknown certify level {other:?} (expected off, model, or proof)"
            )),
        }
    }
}

/// A certification failure: the solver's answer did not survive
/// verification. Every variant is a *typed* refusal — callers must treat
/// the corresponding answer as `Unknown`, never as a result.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CertifyError {
    /// A `Sat` answer whose model falsifies at least one original clause.
    UnsatisfiedModel {
        /// Variable count of the checked formula.
        num_vars: usize,
        /// The first falsified clause.
        clause: Vec<Lit>,
    },
    /// A `Sat` answer whose model contradicts an assumption literal.
    UnsatisfiedAssumption {
        /// The violated assumption.
        assumption: Lit,
    },
    /// The DRAT trace failed forward checking at `step`.
    ProofRejected {
        /// Zero-based index into the trace's steps.
        step: usize,
        /// Why the step was refused.
        reason: String,
    },
    /// An `Unsat` answer whose trace never derives the empty clause, so
    /// nothing certifies the refutation.
    IncompleteProof,
}

impl fmt::Display for CertifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertifyError::UnsatisfiedModel { num_vars, clause } => {
                write!(
                    f,
                    "model over {num_vars} vars falsifies clause [{}]",
                    clause
                        .iter()
                        .map(|l| l.to_dimacs().to_string())
                        .collect::<Vec<_>>()
                        .join(" ")
                )
            }
            CertifyError::UnsatisfiedAssumption { assumption } => {
                write!(f, "model contradicts assumption {}", assumption.to_dimacs())
            }
            CertifyError::ProofRejected { step, reason } => {
                write!(f, "DRAT proof rejected at step {step}: {reason}")
            }
            CertifyError::IncompleteProof => {
                write!(
                    f,
                    "UNSAT answer but the proof never derives the empty clause"
                )
            }
        }
    }
}

impl std::error::Error for CertifyError {}

/// One step of a DRAT trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DratStep {
    /// An input (problem) clause — part of the CNF, added unchecked by the
    /// forward checker.
    Original(Vec<Lit>),
    /// A derived clause; must pass reverse-unit-propagation (RUP) against
    /// everything live before it. The empty clause certifies UNSAT.
    Add(Vec<Lit>),
    /// A clause removed from the database (DRAT `d` line).
    Delete(Vec<Lit>),
}

/// An in-memory DRAT trace: the input clauses followed by every clause the
/// solver learnt or deleted, in order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DratTrace {
    steps: Vec<DratStep>,
}

impl DratTrace {
    /// An empty trace.
    pub fn new() -> DratTrace {
        DratTrace::default()
    }

    /// Records an input clause.
    pub fn push_original(&mut self, lits: Vec<Lit>) {
        self.steps.push(DratStep::Original(lits));
    }

    /// Records a derived (learnt or simplified) clause.
    pub fn push_add(&mut self, lits: Vec<Lit>) {
        self.steps.push(DratStep::Add(lits));
    }

    /// Records a deletion.
    pub fn push_delete(&mut self, lits: Vec<Lit>) {
        self.steps.push(DratStep::Delete(lits));
    }

    /// The recorded steps, in order.
    pub fn steps(&self) -> &[DratStep] {
        &self.steps
    }

    /// Number of recorded steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The derivation part in standard DRAT text (add and `d` lines;
    /// original clauses belong to the DIMACS file, not the proof).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for step in &self.steps {
            let lits = match step {
                DratStep::Original(_) => continue,
                DratStep::Add(lits) => lits,
                DratStep::Delete(lits) => {
                    out.push_str("d ");
                    lits
                }
            };
            for l in lits {
                out.push_str(&l.to_dimacs().to_string());
                out.push(' ');
            }
            out.push_str("0\n");
        }
        out
    }
}

/// Assignment values for the forward checker, indexed by `Lit::code()`.
const CHK_UNDEF: u8 = 0;
const CHK_TRUE: u8 = 1;
const CHK_FALSE: u8 = 2;

/// Forward-checks a DRAT trace as an UNSAT refutation.
///
/// Every [`DratStep::Add`] must be a reverse-unit-propagation (RUP)
/// consequence of the clauses live before it: assuming all its literals
/// false and unit-propagating to fixpoint must yield a conflict. The trace
/// certifies UNSAT only if a verified empty-clause `Add` is reached;
/// otherwise [`CertifyError::IncompleteProof`].
pub fn check_unsat_proof(trace: &DratTrace) -> Result<(), CertifyError> {
    let mut checker = RupChecker::default();
    for (index, step) in trace.steps().iter().enumerate() {
        match step {
            DratStep::Original(lits) => checker.add_unchecked(lits),
            DratStep::Add(lits) => {
                if !checker.is_rup(lits) {
                    return Err(CertifyError::ProofRejected {
                        step: index,
                        reason: format!(
                            "clause [{}] is not a unit-propagation consequence",
                            dimacs_text(lits)
                        ),
                    });
                }
                if lits.is_empty() {
                    return Ok(());
                }
                checker.add_unchecked(lits);
            }
            DratStep::Delete(lits) => {
                if !checker.delete(lits) {
                    return Err(CertifyError::ProofRejected {
                        step: index,
                        reason: format!("deletion of unknown clause [{}]", dimacs_text(lits)),
                    });
                }
            }
        }
    }
    Err(CertifyError::IncompleteProof)
}

fn dimacs_text(lits: &[Lit]) -> String {
    lits.iter()
        .map(|l| l.to_dimacs().to_string())
        .collect::<Vec<_>>()
        .join(" ")
}

/// The naive forward checker's clause store: pass-based unit propagation
/// to fixpoint, no watches. Linear scans keep it obviously correct; proof
/// checking runs off the solving hot path.
#[derive(Debug, Default)]
struct RupChecker {
    clauses: Vec<Vec<Lit>>,
    alive: Vec<bool>,
    num_vars: usize,
}

impl RupChecker {
    fn add_unchecked(&mut self, lits: &[Lit]) {
        for l in lits {
            self.num_vars = self.num_vars.max(l.var().index() + 1);
        }
        self.clauses.push(lits.to_vec());
        self.alive.push(true);
    }

    /// Removes one live clause with exactly these literals (order-
    /// insensitive); `false` if none matches.
    fn delete(&mut self, lits: &[Lit]) -> bool {
        let mut key: Vec<Lit> = lits.to_vec();
        key.sort_unstable();
        for (i, clause) in self.clauses.iter().enumerate() {
            if !self.alive[i] || clause.len() != key.len() {
                continue;
            }
            let mut sorted = clause.clone();
            sorted.sort_unstable();
            if sorted == key {
                self.alive[i] = false;
                return true;
            }
        }
        false
    }

    /// Reverse unit propagation: assume every literal of `lits` false and
    /// propagate over the live clauses to fixpoint; RUP holds iff a
    /// conflict (falsified live clause) appears.
    fn is_rup(&self, lits: &[Lit]) -> bool {
        let mut assign = vec![CHK_UNDEF; 2 * self.num_vars];
        for &l in lits {
            if l.var().index() >= self.num_vars {
                // A literal over a variable no clause mentions can never
                // be propagated against; it cannot make the check fail.
                continue;
            }
            if assign[l.code()] == CHK_TRUE {
                // lits contains both l and ¬l: assuming both false is
                // already contradictory, the clause is a tautology.
                return true;
            }
            assign[l.code()] = CHK_FALSE;
            assign[(!l).code()] = CHK_TRUE;
        }
        loop {
            let mut changed = false;
            for (i, clause) in self.clauses.iter().enumerate() {
                if !self.alive[i] {
                    continue;
                }
                let mut unassigned: Option<Lit> = None;
                let mut satisfied = false;
                let mut open = 0usize;
                for &l in clause {
                    match assign.get(l.code()).copied().unwrap_or(CHK_UNDEF) {
                        CHK_TRUE => {
                            satisfied = true;
                            break;
                        }
                        CHK_FALSE => {}
                        _ => {
                            open += 1;
                            unassigned = Some(l);
                        }
                    }
                }
                if satisfied {
                    continue;
                }
                match (open, unassigned) {
                    (0, _) => return true, // conflict: clause fully falsified
                    (1, Some(unit)) => {
                        assign[unit.code()] = CHK_TRUE;
                        assign[(!unit).code()] = CHK_FALSE;
                        changed = true;
                    }
                    _ => {}
                }
            }
            if !changed {
                return false;
            }
        }
    }
}

/// A [`SolveBackend`] decorator that verifies answers at a
/// [`CertifyLevel`] before handing them to the caller.
///
/// * Keeps a mirror [`Cnf`] of every clause the caller added.
/// * On `Sat` (level ≥ `Model`): the model must satisfy the mirror and
///   every assumption, else the answer becomes `Unknown` and
///   [`CertifyingBackend::certify_failure`] reports why.
/// * On assumption-free `Unsat` (level `Proof`): the DRAT trace is
///   forward-checked; a rejected or incomplete proof likewise degrades
///   the answer to `Unknown`.
pub struct CertifyingBackend {
    inner: Box<dyn SolveBackend>,
    level: CertifyLevel,
    /// Whether the inner backend actually records a DRAT trace.
    proof_active: bool,
    mirror: Cnf,
    failure: Option<CertifyError>,
    certified_models: u64,
}

impl fmt::Debug for CertifyingBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CertifyingBackend")
            .field("level", &self.level)
            .field("proof_active", &self.proof_active)
            .field("mirror_clauses", &self.mirror.clauses().len())
            .field("failure", &self.failure)
            .field("certified_models", &self.certified_models)
            .field("inner", &self.inner)
            .finish()
    }
}

impl CertifyingBackend {
    /// Wraps a freshly created backend. Call before adding any clause:
    /// proof logging can only be enabled on an empty solver.
    pub fn new(mut inner: Box<dyn SolveBackend>, level: CertifyLevel) -> CertifyingBackend {
        let proof_active = level == CertifyLevel::Proof && inner.enable_certify_proof();
        CertifyingBackend {
            inner,
            level,
            proof_active,
            mirror: Cnf::new(),
            failure: None,
            certified_models: 0,
        }
    }

    /// The level answers are verified at.
    pub fn level(&self) -> CertifyLevel {
        self.level
    }

    /// Whether the inner backend records a DRAT trace (true for the
    /// solver at [`CertifyLevel::Proof`]).
    pub fn proof_active(&self) -> bool {
        self.proof_active
    }

    fn check_sat(&mut self, assumptions: &[Lit]) -> Result<(), CertifyError> {
        let assignment: Vec<bool> = (0..self.mirror.num_vars())
            .map(|v| self.inner.model_value(Var::new(v)).unwrap_or(false))
            .collect();
        for &a in assumptions {
            if a.var().index() < assignment.len() && !a.apply(assignment[a.var().index()]) {
                return Err(CertifyError::UnsatisfiedAssumption { assumption: a });
            }
        }
        if !self.mirror.is_satisfied_by(&assignment) {
            let clause = self
                .mirror
                .clauses()
                .iter()
                .find(|c| !c.iter().any(|l| l.apply(assignment[l.var().index()])))
                .cloned()
                .unwrap_or_default();
            return Err(CertifyError::UnsatisfiedModel {
                num_vars: self.mirror.num_vars(),
                clause,
            });
        }
        Ok(())
    }
}

impl SolveBackend for CertifyingBackend {
    fn ensure_vars(&mut self, n: usize) {
        self.mirror.grow_to(n);
        self.inner.ensure_vars(n);
    }

    fn num_vars(&self) -> usize {
        self.inner.num_vars()
    }

    fn add_clause(&mut self, lits: &[Lit]) -> bool {
        self.mirror.add_clause(lits.to_vec());
        self.inner.add_clause(lits)
    }

    fn freeze_var(&mut self, var: Var) {
        self.inner.freeze_var(var);
    }

    fn solve_limited(&mut self, assumptions: &[Lit], limits: SolveLimits) -> SolveResult {
        let result = self.inner.solve_limited(assumptions, limits);
        if self.level == CertifyLevel::Off {
            return result;
        }
        match result {
            SolveResult::Sat => match self.check_sat(assumptions) {
                Ok(()) => {
                    self.certified_models += 1;
                    SolveResult::Sat
                }
                Err(err) => {
                    self.failure = Some(err);
                    SolveResult::Unknown
                }
            },
            SolveResult::Unsat if self.proof_active && assumptions.is_empty() => {
                let verdict = match self.inner.certify_proof() {
                    Some(trace) => check_unsat_proof(trace),
                    None => Err(CertifyError::IncompleteProof),
                };
                match verdict {
                    Ok(()) => SolveResult::Unsat,
                    Err(err) => {
                        self.failure = Some(err);
                        SolveResult::Unknown
                    }
                }
            }
            other => other,
        }
    }

    fn model_value(&self, var: Var) -> Option<bool> {
        self.inner.model_value(var)
    }

    fn final_assumption_core(&self) -> Vec<Lit> {
        self.inner.final_assumption_core()
    }

    fn stats(&self) -> SolverStats {
        let mut stats = self.inner.stats();
        stats.certified_models += self.certified_models;
        stats
    }

    fn certify_failure(&self) -> Option<CertifyError> {
        self.failure.clone()
    }

    fn certify_proof(&self) -> Option<&DratTrace> {
        self.inner.certify_proof()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BackendSpec;
    use crate::cdcl::Solver;
    use crate::random_sat::{generate, RandomSatConfig};

    fn lit(d: i64) -> Lit {
        Lit::from_dimacs(d)
    }

    #[test]
    fn level_parses_and_round_trips() {
        for level in [CertifyLevel::Off, CertifyLevel::Model, CertifyLevel::Proof] {
            assert_eq!(level.as_str().parse::<CertifyLevel>(), Ok(level));
            assert_eq!(level.to_string(), level.as_str());
        }
        assert_eq!("MODEL".parse(), Ok(CertifyLevel::Model));
        assert_eq!(" proof ".parse(), Ok(CertifyLevel::Proof));
        assert!("paranoid".parse::<CertifyLevel>().is_err());
        assert_eq!(CertifyLevel::default(), CertifyLevel::Off);
    }

    #[test]
    fn rup_checker_accepts_a_tiny_refutation() {
        // {a∨b, a∨¬b, ¬a∨b, ¬a∨¬b} is UNSAT; the resolution-style DRAT
        // derivation a, then ⊥ is RUP at each step.
        let mut trace = DratTrace::new();
        trace.push_original(vec![lit(1), lit(2)]);
        trace.push_original(vec![lit(1), lit(-2)]);
        trace.push_original(vec![lit(-1), lit(2)]);
        trace.push_original(vec![lit(-1), lit(-2)]);
        trace.push_add(vec![lit(1)]);
        trace.push_add(vec![]);
        assert_eq!(check_unsat_proof(&trace), Ok(()));
    }

    #[test]
    fn rup_checker_rejects_a_non_consequence() {
        let mut trace = DratTrace::new();
        trace.push_original(vec![lit(1), lit(2)]);
        trace.push_add(vec![lit(1)]); // not RUP: ¬1 does not conflict
        trace.push_add(vec![]);
        match check_unsat_proof(&trace) {
            Err(CertifyError::ProofRejected { step: 1, .. }) => {}
            other => panic!("expected rejection at step 1, got {other:?}"),
        }
    }

    #[test]
    fn rup_checker_flags_incomplete_proofs_and_bad_deletions() {
        let mut trace = DratTrace::new();
        trace.push_original(vec![lit(1)]);
        trace.push_original(vec![lit(-1)]);
        assert_eq!(
            check_unsat_proof(&trace),
            Err(CertifyError::IncompleteProof)
        );

        trace.push_delete(vec![lit(7)]);
        match check_unsat_proof(&trace) {
            Err(CertifyError::ProofRejected { step: 2, .. }) => {}
            other => panic!("expected deletion rejection, got {other:?}"),
        }
    }

    #[test]
    fn drat_text_skips_originals_and_marks_deletions() {
        let mut trace = DratTrace::new();
        trace.push_original(vec![lit(1), lit(2)]);
        trace.push_add(vec![lit(-1)]);
        trace.push_delete(vec![lit(1), lit(2)]);
        trace.push_add(vec![]);
        assert_eq!(trace.to_text(), "-1 0\nd 1 2 0\n0\n");
    }

    #[test]
    fn solver_proof_certifies_a_real_unsat_instance() {
        // Over-constrained random 3-SAT: almost surely UNSAT and small
        // enough that the naive checker replays the trace instantly.
        let cnf = generate(RandomSatConfig::from_ratio(18, 8.0, 3, 11)).unwrap();
        let mut solver = Solver::new();
        assert!(solver.enable_proof());
        solver.ensure_vars(cnf.num_vars());
        for clause in cnf.clauses() {
            solver.add_clause(clause.iter().copied());
        }
        assert_eq!(solver.solve(&[]), SolveResult::Unsat);
        let trace = solver.proof().expect("proof was enabled");
        assert!(!trace.is_empty());
        assert_eq!(check_unsat_proof(trace), Ok(()));
    }

    #[test]
    fn certifying_backend_passes_clean_answers_at_each_level() {
        for level in [CertifyLevel::Model, CertifyLevel::Proof] {
            let sat = generate(RandomSatConfig::from_ratio(30, 3.0, 3, 5)).unwrap();
            let mut backend = BackendSpec::Single.create_certified(level);
            backend.ensure_vars(sat.num_vars());
            for clause in sat.clauses() {
                backend.add_clause(clause);
            }
            assert_eq!(backend.solve(&[]), SolveResult::Sat, "{level}");
            assert!(backend.certify_failure().is_none(), "{level}");
            assert!(backend.stats().certified_models > 0, "{level}");

            let unsat = generate(RandomSatConfig::from_ratio(18, 8.0, 3, 11)).unwrap();
            let mut backend = BackendSpec::Single.create_certified(level);
            backend.ensure_vars(unsat.num_vars());
            for clause in unsat.clauses() {
                backend.add_clause(clause);
            }
            assert_eq!(backend.solve(&[]), SolveResult::Unsat, "{level}");
            assert!(backend.certify_failure().is_none(), "{level}");
        }
    }

    #[test]
    fn certifying_backend_respects_assumptions() {
        let mut backend = BackendSpec::Single.create_certified(CertifyLevel::Model);
        backend.ensure_vars(2);
        backend.add_clause(&[lit(1), lit(2)]);
        assert_eq!(backend.solve(&[lit(-1)]), SolveResult::Sat);
        assert_eq!(backend.model_value(Var::new(0)), Some(false));
        assert!(backend.certify_failure().is_none());
        // UNSAT under assumptions carries no empty clause in the trace;
        // proof level must not reject it.
        let mut backend = BackendSpec::Single.create_certified(CertifyLevel::Proof);
        backend.ensure_vars(1);
        backend.add_clause(&[lit(1)]);
        assert_eq!(backend.solve(&[lit(-1)]), SolveResult::Unsat);
        assert!(backend.certify_failure().is_none());
    }

    /// A backend that lies: claims `Sat` with an all-false model that
    /// cannot satisfy a positive unit clause.
    #[derive(Debug)]
    struct LyingBackend {
        vars: usize,
    }

    impl SolveBackend for LyingBackend {
        fn ensure_vars(&mut self, n: usize) {
            self.vars = self.vars.max(n);
        }
        fn num_vars(&self) -> usize {
            self.vars
        }
        fn add_clause(&mut self, _lits: &[Lit]) -> bool {
            true
        }
        fn solve_limited(&mut self, _a: &[Lit], _l: SolveLimits) -> SolveResult {
            SolveResult::Sat
        }
        fn model_value(&self, _var: Var) -> Option<bool> {
            Some(false)
        }
        fn stats(&self) -> SolverStats {
            SolverStats::default()
        }
    }

    #[test]
    fn a_lying_sat_answer_is_caught_and_degraded_to_unknown() {
        let mut backend =
            CertifyingBackend::new(Box::new(LyingBackend { vars: 0 }), CertifyLevel::Model);
        backend.ensure_vars(1);
        backend.add_clause(&[lit(1)]);
        assert_eq!(backend.solve(&[]), SolveResult::Unknown);
        match backend.certify_failure() {
            Some(CertifyError::UnsatisfiedModel { clause, .. }) => {
                assert_eq!(clause, vec![lit(1)]);
            }
            other => panic!("expected UnsatisfiedModel, got {other:?}"),
        }
        // A contradicted assumption is also caught.
        let mut backend =
            CertifyingBackend::new(Box::new(LyingBackend { vars: 0 }), CertifyLevel::Model);
        backend.ensure_vars(1);
        backend.add_clause(&[lit(1), lit(-1)]);
        assert_eq!(backend.solve(&[lit(1)]), SolveResult::Unknown);
        assert!(matches!(
            backend.certify_failure(),
            Some(CertifyError::UnsatisfiedAssumption { .. })
        ));
    }

    #[test]
    fn certify_errors_display_useful_text() {
        let err = CertifyError::ProofRejected {
            step: 7,
            reason: "not RUP".to_string(),
        };
        let text = err.to_string();
        assert!(text.contains("step 7"), "{text}");
        assert!(text.contains("not RUP"), "{text}");
        assert!(CertifyError::IncompleteProof
            .to_string()
            .contains("empty clause"));
    }
}
