//! The [`SolveBackend`] abstraction: the interface attack engines solve
//! through.
//!
//! Attack engines (the DIP loop in `fulllock-attacks`) talk to a
//! `Box<dyn SolveBackend>`: the sequential [`Solver`], or that solver
//! behind a [`CertifyingBackend`] that checks its answers. The trait
//! also lets tests substitute a fake solver. Callers pick the solver's
//! parameters with a [`BackendSpec`], which is `Copy` and serialises
//! naturally into configuration structs.
//!
//! # Example
//!
//! ```
//! use fulllock_sat::backend::{BackendSpec, SolveBackend};
//! use fulllock_sat::cdcl::SolveResult;
//! use fulllock_sat::Lit;
//!
//! let mut backend = BackendSpec::Single.create();
//! backend.ensure_vars(2);
//! let a = Lit::from_dimacs(1);
//! let b = Lit::from_dimacs(2);
//! backend.add_clause(&[a, b]);
//! backend.add_clause(&[!a]);
//! assert_eq!(backend.solve(&[]), SolveResult::Sat);
//! assert_eq!(backend.model_value(b.var()), Some(true));
//! ```

use crate::cdcl::{SolveLimits, SolveResult, Solver, SolverConfig, SolverStats};
use crate::certify::{CertifyError, CertifyLevel, CertifyingBackend, DratTrace};
use crate::{Lit, Var};

/// An incremental SAT engine: the sequential [`Solver`], a
/// [`CertifyingBackend`] around one, or anything else that can answer
/// clause/assume queries.
///
/// Object-safe by design — attack engines hold a `Box<dyn SolveBackend>`.
pub trait SolveBackend: std::fmt::Debug + Send {
    /// Ensures at least `n` variables exist.
    fn ensure_vars(&mut self, n: usize);

    /// Number of variables known to the backend.
    fn num_vars(&self) -> usize;

    /// Adds a clause. Returns `false` if the formula is now trivially
    /// unsatisfiable.
    fn add_clause(&mut self, lits: &[Lit]) -> bool;

    /// Declares `var` an interface variable: inprocessing must never
    /// eliminate it (clauses and assumptions will keep mentioning it
    /// between solves). A no-op for backends without inprocessing.
    fn freeze_var(&mut self, _var: Var) {}

    /// Solves under assumptions with a resource budget; budget exhaustion
    /// returns [`SolveResult::Unknown`].
    fn solve_limited(&mut self, assumptions: &[Lit], limits: SolveLimits) -> SolveResult;

    /// Solves under assumptions with no resource limits.
    fn solve(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.solve_limited(assumptions, SolveLimits::default())
    }

    /// The last model's value for `var` (meaningful only right after a
    /// [`SolveResult::Sat`]).
    fn model_value(&self, var: Var) -> Option<bool>;

    /// The subset of the last solve call's assumptions proven jointly
    /// unsatisfiable (see [`Solver::final_assumption_core`]). Meaningful
    /// only right after a [`SolveResult::Unsat`]; empty when the formula
    /// is UNSAT regardless of assumptions, or for backends that do not
    /// track cores.
    fn final_assumption_core(&self) -> Vec<Lit> {
        Vec::new()
    }

    /// Lifetime statistics.
    fn stats(&self) -> SolverStats;

    /// Why the most recent answer failed certification, if it did — set by
    /// a [`CertifyingBackend`] wrapper (failed model/proof check).
    fn certify_failure(&self) -> Option<CertifyError> {
        None
    }

    /// Asks the backend to record a DRAT trace of its derivation. Returns
    /// `false` if it cannot (clauses already added, or a backend that
    /// keeps no trace) — the caller should degrade to model-level
    /// checking.
    fn enable_certify_proof(&mut self) -> bool {
        false
    }

    /// The recorded DRAT trace, when
    /// [`enable_certify_proof`](Self::enable_certify_proof) succeeded
    /// earlier.
    fn certify_proof(&self) -> Option<&DratTrace> {
        None
    }
}

impl SolveBackend for Solver {
    fn ensure_vars(&mut self, n: usize) {
        Solver::ensure_vars(self, n);
    }

    fn num_vars(&self) -> usize {
        Solver::num_vars(self)
    }

    fn add_clause(&mut self, lits: &[Lit]) -> bool {
        Solver::add_clause(self, lits.iter().copied())
    }

    fn freeze_var(&mut self, var: Var) {
        Solver::freeze_var(self, var);
    }

    fn solve_limited(&mut self, assumptions: &[Lit], limits: SolveLimits) -> SolveResult {
        Solver::solve_limited(self, assumptions, limits)
    }

    fn model_value(&self, var: Var) -> Option<bool> {
        Solver::model_value(self, var)
    }

    fn final_assumption_core(&self) -> Vec<Lit> {
        Solver::final_assumption_core(self).to_vec()
    }

    fn stats(&self) -> SolverStats {
        *Solver::stats(self)
    }

    fn enable_certify_proof(&mut self) -> bool {
        Solver::enable_proof(self)
    }

    fn certify_proof(&self) -> Option<&DratTrace> {
        Solver::proof(self)
    }
}

/// Which solver configuration to instantiate — the `Copy` handle that
/// attack and bench configuration structs carry.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum BackendSpec {
    /// One sequential CDCL [`Solver`] with the default configuration.
    #[default]
    Single,
    /// One sequential CDCL [`Solver`] with explicit search parameters —
    /// how benches and experiments toggle
    /// [`SolverConfig::inprocess`](crate::cdcl::SolverConfig::inprocess).
    Configured(SolverConfig),
}

impl BackendSpec {
    /// Instantiates an empty backend.
    pub fn create(self) -> Box<dyn SolveBackend> {
        match self {
            BackendSpec::Single => Box::new(Solver::new()),
            BackendSpec::Configured(config) => Box::new(Solver::with_config(config)),
        }
    }

    /// Instantiates an empty backend whose answers are verified at
    /// `level` (see [`CertifyingBackend`]); [`CertifyLevel::Off`] returns
    /// the bare backend unchanged.
    pub fn create_certified(self, level: CertifyLevel) -> Box<dyn SolveBackend> {
        if level == CertifyLevel::Off {
            self.create()
        } else {
            Box::new(CertifyingBackend::new(self.create(), level))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_is_single() {
        assert_eq!(BackendSpec::default(), BackendSpec::Single);
    }
}
