//! The [`SolveBackend`] abstraction: one interface over the sequential
//! [`Solver`] and the racing [`PortfolioSolver`].
//!
//! Attack engines (the DIP loop in `fulllock-attacks`) talk to a
//! `Box<dyn SolveBackend>` and never care whether one CDCL instance or a
//! diversified portfolio answers each query. Callers pick the engine with
//! a [`BackendSpec`], which is `Copy` and serialises naturally into
//! configuration structs.
//!
//! # Example
//!
//! ```
//! use fulllock_sat::backend::{BackendSpec, SolveBackend};
//! use fulllock_sat::cdcl::SolveResult;
//! use fulllock_sat::portfolio::PortfolioConfig;
//! use fulllock_sat::Lit;
//!
//! let spec = BackendSpec::Portfolio(PortfolioConfig::with_threads(2));
//! let mut backend = spec.create();
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
use crate::portfolio::{PortfolioConfig, PortfolioSolver};
use crate::{Lit, Var};

/// An incremental SAT engine: the sequential [`Solver`], the racing
/// [`PortfolioSolver`], or anything else that can answer clause/assume
/// queries.
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

    /// Lifetime statistics — for a portfolio, the counters are
    /// [`merge`](SolverStats::merge)d across workers (rates must be
    /// derived *after* merging, see
    /// [`props_per_cpu_sec`](SolverStats::props_per_cpu_sec)).
    fn stats(&self) -> SolverStats;

    /// How many solver instances work on each query (1 unless this is a
    /// portfolio).
    fn num_threads(&self) -> usize {
        1
    }

    /// Human-readable records of workers that dropped out of solves
    /// (panicked, stalled, retired on a memory cap). Empty for a
    /// sequential solver and for an undisturbed portfolio.
    fn worker_failures(&self) -> Vec<String> {
        Vec::new()
    }

    /// Why the most recent answer failed certification, if it did — set by
    /// a [`CertifyingBackend`] wrapper (failed model/proof check) or by a
    /// portfolio that caught its workers disagreeing.
    fn certify_failure(&self) -> Option<CertifyError> {
        None
    }

    /// Asks the backend to record a DRAT trace of its derivation. Returns
    /// `false` if it cannot (portfolio, or clauses already added) — the
    /// caller should degrade to model-level checking.
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

impl SolveBackend for PortfolioSolver {
    fn ensure_vars(&mut self, n: usize) {
        PortfolioSolver::ensure_vars(self, n);
    }

    fn num_vars(&self) -> usize {
        PortfolioSolver::num_vars(self)
    }

    fn add_clause(&mut self, lits: &[Lit]) -> bool {
        PortfolioSolver::add_clause(self, lits.iter().copied())
    }

    fn freeze_var(&mut self, var: Var) {
        PortfolioSolver::freeze_var(self, var);
    }

    fn solve_limited(&mut self, assumptions: &[Lit], limits: SolveLimits) -> SolveResult {
        PortfolioSolver::solve_limited(self, assumptions, limits)
    }

    fn model_value(&self, var: Var) -> Option<bool> {
        PortfolioSolver::model_value(self, var)
    }

    fn final_assumption_core(&self) -> Vec<Lit> {
        PortfolioSolver::final_assumption_core(self)
    }

    fn stats(&self) -> SolverStats {
        PortfolioSolver::stats(self)
    }

    fn num_threads(&self) -> usize {
        self.num_workers()
    }

    fn worker_failures(&self) -> Vec<String> {
        self.failures()
            .iter()
            .map(|f| format!("worker {} {}", f.worker, f.reason))
            .collect()
    }

    fn certify_failure(&self) -> Option<CertifyError> {
        self.disagreement().map(
            |(sat_worker, unsat_worker)| CertifyError::SolverDisagreement {
                sat_worker,
                unsat_worker,
            },
        )
    }
}

/// Which solving engine to instantiate — the `Copy` handle that attack and
/// bench configuration structs carry.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum BackendSpec {
    /// One sequential CDCL [`Solver`] with the default configuration.
    #[default]
    Single,
    /// One sequential CDCL [`Solver`] with explicit search parameters —
    /// how benches and experiments toggle e.g.
    /// [`SolverConfig::inprocess`](crate::cdcl::SolverConfig::inprocess).
    Configured(SolverConfig),
    /// A racing [`PortfolioSolver`].
    Portfolio(PortfolioConfig),
}

impl BackendSpec {
    /// A portfolio spec with `threads` workers and default dynamics.
    pub fn portfolio(threads: usize) -> BackendSpec {
        BackendSpec::Portfolio(PortfolioConfig::with_threads(threads))
    }

    /// The backend a thread count selects: the sequential solver for at
    /// most one thread, a racing portfolio of `threads` workers otherwise.
    pub fn for_threads(threads: usize) -> BackendSpec {
        if threads <= 1 {
            BackendSpec::Single
        } else {
            BackendSpec::portfolio(threads)
        }
    }

    /// Instantiates an empty backend.
    pub fn create(self) -> Box<dyn SolveBackend> {
        match self {
            BackendSpec::Single => Box::new(Solver::new()),
            BackendSpec::Configured(config) => Box::new(Solver::with_config(config)),
            BackendSpec::Portfolio(config) => Box::new(PortfolioSolver::new(config)),
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

    /// How many solver instances the backend will race.
    pub fn num_threads(self) -> usize {
        match self {
            BackendSpec::Single | BackendSpec::Configured(_) => 1,
            BackendSpec::Portfolio(config) => config.threads.max(1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random_sat::{generate, RandomSatConfig};

    fn solve_via(spec: BackendSpec, seed: u64) -> (SolveResult, SolverStats) {
        let cnf = generate(RandomSatConfig::from_ratio(30, 4.2, 3, seed)).unwrap();
        let mut backend = spec.create();
        backend.ensure_vars(cnf.num_vars());
        for clause in cnf.clauses() {
            backend.add_clause(clause);
        }
        (backend.solve(&[]), backend.stats())
    }

    #[test]
    fn single_and_portfolio_backends_agree() {
        for seed in 0..6 {
            let (single, _) = solve_via(BackendSpec::Single, seed);
            let (portfolio, stats) = solve_via(BackendSpec::portfolio(2), seed);
            assert_eq!(single, portfolio, "seed {seed}");
            // Inprocessing can decide small instances with zero search
            // decisions, so count solve calls instead.
            assert!(stats.solves > 0);
        }
    }

    #[test]
    fn spec_reports_thread_counts() {
        assert_eq!(BackendSpec::Single.num_threads(), 1);
        assert_eq!(BackendSpec::portfolio(4).num_threads(), 4);
        assert_eq!(BackendSpec::default(), BackendSpec::Single);
        assert_eq!(BackendSpec::Single.create().num_threads(), 1);
        assert_eq!(BackendSpec::portfolio(3).create().num_threads(), 3);
    }
}
