//! SAT tooling for the Full-Lock reproduction.
//!
//! The paper's central claim is about *SAT instance hardness*: Full-Lock's
//! PLRs translate (via the Tseytin transformation) into CNF whose
//! clause/variable ratio sits in the hard 3-SAT band, blowing up the search
//! effort of each attack iteration. This crate supplies every SAT-side
//! ingredient:
//!
//! * [`Cnf`], [`Lit`], [`Var`] — formulas with DIMACS I/O and the
//!   clause/variable-ratio statistic ([`Cnf`]);
//! * [`tseytin`] — netlist → CNF encoding (Table 1 of the paper), with
//!   shared-input encoding for miter construction;
//! * [`random_sat`] — fixed-length random k-SAT generation (Fig 1's
//!   workload);
//! * [`dpll`] — the instrumented, textbook DPLL of Algorithm 1, counting
//!   recursive calls;
//! * [`cdcl`] — a MiniSAT-class CDCL solver (watched literals, 1UIP
//!   learning, VSIDS, Luby restarts, incremental solving) that powers
//!   every attack;
//! * [`backend`] — the [`SolveBackend`] trait the attack engines solve
//!   through, and the [`BackendSpec`] handle that builds one;
//! * [`certify`] — result certification ([`CertifyLevel`]): model
//!   re-checking of every SAT answer, DRAT proof logging + forward
//!   checking of UNSAT answers, and typed [`CertifyError`]s so no wrong
//!   answer escapes silently;
//! * [`ambient`] — the grammars of the `FULLLOCK_*` environment knobs
//!   and one strict check of them all ([`AmbientConfig::parse`]), which
//!   captures the wall-clock budget; each other knob is read by the
//!   layer it steers;
//! * [`faults`] — the named fault-injection sites (failpoints) the
//!   chaos suites arm, including the harness's disk and worker sites.
//!
//! # Example
//!
//! ```
//! use fulllock_sat::cdcl::{SolveResult, Solver};
//! use fulllock_sat::random_sat::{generate, RandomSatConfig};
//!
//! # fn main() -> Result<(), fulllock_sat::SatError> {
//! let cnf = generate(RandomSatConfig::from_ratio(40, 3.0, 3, 0))?;
//! let mut solver = Solver::from_cnf(&cnf);
//! // Ratio 3 is under-constrained: almost surely satisfiable.
//! assert_eq!(solver.solve(&[]), SolveResult::Sat);
//! assert!(cnf.is_satisfied_by(solver.model()));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod ambient;
pub mod backend;
pub mod cdcl;
pub mod certify;
mod cnf;
pub mod dpll;
pub mod equiv;
mod error;
pub mod faults;
mod lit;
pub mod random_sat;
pub mod tseytin;

pub use ambient::{AmbientConfig, AmbientError};
pub use backend::{BackendSpec, SolveBackend};
pub use certify::{CertifyError, CertifyLevel};
pub use cnf::Cnf;
pub use error::SatError;
pub use lit::{Lit, Var};

/// Crate-wide result alias.
pub type Result<T, E = SatError> = std::result::Result<T, E>;
