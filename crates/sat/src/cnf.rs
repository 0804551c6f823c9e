//! CNF formulas, their statistics, and DIMACS I/O.

use std::fmt::Write as _;

use crate::{Lit, SatError, Var};

/// A CNF formula: a conjunction of clauses over densely-numbered variables.
///
/// The clause/variable ratio of a formula — central to the paper's
/// SAT-hardness argument (hard instances live at ratios ≈ 3–6, peaking near
/// 4.3) — is exposed via [`Cnf::clause_to_variable_ratio`].
///
/// # Example
///
/// ```
/// use fulllock_sat::{Cnf, Lit};
///
/// let mut cnf = Cnf::new();
/// let a = cnf.new_var();
/// let b = cnf.new_var();
/// cnf.add_clause([Lit::positive(a), Lit::positive(b)]);
/// cnf.add_clause([Lit::negative(a)]);
/// assert_eq!(cnf.num_vars(), 2);
/// assert_eq!(cnf.num_clauses(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Cnf {
    num_vars: usize,
    clauses: Vec<Vec<Lit>>,
}

impl Cnf {
    /// Creates an empty formula with no variables.
    pub fn new() -> Cnf {
        Cnf::default()
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var::new(self.num_vars);
        self.num_vars += 1;
        v
    }

    /// Allocates `n` fresh variables.
    pub fn new_vars(&mut self, n: usize) -> Vec<Var> {
        (0..n).map(|_| self.new_var()).collect()
    }

    /// Ensures at least `n` variables exist (used when importing DIMACS).
    pub fn grow_to(&mut self, n: usize) {
        self.num_vars = self.num_vars.max(n);
    }

    /// Appends a clause. Duplicate literals are kept verbatim (callers that
    /// care can deduplicate); variables referenced beyond the current count
    /// grow the variable space.
    pub fn add_clause(&mut self, lits: impl IntoIterator<Item = Lit>) {
        let clause: Vec<Lit> = lits.into_iter().collect();
        for &l in &clause {
            self.grow_to(l.var().index() + 1);
        }
        self.clauses.push(clause);
    }

    /// Prepends `guard` to every clause from index `start` onward — the
    /// selector-literal transform. With `guard = ¬s`, the gated clauses are
    /// active only while `s` is asserted as an assumption, so a caller can
    /// later disable the whole group (and, on UNSAT, learn from the failed
    /// assumptions which group conflicted). Callers record
    /// [`Cnf::num_clauses`] before encoding a group, then gate the range.
    pub fn gate_clauses_from(&mut self, start: usize, guard: Lit) {
        self.grow_to(guard.var().index() + 1);
        for clause in self.clauses.iter_mut().skip(start) {
            clause.insert(0, guard);
        }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of clauses.
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// The clauses, in insertion order.
    pub fn clauses(&self) -> &[Vec<Lit>] {
        &self.clauses
    }

    /// Clauses per variable — the paper's SAT-hardness metric (Fig 1,
    /// Fig 7). Returns 0.0 for a formula with no variables.
    pub fn clause_to_variable_ratio(&self) -> f64 {
        if self.num_vars == 0 {
            0.0
        } else {
            self.clauses.len() as f64 / self.num_vars as f64
        }
    }

    /// Total number of literal occurrences.
    pub fn num_literals(&self) -> usize {
        self.clauses.iter().map(Vec::len).sum()
    }

    /// Whether an assignment (one value per variable) satisfies every
    /// clause.
    ///
    /// # Panics
    ///
    /// Panics if `assignment.len() < self.num_vars()`.
    pub fn is_satisfied_by(&self, assignment: &[bool]) -> bool {
        assert!(
            assignment.len() >= self.num_vars,
            "assignment covers {} of {} variables",
            assignment.len(),
            self.num_vars
        );
        self.clauses
            .iter()
            .all(|c| c.iter().any(|l| l.apply(assignment[l.var().index()])))
    }

    /// Serializes to DIMACS `cnf` format.
    pub fn to_dimacs(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "p cnf {} {}", self.num_vars, self.clauses.len());
        for clause in &self.clauses {
            for lit in clause {
                let _ = write!(out, "{} ", lit.to_dimacs());
            }
            let _ = writeln!(out, "0");
        }
        out
    }

    /// Parses DIMACS `cnf` text. Comments (`c` lines) are ignored; the
    /// problem line is optional (sizes are inferred when missing).
    ///
    /// # Errors
    ///
    /// Returns [`SatError::Dimacs`] for malformed input.
    pub fn from_dimacs(text: &str) -> Result<Cnf, SatError> {
        let mut cnf = Cnf::new();
        let mut declared_vars = None;
        let mut current: Vec<Lit> = Vec::new();
        for (idx, line) in text.lines().enumerate() {
            let line_no = idx + 1;
            let line = line.trim();
            if line.is_empty() || line.starts_with('c') {
                continue;
            }
            if let Some(rest) = line.strip_prefix('p') {
                let mut parts = rest.split_whitespace();
                if parts.next() != Some("cnf") {
                    return Err(SatError::Dimacs {
                        line: line_no,
                        message: "expected `p cnf <vars> <clauses>`".into(),
                    });
                }
                let vars: usize =
                    parts
                        .next()
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| SatError::Dimacs {
                            line: line_no,
                            message: "missing variable count".into(),
                        })?;
                if vars > i32::MAX as usize {
                    return Err(SatError::Dimacs {
                        line: line_no,
                        message: format!("variable count {vars} exceeds the literal space"),
                    });
                }
                declared_vars = Some(vars);
                continue;
            }
            for token in line.split_whitespace() {
                let value: i64 = token.parse().map_err(|_| SatError::Dimacs {
                    line: line_no,
                    message: format!("bad literal {token:?}"),
                })?;
                // A literal packs `2·var + sign` into a u32, so magnitudes
                // beyond i32::MAX are malformed input, not a request for
                // billions of variables.
                if value.unsigned_abs() > i32::MAX as u64 {
                    return Err(SatError::Dimacs {
                        line: line_no,
                        message: format!("literal {value} exceeds the literal space"),
                    });
                }
                if value == 0 {
                    cnf.add_clause(current.drain(..));
                } else {
                    current.push(Lit::from_dimacs(value));
                }
            }
        }
        if !current.is_empty() {
            cnf.add_clause(current.drain(..));
        }
        if let Some(v) = declared_vars {
            cnf.grow_to(v);
        }
        Ok(cnf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(i: i64) -> Lit {
        Lit::from_dimacs(i)
    }

    #[test]
    fn ratio() {
        let mut cnf = Cnf::new();
        cnf.new_vars(10);
        for _ in 0..43 {
            cnf.add_clause([lit(1), lit(-2), lit(3)]);
        }
        assert!((cnf.clause_to_variable_ratio() - 4.3).abs() < 1e-12);
    }

    #[test]
    fn empty_formula_ratio_is_zero() {
        assert_eq!(Cnf::new().clause_to_variable_ratio(), 0.0);
    }

    #[test]
    fn satisfaction_check() {
        let mut cnf = Cnf::new();
        cnf.add_clause([lit(1), lit(2)]);
        cnf.add_clause([lit(-1)]);
        assert!(cnf.is_satisfied_by(&[false, true]));
        assert!(!cnf.is_satisfied_by(&[true, true]));
        assert!(!cnf.is_satisfied_by(&[false, false]));
    }

    #[test]
    fn dimacs_round_trip() {
        let mut cnf = Cnf::new();
        cnf.add_clause([lit(1), lit(-3)]);
        cnf.add_clause([lit(2)]);
        let text = cnf.to_dimacs();
        let back = Cnf::from_dimacs(&text).unwrap();
        assert_eq!(back, cnf);
    }

    #[test]
    fn dimacs_parses_comments_and_header() {
        let text = "c a comment\np cnf 3 2\n1 -2 0\n3 0\n";
        let cnf = Cnf::from_dimacs(text).unwrap();
        assert_eq!(cnf.num_vars(), 3);
        assert_eq!(cnf.num_clauses(), 2);
    }

    #[test]
    fn dimacs_bad_token_errors() {
        assert!(matches!(
            Cnf::from_dimacs("1 banana 0\n"),
            Err(SatError::Dimacs { line: 1, .. })
        ));
    }

    #[test]
    fn dimacs_rejects_literals_beyond_the_u32_variable_space() {
        // Each of these used to panic inside `Var::new` instead of
        // returning the typed parse error.
        for text in [
            "2147483648 0\n",
            "-2147483648 0\n",
            &format!("{} 0\n", i64::MIN),
            "p cnf 2147483648 1\n1 0\n",
        ] {
            let err = Cnf::from_dimacs(text).expect_err("must be rejected");
            assert!(
                matches!(err, SatError::Dimacs { .. }),
                "unexpected error for {text:?}: {err}"
            );
        }
        // The boundary itself is representable (2·var + sign fits a u32).
        let cnf = Cnf::from_dimacs("2147483647 0\n").expect("i32::MAX is a valid literal");
        assert_eq!(cnf.num_vars(), i32::MAX as usize);
    }

    #[test]
    fn gating_prepends_the_guard_to_the_range() {
        let mut cnf = Cnf::new();
        cnf.add_clause([lit(1), lit(2)]);
        let start = cnf.num_clauses();
        cnf.add_clause([lit(-1)]);
        cnf.add_clause([lit(2), lit(3)]);
        cnf.gate_clauses_from(start, lit(-4));
        assert_eq!(cnf.clauses()[0], vec![lit(1), lit(2)]); // untouched
        assert_eq!(cnf.clauses()[1], vec![lit(-4), lit(-1)]);
        assert_eq!(cnf.clauses()[2], vec![lit(-4), lit(2), lit(3)]);
        assert_eq!(cnf.num_vars(), 4);
    }

    #[test]
    fn add_clause_grows_vars() {
        let mut cnf = Cnf::new();
        cnf.add_clause([lit(5)]);
        assert_eq!(cnf.num_vars(), 5);
    }

    #[test]
    fn literal_count() {
        let mut cnf = Cnf::new();
        cnf.add_clause([lit(1), lit(2)]);
        cnf.add_clause([lit(-1)]);
        assert_eq!(cnf.num_literals(), 3);
    }
}
