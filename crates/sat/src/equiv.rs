//! SAT-based combinational equivalence checking (CEC), folding and
//! hashing before any SAT call.
//!
//! [`check`] and [`check_under_constants`] share one path:
//!
//! 1. **One netlist.** Both netlists are copied into a single netlist
//!    whose primary inputs are the shared (free) inputs. Inputs of `a`
//!    tied to a constant (the key, when a locked circuit is checked under
//!    it) become `Const0` / `Const1` cells.
//! 2. **Fold and hash.** [`opt::optimize`] runs on that netlist. Constant
//!    folding pushes the constants through the key logic, and structural
//!    hashing merges every gate of one copy with its gate-for-gate twin in
//!    the other. An output pair that lands on one signal is proven equal.
//! 3. **SAT on the rest.** Only the fanin cone of the output pairs still
//!    open is Tseytin-encoded, under a miter over those pairs. When no
//!    pair is open, the solver is never called.
//!
//! Outside its key logic, a locked circuit is a copy of the original, so
//! under a fixed key most output pairs close in step 2 and the solver sees
//! a small residue instead of two full circuit copies.
//!
//! **What a verdict trusts.** An `Equivalent` verdict rests on
//! [`opt::optimize`]'s rewrite rules as well as on the solver: a rule that
//! changed a function could merge two signals that differ. The rules are
//! guarded against brute force, never against this module:
//! `optimizer_is_equivalence_preserving` and `cec_counterexamples_are_genuine`
//! (`crates/sat/tests/proptest_sat.rs`) judge by exhaustive simulation, the
//! unit tests of `opt` by random simulation, and
//! `prove_key_agrees_with_brute_force` (`crates/core/tests/proptest_locking.rs`)
//! compares whole key proofs with exhaustive simulation.
//!
//! The reproduction uses CEC to prove that locking with the correct key
//! is *exactly* functionality-preserving (not just on sampled patterns),
//! and that keys recovered by attacks are exact.

use fulllock_netlist::{opt, topo, GateKind, Netlist, SignalId};

use crate::cdcl::{SolveLimits, SolveResult, Solver};
use crate::tseytin::encode_gate;
use crate::{Cnf, Lit, SatError, Var};

/// Verdict of an equivalence check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EquivResult {
    /// The two netlists compute the same function.
    Equivalent,
    /// They differ on this input pattern (one value per primary input).
    Counterexample(Vec<bool>),
    /// The solver hit a resource limit first.
    Unknown,
}

impl EquivResult {
    /// Whether equivalence was proven.
    pub fn is_equivalent(&self) -> bool {
        *self == EquivResult::Equivalent
    }
}

/// Checks whether two acyclic netlists with identical interfaces compute
/// the same function. See the [module docs](self) for how.
///
/// # Errors
///
/// Returns [`SatError::BadConfig`] if the input/output counts differ or
/// either netlist is cyclic.
///
/// # Example
///
/// ```
/// use fulllock_netlist::{GateKind, Netlist};
/// use fulllock_sat::equiv;
///
/// # fn main() -> Result<(), fulllock_sat::SatError> {
/// // De Morgan: ¬(a ∧ b) ≡ ¬a ∨ ¬b.
/// let mut lhs = Netlist::new("nand");
/// let a = lhs.add_input("a");
/// let b = lhs.add_input("b");
/// let y = lhs.add_gate(GateKind::Nand, &[a, b]).unwrap();
/// lhs.mark_output(y);
///
/// let mut rhs = Netlist::new("or_of_nots");
/// let a = rhs.add_input("a");
/// let b = rhs.add_input("b");
/// let na = rhs.add_gate(GateKind::Not, &[a]).unwrap();
/// let nb = rhs.add_gate(GateKind::Not, &[b]).unwrap();
/// let y = rhs.add_gate(GateKind::Or, &[na, nb]).unwrap();
/// rhs.mark_output(y);
///
/// assert!(equiv::check(&lhs, &rhs, None)?.is_equivalent());
/// # Ok(())
/// # }
/// ```
pub fn check(
    a: &Netlist,
    b: &Netlist,
    limits: Option<SolveLimits>,
) -> Result<EquivResult, SatError> {
    check_under_constants(a, &[], b, limits)
}

/// Checks `a`, with some of its inputs tied to constants, against `b` —
/// the building block for checking a locked circuit under a fixed key:
/// `check_under_constants(locked, &[(key_input_position, bit), …], original)`.
///
/// `a_constants` lists (input position in `a`, forced value); the
/// remaining inputs of `a` are matched positionally with `b`'s inputs, and
/// a counterexample gives one value per input of `b`.
///
/// # Errors
///
/// Returns [`SatError::BadConfig`] if a constant position is out of range
/// or repeated, if the free-input or output counts differ, or if either
/// netlist is cyclic.
pub fn check_under_constants(
    a: &Netlist,
    a_constants: &[(usize, bool)],
    b: &Netlist,
    limits: Option<SolveLimits>,
) -> Result<EquivResult, SatError> {
    let mut tied: Vec<Option<bool>> = vec![None; a.inputs().len()];
    for &(position, value) in a_constants {
        match tied.get_mut(position) {
            Some(slot @ None) => *slot = Some(value),
            _ => {
                return Err(SatError::BadConfig(format!(
                    "constant input position {position} is out of range or repeated"
                )))
            }
        }
    }
    let free_count = tied.iter().filter(|t| t.is_none()).count();
    if free_count != b.inputs().len() {
        return Err(SatError::BadConfig(format!(
            "free input counts differ: {} vs {}",
            free_count,
            b.inputs().len()
        )));
    }
    if a.outputs().len() != b.outputs().len() {
        return Err(SatError::BadConfig(format!(
            "output counts differ: {} vs {}",
            a.outputs().len(),
            b.outputs().len()
        )));
    }

    // 1. One netlist: shared inputs, `a`'s constants as tie cells.
    let mut miter = Netlist::new("miter");
    let shared: Vec<SignalId> = b
        .inputs()
        .iter()
        .map(|_| miter.add_anonymous_input())
        .collect();
    let mut next_shared = shared.iter();
    let a_inputs = tied
        .iter()
        .map(|t| match t {
            Some(true) => miter.add_gate(GateKind::Const1, &[]),
            Some(false) => miter.add_gate(GateKind::Const0, &[]),
            None => Ok(*next_shared.next().expect("free inputs counted above")),
        })
        .collect::<Result<Vec<SignalId>, _>>()?;
    let outs_a = copy_into(&mut miter, a, &a_inputs)?;
    let outs_b = copy_into(&mut miter, b, &shared)?;

    // 2. Fold and hash; a pair on one signal is proven.
    let folded = opt::optimize(&miter)?;
    let folded_sig = |s: SignalId| folded.remap[s.index()].expect("outputs survive optimization");
    let open: Vec<(SignalId, SignalId)> = outs_a
        .iter()
        .zip(&outs_b)
        .map(|(&x, &y)| (folded_sig(x), folded_sig(y)))
        .filter(|(x, y)| x != y)
        .collect();
    if open.is_empty() {
        return Ok(EquivResult::Equivalent);
    }

    // 3. SAT on the fanin cone of the open pairs. `optimize` appends every
    //    gate after its fan-ins, so index order is a topological order.
    let nl = &folded.netlist;
    let mut in_cone = vec![false; nl.len()];
    let mut stack: Vec<SignalId> = open.iter().flat_map(|&(x, y)| [x, y]).collect();
    while let Some(s) = stack.pop() {
        if !std::mem::replace(&mut in_cone[s.index()], true) {
            stack.extend_from_slice(nl.node(s).fanins());
        }
    }
    let mut cnf = Cnf::new();
    let mut vars: Vec<Option<Var>> = vec![None; nl.len()];
    for s in nl.signals().filter(|s| in_cone[s.index()]) {
        let v = cnf.new_var();
        let node = nl.node(s);
        if let Some(kind) = node.gate_kind() {
            let ins: Vec<Var> = node
                .fanins()
                .iter()
                .map(|f| vars[f.index()].expect("fan-ins precede their gate"))
                .collect();
            encode_gate(&mut cnf, kind, v, &ins);
        }
        vars[s.index()] = Some(v);
    }
    let var = |s: SignalId| vars[s.index()].expect("open outputs are in the cone");
    let diffs: Vec<Lit> = open
        .iter()
        .map(|&(x, y)| {
            let d = cnf.new_var();
            encode_gate(&mut cnf, GateKind::Xor, d, &[var(x), var(y)]);
            Lit::positive(d)
        })
        .collect();
    cnf.add_clause(diffs);

    let mut solver = Solver::from_cnf(&cnf);
    match solver.solve_limited(&[], limits.unwrap_or_default()) {
        SolveResult::Unsat => Ok(EquivResult::Equivalent),
        SolveResult::Unknown => Ok(EquivResult::Unknown),
        // Inputs outside the cone cannot reach an open pair: any value
        // keeps the counterexample genuine.
        SolveResult::Sat => Ok(EquivResult::Counterexample(
            nl.inputs()
                .iter()
                .map(|s| {
                    vars[s.index()]
                        .and_then(|v| solver.model_value(v))
                        .unwrap_or(false)
                })
                .collect(),
        )),
    }
}

/// Copies `src` into `dst` with its inputs driven by `inputs` (one per
/// primary input of `src`), marks its outputs as outputs of `dst`, and
/// returns their signals.
///
/// # Errors
///
/// [`SatError::BadConfig`] when `src` is cyclic.
fn copy_into(
    dst: &mut Netlist,
    src: &Netlist,
    inputs: &[SignalId],
) -> Result<Vec<SignalId>, SatError> {
    let order = topo::topo_order(src).map_err(|_| {
        SatError::BadConfig("equivalence checking requires acyclic netlists".into())
    })?;
    let mut map: Vec<Option<SignalId>> = vec![None; src.len()];
    for (&sig, &to) in src.inputs().iter().zip(inputs) {
        map[sig.index()] = Some(to);
    }
    for s in order {
        let node = src.node(s);
        let Some(kind) = node.gate_kind() else {
            continue;
        };
        let fanins: Vec<SignalId> = node
            .fanins()
            .iter()
            .map(|f| map[f.index()].expect("topological order resolves fan-ins"))
            .collect();
        map[s.index()] = Some(dst.add_gate(kind, &fanins)?);
    }
    let outputs: Vec<SignalId> = src
        .outputs()
        .iter()
        .map(|o| map[o.index()].expect("outputs are inputs or gates"))
        .collect();
    for &o in &outputs {
        dst.mark_output(o);
    }
    Ok(outputs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fulllock_netlist::{benchmarks, GateKind};

    fn not_not(n: usize) -> Netlist {
        let mut nl = Netlist::new("nn");
        let a = nl.add_input("a");
        let mut prev = a;
        for _ in 0..n {
            prev = nl.add_gate(GateKind::Not, &[prev]).unwrap();
        }
        nl.mark_output(prev);
        nl
    }

    #[test]
    fn double_negation_is_identity() {
        let buf = {
            let mut nl = Netlist::new("b");
            let a = nl.add_input("a");
            let g = nl.add_gate(GateKind::Buf, &[a]).unwrap();
            nl.mark_output(g);
            nl
        };
        assert!(check(&not_not(2), &buf, None).unwrap().is_equivalent());
        // Odd chain is an inverter, not a buffer.
        match check(&not_not(3), &buf, None).unwrap() {
            EquivResult::Counterexample(cex) => assert_eq!(cex.len(), 1),
            other => panic!("expected counterexample, got {other:?}"),
        }
    }

    #[test]
    fn benchmark_is_equivalent_to_itself() {
        let nl = benchmarks::load("c432").unwrap();
        assert!(check(&nl, &nl, None).unwrap().is_equivalent());
    }

    #[test]
    fn different_benchmarks_are_not_equivalent() {
        // c499 and c1355 stand-ins share the interface (41/32) but are
        // different random functions.
        let a = benchmarks::load("c499").unwrap();
        let b = benchmarks::load("c1355").unwrap();
        match check(&a, &b, None).unwrap() {
            EquivResult::Counterexample(cex) => assert_eq!(cex.len(), 41),
            other => panic!("expected counterexample, got {other:?}"),
        }
    }

    #[test]
    fn counterexample_actually_differs() {
        let a = benchmarks::load("c499").unwrap();
        let b = benchmarks::load("c1355").unwrap();
        let EquivResult::Counterexample(cex) = check(&a, &b, None).unwrap() else {
            panic!("expected counterexample");
        };
        let sim_a = fulllock_netlist::Simulator::new(&a).unwrap();
        let sim_b = fulllock_netlist::Simulator::new(&b).unwrap();
        assert_ne!(sim_a.run(&cex).unwrap(), sim_b.run(&cex).unwrap());
    }

    #[test]
    fn interface_mismatch_is_an_error() {
        let a = benchmarks::load("c17").unwrap();
        let b = benchmarks::load("c432").unwrap();
        assert!(check(&a, &b, None).is_err());
    }

    #[test]
    fn constants_pin_inputs() {
        // y = MUX(s, a, b) with s forced to 0 is just `a` (as a function
        // of the remaining inputs a, b).
        let mut mux = Netlist::new("m");
        let s = mux.add_input("s");
        let a = mux.add_input("a");
        let b = mux.add_input("b");
        let y = mux.add_gate(GateKind::Mux, &[s, a, b]).unwrap();
        mux.mark_output(y);

        let mut pass = Netlist::new("p");
        let a2 = pass.add_input("a");
        let _b2 = pass.add_input("b");
        let g = pass.add_gate(GateKind::Buf, &[a2]).unwrap();
        pass.mark_output(g);

        assert!(check_under_constants(&mux, &[(0, false)], &pass, None)
            .unwrap()
            .is_equivalent());
        assert!(matches!(
            check_under_constants(&mux, &[(0, true)], &pass, None).unwrap(),
            EquivResult::Counterexample(_)
        ));
        // A constant position must name one input, once.
        assert!(check_under_constants(&mux, &[(3, false), (0, true)], &pass, None).is_err());
        assert!(check_under_constants(&mux, &[(0, false), (0, false)], &pass, None).is_err());
    }

    #[test]
    fn folded_pairs_need_no_solver() {
        // An expired deadline makes any solver call answer Unknown, so a
        // proof under it came from folding and hashing alone.
        let expired = || {
            Some(
                SolveLimits::builder()
                    .deadline(std::time::Instant::now())
                    .build(),
            )
        };
        let nl = benchmarks::load("c432").unwrap();
        assert!(check(&nl, &nl, expired()).unwrap().is_equivalent());
        // De Morgan is beyond the rewrite rules: the pair stays open.
        let mut nand = Netlist::new("nand");
        let (a, b) = (nand.add_input("a"), nand.add_input("b"));
        let y = nand.add_gate(GateKind::Nand, &[a, b]).unwrap();
        nand.mark_output(y);
        let mut or_of_nots = Netlist::new("or_of_nots");
        let (a, b) = (or_of_nots.add_input("a"), or_of_nots.add_input("b"));
        let na = or_of_nots.add_gate(GateKind::Not, &[a]).unwrap();
        let nb = or_of_nots.add_gate(GateKind::Not, &[b]).unwrap();
        let y = or_of_nots.add_gate(GateKind::Or, &[na, nb]).unwrap();
        or_of_nots.mark_output(y);
        assert_eq!(
            check(&nand, &or_of_nots, expired()).unwrap(),
            EquivResult::Unknown
        );
        assert!(check(&nand, &or_of_nots, None).unwrap().is_equivalent());
    }

    #[test]
    fn cyclic_netlists_are_rejected() {
        let mut cyclic = Netlist::new("c");
        let a = cyclic.add_input("a");
        let g = cyclic.add_deferred_gate(GateKind::And, 2).unwrap();
        cyclic.set_fanin(g, 0, a).unwrap();
        cyclic.mark_output(g);
        let buf = not_not(2);
        assert!(matches!(
            check(&cyclic, &buf, None),
            Err(SatError::BadConfig(_))
        ));
        assert!(matches!(
            check(&buf, &cyclic, None),
            Err(SatError::BadConfig(_))
        ));
    }
}
