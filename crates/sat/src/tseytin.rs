//! Tseytin transformation of netlists into CNF (Table 1 of the paper).
//!
//! Every signal gets one variable; every gate contributes the clauses of its
//! kind. Multi-input symmetric gates use the standard n-ary encodings;
//! multi-input XOR/XNOR are decomposed into 2-input chains with auxiliary
//! variables (keeping all clauses ternary, as a 3-SAT-style instance).
//!
//! Cyclic netlists encode fine: the CNF then asserts the *existence of a
//! consistent assignment* on the loop, which is exactly the semantics
//! CycSAT reasons about.

use fulllock_netlist::{GateKind, Netlist};

use crate::{Cnf, Lit, Var};

/// Result of encoding a netlist: the formula plus the per-signal variable
/// map.
#[derive(Debug, Clone)]
pub struct CircuitCnf {
    /// The Tseytin formula.
    pub cnf: Cnf,
    /// Variable of each signal, indexed by
    /// [`SignalId::index`](fulllock_netlist::SignalId::index).
    pub signal_vars: Vec<Var>,
}

/// Encodes a netlist into a fresh CNF, allocating one variable per signal.
///
/// # Example
///
/// ```
/// use fulllock_netlist::{GateKind, Netlist};
/// use fulllock_sat::tseytin;
///
/// # fn main() -> Result<(), fulllock_netlist::NetlistError> {
/// let mut nl = Netlist::new("t");
/// let a = nl.add_input("a");
/// let b = nl.add_input("b");
/// let g = nl.add_gate(GateKind::Xor, &[a, b])?;
/// nl.mark_output(g);
/// let enc = tseytin::encode(&nl);
/// assert_eq!(enc.cnf.num_vars(), 3);
/// assert_eq!(enc.cnf.num_clauses(), 4); // Table 1: XOR has 4 clauses
/// # Ok(())
/// # }
/// ```
pub fn encode(netlist: &Netlist) -> CircuitCnf {
    let mut cnf = Cnf::new();
    let input_vars: Vec<Var> = netlist.inputs().iter().map(|_| cnf.new_var()).collect();
    let signal_vars = encode_into(netlist, &mut cnf, &input_vars);
    CircuitCnf { cnf, signal_vars }
}

/// Encodes a netlist into an existing CNF, using caller-supplied variables
/// for the primary inputs (in [`Netlist::inputs`] order) and allocating
/// fresh variables for every gate output. Returns the per-signal variable
/// map.
///
/// Sharing input variables between two encodings is how the SAT attack
/// builds its miter: both copies of the locked circuit receive the same `X`
/// variables but distinct key variables.
///
/// # Panics
///
/// Panics if `input_vars.len()` differs from the netlist's input count.
pub fn encode_into(netlist: &Netlist, cnf: &mut Cnf, input_vars: &[Var]) -> Vec<Var> {
    assert_eq!(
        input_vars.len(),
        netlist.inputs().len(),
        "one variable required per primary input"
    );
    let mut signal_vars: Vec<Var> = Vec::with_capacity(netlist.len());
    // Inputs may appear anywhere in the node table; pre-size then fill.
    for _ in 0..netlist.len() {
        signal_vars.push(Var::new(0));
    }
    for (slot, &sig) in netlist.inputs().iter().enumerate() {
        signal_vars[sig.index()] = input_vars[slot];
    }
    for g in netlist.gates() {
        signal_vars[g.index()] = cnf.new_var();
    }
    for g in netlist.gates() {
        let node = netlist.node(g);
        let kind = node.gate_kind().expect("gates() yields only gates");
        let out = signal_vars[g.index()];
        let ins: Vec<Var> = node
            .fanins()
            .iter()
            .map(|f| signal_vars[f.index()])
            .collect();
        encode_gate(cnf, kind, out, &ins);
    }
    signal_vars
}

/// Emits the Tseytin clauses of a single gate `out = kind(ins)`.
///
/// Exposed so the locking schemes can encode ad-hoc constraints (e.g.
/// CycSAT's structural conditions) with the same gate library.
pub fn encode_gate(cnf: &mut Cnf, kind: GateKind, out: Var, ins: &[Var]) {
    let o = Lit::positive(out);
    match kind {
        GateKind::Const0 => cnf.add_clause([!o]),
        GateKind::Const1 => cnf.add_clause([o]),
        GateKind::Buf => {
            let a = Lit::positive(ins[0]);
            cnf.add_clause([a, !o]);
            cnf.add_clause([!a, o]);
        }
        GateKind::Not => {
            let a = Lit::positive(ins[0]);
            cnf.add_clause([!a, !o]);
            cnf.add_clause([a, o]);
        }
        GateKind::And => {
            // (¬A1 ∨ … ∨ ¬An ∨ C) ∧ ∏ (Ai ∨ ¬C)
            let mut long: Vec<Lit> = ins.iter().map(|&v| Lit::negative(v)).collect();
            long.push(o);
            cnf.add_clause(long);
            for &v in ins {
                cnf.add_clause([Lit::positive(v), !o]);
            }
        }
        GateKind::Nand => {
            // (¬A1 ∨ … ∨ ¬An ∨ ¬C) ∧ ∏ (Ai ∨ C)
            let mut long: Vec<Lit> = ins.iter().map(|&v| Lit::negative(v)).collect();
            long.push(!o);
            cnf.add_clause(long);
            for &v in ins {
                cnf.add_clause([Lit::positive(v), o]);
            }
        }
        GateKind::Or => {
            // (A1 ∨ … ∨ An ∨ ¬C) ∧ ∏ (¬Ai ∨ C)
            let mut long: Vec<Lit> = ins.iter().map(|&v| Lit::positive(v)).collect();
            long.push(!o);
            cnf.add_clause(long);
            for &v in ins {
                cnf.add_clause([Lit::negative(v), o]);
            }
        }
        GateKind::Nor => {
            // (A1 ∨ … ∨ An ∨ C) ∧ ∏ (¬Ai ∨ ¬C)
            let mut long: Vec<Lit> = ins.iter().map(|&v| Lit::positive(v)).collect();
            long.push(o);
            cnf.add_clause(long);
            for &v in ins {
                cnf.add_clause([Lit::negative(v), !o]);
            }
        }
        GateKind::Xor | GateKind::Xnor => {
            // Chain 2-input XORs through auxiliary variables, then emit the
            // final (inverted) parity link.
            let mut acc = ins[0];
            for &next in &ins[1..ins.len() - 1] {
                let aux = cnf.new_var();
                encode_xor2(cnf, aux, acc, next, false);
                acc = aux;
            }
            let last = ins[ins.len() - 1];
            encode_xor2(cnf, out, acc, last, kind == GateKind::Xnor);
        }
        GateKind::Mux => {
            // Table 1: C = A·S̄ + B·S with fan-ins [S, A, B].
            let s = Lit::positive(ins[0]);
            let a = Lit::positive(ins[1]);
            let b = Lit::positive(ins[2]);
            cnf.add_clause([s, !a, o]);
            cnf.add_clause([s, a, !o]);
            cnf.add_clause([!s, !b, o]);
            cnf.add_clause([!s, b, !o]);
        }
    }
}

/// `out = a ⊕ b` (or `a ⊙ b` when `inverted`), 4 ternary clauses (Table 1).
fn encode_xor2(cnf: &mut Cnf, out: Var, a: Var, b: Var, inverted: bool) {
    encode_xor2_lits(
        cnf,
        Lit::with_polarity(out, !inverted),
        Lit::positive(a),
        Lit::positive(b),
    );
}

/// `out ↔ a ⊕ b` over literals: the 4 XOR clauses of Table 1, usable when
/// the operands are aliased (possibly negated) literals rather than
/// dedicated signal variables — the cone-reduced encoder's common case.
pub fn encode_xor2_lits(cnf: &mut Cnf, out: Lit, a: Lit, b: Lit) {
    cnf.add_clause([!a, !b, !out]);
    cnf.add_clause([a, b, !out]);
    cnf.add_clause([a, !b, out]);
    cnf.add_clause([!a, b, out]);
}

/// `out ↔ ∧ ins` over literals (n+1 clauses, like Table 1's AND row).
pub fn encode_and_lits(cnf: &mut Cnf, out: Lit, ins: &[Lit]) {
    let mut long: Vec<Lit> = ins.iter().map(|&l| !l).collect();
    long.push(out);
    cnf.add_clause(long);
    for &l in ins {
        cnf.add_clause([l, !out]);
    }
}

/// `out ↔ ∨ ins` over literals (n+1 clauses, like Table 1's OR row).
pub fn encode_or_lits(cnf: &mut Cnf, out: Lit, ins: &[Lit]) {
    let mut long: Vec<Lit> = ins.to_vec();
    long.push(!out);
    cnf.add_clause(long);
    for &l in ins {
        cnf.add_clause([!l, out]);
    }
}

/// One flattened MUX-tree path: when every literal of `path` holds, the
/// tree output equals `leaf` — `(¬path ∨ ¬leaf ∨ out) ∧ (¬path ∨ leaf ∨
/// ¬out)`. Emitting one such pair per leaf encodes a whole select tree
/// without auxiliary variables (Sweeney-style structural sharing).
pub fn encode_mux_path(cnf: &mut Cnf, out: Lit, path: &[Lit], leaf: Lit) {
    let negated = || path.iter().map(|&l| !l);
    let mut up: Vec<Lit> = negated().collect();
    up.push(!leaf);
    up.push(out);
    cnf.add_clause(up);
    let mut down: Vec<Lit> = negated().collect();
    down.push(leaf);
    down.push(!out);
    cnf.add_clause(down);
}

/// Linking clauses for a CLN switch-box swap pair: `o1 = (s1 ? b : a)` and
/// `o2 = (s2 ? a : b)` route the same two wires with swapped data order,
/// so whenever the selects differ the outputs pick the *same* source —
/// `s1 ⊕ s2 → o1 = o2` (4 quaternary clauses).
pub fn encode_swap_link(cnf: &mut Cnf, s1: Lit, o1: Lit, s2: Lit, o2: Lit) {
    cnf.add_clause([!s1, s2, !o1, o2]);
    cnf.add_clause([!s1, s2, o1, !o2]);
    cnf.add_clause([s1, !s2, !o1, o2]);
    cnf.add_clause([s1, !s2, o1, !o2]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use fulllock_netlist::Simulator;

    /// Exhaustively checks that the Tseytin CNF of a single gate has exactly
    /// the models of its truth table.
    fn check_gate(kind: GateKind, arity: usize) {
        let mut nl = Netlist::new("g");
        let ins: Vec<_> = (0..arity).map(|i| nl.add_input(format!("i{i}"))).collect();
        let g = nl.add_gate(kind, &ins).unwrap();
        nl.mark_output(g);
        let sim = Simulator::new(&nl).unwrap();
        let enc = encode(&nl);
        let n = enc.cnf.num_vars();
        for model in 0..1u64 << n {
            let assignment: Vec<bool> = (0..n).map(|i| model >> i & 1 == 1).collect();
            let in_bits: Vec<bool> = (0..arity)
                .map(|i| assignment[enc.signal_vars[ins[i].index()].index()])
                .collect();
            let out_bit = assignment[enc.signal_vars[g.index()].index()];
            let expect = sim.run(&in_bits).unwrap()[0] == out_bit;
            // Auxiliary XOR-chain variables must also be consistent for the
            // model to satisfy; for arity <= 2 there are none.
            if arity <= 2 || !matches!(kind, GateKind::Xor | GateKind::Xnor) {
                assert_eq!(
                    enc.cnf.is_satisfied_by(&assignment),
                    expect,
                    "kind {kind} model {model:b}"
                );
            } else if enc.cnf.is_satisfied_by(&assignment) {
                assert!(expect, "kind {kind} model {model:b} satisfies but is wrong");
            }
        }
    }

    #[test]
    fn every_gate_kind_is_encoded_correctly() {
        for kind in GateKind::all() {
            let arity = match kind {
                GateKind::Const0 | GateKind::Const1 => 0,
                GateKind::Buf | GateKind::Not => 1,
                GateKind::Mux => 3,
                _ => 2,
            };
            check_gate(kind, arity);
        }
    }

    #[test]
    fn wide_gates_are_encoded_correctly() {
        for kind in [
            GateKind::And,
            GateKind::Nand,
            GateKind::Or,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
        ] {
            check_gate(kind, 3);
            check_gate(kind, 4);
        }
    }

    #[test]
    fn clause_counts_match_table_1() {
        let counts = [
            (GateKind::Buf, 1, 2),
            (GateKind::Not, 1, 2),
            (GateKind::And, 2, 3),
            (GateKind::Nand, 2, 3),
            (GateKind::Or, 2, 3),
            (GateKind::Nor, 2, 3),
            (GateKind::Xor, 2, 4),
            (GateKind::Xnor, 2, 4),
            (GateKind::Mux, 3, 4),
        ];
        for (kind, arity, clauses) in counts {
            let mut nl = Netlist::new("g");
            let ins: Vec<_> = (0..arity).map(|i| nl.add_input(format!("i{i}"))).collect();
            let g = nl.add_gate(kind, &ins).unwrap();
            nl.mark_output(g);
            let enc = encode(&nl);
            assert_eq!(enc.cnf.num_clauses(), clauses, "kind {kind}");
        }
    }

    #[test]
    fn clause_to_variable_ratios_match_paper() {
        // Paper §3.1: MUX ratio is 4/3, XOR ratio is... the paper says the
        // ratio is 1 for MUX (4 clauses / 4 variables) and 4/3 for XOR
        // (4 clauses / 3 variables).
        let mut nl = Netlist::new("m");
        let s = nl.add_input("s");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let m = nl.add_gate(GateKind::Mux, &[s, a, b]).unwrap();
        nl.mark_output(m);
        let enc = encode(&nl);
        assert!((enc.cnf.clause_to_variable_ratio() - 1.0).abs() < 1e-12);

        let mut nl = Netlist::new("x");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let x = nl.add_gate(GateKind::Xor, &[a, b]).unwrap();
        nl.mark_output(x);
        let enc = encode(&nl);
        assert!((enc.cnf.clause_to_variable_ratio() - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn shared_input_vars() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let g = nl.add_gate(GateKind::Not, &[a]).unwrap();
        nl.mark_output(g);
        let mut cnf = Cnf::new();
        let shared = cnf.new_var();
        let vars_a = encode_into(&nl, &mut cnf, &[shared]);
        let vars_b = encode_into(&nl, &mut cnf, &[shared]);
        assert_eq!(vars_a[a.index()], vars_b[a.index()]);
        assert_ne!(vars_a[g.index()], vars_b[g.index()]);
    }

    #[test]
    fn whole_circuit_consistency() {
        // Encode c17 and check: for each input pattern, forcing the input
        // literals makes exactly the simulated output values satisfiable.
        let nl = fulllock_netlist::benchmarks::load("c17").unwrap();
        let sim = Simulator::new(&nl).unwrap();
        let enc = encode(&nl);
        for row in 0..32u32 {
            let bits: Vec<bool> = (0..5).map(|i| row >> i & 1 == 1).collect();
            let all = sim.run_all(&bits).unwrap();
            let assignment: Vec<bool> = {
                let mut a = vec![false; enc.cnf.num_vars()];
                for s in nl.signals() {
                    a[enc.signal_vars[s.index()].index()] = all[s.index()];
                }
                a
            };
            assert!(enc.cnf.is_satisfied_by(&assignment), "row {row}");
        }
    }
}
