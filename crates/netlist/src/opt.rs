//! Combinational logic optimization: constant folding, identity/absorption
//! rules, double-negation elimination, and structural hashing (common
//! subexpression elimination).
//!
//! Locking transformations leave redundancy behind — LUT MUX trees with
//! constant-looking keys, twisted gates feeding inverter chains — and real
//! flows resynthesize after insertion. This pass is a light-weight,
//! semantics-preserving resynthesis: the output netlist computes the same
//! function with at most as many gates.
//!
//! [`fulllock-sat`'s CEC] runs this pass on its miter before any SAT call,
//! so every rewrite rule here is part of what an equivalence proof (and a
//! key certificate) trusts. A rule must therefore never be judged by that
//! CEC: the property tests in `crates/sat/tests/proptest_sat.rs` and the
//! unit tests below check it by simulation.
//!
//! The pass requires an acyclic netlist (rules are applied in topological
//! order); cyclic netlists are rejected.
//!
//! [`fulllock-sat`'s CEC]: ../../fulllock_sat/equiv/index.html

use std::collections::HashMap;

use crate::{GateKind, Netlist, Result, SignalId};

/// Statistics of one [`optimize`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OptStats {
    /// Gates before optimization.
    pub gates_before: usize,
    /// Gates after optimization (including tie cells the folding created).
    pub gates_after: usize,
    /// Gates removed by structural hashing (shared subexpressions).
    pub deduplicated: usize,
}

/// Result of [`optimize`]: the optimized netlist, a remap table (old
/// signal index → surviving new signal, if any), and statistics.
#[derive(Debug, Clone)]
pub struct Optimized {
    /// The optimized netlist.
    pub netlist: Netlist,
    /// `remap[old.index()]` = the new signal carrying the same function.
    /// Always `Some` for primary inputs and for every old signal that
    /// still drives anything.
    pub remap: Vec<Option<SignalId>>,
    /// Run statistics.
    pub stats: OptStats,
}

/// Optimizes an acyclic netlist. See the [module docs](self).
///
/// # Errors
///
/// Returns [`NetlistError::Cyclic`](crate::NetlistError::Cyclic) for
/// cyclic netlists.
///
/// # Example
///
/// ```
/// use fulllock_netlist::{opt, GateKind, Netlist};
///
/// # fn main() -> Result<(), fulllock_netlist::NetlistError> {
/// // NOT(NOT(a)) AND a  ≡  a
/// let mut nl = Netlist::new("t");
/// let a = nl.add_input("a");
/// let n1 = nl.add_gate(GateKind::Not, &[a])?;
/// let n2 = nl.add_gate(GateKind::Not, &[n1])?;
/// let y = nl.add_gate(GateKind::And, &[n2, a])?;
/// nl.mark_output(y);
///
/// let optimized = opt::optimize(&nl)?;
/// assert_eq!(optimized.netlist.stats().gates, 0); // output is `a` itself
/// # Ok(())
/// # }
/// ```
pub fn optimize(netlist: &Netlist) -> Result<Optimized> {
    let order = crate::topo::topo_order(netlist)?;
    let mut builder = Builder::new(netlist.name().to_string());
    let mut remap: Vec<Option<SignalId>> = vec![None; netlist.len()];
    for &old in netlist.inputs() {
        let id = builder.netlist.add_input(netlist.signal_name(old));
        remap[old.index()] = Some(id);
    }
    for old in order {
        let node = netlist.node(old);
        let Some(kind) = node.gate_kind() else {
            continue;
        };
        let fanins: Vec<SignalId> = node
            .fanins()
            .iter()
            .map(|f| remap[f.index()].expect("topological order resolves fan-ins"))
            .collect();
        let new = builder.emit(kind, &fanins)?;
        remap[old.index()] = Some(new);
        // Carry names over when the replacement is an unnamed fresh gate.
        if let Some(name) = node.name() {
            if !builder.netlist.node(new).is_input() && builder.netlist.node(new).name().is_none() {
                builder.netlist.set_signal_name(new, name)?;
            }
        }
    }
    for &o in netlist.outputs() {
        builder
            .netlist
            .mark_output(remap[o.index()].expect("outputs were processed"));
    }
    // Drop bypassed intermediates and compose the remaps.
    let (swept, sweep_map) = builder.netlist.sweep();
    let remap: Vec<Option<SignalId>> = remap
        .into_iter()
        .map(|m| m.and_then(|s| sweep_map[s.index()]))
        .collect();
    let stats = OptStats {
        gates_before: netlist.stats().gates,
        gates_after: swept.stats().gates,
        deduplicated: builder.deduplicated,
    };
    swept.check()?;
    Ok(Optimized {
        netlist: swept,
        remap,
        stats,
    })
}

struct Builder {
    netlist: Netlist,
    /// Structural hash: (kind, canonical fan-ins) → existing signal.
    cse: HashMap<(GateKind, Vec<SignalId>), SignalId>,
    /// Constant value of a signal, when known.
    constants: HashMap<SignalId, bool>,
    /// `NOT` memo: signal → its registered complement.
    complements: HashMap<SignalId, SignalId>,
    deduplicated: usize,
}

impl Builder {
    fn new(name: String) -> Builder {
        Builder {
            netlist: Netlist::new(name),
            cse: HashMap::new(),
            constants: HashMap::new(),
            complements: HashMap::new(),
            deduplicated: 0,
        }
    }

    fn constant(&mut self, value: bool) -> Result<SignalId> {
        let kind = if value {
            GateKind::Const1
        } else {
            GateKind::Const0
        };
        self.hashed(kind, Vec::new())
    }

    fn not(&mut self, x: SignalId) -> Result<SignalId> {
        if let Some(&v) = self.constants.get(&x) {
            return self.constant(!v);
        }
        if let Some(&c) = self.complements.get(&x) {
            return Ok(c);
        }
        let n = self.hashed(GateKind::Not, vec![x])?;
        self.complements.insert(x, n);
        self.complements.insert(n, x);
        Ok(n)
    }

    fn are_complements(&self, a: SignalId, b: SignalId) -> bool {
        self.complements.get(&a) == Some(&b)
    }

    /// Hash-consed raw gate creation (no rewriting).
    fn hashed(&mut self, kind: GateKind, mut fanins: Vec<SignalId>) -> Result<SignalId> {
        if matches!(
            kind,
            GateKind::And
                | GateKind::Nand
                | GateKind::Or
                | GateKind::Nor
                | GateKind::Xor
                | GateKind::Xnor
        ) {
            fanins.sort_unstable();
        }
        if let Some(&existing) = self.cse.get(&(kind, fanins.clone())) {
            self.deduplicated += 1;
            return Ok(existing);
        }
        let id = self.netlist.add_gate(kind, &fanins)?;
        if let Some(v) = kind.constant_value() {
            self.constants.insert(id, v);
        }
        self.cse.insert((kind, fanins), id);
        Ok(id)
    }

    /// Emits (a simplified form of) `kind(fanins)`.
    fn emit(&mut self, kind: GateKind, fanins: &[SignalId]) -> Result<SignalId> {
        match kind {
            GateKind::Const0 => self.constant(false),
            GateKind::Const1 => self.constant(true),
            GateKind::Buf => Ok(fanins[0]),
            GateKind::Not => self.not(fanins[0]),
            GateKind::And | GateKind::Nand => self.emit_and_family(kind, fanins),
            GateKind::Or | GateKind::Nor => self.emit_or_family(kind, fanins),
            GateKind::Xor | GateKind::Xnor => self.emit_parity(kind, fanins),
            GateKind::Mux => self.emit_mux(fanins),
        }
    }

    fn emit_and_family(&mut self, kind: GateKind, fanins: &[SignalId]) -> Result<SignalId> {
        let inverted = kind == GateKind::Nand;
        let mut kept: Vec<SignalId> = Vec::with_capacity(fanins.len());
        for &f in fanins {
            match self.constants.get(&f) {
                Some(false) => return self.finish_const(false, inverted),
                Some(true) => {}
                None => {
                    if !kept.contains(&f) {
                        kept.push(f);
                    }
                }
            }
        }
        if kept
            .iter()
            .any(|&a| kept.iter().any(|&b| self.are_complements(a, b)))
        {
            return self.finish_const(false, inverted);
        }
        match kept.len() {
            0 => self.finish_const(true, inverted),
            1 => self.finish_wire(kept[0], inverted),
            _ => self.hashed(kind, kept),
        }
    }

    fn emit_or_family(&mut self, kind: GateKind, fanins: &[SignalId]) -> Result<SignalId> {
        let inverted = kind == GateKind::Nor;
        let mut kept: Vec<SignalId> = Vec::with_capacity(fanins.len());
        for &f in fanins {
            match self.constants.get(&f) {
                Some(true) => return self.finish_const(true, inverted),
                Some(false) => {}
                None => {
                    if !kept.contains(&f) {
                        kept.push(f);
                    }
                }
            }
        }
        if kept
            .iter()
            .any(|&a| kept.iter().any(|&b| self.are_complements(a, b)))
        {
            return self.finish_const(true, inverted);
        }
        match kept.len() {
            0 => self.finish_const(false, inverted),
            1 => self.finish_wire(kept[0], inverted),
            _ => self.hashed(kind, kept),
        }
    }

    fn emit_parity(&mut self, kind: GateKind, fanins: &[SignalId]) -> Result<SignalId> {
        let mut invert = kind == GateKind::Xnor;
        // Occurrence parity: a ⊕ a = 0; constants fold into the phase.
        let mut counts: HashMap<SignalId, usize> = HashMap::new();
        for &f in fanins {
            match self.constants.get(&f) {
                Some(true) => invert = !invert,
                Some(false) => {}
                None => *counts.entry(f).or_insert(0) += 1,
            }
        }
        // Keep each odd-count signal exactly once, in first-seen order.
        let mut kept: Vec<SignalId> = Vec::with_capacity(counts.len());
        for &f in fanins {
            if counts.get(&f).is_some_and(|&c| c % 2 == 1) && !kept.contains(&f) {
                kept.push(f);
            }
        }
        // Complement pairs: a ⊕ ¬a = 1.
        loop {
            let pair = kept.iter().enumerate().find_map(|(i, &a)| {
                kept[i + 1..]
                    .iter()
                    .position(|&b| self.are_complements(a, b))
                    .map(|j| (i, i + 1 + j))
            });
            match pair {
                Some((i, j)) => {
                    kept.remove(j);
                    kept.remove(i);
                    invert = !invert;
                }
                None => break,
            }
        }
        match kept.len() {
            0 => self.finish_const(false, invert),
            1 => self.finish_wire(kept[0], invert),
            _ => self.hashed(
                if invert {
                    GateKind::Xnor
                } else {
                    GateKind::Xor
                },
                kept,
            ),
        }
    }

    fn emit_mux(&mut self, fanins: &[SignalId]) -> Result<SignalId> {
        let (s, a, b) = (fanins[0], fanins[1], fanins[2]);
        if let Some(&sv) = self.constants.get(&s) {
            return Ok(if sv { b } else { a });
        }
        if a == b {
            return Ok(a);
        }
        match (
            self.constants.get(&a).copied(),
            self.constants.get(&b).copied(),
        ) {
            (Some(false), Some(true)) => return Ok(s), // s ? 1 : 0 ≡ s
            (Some(true), Some(false)) => return self.not(s), // s ? 0 : 1 ≡ ¬s
            (Some(false), None) => {
                // s ? b : 0  ≡  s ∧ b
                return self.emit_and_family(GateKind::And, &[s, b]);
            }
            (None, Some(true)) => {
                // s ? 1 : a  ≡  s ∨ a
                return self.emit_or_family(GateKind::Or, &[s, a]);
            }
            (Some(true), None) => {
                // s ? b : 1  ≡  ¬s ∨ b
                let ns = self.not(s)?;
                return self.emit_or_family(GateKind::Or, &[ns, b]);
            }
            (None, Some(false)) => {
                // s ? 0 : a  ≡  ¬s ∧ a
                let ns = self.not(s)?;
                return self.emit_and_family(GateKind::And, &[ns, a]);
            }
            _ => {}
        }
        if s == a {
            // s ? b : s  ≡  s ∧ b
            return self.emit_and_family(GateKind::And, &[s, b]);
        }
        if s == b {
            // s ? s : a  ≡  s ∨ a
            return self.emit_or_family(GateKind::Or, &[s, a]);
        }
        self.hashed(GateKind::Mux, vec![s, a, b])
    }

    fn finish_const(&mut self, value: bool, inverted: bool) -> Result<SignalId> {
        self.constant(value ^ inverted)
    }

    fn finish_wire(&mut self, wire: SignalId, inverted: bool) -> Result<SignalId> {
        if inverted {
            self.not(wire)
        } else {
            Ok(wire)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::{generate, RandomCircuitConfig};
    use crate::Simulator;

    fn equivalent_by_simulation(a: &Netlist, b: &Netlist) -> bool {
        let sim_a = Simulator::new(a).unwrap();
        let sim_b = Simulator::new(b).unwrap();
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(1234);
        for _ in 0..64 {
            let x: Vec<bool> = (0..a.inputs().len()).map(|_| rng.gen_bool(0.5)).collect();
            if sim_a.run(&x).unwrap() != sim_b.run(&x).unwrap() {
                return false;
            }
        }
        true
    }

    #[test]
    fn double_negation_folds() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let n1 = nl.add_gate(GateKind::Not, &[a]).unwrap();
        let n2 = nl.add_gate(GateKind::Not, &[n1]).unwrap();
        nl.mark_output(n2);
        let opt = optimize(&nl).unwrap();
        assert_eq!(opt.netlist.stats().gates, 0);
        assert_eq!(opt.netlist.outputs(), &[opt.remap[a.index()].unwrap()]);
    }

    #[test]
    fn complement_pair_in_and_is_const0() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let na = nl.add_gate(GateKind::Not, &[a]).unwrap();
        let g = nl.add_gate(GateKind::And, &[a, na]).unwrap();
        nl.mark_output(g);
        let opt = optimize(&nl).unwrap();
        let out = opt.netlist.outputs()[0];
        assert_eq!(opt.netlist.node(out).gate_kind(), Some(GateKind::Const0));
    }

    #[test]
    fn xor_self_cancels() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let x = nl.add_gate(GateKind::Xor, &[a, b, a]).unwrap(); // ≡ b
        nl.mark_output(x);
        let opt = optimize(&nl).unwrap();
        assert_eq!(opt.netlist.outputs(), &[opt.remap[b.index()].unwrap()]);
    }

    #[test]
    fn xor_with_odd_repeats_keeps_each_signal_once() {
        // Regression: XOR(a, b, a, a) ≡ a ⊕ b; a naive consecutive-dedup
        // left `a` in the clause twice (found by proptest).
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let x = nl.add_gate(GateKind::Xor, &[a, b, a, a]).unwrap();
        nl.mark_output(x);
        let opt = optimize(&nl).unwrap();
        assert!(equivalent_by_simulation(&nl, &opt.netlist));
        let out = opt.netlist.outputs()[0];
        assert_eq!(opt.netlist.node(out).fanins().len(), 2);
    }

    #[test]
    fn structural_hashing_shares_duplicates() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g1 = nl.add_gate(GateKind::And, &[a, b]).unwrap();
        let g2 = nl.add_gate(GateKind::And, &[b, a]).unwrap(); // same function
        let y = nl.add_gate(GateKind::Xor, &[g1, g2]).unwrap(); // ≡ 0
        nl.mark_output(y);
        let opt = optimize(&nl).unwrap();
        let out = opt.netlist.outputs()[0];
        assert_eq!(opt.netlist.node(out).gate_kind(), Some(GateKind::Const0));
        assert!(opt.stats.deduplicated >= 1);
    }

    #[test]
    fn mux_rules() {
        let mut nl = Netlist::new("t");
        let s = nl.add_input("s");
        let a = nl.add_input("a");
        let m_same = nl.add_gate(GateKind::Mux, &[s, a, a]).unwrap(); // ≡ a
        let m_and = nl.add_gate(GateKind::Mux, &[s, s, a]).unwrap(); // ≡ s? a : s  ≡ s∧a
        nl.mark_output(m_same);
        nl.mark_output(m_and);
        let opt = optimize(&nl).unwrap();
        assert!(equivalent_by_simulation(&nl, &opt.netlist));
        assert_eq!(opt.netlist.outputs()[0], opt.remap[a.index()].unwrap());
    }

    #[test]
    fn random_circuits_stay_equivalent_and_never_grow() {
        for seed in 0..10 {
            let nl = generate(RandomCircuitConfig {
                inputs: 12,
                outputs: 6,
                gates: 120,
                max_fanin: 4,
                seed,
            })
            .unwrap();
            let opt = optimize(&nl).unwrap();
            assert!(
                opt.netlist.stats().gates <= nl.stats().gates,
                "seed {seed} grew"
            );
            assert!(
                equivalent_by_simulation(&nl, &opt.netlist),
                "seed {seed} changed function"
            );
        }
    }

    #[test]
    fn cyclic_netlists_are_rejected() {
        let mut nl = Netlist::new("c");
        let g = nl.add_deferred_gate(GateKind::Not, 1).unwrap();
        nl.mark_output(g);
        assert!(optimize(&nl).is_err());
    }

    #[test]
    fn idempotent() {
        let nl = generate(RandomCircuitConfig::default()).unwrap();
        let once = optimize(&nl).unwrap();
        let twice = optimize(&once.netlist).unwrap();
        assert_eq!(once.netlist.stats(), twice.netlist.stats());
    }
}
