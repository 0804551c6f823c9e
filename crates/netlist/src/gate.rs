use std::fmt;

/// The standard-cell gate library used throughout the reproduction.
///
/// This mirrors the gate set of Table 1 in the paper (the Tseytin
/// transformation table): the basic two-input cells, the unary cells, and the
/// 2:1 multiplexer that Full-Lock's switch-boxes and key-programmable LUTs
/// are built from.
///
/// All symmetric kinds (`And`, `Nand`, `Or`, `Nor`, `Xor`, `Xnor`) accept any
/// fan-in ≥ 2; `Xor`/`Xnor` generalize to parity / inverted parity, matching
/// `.bench` semantics. `Buf`/`Not` are unary. `Mux` takes exactly three
/// fan-ins in the paper's order `MUX(S, A, B) = A·S̄ + B·S`.
///
/// # Example
///
/// ```
/// use fulllock_netlist::GateKind;
///
/// assert!(GateKind::Mux.eval(&[false, true, false])); // S=0 selects A=1
/// assert!(!GateKind::Mux.eval(&[true, true, false])); // S=1 selects B=0
/// assert_eq!(GateKind::And.invert(), Some(GateKind::Nand));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum GateKind {
    /// Identity: `C = A`.
    Buf,
    /// Inverter: `C = Ā`.
    Not,
    /// Conjunction of all fan-ins.
    And,
    /// Inverted conjunction.
    Nand,
    /// Disjunction of all fan-ins.
    Or,
    /// Inverted disjunction.
    Nor,
    /// Parity (odd number of true fan-ins).
    Xor,
    /// Inverted parity.
    Xnor,
    /// 2:1 multiplexer, fan-ins `[S, A, B]`: `C = A·S̄ + B·S`.
    Mux,
    /// Constant 0 (tie-low cell, no fan-ins). Produced by the optimizer's
    /// constant folding; `.bench` files write it as `CONST0()`.
    Const0,
    /// Constant 1 (tie-high cell, no fan-ins).
    Const1,
}

/// All gate kinds, in a stable order (useful for exhaustive tests).
pub(crate) const ALL_KINDS: [GateKind; 11] = [
    GateKind::Buf,
    GateKind::Not,
    GateKind::And,
    GateKind::Nand,
    GateKind::Or,
    GateKind::Nor,
    GateKind::Xor,
    GateKind::Xnor,
    GateKind::Mux,
    GateKind::Const0,
    GateKind::Const1,
];

impl GateKind {
    /// Returns every gate kind in a stable order.
    pub fn all() -> impl Iterator<Item = GateKind> {
        ALL_KINDS.into_iter()
    }

    /// The canonical upper-case name used in `.bench` files.
    pub fn name(self) -> &'static str {
        match self {
            GateKind::Buf => "BUF",
            GateKind::Not => "NOT",
            GateKind::And => "AND",
            GateKind::Nand => "NAND",
            GateKind::Or => "OR",
            GateKind::Nor => "NOR",
            GateKind::Xor => "XOR",
            GateKind::Xnor => "XNOR",
            GateKind::Mux => "MUX",
            GateKind::Const0 => "CONST0",
            GateKind::Const1 => "CONST1",
        }
    }

    /// Parses a gate name, case-insensitively. `BUFF` is accepted as an alias
    /// for `BUF` (ISCAS-85 `.bench` files use both spellings).
    pub fn from_name(name: &str) -> Option<GateKind> {
        let upper = name.to_ascii_uppercase();
        Some(match upper.as_str() {
            "BUF" | "BUFF" => GateKind::Buf,
            "NOT" | "INV" => GateKind::Not,
            "AND" => GateKind::And,
            "NAND" => GateKind::Nand,
            "OR" => GateKind::Or,
            "NOR" => GateKind::Nor,
            "XOR" => GateKind::Xor,
            "XNOR" => GateKind::Xnor,
            "MUX" => GateKind::Mux,
            "CONST0" => GateKind::Const0,
            "CONST1" => GateKind::Const1,
            _ => return None,
        })
    }

    /// Whether a gate of this kind may have `n` fan-ins.
    pub fn accepts_arity(self, n: usize) -> bool {
        match self {
            GateKind::Const0 | GateKind::Const1 => n == 0,
            GateKind::Buf | GateKind::Not => n == 1,
            GateKind::Mux => n == 3,
            _ => n >= 2,
        }
    }

    /// The constant value, for the two tie cells.
    pub fn constant_value(self) -> Option<bool> {
        match self {
            GateKind::Const0 => Some(false),
            GateKind::Const1 => Some(true),
            _ => None,
        }
    }

    /// The kind computing the complement of this kind's function, if the
    /// complement is also a single library cell.
    ///
    /// Full-Lock's "twisting" step negates gates leading into a CLN
    /// (e.g. `OR → NOR`) and compensates with the CLN's key-configurable
    /// inverters. `Mux` has no single-cell complement and returns `None`.
    pub fn invert(self) -> Option<GateKind> {
        Some(match self {
            GateKind::Buf => GateKind::Not,
            GateKind::Not => GateKind::Buf,
            GateKind::And => GateKind::Nand,
            GateKind::Nand => GateKind::And,
            GateKind::Or => GateKind::Nor,
            GateKind::Nor => GateKind::Or,
            GateKind::Xor => GateKind::Xnor,
            GateKind::Xnor => GateKind::Xor,
            GateKind::Const0 => GateKind::Const1,
            GateKind::Const1 => GateKind::Const0,
            GateKind::Mux => return None,
        })
    }

    /// Evaluates the gate on boolean fan-in values.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` is not an accepted arity for this kind; the
    /// netlist validates arities at construction so evaluation over a checked
    /// netlist never panics.
    pub fn eval(self, inputs: &[bool]) -> bool {
        assert!(
            self.accepts_arity(inputs.len()),
            "gate {} evaluated with {} fan-ins",
            self.name(),
            inputs.len()
        );
        match self {
            GateKind::Buf => inputs[0],
            GateKind::Not => !inputs[0],
            GateKind::And => inputs.iter().all(|&b| b),
            GateKind::Nand => !inputs.iter().all(|&b| b),
            GateKind::Or => inputs.iter().any(|&b| b),
            GateKind::Nor => !inputs.iter().any(|&b| b),
            GateKind::Xor => inputs.iter().fold(false, |acc, &b| acc ^ b),
            GateKind::Xnor => !inputs.iter().fold(false, |acc, &b| acc ^ b),
            GateKind::Mux => {
                let (s, a, b) = (inputs[0], inputs[1], inputs[2]);
                if s {
                    b
                } else {
                    a
                }
            }
            GateKind::Const0 => false,
            GateKind::Const1 => true,
        }
    }

    /// Evaluates the gate on 64 input patterns at once (one per bit lane).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`GateKind::eval`].
    pub fn eval_u64(self, inputs: &[u64]) -> u64 {
        assert!(
            self.accepts_arity(inputs.len()),
            "gate {} evaluated with {} fan-ins",
            self.name(),
            inputs.len()
        );
        match self {
            GateKind::Buf => inputs[0],
            GateKind::Not => !inputs[0],
            GateKind::And => inputs.iter().fold(u64::MAX, |acc, &w| acc & w),
            GateKind::Nand => !inputs.iter().fold(u64::MAX, |acc, &w| acc & w),
            GateKind::Or => inputs.iter().fold(0, |acc, &w| acc | w),
            GateKind::Nor => !inputs.iter().fold(0, |acc, &w| acc | w),
            GateKind::Xor => inputs.iter().fold(0, |acc, &w| acc ^ w),
            GateKind::Xnor => !inputs.iter().fold(0, |acc, &w| acc ^ w),
            GateKind::Mux => {
                let (s, a, b) = (inputs[0], inputs[1], inputs[2]);
                (a & !s) | (b & s)
            }
            GateKind::Const0 => 0,
            GateKind::Const1 => u64::MAX,
        }
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn truth_table(kind: GateKind, arity: usize) -> Vec<bool> {
        (0..1usize << arity)
            .map(|row| {
                let bits: Vec<bool> = (0..arity).map(|i| row >> i & 1 == 1).collect();
                kind.eval(&bits)
            })
            .collect()
    }

    #[test]
    fn two_input_truth_tables_match_table_1() {
        // Rows ordered (A,B) = (0,0),(1,0),(0,1),(1,1).
        assert_eq!(
            truth_table(GateKind::And, 2),
            vec![false, false, false, true]
        );
        assert_eq!(
            truth_table(GateKind::Nand, 2),
            vec![true, true, true, false]
        );
        assert_eq!(truth_table(GateKind::Or, 2), vec![false, true, true, true]);
        assert_eq!(
            truth_table(GateKind::Nor, 2),
            vec![true, false, false, false]
        );
        assert_eq!(
            truth_table(GateKind::Xor, 2),
            vec![false, true, true, false]
        );
        assert_eq!(
            truth_table(GateKind::Xnor, 2),
            vec![true, false, false, true]
        );
    }

    #[test]
    fn mux_follows_paper_pin_order() {
        // C = A·S̄ + B·S with fan-ins [S, A, B].
        for s in [false, true] {
            for a in [false, true] {
                for b in [false, true] {
                    let expect = if s { b } else { a };
                    assert_eq!(GateKind::Mux.eval(&[s, a, b]), expect);
                }
            }
        }
    }

    #[test]
    fn unary_gates() {
        assert!(GateKind::Buf.eval(&[true]));
        assert!(!GateKind::Buf.eval(&[false]));
        assert!(!GateKind::Not.eval(&[true]));
        assert!(GateKind::Not.eval(&[false]));
    }

    #[test]
    fn multi_input_parity() {
        assert!(GateKind::Xor.eval(&[true, true, true]));
        assert!(!GateKind::Xor.eval(&[true, true, false, false]));
        assert!(!GateKind::Xnor.eval(&[true, false, false]));
    }

    #[test]
    fn eval_u64_agrees_with_eval_on_every_lane() {
        for kind in GateKind::all() {
            let arity = match kind {
                GateKind::Buf | GateKind::Not => 1,
                GateKind::Mux => 3,
                _ => 3,
            };
            if !kind.accepts_arity(arity) {
                continue;
            }
            // Pack all 2^arity rows into the low lanes of each input word.
            let rows = 1usize << arity;
            let words: Vec<u64> = (0..arity)
                .map(|i| {
                    let mut w = 0u64;
                    for row in 0..rows {
                        if row >> i & 1 == 1 {
                            w |= 1 << row;
                        }
                    }
                    w
                })
                .collect();
            let packed = kind.eval_u64(&words);
            for row in 0..rows {
                let bits: Vec<bool> = (0..arity).map(|i| row >> i & 1 == 1).collect();
                assert_eq!(
                    packed >> row & 1 == 1,
                    kind.eval(&bits),
                    "kind {kind} row {row}"
                );
            }
        }
    }

    #[test]
    fn invert_is_an_involution_except_mux() {
        for kind in GateKind::all() {
            match kind.invert() {
                Some(inv) => assert_eq!(inv.invert(), Some(kind)),
                None => assert_eq!(kind, GateKind::Mux),
            }
        }
    }

    #[test]
    fn inverted_kinds_complement_base_kinds() {
        let pairs = [
            (GateKind::And, GateKind::Nand),
            (GateKind::Or, GateKind::Nor),
            (GateKind::Xor, GateKind::Xnor),
        ];
        for (base, inv) in pairs {
            for row in 0..4usize {
                let bits = [row & 1 == 1, row >> 1 & 1 == 1];
                assert_eq!(base.eval(&bits), !inv.eval(&bits));
            }
        }
    }

    #[test]
    fn name_round_trips() {
        for kind in GateKind::all() {
            assert_eq!(GateKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(GateKind::from_name("buff"), Some(GateKind::Buf));
        assert_eq!(GateKind::from_name("bogus"), None);
    }

    #[test]
    fn arity_rules() {
        assert!(GateKind::Not.accepts_arity(1));
        assert!(!GateKind::Not.accepts_arity(2));
        assert!(GateKind::Mux.accepts_arity(3));
        assert!(!GateKind::Mux.accepts_arity(2));
        assert!(GateKind::And.accepts_arity(5));
        assert!(!GateKind::And.accepts_arity(1));
    }
}
