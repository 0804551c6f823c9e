//! Key-Configurable Logarithmic-based Networks (CLNs).
//!
//! A CLN is the routing half of a PLR: `S` stages of `N/2` two-by-two
//! switch-boxes, with fixed inter-stage wiring determined by the topology,
//! plus one key-configurable inverter on every wire after every stage
//! (Figs 2–4 of the paper).
//!
//! Each switch-box is built from two independent 2:1 MUXes, so beyond the
//! two *permutation* settings (straight / cross) a wrong key can also
//! *broadcast* one input to both outputs — one of the reasons wrong keys
//! corrupt outputs heavily.
//!
//! Topologies:
//!
//! * [`ClnTopology::Shuffle`] — the blocking omega network of Fig 3
//!   (`log2 N` stages, perfect-shuffle wiring);
//! * [`ClnTopology::Banyan`] — the blocking banyan/butterfly network
//!   (`log2 N` stages, butterfly wiring);
//! * [`ClnTopology::AlmostNonBlocking`] — the paper's
//!   `LOG_{N, log2(N)-2, 1}` network of Fig 4: a banyan followed by
//!   `log2(N)-2` extra mirrored stages (`2·log2(N)-2` total), realizing
//!   *almost all* permutations at ≈2× the cost of a blocking CLN;
//! * [`ClnTopology::Benes`] — the classic rearrangeably non-blocking
//!   Beneš network (`2·log2(N)-1` stages), included as the fully
//!   non-blocking reference point.

use std::collections::BTreeSet;

use fulllock_netlist::{GateKind, Netlist, SignalId};
use rand::Rng;

use crate::{LockError, Result};

/// Interconnect topology of a CLN. See the [module docs](self).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClnTopology {
    /// Blocking omega (perfect-shuffle) network, `log2 N` stages.
    Shuffle,
    /// Blocking banyan/butterfly network, `log2 N` stages.
    Banyan,
    /// `LOG_{N, log2(N)-2, 1}`: banyan plus `log2(N)-2` mirrored extra
    /// stages (`2·log2(N)-2` total), the paper's almost non-blocking CLN.
    AlmostNonBlocking,
    /// Beneš network, `2·log2(N)-1` stages, rearrangeably non-blocking.
    Benes,
}

impl ClnTopology {
    /// Short lower-case name (used in reports).
    pub fn name(self) -> &'static str {
        match self {
            ClnTopology::Shuffle => "shuffle",
            ClnTopology::Banyan => "banyan",
            ClnTopology::AlmostNonBlocking => "almost-non-blocking",
            ClnTopology::Benes => "benes",
        }
    }
}

/// One switch-box's *permutation* setting (the correct key always uses a
/// permutation; wrong keys may also broadcast).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SwbState {
    /// Outputs = inputs.
    Straight,
    /// Outputs = swapped inputs.
    Cross,
}

/// The structural (netlist-independent) description of a CLN.
///
/// # Example
///
/// Routing tokens through a configured network:
///
/// ```
/// use fulllock_locking::{ClnStructure, ClnTopology, SwbState};
///
/// # fn main() -> Result<(), fulllock_locking::LockError> {
/// let cln = ClnStructure::new(ClnTopology::Banyan, 4)?;
/// // All-straight switches route the identity permutation.
/// let straight = vec![SwbState::Straight; cln.num_switches()];
/// assert_eq!(cln.route(&straight), vec![0, 1, 2, 3]);
/// // Crossing the first switch swaps the first pair of tokens somewhere.
/// let mut one_cross = straight.clone();
/// one_cross[0] = SwbState::Cross;
/// assert_ne!(cln.route(&one_cross), vec![0, 1, 2, 3]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClnStructure {
    n: usize,
    k: u32,
    topology: ClnTopology,
    /// `pre_wiring[s][p]` = previous-level line feeding stage-`s` switch
    /// input position `p` (switch `t` owns positions `2t`, `2t+1`).
    pre_wiring: Vec<Vec<usize>>,
    /// `output_wiring[o]` = final-level position feeding CLN output `o`.
    output_wiring: Vec<usize>,
}

impl ClnStructure {
    /// Builds the structure of an `n`-input CLN.
    ///
    /// # Errors
    ///
    /// Returns [`LockError::BadConfig`] unless `n` is a power of two ≥ 4.
    pub fn new(topology: ClnTopology, n: usize) -> Result<ClnStructure> {
        if n < 4 || !n.is_power_of_two() {
            return Err(LockError::BadConfig(format!(
                "CLN size must be a power of two >= 4, got {n}"
            )));
        }
        let k = n.trailing_zeros();
        let (pre_wiring, output_wiring) = match topology {
            ClnTopology::Shuffle => {
                // Perfect shuffle before every stage: data at line j moves
                // to position rotate-left(j), so position p reads line
                // rotate-right(p). All-straight switches realize identity
                // (shuffle^k = id).
                let rot_right = |p: usize| (p >> 1) | ((p & 1) << (k - 1));
                let stage: Vec<usize> = (0..n).map(rot_right).collect();
                (vec![stage; k as usize], (0..n).collect())
            }
            ClnTopology::Banyan | ClnTopology::AlmostNonBlocking | ClnTopology::Benes => {
                // Butterfly-family networks, expressed by the bit each
                // stage switches on: banyan = MSB..LSB; Beneš appends the
                // mirror LSB+1..MSB; almost-non-blocking stops the mirror
                // at MSB-1 (log2(N)-2 extra stages).
                let mut bits: Vec<u32> = (0..k).rev().collect();
                match topology {
                    ClnTopology::Banyan => {}
                    ClnTopology::AlmostNonBlocking => bits.extend(1..k - 1),
                    ClnTopology::Benes => bits.extend(1..k),
                    ClnTopology::Shuffle => unreachable!(),
                }
                wiring_from_bit_sequence(n, &bits)
            }
        };
        Ok(ClnStructure {
            n,
            k,
            topology,
            pre_wiring,
            output_wiring,
        })
    }

    /// Number of inputs/outputs.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The topology.
    pub fn topology(&self) -> ClnTopology {
        self.topology
    }

    /// Number of switch stages.
    pub fn stages(&self) -> usize {
        self.pre_wiring.len()
    }

    /// Switch-boxes per stage (`N/2`).
    pub fn switches_per_stage(&self) -> usize {
        self.n / 2
    }

    /// Total switch-box count (`stages · N/2`).
    pub fn num_switches(&self) -> usize {
        self.stages() * self.switches_per_stage()
    }

    /// Routes token `i` injected at input `i` through a full permutation
    /// configuration; returns `perm` with `perm[i]` = output carrying
    /// input `i`.
    ///
    /// # Panics
    ///
    /// Panics if `states.len() != self.num_switches()` (stage-major,
    /// switch-minor order).
    pub fn route(&self, states: &[SwbState]) -> Vec<usize> {
        assert_eq!(states.len(), self.num_switches(), "one state per switch");
        let mut level: Vec<usize> = (0..self.n).collect(); // token at each line
        for (s, wiring) in self.pre_wiring.iter().enumerate() {
            let staged: Vec<usize> = (0..self.n).map(|p| level[wiring[p]]).collect();
            for t in 0..self.switches_per_stage() {
                let (a, b) = (staged[2 * t], staged[2 * t + 1]);
                match states[s * self.switches_per_stage() + t] {
                    SwbState::Straight => {
                        level[2 * t] = a;
                        level[2 * t + 1] = b;
                    }
                    SwbState::Cross => {
                        level[2 * t] = b;
                        level[2 * t + 1] = a;
                    }
                }
            }
        }
        let mut perm = vec![0usize; self.n];
        for o in 0..self.n {
            perm[level[self.output_wiring[o]]] = o;
        }
        perm
    }

    /// Like [`ClnStructure::route`], but also tracks, per input token, the
    /// parity of the inverter key bits along its path.
    ///
    /// `inverter_bits` is stage-major, line-minor (`stages() · n` bits): bit
    /// `s·n + p` is the inverter on line `p` after stage `s`.
    ///
    /// # Panics
    ///
    /// Panics on mis-sized `states` or `inverter_bits`.
    pub fn route_with_parity(
        &self,
        states: &[SwbState],
        inverter_bits: &[bool],
    ) -> (Vec<usize>, Vec<bool>) {
        assert_eq!(
            inverter_bits.len(),
            self.stages() * self.n,
            "one inverter bit per line per stage"
        );
        assert_eq!(states.len(), self.num_switches(), "one state per switch");
        let mut level: Vec<(usize, bool)> = (0..self.n).map(|i| (i, false)).collect();
        for (s, wiring) in self.pre_wiring.iter().enumerate() {
            let staged: Vec<(usize, bool)> = (0..self.n).map(|p| level[wiring[p]]).collect();
            for t in 0..self.switches_per_stage() {
                let (a, b) = (staged[2 * t], staged[2 * t + 1]);
                match states[s * self.switches_per_stage() + t] {
                    SwbState::Straight => {
                        level[2 * t] = a;
                        level[2 * t + 1] = b;
                    }
                    SwbState::Cross => {
                        level[2 * t] = b;
                        level[2 * t + 1] = a;
                    }
                }
            }
            for p in 0..self.n {
                level[p].1 ^= inverter_bits[s * self.n + p];
            }
        }
        let mut perm = vec![0usize; self.n];
        let mut parity = vec![false; self.n];
        for o in 0..self.n {
            let (token, par) = level[self.output_wiring[o]];
            perm[token] = o;
            parity[token] = par;
        }
        (perm, parity)
    }

    /// The final-level line position that feeds the output carrying input
    /// `token` under `perm` (useful to target that token's last inverter).
    pub fn final_position(&self, perm: &[usize], token: usize) -> usize {
        self.output_wiring[perm[token]]
    }

    /// Enumerates every permutation realizable by permutation-only switch
    /// settings. Exponential in switch count — intended for `n ≤ 8`
    /// (tests, and the blocking-vs-non-blocking analysis of §3.1).
    ///
    /// # Panics
    ///
    /// Panics if `n > 8` (the enumeration would exceed 2³² settings).
    pub fn reachable_permutations(&self) -> BTreeSet<Vec<usize>> {
        assert!(self.n <= 8, "permutation enumeration is for n <= 8");
        let switches = self.num_switches();
        let mut set = BTreeSet::new();
        let mut states = vec![SwbState::Straight; switches];
        for mask in 0u64..1 << switches {
            for (i, st) in states.iter_mut().enumerate() {
                *st = if mask >> i & 1 == 1 {
                    SwbState::Cross
                } else {
                    SwbState::Straight
                };
            }
            set.insert(self.route(&states));
        }
        set
    }

    /// Draws a uniformly random permutation-only switch configuration.
    pub fn random_states(&self, rng: &mut impl Rng) -> Vec<SwbState> {
        (0..self.num_switches())
            .map(|_| {
                if rng.gen_bool(0.5) {
                    SwbState::Cross
                } else {
                    SwbState::Straight
                }
            })
            .collect()
    }

    /// Switch-box count of a general `LOG_{N, M, P}` network (Shyy & Lea):
    /// `P` vertically cascaded planes of a banyan with `M` extra stages.
    /// This is the sizing formula behind the paper's §3.1 observation that
    /// the smallest *strictly* non-blocking configuration (`LOG_{64,3,6}`)
    /// carries **more than 5×** the area of a blocking CLN, which is why
    /// Full-Lock settles for the almost non-blocking
    /// `LOG_{N, log2(N)-2, 1}` instead.
    ///
    /// # Errors
    ///
    /// Returns [`LockError::BadConfig`] unless `n` is a power of two ≥ 4
    /// and `p ≥ 1`.
    ///
    /// # Example
    ///
    /// ```
    /// use fulllock_locking::ClnStructure;
    ///
    /// # fn main() -> Result<(), fulllock_locking::LockError> {
    /// let blocking = ClnStructure::log_nmp_switch_count(64, 0, 1)?; // banyan
    /// let strict = ClnStructure::log_nmp_switch_count(64, 3, 6)?;   // strictly non-blocking
    /// assert!(strict > 5 * blocking); // the paper's ">5x area" comparison
    /// # Ok(())
    /// # }
    /// ```
    pub fn log_nmp_switch_count(n: usize, m: usize, p: usize) -> Result<usize> {
        if n < 4 || !n.is_power_of_two() {
            return Err(LockError::BadConfig(format!(
                "LOG network size must be a power of two >= 4, got {n}"
            )));
        }
        if p == 0 {
            return Err(LockError::BadConfig("P must be >= 1".into()));
        }
        let stages = n.trailing_zeros() as usize + m;
        Ok(p * stages * (n / 2))
    }
}

/// Builds wiring for a butterfly-family network from the sequence of bits
/// its stages switch on (see the derivation in the module source).
///
/// In-place stage `s` pairs lines differing in bit `b_s`; conjugating by
/// `W_b` (the permutation swapping index bits 0 and `b`) turns each stage
/// into adjacent-pair switches with wiring `W_{b_{s-1}} ∘ W_{b_s}` before
/// stage `s` (just `W_{b_0}` before stage 0) and `W_{b_last}` after the
/// last stage.
fn wiring_from_bit_sequence(n: usize, bits: &[u32]) -> (Vec<Vec<usize>>, Vec<usize>) {
    let swap_bits = |x: usize, b: u32| -> usize {
        let lo = x & 1;
        let hi = (x >> b) & 1;
        if lo == hi {
            x
        } else {
            x ^ 1 ^ (1 << b)
        }
    };
    let mut pre_wiring = Vec::with_capacity(bits.len());
    for (s, &b) in bits.iter().enumerate() {
        let stage: Vec<usize> = (0..n)
            .map(|p| {
                let after = swap_bits(p, b);
                if s == 0 {
                    after
                } else {
                    swap_bits(after, bits[s - 1])
                }
            })
            .collect();
        pre_wiring.push(stage);
    }
    let last = *bits.last().expect("at least one stage");
    let output_wiring: Vec<usize> = (0..n).map(|o| swap_bits(o, last)).collect();
    (pre_wiring, output_wiring)
}

/// A CLN instantiated inside a netlist: MUX switch gates, XOR inverter
/// gates, and freshly created key inputs.
#[derive(Debug, Clone)]
pub struct ClnInstance {
    structure: ClnStructure,
    with_inverters: bool,
    /// CLN output signals, in output order.
    pub outputs: Vec<SignalId>,
    /// Key inputs in layout order: per stage, `N/2 × 2` MUX selects then
    /// (when inverters are enabled) `N` inverter enables.
    pub key_inputs: Vec<SignalId>,
    /// Every gate signal created for this CLN (used to except the CLN from
    /// fan-out redirection when splicing).
    pub gates: Vec<SignalId>,
}

impl ClnInstance {
    /// Instantiates `structure` into `netlist`, reading `inputs` (one per
    /// CLN input). New key inputs are named `{prefix}{i}`.
    ///
    /// Equivalent to [`ClnInstance::instantiate_with_options`] with
    /// key-configurable inverters enabled (the paper's design; disabling
    /// them is the ablation knob that removes twisting compensation and
    /// with it the removal resistance).
    ///
    /// # Errors
    ///
    /// Returns [`LockError::BadConfig`] if `inputs.len() != structure.n()`.
    pub fn instantiate(
        netlist: &mut Netlist,
        structure: &ClnStructure,
        inputs: &[SignalId],
        prefix: &str,
    ) -> Result<ClnInstance> {
        ClnInstance::instantiate_with_options(netlist, structure, inputs, prefix, true)
    }

    /// Instantiates `structure` with an explicit choice of whether each
    /// wire gets a key-configurable inverter after every stage.
    ///
    /// # Errors
    ///
    /// Returns [`LockError::BadConfig`] if `inputs.len() != structure.n()`.
    pub fn instantiate_with_options(
        netlist: &mut Netlist,
        structure: &ClnStructure,
        inputs: &[SignalId],
        prefix: &str,
        with_inverters: bool,
    ) -> Result<ClnInstance> {
        if inputs.len() != structure.n() {
            return Err(LockError::BadConfig(format!(
                "CLN of size {} fed by {} inputs",
                structure.n(),
                inputs.len()
            )));
        }
        let n = structure.n();
        let mut key_inputs = Vec::new();
        let mut gates = Vec::new();
        let mut key_index = 0usize;
        let mut new_key = |netlist: &mut Netlist, key_inputs: &mut Vec<SignalId>| {
            let k = netlist.add_input(format!("{prefix}{key_index}"));
            key_index += 1;
            key_inputs.push(k);
            k
        };

        let mut level: Vec<SignalId> = inputs.to_vec();
        for wiring in &structure.pre_wiring {
            let staged: Vec<SignalId> = (0..n).map(|p| level[wiring[p]]).collect();
            let mut next = Vec::with_capacity(n);
            for t in 0..n / 2 {
                let (a, b) = (staged[2 * t], staged[2 * t + 1]);
                // MUX fan-ins are [S, A, B]: select 0 = straight.
                let sel_even = new_key(netlist, &mut key_inputs);
                let even = netlist.add_gate(GateKind::Mux, &[sel_even, a, b])?;
                gates.push(even);
                let sel_odd = new_key(netlist, &mut key_inputs);
                let odd = netlist.add_gate(GateKind::Mux, &[sel_odd, b, a])?;
                gates.push(odd);
                next.push(even);
                next.push(odd);
            }
            // Key-configurable inverter on every wire (the twist channel).
            if with_inverters {
                let mut inverted = Vec::with_capacity(n);
                for &wire in &next {
                    let inv_key = new_key(netlist, &mut key_inputs);
                    let g = netlist.add_gate(GateKind::Xor, &[wire, inv_key])?;
                    gates.push(g);
                    inverted.push(g);
                }
                level = inverted;
            } else {
                level = next;
            }
        }
        let outputs: Vec<SignalId> = (0..n).map(|o| level[structure.output_wiring[o]]).collect();
        Ok(ClnInstance {
            structure: structure.clone(),
            with_inverters,
            outputs,
            key_inputs,
            gates,
        })
    }

    /// The structural description this instance realizes.
    pub fn structure(&self) -> &ClnStructure {
        &self.structure
    }

    /// Number of key bits.
    pub fn key_len(&self) -> usize {
        self.key_inputs.len()
    }

    /// Serializes a (states, inverter-bits) configuration into key bits in
    /// this instance's key-input order.
    ///
    /// `inverter_bits` is stage-major line-minor, as in
    /// [`ClnStructure::route_with_parity`].
    ///
    /// # Panics
    ///
    /// Panics on mis-sized inputs, and if any inverter bit is set on an
    /// instance built without inverters.
    pub fn key_bits_for(&self, states: &[SwbState], inverter_bits: &[bool]) -> Vec<bool> {
        let n = self.structure.n();
        let stages = self.structure.stages();
        assert_eq!(states.len(), self.structure.num_switches());
        assert_eq!(inverter_bits.len(), stages * n);
        assert!(
            self.with_inverters || inverter_bits.iter().all(|&b| !b),
            "inverter bits set on an inverter-less CLN"
        );
        let mut bits = Vec::with_capacity(self.key_len());
        for s in 0..stages {
            for t in 0..n / 2 {
                let cross = states[s * (n / 2) + t] == SwbState::Cross;
                bits.push(cross); // sel_even: 1 selects B (the swapped line)
                bits.push(cross); // sel_odd
            }
            if self.with_inverters {
                for p in 0..n {
                    bits.push(inverter_bits[s * n + p]);
                }
            }
        }
        bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fulllock_netlist::Simulator;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn all_topologies() -> [ClnTopology; 4] {
        [
            ClnTopology::Shuffle,
            ClnTopology::Banyan,
            ClnTopology::AlmostNonBlocking,
            ClnTopology::Benes,
        ]
    }

    #[test]
    fn rejects_bad_sizes() {
        for bad in [0usize, 1, 2, 3, 6, 12] {
            assert!(
                ClnStructure::new(ClnTopology::Shuffle, bad).is_err(),
                "n = {bad}"
            );
        }
    }

    #[test]
    fn stage_counts_match_paper() {
        // Blocking: log2 N stages; almost non-blocking: 2·log2(N)-2;
        // Beneš: 2·log2(N)-1.
        let n = 16;
        assert_eq!(
            ClnStructure::new(ClnTopology::Shuffle, n).unwrap().stages(),
            4
        );
        assert_eq!(
            ClnStructure::new(ClnTopology::Banyan, n).unwrap().stages(),
            4
        );
        assert_eq!(
            ClnStructure::new(ClnTopology::AlmostNonBlocking, n)
                .unwrap()
                .stages(),
            6
        );
        assert_eq!(
            ClnStructure::new(ClnTopology::Benes, n).unwrap().stages(),
            7
        );
    }

    #[test]
    fn switch_count_matches_paper_formula() {
        // N/2 · logN switches for blocking CLNs (§3.1).
        for n in [4usize, 8, 16, 32] {
            let s = ClnStructure::new(ClnTopology::Shuffle, n).unwrap();
            assert_eq!(s.num_switches(), n / 2 * n.trailing_zeros() as usize);
        }
    }

    #[test]
    fn all_straight_routes_identity() {
        for topology in all_topologies() {
            for n in [4usize, 8, 16] {
                let s = ClnStructure::new(topology, n).unwrap();
                let states = vec![SwbState::Straight; s.num_switches()];
                assert_eq!(
                    s.route(&states),
                    (0..n).collect::<Vec<_>>(),
                    "{} n={n}",
                    topology.name()
                );
            }
        }
    }

    #[test]
    fn route_always_yields_permutations() {
        let mut rng = StdRng::seed_from_u64(1);
        for topology in all_topologies() {
            let s = ClnStructure::new(topology, 16).unwrap();
            for _ in 0..20 {
                let states = s.random_states(&mut rng);
                let perm = s.route(&states);
                let mut seen = [false; 16];
                for &o in &perm {
                    assert!(!seen[o], "duplicate output in {}", topology.name());
                    seen[o] = true;
                }
            }
        }
    }

    #[test]
    fn benes_reaches_all_permutations_blocking_does_not() {
        let blocking = ClnStructure::new(ClnTopology::Shuffle, 4).unwrap();
        let banyan = ClnStructure::new(ClnTopology::Banyan, 4).unwrap();
        let benes = ClnStructure::new(ClnTopology::Benes, 4).unwrap();
        // 4! = 24 permutations.
        assert_eq!(benes.reachable_permutations().len(), 24);
        assert!(blocking.reachable_permutations().len() < 24);
        assert!(banyan.reachable_permutations().len() < 24);
    }

    #[test]
    fn almost_non_blocking_reaches_more_than_blocking() {
        let blocking = ClnStructure::new(ClnTopology::Banyan, 8).unwrap();
        let almost = ClnStructure::new(ClnTopology::AlmostNonBlocking, 8).unwrap();
        let nb = blocking.reachable_permutations().len();
        let na = almost.reachable_permutations().len();
        // The extra log2(N)-2 stages more than double the reachable
        // permutation count (4096 → 9216 at N=8); the Beneš test below
        // covers the fully non-blocking end of the spectrum.
        assert!(
            na > 2 * nb,
            "almost-non-blocking ({na}) should more than double blocking ({nb})"
        );
    }

    #[test]
    fn parity_tracks_inverters() {
        let s = ClnStructure::new(ClnTopology::Banyan, 4).unwrap();
        let states = vec![SwbState::Straight; s.num_switches()];
        let mut inv = vec![false; s.stages() * 4];
        // Flip the final-stage inverter on the line feeding output 2.
        let perm: Vec<usize> = (0..4).collect();
        let final_pos = s.final_position(&perm, 2);
        inv[(s.stages() - 1) * 4 + final_pos] = true;
        let (perm2, parity) = s.route_with_parity(&states, &inv);
        assert_eq!(perm2, perm);
        assert_eq!(parity, vec![false, false, true, false]);
    }

    /// Instantiate a CLN over fresh inputs and check, for random keys
    /// derived from (states, inverter) configurations, that the netlist
    /// computes exactly the routed permutation with the tracked parities.
    #[test]
    fn netlist_instance_matches_structural_routing() {
        let mut rng = StdRng::seed_from_u64(7);
        for topology in all_topologies() {
            let n = 8usize;
            let structure = ClnStructure::new(topology, n).unwrap();
            let mut nl = Netlist::new("cln");
            let inputs: Vec<_> = (0..n).map(|i| nl.add_input(format!("in{i}"))).collect();
            let inst = ClnInstance::instantiate(&mut nl, &structure, &inputs, "key").unwrap();
            for &o in &inst.outputs {
                nl.mark_output(o);
            }
            let sim = Simulator::new(&nl).unwrap();

            for _ in 0..5 {
                let states = structure.random_states(&mut rng);
                let inv: Vec<bool> = (0..structure.stages() * n)
                    .map(|_| rng.gen_bool(0.5))
                    .collect();
                let (perm, parity) = structure.route_with_parity(&states, &inv);
                let key_bits = inst.key_bits_for(&states, &inv);

                // Drive each input with a distinct pattern over 8 trials to
                // identify the routing: use one-hot patterns.
                for hot in 0..n {
                    let mut full = Vec::new();
                    for i in 0..n {
                        full.push(i == hot);
                    }
                    full.extend(&key_bits);
                    // Primary inputs were created inputs-first, keys after.
                    let got = sim.run(&full).unwrap();
                    for token in 0..n {
                        let expect = (token == hot) ^ parity[token];
                        assert_eq!(
                            got[perm[token]],
                            expect,
                            "{} token {token} hot {hot}",
                            topology.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn key_layout_length() {
        let structure = ClnStructure::new(ClnTopology::Shuffle, 8).unwrap();
        let mut nl = Netlist::new("cln");
        let inputs: Vec<_> = (0..8).map(|i| nl.add_input(format!("in{i}"))).collect();
        let inst = ClnInstance::instantiate(&mut nl, &structure, &inputs, "key").unwrap();
        // Per stage: 8 mux selects (4 switches × 2) + 8 inverter bits.
        assert_eq!(inst.key_len(), structure.stages() * (8 + 8));
        assert_eq!(inst.outputs.len(), 8);
    }

    #[test]
    fn mismatched_input_count_errors() {
        let structure = ClnStructure::new(ClnTopology::Shuffle, 8).unwrap();
        let mut nl = Netlist::new("cln");
        let a = nl.add_input("a");
        assert!(ClnInstance::instantiate(&mut nl, &structure, &[a], "key").is_err());
    }
}
