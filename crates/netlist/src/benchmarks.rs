//! The benchmark circuit suite used by the paper's evaluation (Tables 4–5).
//!
//! The Full-Lock paper evaluates on ISCAS-85 (`c432` … `c7552`) and MCNC
//! (`apex2`, `apex4`, `i4`, `i7`) circuits. The original netlists are not
//! redistributable inside this repository, so — per the reproduction's
//! substitution policy (see `DESIGN.md`) — each circuit except the tiny,
//! well-known `c17` is a **seeded synthetic stand-in** generated with the
//! same gate count, primary-input count, and primary-output count the paper
//! reports in Table 5, and a fan-in profile capped at 5 (the maximum the
//! paper observes across ISCAS-85/MCNC).
//!
//! This preserves what the experiments actually measure: the attacks operate
//! on an oracle + locked DAG of standard cells, and Full-Lock's SAT hardness
//! comes from the inserted PLRs, not from the host circuit's particular
//! Boolean function.

use crate::random::{generate_with_profile, GateProfile, RandomCircuitConfig};
use crate::{bench_io, Netlist, NetlistError, Result};

/// Metadata for one benchmark circuit (the `# Gates` / `# I/Os` columns of
/// Table 5 in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchmarkInfo {
    /// Circuit name as used in the paper.
    pub name: &'static str,
    /// Gate count.
    pub gates: usize,
    /// Primary-input count.
    pub inputs: usize,
    /// Primary-output count.
    pub outputs: usize,
    /// Whether the netlist is the real circuit (`c17`) or a synthetic
    /// stand-in with matching statistics.
    pub synthetic: bool,
}

/// The real ISCAS-85 `c17` netlist (6 NAND gates; public-domain textbook
/// circuit).
pub const C17_BENCH: &str = "\
# c17 (ISCAS-85)
INPUT(G1)
INPUT(G2)
INPUT(G3)
INPUT(G6)
INPUT(G7)
OUTPUT(G22)
OUTPUT(G23)
G10 = NAND(G1, G3)
G11 = NAND(G3, G6)
G16 = NAND(G2, G11)
G19 = NAND(G11, G7)
G22 = NAND(G10, G16)
G23 = NAND(G16, G19)
";

const SUITE: [BenchmarkInfo; 14] = [
    BenchmarkInfo {
        name: "c17",
        gates: 6,
        inputs: 5,
        outputs: 2,
        synthetic: false,
    },
    BenchmarkInfo {
        name: "c432",
        gates: 160,
        inputs: 36,
        outputs: 7,
        synthetic: true,
    },
    BenchmarkInfo {
        name: "c499",
        gates: 202,
        inputs: 41,
        outputs: 32,
        synthetic: true,
    },
    BenchmarkInfo {
        name: "c880",
        gates: 386,
        inputs: 60,
        outputs: 26,
        synthetic: true,
    },
    BenchmarkInfo {
        name: "c1355",
        gates: 546,
        inputs: 41,
        outputs: 32,
        synthetic: true,
    },
    BenchmarkInfo {
        name: "c1908",
        gates: 880,
        inputs: 33,
        outputs: 25,
        synthetic: true,
    },
    BenchmarkInfo {
        name: "c2670",
        gates: 1193,
        inputs: 157,
        outputs: 64,
        synthetic: true,
    },
    BenchmarkInfo {
        name: "c3540",
        gates: 1669,
        inputs: 50,
        outputs: 22,
        synthetic: true,
    },
    BenchmarkInfo {
        name: "c5315",
        gates: 2307,
        inputs: 178,
        outputs: 123,
        synthetic: true,
    },
    BenchmarkInfo {
        name: "c7552",
        gates: 3512,
        inputs: 206,
        outputs: 107,
        synthetic: true,
    },
    BenchmarkInfo {
        name: "apex2",
        gates: 610,
        inputs: 39,
        outputs: 3,
        synthetic: true,
    },
    BenchmarkInfo {
        name: "apex4",
        gates: 5360,
        inputs: 10,
        outputs: 19,
        synthetic: true,
    },
    BenchmarkInfo {
        name: "i4",
        gates: 338,
        inputs: 192,
        outputs: 6,
        synthetic: true,
    },
    BenchmarkInfo {
        name: "i7",
        gates: 1315,
        inputs: 199,
        outputs: 67,
        synthetic: true,
    },
];

/// All benchmark circuits of the paper's evaluation, in Table 5 order
/// (plus `c17` first, useful for fast tests).
pub fn suite() -> &'static [BenchmarkInfo] {
    &SUITE
}

/// Looks a benchmark up by name.
pub fn info(name: &str) -> Option<BenchmarkInfo> {
    SUITE.iter().copied().find(|b| b.name == name)
}

/// Loads (or synthesizes) a benchmark circuit by name.
///
/// Loading is deterministic: the synthetic circuits are generated from a
/// per-name seed, so two calls always return identical netlists.
///
/// # Errors
///
/// Returns [`NetlistError::BadConfig`] for an unknown benchmark name.
///
/// # Example
///
/// ```
/// use fulllock_netlist::benchmarks;
///
/// # fn main() -> Result<(), fulllock_netlist::NetlistError> {
/// let c432 = benchmarks::load("c432")?;
/// assert_eq!(c432.stats().gates, 160);
/// assert_eq!(c432.stats().inputs, 36);
/// # Ok(())
/// # }
/// ```
pub fn load(name: &str) -> Result<Netlist> {
    let info =
        info(name).ok_or_else(|| NetlistError::BadConfig(format!("unknown benchmark {name:?}")))?;
    if !info.synthetic {
        let mut nl = bench_io::parse(C17_BENCH, "c17")?;
        nl.set_name("c17");
        return Ok(nl);
    }
    let seed = name_seed(info.name);
    let mut nl = generate_with_profile(
        RandomCircuitConfig {
            inputs: info.inputs,
            outputs: info.outputs,
            gates: info.gates,
            max_fanin: 5,
            seed,
        },
        profile_of(info.name),
    )?;
    nl.set_name(info.name);
    Ok(nl)
}

/// Gate-kind profile of each stand-in, chosen to resemble the original:
/// `c499`/`c1355` are XOR-dominated ECC circuits, `c1908` is NAND fabric,
/// the `apex*` MCNC circuits descend from two-level PLA forms.
fn profile_of(name: &str) -> GateProfile {
    match name {
        "c499" | "c1355" => GateProfile::XorRich,
        "c1908" | "c2670" => GateProfile::NandDominant,
        "apex2" | "apex4" => GateProfile::TwoLevel,
        _ => GateProfile::Mixed,
    }
}

/// A stable per-name seed (FNV-1a over the name, offset so `c17`'s seed is
/// never used even if someone synthesizes a circuit of the same name).
fn name_seed(name: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in name.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{topo, Simulator};

    #[test]
    fn suite_has_paper_rows() {
        assert_eq!(suite().len(), 14);
        let c7552 = info("c7552").unwrap();
        assert_eq!(c7552.gates, 3512);
        assert_eq!(c7552.inputs, 206);
        assert_eq!(c7552.outputs, 107);
    }

    #[test]
    fn c17_is_real() {
        let nl = load("c17").unwrap();
        assert!(!info("c17").unwrap().synthetic);
        let sim = Simulator::new(&nl).unwrap();
        // All-ones inputs: G10=G11=0, G16=G19=1, so G22=NAND(0,1)=1 and
        // G23=NAND(1,1)=0.
        assert_eq!(sim.run(&[true; 5]).unwrap(), vec![true, false]);
    }

    #[test]
    fn synthetic_benchmarks_match_published_stats() {
        for b in suite() {
            let nl = load(b.name).unwrap();
            let stats = nl.stats();
            assert_eq!(stats.gates, b.gates, "{}", b.name);
            assert_eq!(stats.inputs, b.inputs, "{}", b.name);
            assert_eq!(stats.outputs, b.outputs, "{}", b.name);
            assert!(stats.max_fanin <= 5, "{}", b.name);
        }
    }

    #[test]
    fn loading_is_deterministic() {
        assert_eq!(load("c432").unwrap(), load("c432").unwrap());
        assert_ne!(load("c432").unwrap(), load("c499").unwrap());
    }

    #[test]
    fn all_benchmarks_are_acyclic() {
        for b in suite() {
            // apex4 is the big one; this still runs in well under a second.
            let nl = load(b.name).unwrap();
            assert!(!topo::is_cyclic(&nl), "{}", b.name);
        }
    }

    #[test]
    fn profiles_shape_gate_mix() {
        use crate::GateKind;
        let c499 = load("c499").unwrap(); // XOR-rich ECC stand-in
        let hist = c499.gate_histogram();
        let xors = hist.get(&GateKind::Xor).copied().unwrap_or(0)
            + hist.get(&GateKind::Xnor).copied().unwrap_or(0);
        assert!(
            xors * 2 > c499.stats().gates,
            "c499 stand-in should be XOR-dominated ({xors} of {})",
            c499.stats().gates
        );
        let apex2 = load("apex2").unwrap(); // two-level PLA stand-in
        let hist = apex2.gate_histogram();
        let and_or = hist.get(&GateKind::And).copied().unwrap_or(0)
            + hist.get(&GateKind::Or).copied().unwrap_or(0);
        assert!(and_or * 2 > apex2.stats().gates);
    }

    #[test]
    fn unknown_name_errors() {
        assert!(load("c9999").is_err());
        assert!(info("c9999").is_none());
    }
}
