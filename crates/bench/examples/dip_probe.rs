//! Ad-hoc probe: times the SAT attack under each encoding/inprocessing
//! combination on two cln32 workloads (bare wires vs random host).

use std::time::Instant;

use fulllock_attacks::{EncodeStyle, SatAttack, SatAttackConfig, SimOracle};
use fulllock_bench::cln_testbed;
use fulllock_locking::{
    ClnTopology, FullLock, FullLockConfig, LockingScheme, PlrSpec, WireSelection,
};
use fulllock_netlist::random::{generate, RandomCircuitConfig};
use fulllock_netlist::Netlist;
use fulllock_sat::cdcl::SolverConfig;
use fulllock_sat::BackendSpec;

fn config(cone: bool, style: EncodeStyle, inprocess: bool, budget: u64) -> SatAttackConfig {
    SatAttackConfig {
        max_iterations: Some(budget),
        backend: BackendSpec::Configured(SolverConfig { inprocess }),
        cone_reduce: cone,
        encode_style: style,
        ..SatAttackConfig::default()
    }
}

fn run(locked: &fulllock_locking::LockedCircuit, host: &Netlist, cfg: SatAttackConfig) {
    let oracle = SimOracle::new(host).expect("acyclic host");
    let mut engine = SatAttack::new(locked, &oracle, cfg).expect("interfaces match");
    let start = Instant::now();
    let report = engine.run().expect("complete models");
    let secs = start.elapsed().as_secs_f64();
    println!(
        "    iters={} secs={:.3} s/iter={:.4} clauses={} outcome={:?}",
        report.iterations,
        secs,
        secs / report.iterations.max(1) as f64,
        report.formula.1,
        report.outcome,
    );
}

fn main() {
    let budget: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(16);
    let gates: usize = std::env::args()
        .nth(2)
        .and_then(|a| a.parse().ok())
        .unwrap_or(3000);
    let skip_bare = std::env::args().any(|a| a == "--skip-bare");

    let combos = [
        (
            "legacy  (cone off, generic, inproc off)",
            false,
            EncodeStyle::Generic,
            false,
        ),
        (
            "cone    (cone on,  generic, inproc off)",
            true,
            EncodeStyle::Generic,
            false,
        ),
        (
            "struct  (cone on,  struct,  inproc off)",
            true,
            EncodeStyle::Structured,
            false,
        ),
        (
            "current (cone on,  struct,  inproc on )",
            true,
            EncodeStyle::Structured,
            true,
        ),
    ];

    if !skip_bare {
        println!("== bare-wire cln32 testbed ==");
        let (host, locked) = cln_testbed(32, ClnTopology::AlmostNonBlocking, 0xD1B);
        for (name, cone, style, inproc) in combos {
            println!("  {name}");
            run(&locked, &host, config(cone, style, inproc, budget));
        }
    }

    println!("== random host (64 in / 32 out / {gates} gates) + cln32 ==");
    let host = generate(RandomCircuitConfig {
        inputs: 64,
        outputs: 32,
        gates,
        max_fanin: 3,
        seed: 0xD1B,
    })
    .expect("valid config");
    let lock = FullLock::new(FullLockConfig {
        plrs: vec![PlrSpec {
            cln_size: 32,
            topology: ClnTopology::AlmostNonBlocking,
            with_luts: false,
            with_inverters: true,
        }],
        selection: WireSelection::Acyclic,
        twist_probability: 0.0,
        seed: 0xD1B,
    });
    let locked = lock.lock(&host).expect("host accommodates cln32");
    for (name, cone, style, inproc) in combos {
        println!("  {name}");
        run(&locked, &host, config(cone, style, inproc, budget));
    }
}
