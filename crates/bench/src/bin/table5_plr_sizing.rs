//! **Table 5 reproduction** — the smallest SAT-resilient Full-Lock
//! configuration per benchmark, compared against Cross-Lock's crossbar
//! count for the same resilience.
//!
//! For each circuit the harness climbs a ladder of Full-Lock
//! configurations (and, independently, of Cross-Lock crossbar counts)
//! until the SAT/CycSAT attack times out within the scaled budget, and
//! reports the first resilient rung. The paper's shape: Full-Lock reaches
//! resilience with *fewer and smaller* blocks than Cross-Lock — e.g.
//! apex4 needs 2×32×32+1×8×8 PLRs vs 11 32×36 crossbars.
//!
//! ```text
//! FULLLOCK_TIMEOUT_SECS=10 cargo run --release -p fulllock-bench --bin table5_plr_sizing
//! ```

use std::time::Duration;

use fulllock_attacks::{Attack, SatAttackConfig, SimOracle};
use fulllock_bench::{Scale, Table};
use fulllock_locking::{
    CrossLock, FullLock, FullLockConfig, LockingScheme, PlrSpec, WireSelection,
};
use fulllock_netlist::{benchmarks, Netlist};

/// Attacks `locked`; returns true if it survived (TO) within `timeout`.
fn survives(
    original: &Netlist,
    locked: &fulllock_locking::LockedCircuit,
    timeout: Duration,
) -> bool {
    let oracle = SimOracle::new(original).expect("originals are acyclic");
    let report = SatAttackConfig {
        timeout: Some(timeout),
        ..Default::default()
    }
    .run(locked, &oracle)
    .expect("matching interfaces");
    !report.outcome.is_broken()
}

fn fulllock_ladder() -> Vec<(String, Vec<usize>)> {
    vec![
        ("1x8x8".into(), vec![8]),
        ("2x8x8".into(), vec![8, 8]),
        ("1x16x16".into(), vec![16]),
        ("1x16x16+1x8x8".into(), vec![16, 8]),
        ("2x16x16".into(), vec![16, 16]),
        ("2x16x16+1x8x8".into(), vec![16, 16, 8]),
        ("1x32x32".into(), vec![32]),
        ("1x32x32+1x16x16".into(), vec![32, 16]),
        ("2x32x32".into(), vec![32, 32]),
    ]
}

fn main() {
    let scale = Scale::from_env();
    let circuits: Vec<&str> = if scale.full {
        benchmarks::suite()
            .iter()
            .map(|b| b.name)
            .filter(|&n| n != "c17")
            .collect()
    } else {
        vec!["c432", "c499", "c880", "c1355", "apex2", "i4"]
    };

    let mut table = Table::new([
        "Circuit",
        "# Gates",
        "# I/Os",
        "Full-Lock (smallest resilient)",
        "Cross-Lock (smallest resilient)",
    ]);
    for name in circuits {
        let info = benchmarks::info(name).expect("suite benchmark");
        let original = benchmarks::load(name).expect("suite benchmark");

        // Full-Lock ladder.
        let mut fl_result = "> ladder".to_string();
        for (label, sizes) in fulllock_ladder() {
            let config = FullLockConfig {
                plrs: sizes.iter().map(|&s| PlrSpec::new(s)).collect(),
                selection: WireSelection::Acyclic,
                twist_probability: 0.5,
                seed: 0x7AB5,
            };
            let locked = match FullLock::new(config).lock(&original) {
                Ok(l) => l,
                Err(_) => continue, // host too small for this rung
            };
            if survives(&original, &locked, scale.timeout) {
                fl_result = label;
                break;
            }
        }

        // Cross-Lock ladder: 16×16 crossbars (scaled from the paper's
        // 32×36), increasing count.
        let mut cl_result = "> 8 bars".to_string();
        for count in 1..=8usize {
            let locked = match CrossLock::with_count(16, count, 0xC0B5).lock(&original) {
                Ok(l) => l,
                Err(_) => break, // not enough independent wires left
            };
            if survives(&original, &locked, scale.timeout) {
                cl_result = format!("{count}x16x16");
                break;
            }
        }

        table.row([
            name.to_string(),
            info.gates.to_string(),
            format!("{}/{}", info.inputs, info.outputs),
            fl_result,
            cl_result,
        ]);
    }
    table.emit(&format!(
        "Table 5: smallest SAT-resilient configuration — timeout {}s (paper: 2e6 s; paper blocks: 8/16/32 PLRs vs 32x36 crossbars)",
        scale.timeout.as_secs_f64()
    ));
    println!("\npaper shape: Full-Lock reaches SAT resilience with fewer/smaller");
    println!("blocks than Cross-Lock on every circuit.");
}
