//! **§4.2 reproduction** — approximate-attack (AppSAT) behaviour.
//!
//! AppSAT settles for a key whose sampled error rate is under a threshold.
//! On point-function schemes (SARLock, Anti-SAT) almost every key is
//! almost correct, so AppSAT "breaks" them in a handful of iterations. On
//! Full-Lock the output corruption of wrong keys is high, so AppSAT
//! neither settles nor converges — the approximate key it is left with is
//! badly wrong.
//!
//! ```text
//! cargo run --release -p fulllock-bench --bin appsat_study
//! ```

use fulllock_attacks::{AppSatConfig, Attack, AttackDetails, SatAttackConfig, SimOracle};
use fulllock_bench::{Scale, Table};
use fulllock_locking::{corruption, AntiSat, FullLock, FullLockConfig, LockingScheme, SarLock};
use fulllock_netlist::benchmarks;

fn main() {
    let scale = Scale::from_env();
    let bench = if scale.full { "c880" } else { "c432" };
    let original = benchmarks::load(bench).expect("suite benchmark");

    let schemes: Vec<Box<dyn LockingScheme>> = vec![
        Box::new(SarLock::new(16, 2)),
        Box::new(AntiSat::new(16, 2)),
        Box::new(FullLock::new(FullLockConfig::single_plr(16))),
    ];

    let mut table = Table::new([
        "Scheme",
        "wrong-key corruption",
        "AppSAT iterations",
        "AppSAT settled",
        "approx-key error",
    ]);
    for scheme in schemes {
        let locked = scheme.lock(&original).expect("benchmark hosts each scheme");
        let corr =
            corruption::measure(&locked, &original, 8, 32, 3).expect("corruption measurement");
        let oracle = SimOracle::new(&original).expect("originals are acyclic");
        let report = AppSatConfig {
            base: SatAttackConfig {
                timeout: Some(scale.timeout),
                ..Default::default()
            },
        }
        .run(&locked, &oracle)
        .expect("matching interfaces");
        let AttackDetails::AppSat(details) = &report.details else {
            panic!("appsat reports AppSat details");
        };
        table.row([
            scheme.name(),
            format!("{:.3}", corr.pattern_error_rate()),
            report.iterations.to_string(),
            if details.settled { "yes" } else { "no" }.to_string(),
            format!("{:.3}", details.measured_error),
        ]);
    }
    table.emit(&format!(
        "AppSAT vs corruption ({bench}) — settle threshold 1% error"
    ));
    println!("\npaper claim (§2, §4.2): Full-Lock's high corruption makes approximate");
    println!("attacks pointless — an approximate key is as broken as a random one —");
    println!("while SARLock/Anti-SAT fall to AppSAT immediately.");
}
