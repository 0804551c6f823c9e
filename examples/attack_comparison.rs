//! Scheme-vs-attack matrix: every locking scheme against the SAT attack,
//! Double-DIP, AppSAT, and SPS, on one benchmark — a one-screen summary
//! of the security landscape the paper's related-work section describes.
//!
//! The whole matrix is driven through the unified [`Attack`] trait: one
//! `Vec<Box<dyn Attack>>`, one loop, one report envelope.
//!
//! ```text
//! cargo run --release --example attack_comparison
//! ```

use std::error::Error;
use std::time::Duration;

use full_lock::attacks::{
    AppSatConfig, Attack, AttackOutcome, DoubleDip, SatAttackConfig, SimOracle, Sps,
};
use full_lock::locking::{
    AntiSat, CrossLock, Fll, FullLock, FullLockConfig, LockingScheme, LutLock, Rll, SarLock,
};
use full_lock::netlist::benchmarks;

/// One table cell: the outcome compressed to a short verdict.
fn cell(outcome: &AttackOutcome, iterations: u64) -> String {
    match outcome {
        AttackOutcome::KeyRecovered { .. } => format!("broken/{iterations}"),
        AttackOutcome::ApproximateKey { measured_error, .. } => {
            format!("broken (err {measured_error:.3})")
        }
        AttackOutcome::Bypassed { exact: true, .. } => "broken".to_string(),
        AttackOutcome::Bypassed { error_rate, .. } => format!("resisted ({error_rate:.2})"),
        AttackOutcome::Defeated { .. } => "resisted".to_string(),
        AttackOutcome::Timeout | AttackOutcome::IterationLimit => "TO".to_string(),
        _ => "n/a".to_string(),
    }
}

fn main() -> Result<(), Box<dyn Error>> {
    let original = benchmarks::load("c432")?;
    let budget = Duration::from_secs(5);

    let schemes: Vec<Box<dyn LockingScheme>> = vec![
        Box::new(Rll::new(24, 0)),
        Box::new(Fll::new(24, 0)),
        Box::new(SarLock::new(14, 0)),
        Box::new(AntiSat::new(14, 0)),
        Box::new(LutLock::new(12, 0)),
        Box::new(CrossLock::new(16, 0)),
        Box::new(FullLock::new(FullLockConfig::single_plr(16))),
    ];

    let base = SatAttackConfig {
        timeout: Some(budget),
        ..Default::default()
    };
    let attacks: Vec<Box<dyn Attack>> = vec![
        Box::new(base),
        Box::new(DoubleDip { base }),
        Box::new(AppSatConfig { base }),
        Box::new(Sps),
    ];

    print!("{:<20}", "scheme");
    for attack in &attacks {
        print!(" {:>16}", attack.name());
    }
    println!();
    for scheme in schemes {
        let locked = scheme.lock(&original)?;
        print!("{:<20}", scheme.name());
        for attack in &attacks {
            let oracle = SimOracle::new(&original)?;
            let verdict = match attack.run(&locked, &oracle) {
                Ok(report) => cell(&report.outcome, report.iterations),
                Err(_) => "n/a".to_string(),
            };
            print!(" {verdict:>16}");
        }
        println!();
    }
    println!("\nexpected: every baseline falls to at least one attack; Full-Lock");
    println!("resists all four within the budget (the paper's Table 4 / §4.2).");
    Ok(())
}
