//! **Table 4 reproduction** — CycSAT execution time on Full-Lock with
//! different numbers and sizes of PLRs, over the ISCAS-85/MCNC suite.
//!
//! The paper inserts 1–4 PLRs of 16×16 and 1–3 of 32×32 with random
//! (cyclic-capable) insertion and attacks with CycSAT under a 2×10⁶ s
//! timeout. The scaled default inserts 1–3 PLRs of 8×8 and 1–2 of 16×16 on
//! a representative circuit subset; `FULLLOCK_FULL=1` runs all circuits
//! and adds the 16×16×3 column. The target shape: time grows steeply with
//! both PLR count and CLN size, hitting `TO` well before the paper's
//! largest configurations.
//!
//! ```text
//! FULLLOCK_TIMEOUT_SECS=20 cargo run --release -p fulllock-bench --bin table4_fulllock_cycsat
//! ```

use std::time::Duration;

use fulllock_attacks::{Attack, SatAttackConfig, SimOracle};
use fulllock_bench::{fmt_attack_time, Scale, Table};
use fulllock_locking::{FullLock, FullLockConfig, LockingScheme, PlrSpec, WireSelection};
use fulllock_netlist::benchmarks;
use fulllock_sat::cdcl::SolverStats;

fn run_config(
    name: &str,
    sizes: &[usize],
    timeout: Duration,
) -> (String, Option<Duration>, SolverStats) {
    let original = benchmarks::load(name).expect("suite benchmark");
    let config = FullLockConfig {
        plrs: sizes.iter().map(|&s| PlrSpec::new(s)).collect(),
        selection: WireSelection::Cyclic,
        twist_probability: 0.5,
        seed: 0xFA11,
    };
    let locked = match FullLock::new(config).lock(&original) {
        Ok(l) => l,
        Err(e) => return (format!("n/a ({e})"), None, SolverStats::default()),
    };
    let oracle = SimOracle::new(&original).expect("originals are acyclic");
    let report = SatAttackConfig {
        timeout: Some(timeout),
        ..Default::default()
    }
    .run(&locked, &oracle)
    .expect("matching interfaces");
    if report.outcome.is_broken() {
        (
            fmt_attack_time(Some(report.elapsed)),
            Some(report.elapsed),
            report.solver,
        )
    } else {
        ("TO".to_string(), None, report.solver)
    }
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
        vec!["c432", "c499", "c880", "apex2", "i4"]
    };
    // Columns: (label, PLR size list) — scaled from the paper's
    // 16×16 ×{1..4} and 32×32 ×{1..3}.
    let mut configs: Vec<(String, Vec<usize>)> = vec![
        ("4x4 x1".into(), vec![4]),
        ("4x4 x2".into(), vec![4, 4]),
        ("8x8 x1".into(), vec![8]),
        ("8x8 x2".into(), vec![8, 8]),
        ("16x16 x1".into(), vec![16]),
        ("16x16 x2".into(), vec![16, 16]),
    ];
    if scale.full {
        configs.push(("16x16 x3".into(), vec![16, 16, 16]));
    }

    let mut headers: Vec<String> = vec!["Circuit".into()];
    headers.extend(configs.iter().map(|(l, _)| l.clone()));
    let mut table = Table::new(headers);
    let mut totals = SolverStats::default();
    for name in circuits {
        let mut cells: Vec<String> = vec![name.to_string()];
        let mut previous_to = false;
        for (_, sizes) in &configs {
            if previous_to {
                // Larger configurations of an already-TO circuit are also
                // TO (monotone in PLR count/size); skip the redundant run.
                cells.push("TO".into());
                continue;
            }
            let (cell, elapsed, solver) = run_config(name, sizes, scale.timeout);
            totals.merge(&solver);
            previous_to = elapsed.is_none() && cell == "TO";
            cells.push(cell);
        }
        table.row(cells);
    }
    table.emit(&format!(
        "Table 4: CycSAT time (s) on Full-Lock, random (cyclic) insertion — timeout {}s (paper: 2e6 s)",
        scale.timeout.as_secs_f64()
    ));
    println!(
        "\nsolver totals: {} conflicts, {} propagations at {:.2}M props/sec, mean learnt LBD {:.1}",
        totals.conflicts,
        totals.propagations,
        totals.props_per_cpu_sec() / 1e6,
        totals.mean_lbd(),
    );
    println!("\npaper shape: every circuit falls under a single small PLR, slows by");
    println!("orders of magnitude with each added/enlarged PLR, and times out for");
    println!("all circuits at 3 PLRs of the large size.");
}
