//! **Table 3 reproduction** — power/area/delay and SAT resiliency of
//! blocking and almost non-blocking CLNs.
//!
//! PPA comes from the calibrated generic-32nm model in `fulllock-tech`;
//! SAT resiliency re-runs the scaled Table 2 attack for the sizes that fit
//! the budget and extrapolates the paper's verdict for the rest (marked
//! `✓*` / `✗*`).
//!
//! ```text
//! cargo run --release -p fulllock-bench --bin table3_cln_ppa
//! ```

use fulllock_attacks::{Attack, SatAttackConfig, SimOracle};
use fulllock_bench::{cln_testbed, Scale, Table};
use fulllock_locking::ClnTopology;
use fulllock_tech::Technology;

struct Row {
    label: String,
    n: usize,
    topology: ClnTopology,
    /// Paper's verdict for sizes beyond the scaled budget.
    paper_resilient: bool,
}

fn main() {
    let scale = Scale::from_env();
    let tech = Technology::generic_32nm();
    let attack_limit = if scale.full { 32 } else { 16 };

    let rows = vec![
        Row {
            label: "Shuffle (N=32)".into(),
            n: 32,
            topology: ClnTopology::Shuffle,
            paper_resilient: false,
        },
        Row {
            label: "LOG_{32,3,1}".into(),
            n: 32,
            topology: ClnTopology::AlmostNonBlocking,
            paper_resilient: false,
        },
        Row {
            label: "Shuffle (N=64)".into(),
            n: 64,
            topology: ClnTopology::Shuffle,
            paper_resilient: false,
        },
        Row {
            label: "LOG_{64,4,1}".into(),
            n: 64,
            topology: ClnTopology::AlmostNonBlocking,
            paper_resilient: true,
        },
        Row {
            label: "Shuffle (N=128)".into(),
            n: 128,
            topology: ClnTopology::Shuffle,
            paper_resilient: false,
        },
        Row {
            label: "Shuffle (N=256)".into(),
            n: 256,
            topology: ClnTopology::Shuffle,
            paper_resilient: false,
        },
        Row {
            label: "Shuffle (N=512)".into(),
            n: 512,
            topology: ClnTopology::Shuffle,
            paper_resilient: true,
        },
    ];

    let mut table = Table::new([
        "CLN",
        "Area (um^2)",
        "Power (nW)",
        "Delay (ns)",
        "SAT-resilient",
    ]);
    for row in rows {
        let (host, locked) = cln_testbed(row.n, row.topology, 1);
        // PPA of the CLN logic alone: locked minus host buffers.
        let locked_ppa = tech.netlist_ppa(&locked.netlist).expect("acyclic testbed");
        let host_ppa = tech.netlist_ppa(&host).expect("acyclic host");
        let resilient = if row.n <= attack_limit {
            let oracle = SimOracle::new(&host).expect("acyclic host");
            let report = SatAttackConfig {
                timeout: Some(scale.timeout),
                ..Default::default()
            }
            .run(&locked, &oracle)
            .expect("matching interfaces");
            if report.outcome.is_broken() {
                "✗".into()
            } else {
                "✓".into()
            }
        } else {
            // Beyond the scaled budget: report the paper's verdict, marked.
            format!("{}*", if row.paper_resilient { "✓" } else { "✗" })
        };
        table.row([
            row.label,
            format!("{:.1}", locked_ppa.area_um2 - host_ppa.area_um2),
            format!("{:.1}", locked_ppa.power_nw - host_ppa.power_nw),
            format!("{:.2}", locked_ppa.delay_ns),
            resilient,
        ]);
    }
    table.emit("Table 3: PPA and SAT resiliency of CLNs (generic 32nm-class model)");
    println!("\n'*' = verdict from the paper's full-scale run (size beyond the scaled budget).");
    println!("paper shape: LOG_{{64,4,1}} is the smallest SAT-resilient CLN and costs");
    println!("roughly a third of the smallest resilient blocking CLN (Shuffle N=512).");
}
