//! **Ablation study** — which ingredient of the PLR buys which property?
//!
//! The paper composes four mechanisms: the CLN's cascaded switch-boxes,
//! its key-configurable inverters (+ leading-gate twisting), the
//! key-programmable LUTs, and the almost non-blocking topology. This
//! harness knocks each out and measures what is lost:
//!
//! * SAT-attack time (scaled) — the §3.1 hardness claim;
//! * wrong-key output corruption — the §2 high-corruption claim;
//! * best-case removal error — the §4.2.2 removal-resistance claim.
//!
//! ```text
//! FULLLOCK_TIMEOUT_SECS=10 cargo run --release -p fulllock-bench --bin ablation_study
//! ```

use fulllock_attacks::{Attack, Removal, SatAttackConfig, SimOracle};
use fulllock_bench::{fmt_attack_time, Scale, Table};
use fulllock_locking::{corruption, ClnTopology, FullLock, FullLockConfig, PlrSpec, WireSelection};
use fulllock_netlist::benchmarks;

struct Variant {
    label: &'static str,
    topology: ClnTopology,
    with_luts: bool,
    with_inverters: bool,
    twist: f64,
}

fn main() {
    let scale = Scale::from_env();
    let original = benchmarks::load("c432").expect("suite benchmark");

    let variants = [
        Variant {
            label: "full PLR (paper design)",
            topology: ClnTopology::AlmostNonBlocking,
            with_luts: true,
            with_inverters: true,
            twist: 0.5,
        },
        Variant {
            label: "- LUTs",
            topology: ClnTopology::AlmostNonBlocking,
            with_luts: false,
            with_inverters: true,
            twist: 0.5,
        },
        Variant {
            label: "- twisting",
            topology: ClnTopology::AlmostNonBlocking,
            with_luts: true,
            with_inverters: true,
            twist: 0.0,
        },
        Variant {
            label: "- inverters (and twisting)",
            topology: ClnTopology::AlmostNonBlocking,
            with_luts: true,
            with_inverters: false,
            twist: 0.0,
        },
        Variant {
            label: "blocking topology",
            topology: ClnTopology::Shuffle,
            with_luts: true,
            with_inverters: true,
            twist: 0.5,
        },
        Variant {
            label: "bare blocking CLN",
            topology: ClnTopology::Shuffle,
            with_luts: false,
            with_inverters: false,
            twist: 0.0,
        },
    ];

    let mut table = Table::new([
        "Variant",
        "key bits",
        "SAT time (s)",
        "corruption",
        "removal error",
    ]);
    for v in variants {
        let config = FullLockConfig {
            plrs: vec![PlrSpec {
                cln_size: 16,
                topology: v.topology,
                with_luts: v.with_luts,
                with_inverters: v.with_inverters,
            }],
            selection: WireSelection::Acyclic,
            twist_probability: v.twist,
            seed: 0xAB1A,
        };
        let (locked, trace) = FullLock::new(config)
            .lock_with_trace(&original)
            .expect("benchmark hosts a 16-input PLR");

        let oracle = SimOracle::new(&original).expect("originals are acyclic");
        let report = SatAttackConfig {
            timeout: Some(scale.timeout),
            ..Default::default()
        }
        .run(&locked, &oracle)
        .expect("matching interfaces");
        let sat_cell = if report.outcome.is_broken() {
            fmt_attack_time(Some(report.elapsed))
        } else {
            "TO".to_string()
        };

        let corr =
            corruption::measure(&locked, &original, 8, 32, 5).expect("corruption measurement");
        let removal = Removal {
            trace,
            samples: 300,
            seed: 6,
        };
        let removal_oracle = SimOracle::new(&original).expect("originals are acyclic");
        let removal_report = removal
            .run(&locked, &removal_oracle)
            .expect("acyclic removal study");
        let removal_error = match removal_report.outcome {
            fulllock_attacks::AttackOutcome::Bypassed { error_rate, .. } => error_rate,
            ref other => panic!("removal reports Bypassed, got {other:?}"),
        };

        table.row([
            v.label.to_string(),
            locked.key_len().to_string(),
            sat_cell,
            format!("{:.2}", corr.pattern_error_rate()),
            format!("{:.2}", removal_error),
        ]);
    }
    table.emit(&format!(
        "Ablation: one 16x16 PLR on c432 — timeout {}s",
        scale.timeout.as_secs_f64()
    ));
    println!("\nreading: LUTs & topology drive SAT time; inverters+twisting drive");
    println!("removal resistance; corruption stays high as long as the CLN routes.");
}
