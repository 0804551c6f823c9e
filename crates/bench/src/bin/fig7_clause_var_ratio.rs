//! **Fig 7 reproduction** — average clause/variable ratio of the SAT
//! attack formula during deobfuscation, per locking scheme.
//!
//! The paper measures ~3.77 for Full-Lock (inside the hard 3–6 band,
//! close to the 4.3 peak), with Cross-Lock the only scheme nearby and
//! every point-function / XOR scheme far lower. Two metrics are reported:
//!
//! * **measured** — mean ratio of the growing attack formula over a fixed
//!   DIP-iteration budget (depends on how far the attack got: key
//!   variables amortize across circuit copies);
//! * **asymptotic** — the per-copy ratio with key variables fully
//!   amortized (what the measured ratio converges to as iterations grow).
//!
//! Schemes are instantiated at their Table-5-scale (SAT-resilient)
//! configurations, which is where the paper's comparison lives.
//!
//! ```text
//! cargo run --release -p fulllock-bench --bin fig7_clause_var_ratio
//! ```

use std::time::Duration;

use fulllock_attacks::{encode_locked, Attack, AttackDetails, SatAttackConfig, SimOracle};
use fulllock_bench::{Scale, Table};
use fulllock_locking::{
    AntiSat, CrossLock, FullLock, FullLockConfig, LockedCircuit, LockingScheme, LutLock, PlrSpec,
    Rll, SarLock, WireSelection,
};
use fulllock_netlist::benchmarks;
use fulllock_sat::Cnf;

/// Per-copy clause/variable ratio with the key variables amortized away
/// (the `iterations → ∞` limit of the attack-formula ratio).
fn asymptotic_ratio(locked: &LockedCircuit) -> f64 {
    let mut cnf = Cnf::new();
    let data: Vec<_> = locked.data_inputs.iter().map(|_| cnf.new_var()).collect();
    let keys: Vec<_> = locked.key_inputs.iter().map(|_| cnf.new_var()).collect();
    encode_locked(locked, &mut cnf, &data, &keys);
    cnf.num_clauses() as f64 / (cnf.num_vars() - keys.len()) as f64
}

fn main() {
    let scale = Scale::from_env();
    let bench = if scale.full { "c880" } else { "c432" };
    let original = benchmarks::load(bench).expect("suite benchmark");

    let fulllock_t5 = FullLockConfig {
        plrs: vec![PlrSpec::new(16), PlrSpec::new(16), PlrSpec::new(8)],
        selection: WireSelection::Acyclic,
        twist_probability: 0.5,
        seed: 1,
    };
    let schemes: Vec<Box<dyn LockingScheme>> = vec![
        Box::new(Rll::new(32, 1)),
        Box::new(SarLock::new(16, 1)),
        Box::new(AntiSat::new(16, 1)),
        Box::new(LutLock::new(16, 1)),
        Box::new(CrossLock::with_count(16, 2, 1)),
        Box::new(FullLock::new(fulllock_t5)),
    ];
    let iteration_budget = 16u64;

    let mut table = Table::new([
        "Scheme",
        "key bits",
        "measured c/v",
        "asymptotic c/v",
        "iterations",
    ]);
    let mut measured: Vec<(String, f64)> = Vec::new();
    for scheme in schemes {
        let locked = match scheme.lock(&original) {
            Ok(l) => l,
            Err(e) => {
                table.row([
                    scheme.name(),
                    format!("n/a ({e})"),
                    String::new(),
                    String::new(),
                    String::new(),
                ]);
                continue;
            }
        };
        let oracle = SimOracle::new(&original).expect("originals are acyclic");
        let report = SatAttackConfig {
            timeout: Some(Duration::from_secs_f64(
                scale.timeout.as_secs_f64().max(20.0),
            )),
            max_iterations: Some(iteration_budget),
            ..Default::default()
        }
        .run(&locked, &oracle)
        .expect("matching interfaces");
        let AttackDetails::Sat(details) = &report.details else {
            panic!("sat attack reports Sat details");
        };
        let asym = asymptotic_ratio(&locked);
        measured.push((scheme.name(), asym));
        table.row([
            scheme.name(),
            locked.key_len().to_string(),
            format!("{:.2}", details.mean_clause_var_ratio),
            format!("{:.2}", asym),
            report.iterations.to_string(),
        ]);
    }
    table.emit(&format!(
        "Fig 7: clause/variable ratio during deobfuscation ({bench}, {iteration_budget}-iteration budget)"
    ));
    if let Some((fl_name, fl_ratio)) = measured.last() {
        println!("\n{fl_name} asymptotic ratio {fl_ratio:.2} — paper: Full-Lock 3.77 with");
        println!("Cross-Lock the only nearby scheme; the two MUX-mesh schemes sit in the");
        println!("hard band while XOR/point-function schemes stay near the host's ~3.");
    }
}
