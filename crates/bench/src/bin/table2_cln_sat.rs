//! **Table 2 reproduction** — SAT attack iterations and execution time on
//! standalone CLNs: shuffle-based blocking vs almost non-blocking, over a
//! size sweep.
//!
//! The paper's sweep runs N = 4…512 with a 2×10⁶ s timeout; the default
//! here runs N = 4…32 (64 with `FULLLOCK_FULL=1`) with a seconds-scale
//! timeout. The *shape* is the reproduction target: execution time grows
//! exponentially in N for both topologies, the almost non-blocking CLN is
//! orders of magnitude harder at equal N, and it hits `TO` at a much
//! smaller N than the blocking CLN.
//!
//! ```text
//! FULLLOCK_TIMEOUT_SECS=30 cargo run --release -p fulllock-bench --bin table2_cln_sat
//! ```

use fulllock_attacks::{Attack, AttackOutcome, SatAttackConfig, SimOracle};
use fulllock_bench::{cln_testbed, fmt_attack_time, Scale, Table};
use fulllock_locking::ClnTopology;

fn main() {
    let scale = Scale::from_env();
    let max_n = if scale.full { 128 } else { 32 };
    let sizes: Vec<usize> = (2..=7u32)
        .map(|k| 1usize << k)
        .filter(|&n| n <= max_n)
        .collect();

    for topology in [ClnTopology::Shuffle, ClnTopology::AlmostNonBlocking] {
        let mut table = Table::new([
            "CLN size (N)",
            "key bits",
            "SAT iterations",
            "SAT time (s)",
            "props/sec",
            "mean LBD",
        ]);
        for &n in &sizes {
            let (host, locked) = cln_testbed(n, topology, 1);
            let oracle = SimOracle::new(&host).expect("identity host is acyclic");
            let report = SatAttackConfig {
                timeout: Some(scale.timeout),
                ..Default::default()
            }
            .run(&locked, &oracle)
            .expect("interfaces match by construction");
            let (iters, time) = match report.outcome {
                AttackOutcome::KeyRecovered { verified, .. } => {
                    assert!(verified, "recovered key failed verification at N={n}");
                    (report.iterations.to_string(), Some(report.elapsed))
                }
                _ => (format!("{} (TO)", report.iterations), None),
            };
            let solver = report.solver;
            table.row([
                n.to_string(),
                locked.key_len().to_string(),
                iters,
                fmt_attack_time(time),
                format!("{:.2}M", solver.props_per_cpu_sec() / 1e6),
                format!("{:.1}", solver.mean_lbd()),
            ]);
        }
        let title = match topology {
            ClnTopology::Shuffle => "Table 2 (top): shuffle-based blocking CLN",
            _ => "Table 2 (bottom): almost non-blocking CLN (LOG_{N,log2(N)-2,1})",
        };
        table.emit(&format!(
            "{title} — timeout {}s (paper: 2e6 s)",
            scale.timeout.as_secs_f64()
        ));
    }
    println!("\npaper shape: time grows exponentially with N for both topologies;");
    println!("the almost non-blocking CLN is >=1 order of magnitude harder at equal N");
    println!("and times out at N=64 while blocking survives until N=512.");
}
