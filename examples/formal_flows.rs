//! Formal-methods companion flows: SAT-based equivalence checking, the
//! logic optimizer, and exhaustive (proof-based) key verification — the
//! tooling around locking that a real hardware-security team runs before
//! trusting a locked tape-out.
//!
//! ```text
//! cargo run --release --example formal_flows
//! ```

use std::error::Error;

use full_lock::locking::{FullLock, FullLockConfig, Key, LockingScheme};
use full_lock::netlist::{benchmarks, opt};
use full_lock::sat::equiv::{self, EquivResult};

fn main() -> Result<(), Box<dyn Error>> {
    let original = benchmarks::load("c880")?;

    // 1. Optimize and check. The CEC folds and hashes its miter with this
    //    same optimizer before it calls SAT, so this step cannot catch a
    //    wrong rewrite rule; the simulation property tests in
    //    crates/sat/tests/proptest_sat.rs are what guard the rules.
    let optimized = opt::optimize(&original)?;
    println!(
        "optimizer: {} -> {} gates ({} subexpressions shared)",
        optimized.stats.gates_before, optimized.stats.gates_after, optimized.stats.deduplicated
    );
    let verdict = equiv::check(&original, &optimized.netlist, None)?;
    println!("optimizer equivalence: {}", describe(&verdict));
    assert!(verdict.is_equivalent());

    // 2. Lock, then *prove* the correct key — sampled simulation can miss a
    //    one-input corner (that is SARLock's entire trick), a proof cannot.
    let mut locked = FullLock::new(FullLockConfig::single_plr(16)).lock(&original)?;
    let correct = locked.correct_key.clone();
    println!(
        "locked: {} gates, {} key bits",
        locked.netlist.stats().gates,
        locked.key_len()
    );
    let verdict = locked.prove_key(&correct, &original)?;
    println!("correct-key proof: {}", describe(&verdict));
    assert!(verdict.is_equivalent());

    // 3. A near-miss key (one bit off) is refuted with a concrete witness.
    let mut near_miss = correct.clone();
    near_miss.flip(0);
    match locked.prove_key(&near_miss, &original)? {
        EquivResult::Counterexample(cex) => {
            let pattern: String = cex.iter().map(|&b| if b { '1' } else { '0' }).collect();
            println!("near-miss key refuted; differing input: {pattern}");
        }
        other => println!("near-miss key verdict: {} (key aliasing)", describe(&other)),
    }

    // 4. Optimize the locked netlist and re-prove: resynthesis after
    //    locking (a realistic flow) must not break the key contract.
    let stats = locked.optimize()?;
    println!(
        "post-lock resynthesis: {} -> {} gates",
        stats.gates_before, stats.gates_after
    );
    let verdict = locked.prove_key(&correct, &original)?;
    println!(
        "correct-key proof after resynthesis: {}",
        describe(&verdict)
    );
    assert!(verdict.is_equivalent());

    // 5. Keys are plain bit strings: parse, compare, measure distance.
    let parsed: Key = format!("{correct}").parse()?;
    assert_eq!(parsed, correct);
    println!(
        "key round-trips through its string form ({} bits, hamming(correct, near-miss) = {})",
        parsed.len(),
        correct.hamming_distance(&near_miss)
    );
    Ok(())
}

fn describe(verdict: &EquivResult) -> &'static str {
    match verdict {
        EquivResult::Equivalent => "EQUIVALENT (proven)",
        EquivResult::Counterexample(_) => "NOT equivalent (counterexample found)",
        EquivResult::Unknown => "unknown (resource limit)",
    }
}
