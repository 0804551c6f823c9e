//! Property tests of the sweep's on-disk coordination state: lease
//! files and result records must round-trip exactly, and any
//! single-byte mutation must read as corrupt/invalid — never a panic,
//! never silently-wrong data. (Mirrors `corruption.rs` for the
//! campaign manifest.)

use std::path::PathBuf;

use fulllock_harness::json::seal;
use fulllock_harness::sweep::grid::SweepGrid;
use fulllock_harness::sweep::lease::{read_lease, Lease, LeaseState};
use fulllock_harness::sweep::results::{fold_results, results_dir, settle, SampleRecord};
use proptest::prelude::*;

fn scratch_file(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("fulllock-sweep-props-{tag}-{}", std::process::id()))
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "fulllock-sweep-props-dir-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Flips one byte of `path` to a different printable-ASCII value
/// (valid UTF-8 keeps the mutation in the token/checksum space).
fn flip_byte(path: &std::path::Path, pos: usize, replacement: u8) {
    let mut bytes = std::fs::read(path).expect("read file");
    let at = pos % bytes.len();
    let fresh = 0x20 + (replacement % 0x5f);
    bytes[at] = if fresh == bytes[at] { b'#' } else { fresh };
    std::fs::write(path, &bytes).expect("write mutated file");
}

const VERDICTS: [&str; 6] = ["sat", "unsat", "unknown", "recovered", "timeout", "error"];

fn arb_lease() -> impl Strategy<Value = Lease> {
    (
        (0usize..100_000, 0usize..64, any::<u64>(), 0u64..1000),
        (0u64..u64::MAX / 2, 1u64..100_000),
    )
        .prop_map(
            |((unit_index, worker, nonce, generation), (acquired, ttl))| Lease {
                unit: format!("unit-{unit_index:05}"),
                worker: format!("w{worker}"),
                nonce,
                generation,
                acquired_millis: acquired,
                expires_millis: acquired.saturating_add(ttl),
            },
        )
}

fn arb_record() -> impl Strategy<Value = SampleRecord> {
    (
        (0usize..100_000, 0usize..64, any::<bool>(), any::<bool>()),
        (
            0usize..VERDICTS.len(),
            any::<u64>(),
            0u64..1_000_000,
            0u64..10_000_000,
        ),
        (0u64..100_000, 0u64..1_000_000_000),
    )
        .prop_map(
            |(
                (unit_index, worker, stolen, speculative),
                (verdict, conflicts, vars, clauses),
                (ratio_milli, wall_micros),
            )| SampleRecord {
                unit: format!("unit-{unit_index:05}"),
                worker: format!("w{worker}"),
                stolen,
                speculative,
                verdict: VERDICTS[verdict].to_string(),
                conflicts,
                vars,
                clauses,
                clause_var_ratio: ratio_milli as f64 / 1000.0,
                wall_secs: wall_micros as f64 / 1_000_000.0,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Lease JSON round-trips exactly through its own parser.
    #[test]
    fn lease_round_trips(lease in arb_lease()) {
        let back = Lease::from_json(&lease.to_json()).expect("round trip");
        prop_assert_eq!(back, lease);
    }

    /// A sealed lease file with any single byte flipped reads as
    /// `Corrupt` — stealable, never trusted, never a panic. (Lease
    /// files are always sealed, so the legacy unsealed pass-through
    /// must also land in `Corrupt`.)
    #[test]
    fn mutated_lease_reads_as_corrupt(
        lease in arb_lease(),
        pos in any::<usize>(),
        replacement in any::<u8>(),
        tag in 0u32..1_000_000,
    ) {
        let path = scratch_file(&format!("lease-{tag}.lease"));
        std::fs::write(&path, format!("{}\n", seal(&lease.to_json()))).expect("write lease");
        // Intact: reads back as held (expiry far in the future per
        // arb_lease at now=0).
        prop_assert_eq!(read_lease(&path, 0), LeaseState::Held(lease.clone()));
        flip_byte(&path, pos, replacement);
        prop_assert_eq!(read_lease(&path, 0), LeaseState::Corrupt);
        std::fs::remove_file(&path).ok();
    }

    /// Sample records round-trip exactly (including the float fields —
    /// the JSON writer must not lose precision the reader needs).
    #[test]
    fn sample_record_round_trips(record in arb_record()) {
        let back = SampleRecord::from_json(&record.to_json()).expect("round trip");
        prop_assert_eq!(back, record);
    }

    /// One byte flipped anywhere in one unit's result file orphans that
    /// unit and only it: every other unit keeps its exact record, and
    /// the reader never panics or yields a wrong record.
    #[test]
    fn mutated_result_orphans_only_its_unit(
        records in proptest::collection::vec(arb_record(), 1..6),
        victim in any::<usize>(),
        pos in any::<usize>(),
        replacement in any::<u8>(),
        tag in 0u32..1_000_000,
    ) {
        let dir = scratch_dir(&format!("results-{tag}"));
        let seeds: Vec<String> = (0..records.len()).map(|i| i.to_string()).collect();
        let units = SweepGrid::new("props").axis("seed", seeds).units();
        let records: Vec<SampleRecord> = records
            .into_iter()
            .zip(&units)
            .map(|(record, unit)| SampleRecord { unit: unit.id.clone(), ..record })
            .collect();
        for record in &records {
            prop_assert!(settle(&dir, record, 0).expect("settle"));
        }
        let intact = fold_results(&dir, &units).expect("fold intact");
        prop_assert_eq!(intact.samples.values().cloned().collect::<Vec<_>>(), records.clone());

        let victim = &units[victim % units.len()].id;
        flip_byte(&results_dir(&dir).join(format!("{victim}.json")), pos, replacement);
        let mutated = fold_results(&dir, &units).expect("fold mutated");
        prop_assert_eq!(&mutated.orphans, &vec![victim.clone()]);
        for record in &records {
            if &record.unit != victim {
                prop_assert_eq!(mutated.samples.get(&record.unit), Some(record));
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
