//! Property tests of the versioned report wire format: seed-derived
//! reports round-trip canonically through `to_json`/`from_json`, and a
//! single flipped byte in a document either surfaces as a typed
//! [`AttackError::ReportFormat`] or decodes to a report that is still
//! canonical — never a panic, never a silently non-canonical document.

use std::time::Duration;

use fulllock_attacks::{
    AttackDetails, AttackError, AttackOutcome, AttackReport, FormalVerdict, KeyCertificate,
    RunResilience,
};
use fulllock_harness::json::Json;
use fulllock_locking::Key;
use fulllock_sat::cdcl::SolverStats;
use proptest::prelude::*;

/// Deterministic xorshift stream for deriving report fields from one
/// seed (the vendored proptest shim has no composite strategies).
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// A float that is an exact binary fraction, so the JSON printer
    /// reproduces it bit-for-bit and canonical round trips stay exact.
    fn exact_f64(&mut self) -> f64 {
        (self.next() % 1_000_000) as f64 / 64.0
    }

    fn printable(&mut self, len: usize) -> String {
        (0..len)
            .map(|_| (0x20 + (self.next() % 0x5f) as u8) as char)
            .collect()
    }

    fn key(&mut self) -> Key {
        let len = 1 + (self.next() % 12) as usize;
        let bits: Vec<bool> = (0..len).map(|_| self.next().is_multiple_of(2)).collect();
        Key::from_bits(bits)
    }
}

fn derived_outcome(mix: &mut Mix) -> AttackOutcome {
    match mix.next() % 7 {
        0 => AttackOutcome::KeyRecovered {
            key: mix.key(),
            verified: mix.next().is_multiple_of(2),
        },
        1 => AttackOutcome::ApproximateKey {
            key: mix.key(),
            measured_error: (mix.next() % 256) as f64 / 256.0,
        },
        2 => AttackOutcome::Bypassed {
            error_rate: (mix.next() % 256) as f64 / 256.0,
            exact: mix.next().is_multiple_of(2),
        },
        3 => {
            let len = (mix.next() % 24) as usize;
            AttackOutcome::Defeated {
                reason: mix.printable(len),
            }
        }
        4 => AttackOutcome::Timeout,
        5 => AttackOutcome::IterationLimit,
        _ => AttackOutcome::Inconclusive,
    }
}

#[allow(clippy::field_reassign_with_default)] // histogram loop forbids a struct literal
fn derived_solver(mix: &mut Mix) -> SolverStats {
    let mut solver = SolverStats::default();
    solver.decisions = mix.next() % 1_000_000;
    solver.propagations = mix.next() % 1_000_000;
    solver.conflicts = mix.next() % 1_000_000;
    solver.restarts = mix.next() % 10_000;
    solver.deleted_learnts = mix.next() % 10_000;
    solver.minimized_literals = mix.next() % 10_000;
    solver.reductions = mix.next() % 100;
    for bucket in solver.lbd_histogram.iter_mut() {
        *bucket = mix.next() % 1_000;
    }
    solver.propagate_ns = mix.next() % u64::from(u32::MAX);
    solver.analyze_ns = mix.next() % u64::from(u32::MAX);
    solver.certified_models = mix.next() % 100;
    solver.solves = mix.next() % 1_000;
    solver.learnts_carried = mix.next() % 10_000;
    solver.inprocessings = mix.next() % 10;
    solver.inprocess_ns = mix.next() % u64::from(u32::MAX);
    solver.vars_eliminated = mix.next() % 1_000;
    solver.clauses_subsumed = mix.next() % 1_000;
    solver.clauses_strengthened = mix.next() % 1_000;
    solver.vivification_shrinks = mix.next() % 1_000;
    solver
}

fn derived_resilience(mix: &mut Mix) -> RunResilience {
    RunResilience {
        resumed_from: (mix.next().is_multiple_of(2)).then(|| mix.next() % 1_000),
        checkpoints_written: mix.next() % 1_000,
        checkpoint_failures: mix.next() % 4,
        oracle_retries: mix.next() % 100,
        oracle_requeries: mix.next() % 100,
        quarantined_pairs: mix.next() % 16,
    }
}

fn derived_certificate(mix: &mut Mix) -> Option<KeyCertificate> {
    if mix.next().is_multiple_of(3) {
        return None;
    }
    let formal = match mix.next() % 4 {
        0 => FormalVerdict::Equivalent,
        1 => FormalVerdict::NotEquivalent,
        2 => FormalVerdict::Unknown,
        _ => {
            let len = (mix.next() % 16) as usize;
            FormalVerdict::Unavailable(mix.printable(len))
        }
    };
    Some(KeyCertificate {
        samples: mix.next() % 100_000,
        mismatches: mix.next() % 16,
        formal,
    })
}

/// A wire-shaped report: `details` already holds a summary object, as a
/// report decoded off the wire would.
fn derived_report(seed: u64) -> AttackReport {
    let mut mix = Mix(seed | 1);
    let attack = ["sat", "appsat", "double-dip", "removal", "sps"][(mix.next() % 5) as usize];
    let detail_tag = (mix.next() % 64).to_string();
    AttackReport {
        attack,
        outcome: derived_outcome(&mut mix),
        iterations: mix.next() % 1_000_000,
        elapsed: Duration::from_secs_f64(mix.exact_f64()),
        oracle_queries: mix.next() % 1_000_000,
        solver: derived_solver(&mut mix),
        resilience: derived_resilience(&mut mix),
        key_certificate: derived_certificate(&mut mix),
        details: AttackDetails::Wire(Json::Object(vec![
            ("type".to_string(), Json::Str(attack.to_string())),
            ("tag".to_string(), Json::Str(detail_tag)),
        ])),
    }
}

fn flip_byte(text: &str, pos: usize, replacement: u8) -> String {
    let mut bytes = text.as_bytes().to_vec();
    let at = pos % bytes.len();
    let fresh = 0x20 + (replacement % 0x5f);
    bytes[at] = if fresh == bytes[at] { b'#' } else { fresh };
    String::from_utf8_lossy(&bytes).into_owned()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every derivable report round-trips canonically: decoding its wire
    /// text and re-encoding reproduces the exact bytes, and every stable
    /// field survives.
    #[test]
    fn reports_round_trip_canonically(seed in any::<u64>()) {
        let report = derived_report(seed);
        let text = report.to_json();
        let back = AttackReport::from_json(&text).expect("round trip");
        prop_assert_eq!(back.to_json(), text.clone());
        prop_assert_eq!(back.attack, report.attack);
        prop_assert_eq!(&back.outcome, &report.outcome);
        prop_assert_eq!(back.iterations, report.iterations);
        prop_assert_eq!(back.elapsed, report.elapsed);
        prop_assert_eq!(back.oracle_queries, report.oracle_queries);
        prop_assert_eq!(&back.solver, &report.solver);
        prop_assert_eq!(back.resilience.resumed_from, report.resilience.resumed_from);
        prop_assert_eq!(
            back.resilience.checkpoints_written,
            report.resilience.checkpoints_written
        );
        prop_assert_eq!(back.resilience.oracle_retries, report.resilience.oracle_retries);
        prop_assert_eq!(
            back.resilience.oracle_requeries,
            report.resilience.oracle_requeries
        );
        prop_assert_eq!(
            back.resilience.quarantined_pairs,
            report.resilience.quarantined_pairs
        );
        prop_assert_eq!(back.key_certificate, report.key_certificate);
        // Details crossed the wire as the summary object, verbatim.
        let AttackDetails::Wire(summary) = &back.details else {
            return Err(TestCaseError::fail("decoded details must be Wire"));
        };
        prop_assert_eq!(
            summary.get("type").and_then(Json::as_str),
            Some(report.attack)
        );
    }

    /// One flipped byte anywhere in a wire document: decoding either
    /// refuses with the typed `ReportFormat` error or still yields a
    /// canonical report (the flip landed somewhere value-preserving,
    /// e.g. inside a free-text field) — it never panics and never
    /// produces a document that fails its own round trip.
    #[test]
    fn mutated_documents_reject_or_stay_canonical(
        seed in any::<u64>(),
        pos in any::<usize>(),
        replacement in any::<u8>(),
    ) {
        let text = derived_report(seed).to_json();
        let mutated = flip_byte(&text, pos, replacement);
        match AttackReport::from_json(&mutated) {
            Err(AttackError::ReportFormat { .. }) => {}
            Err(other) => {
                return Err(TestCaseError::fail(format!(
                    "unexpected error kind: {other}"
                )));
            }
            Ok(report) => {
                let reencoded = report.to_json();
                let again = AttackReport::from_json(&reencoded).expect("canonical re-decode");
                prop_assert_eq!(again.to_json(), reencoded);
            }
        }
    }

    /// Stripping the oracle-resilience counters from any wire document —
    /// as a report written before the resilient oracle layer would look —
    /// still decodes, defaults all three counters to zero, and re-encodes
    /// canonically (the counters reappear explicitly).
    #[test]
    fn absent_oracle_counters_default_to_zero(seed in any::<u64>()) {
        let report = derived_report(seed);
        let text = report.to_json();
        let stripped = text
            .replace(
                &format!(",\"oracle_retries\":{}", report.resilience.oracle_retries),
                "",
            )
            .replace(
                &format!(",\"oracle_requeries\":{}", report.resilience.oracle_requeries),
                "",
            )
            .replace(
                &format!(
                    ",\"quarantined_pairs\":{}",
                    report.resilience.quarantined_pairs
                ),
                "",
            );
        prop_assert!(stripped.len() < text.len(), "fields must have been present");
        let back = AttackReport::from_json(&stripped).expect("pre-resilience document");
        prop_assert_eq!(back.resilience.oracle_retries, 0);
        prop_assert_eq!(back.resilience.oracle_requeries, 0);
        prop_assert_eq!(back.resilience.quarantined_pairs, 0);
        let reencoded = back.to_json();
        let again = AttackReport::from_json(&reencoded).expect("canonical re-decode");
        prop_assert_eq!(again.to_json(), reencoded);
    }

    /// Any `schema_version` other than the current one is refused, no
    /// matter what the rest of the document says.
    #[test]
    fn foreign_schema_versions_are_refused(seed in any::<u64>(), version in 2u64..1_000) {
        let text = derived_report(seed).to_json().replace(
            "\"schema_version\":1",
            &format!("\"schema_version\":{version}"),
        );
        let e = AttackReport::from_json(&text).expect_err("must reject");
        prop_assert!(matches!(e, AttackError::ReportFormat { .. }), "{}", e);
    }
}
