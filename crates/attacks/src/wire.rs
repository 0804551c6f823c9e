//! The versioned wire encoding of [`AttackReport`] — one stable JSON
//! schema shared by the serve protocol, the CLI `--json` output, and the
//! checkpoint files (which reuse the [`SolverStats`] codec here).
//!
//! Three consumers used to grow three ad-hoc encodings; this module is
//! the single one. Every document carries a `schema_version` field
//! ([`WIRE_VERSION`]); decoding any other version fails with a typed
//! [`AttackError::ReportFormat`] rather than guessing.
//!
//! Two deliberate asymmetries keep the format small and stable:
//!
//! * **Details are summarized.** [`AttackDetails`] payloads hold
//!   process-local data (the removal study's entire bypassed netlist,
//!   for one) that has no business on a wire. Encoding emits a compact
//!   per-attack summary object; decoding yields
//!   [`AttackDetails::Wire`] holding that summary verbatim. Re-encoding
//!   a decoded report therefore reproduces the same bytes — the
//!   canonical round-trip property the proptests pin down.
//! * **Unknown trailing fields are ignored**, so a newer writer's extra
//!   fields do not break an older reader; a *missing* required field or
//!   a wrong type is always an error.
//!
//! ```
//! use fulllock_attacks::AttackReport;
//!
//! # fn demo(report: &AttackReport) -> Result<(), fulllock_attacks::AttackError> {
//! let text = report.to_json();
//! let back = AttackReport::from_json(&text)?;
//! assert_eq!(back.to_json(), text); // canonical round trip
//! # Ok(())
//! # }
//! ```

use std::time::Duration;

use fulllock_locking::Key;
use fulllock_sat::cdcl::SolverStats;

use crate::json::Json;
use crate::report::{
    AttackDetails, AttackOutcome, AttackReport, FormalVerdict, KeyCertificate, RunResilience,
};
use crate::{AttackError, Result};

/// Schema version written into every wire document. Bump on any change
/// that an old reader would misinterpret silently.
pub const WIRE_VERSION: u64 = 1;

/// The attack names [`AttackReport::from_json`] accepts, interned so the
/// decoded report can keep the `&'static str` field.
const KNOWN_ATTACKS: [&str; 5] = ["sat", "appsat", "double-dip", "removal", "sps"];

/// Encodes solver counters as a JSON object — the one [`SolverStats`]
/// codec, shared between wire reports and attack checkpoints.
pub fn solver_stats_to_json(stats: &SolverStats) -> Json {
    Json::Object(vec![
        ("decisions".into(), Json::Int(stats.decisions)),
        ("propagations".into(), Json::Int(stats.propagations)),
        ("conflicts".into(), Json::Int(stats.conflicts)),
        ("restarts".into(), Json::Int(stats.restarts)),
        ("deleted_learnts".into(), Json::Int(stats.deleted_learnts)),
        (
            "minimized_literals".into(),
            Json::Int(stats.minimized_literals),
        ),
        ("reductions".into(), Json::Int(stats.reductions)),
        (
            "lbd_histogram".into(),
            Json::Array(stats.lbd_histogram.iter().map(|&n| Json::Int(n)).collect()),
        ),
        ("propagate_ns".into(), Json::Int(stats.propagate_ns)),
        ("analyze_ns".into(), Json::Int(stats.analyze_ns)),
        ("certified_models".into(), Json::Int(stats.certified_models)),
        ("solves".into(), Json::Int(stats.solves)),
        ("learnts_carried".into(), Json::Int(stats.learnts_carried)),
        ("inprocessings".into(), Json::Int(stats.inprocessings)),
        ("inprocess_ns".into(), Json::Int(stats.inprocess_ns)),
        ("vars_eliminated".into(), Json::Int(stats.vars_eliminated)),
        ("clauses_subsumed".into(), Json::Int(stats.clauses_subsumed)),
        (
            "clauses_strengthened".into(),
            Json::Int(stats.clauses_strengthened),
        ),
        (
            "vivification_shrinks".into(),
            Json::Int(stats.vivification_shrinks),
        ),
    ])
}

/// Decodes solver counters from [`solver_stats_to_json`]'s object form.
/// Counters added after the format first shipped are late fields: they
/// default to zero when absent, so older files keep loading.
///
/// # Errors
///
/// Returns a description of the first malformed field.
pub fn solver_stats_from_json(json: &Json) -> std::result::Result<SolverStats, String> {
    let hist = json.field_as::<Vec<u64>>("lbd_histogram")?;
    let lbd_histogram: [u64; 8] = hist
        .try_into()
        .map_err(|_| "field \"lbd_histogram\" must have 8 buckets".to_string())?;
    Ok(SolverStats {
        decisions: json.u64_field("decisions")?,
        propagations: json.u64_field("propagations")?,
        conflicts: json.u64_field("conflicts")?,
        restarts: json.u64_field("restarts")?,
        deleted_learnts: json.u64_field("deleted_learnts")?,
        minimized_literals: json.u64_field("minimized_literals")?,
        reductions: json.u64_field("reductions")?,
        lbd_histogram,
        propagate_ns: json.u64_field("propagate_ns")?,
        analyze_ns: json.u64_field("analyze_ns")?,
        certified_models: json.late_field("certified_models", 0)?,
        solves: json.late_field("solves", 0)?,
        learnts_carried: json.late_field("learnts_carried", 0)?,
        inprocessings: json.late_field("inprocessings", 0)?,
        inprocess_ns: json.late_field("inprocess_ns", 0)?,
        vars_eliminated: json.late_field("vars_eliminated", 0)?,
        clauses_subsumed: json.late_field("clauses_subsumed", 0)?,
        clauses_strengthened: json.late_field("clauses_strengthened", 0)?,
        vivification_shrinks: json.late_field("vivification_shrinks", 0)?,
    })
}

fn key_to_json(key: &Key) -> Json {
    Json::Str(key.to_string())
}

fn key_field(json: &Json) -> std::result::Result<Key, String> {
    json.str_field("key")?
        .parse::<Key>()
        .map_err(|e| format!("field \"key\": {e}"))
}

/// Encodes an outcome as a `kind`-tagged object.
pub fn outcome_to_json(outcome: &AttackOutcome) -> Json {
    let kind = |k: &str| ("kind".to_string(), Json::Str(k.to_string()));
    match outcome {
        AttackOutcome::KeyRecovered { key, verified } => Json::Object(vec![
            kind("key_recovered"),
            ("key".into(), key_to_json(key)),
            ("verified".into(), Json::Bool(*verified)),
        ]),
        AttackOutcome::ApproximateKey {
            key,
            measured_error,
        } => Json::Object(vec![
            kind("approximate_key"),
            ("key".into(), key_to_json(key)),
            ("measured_error".into(), Json::Float(*measured_error)),
        ]),
        AttackOutcome::Bypassed { error_rate, exact } => Json::Object(vec![
            kind("bypassed"),
            ("error_rate".into(), Json::Float(*error_rate)),
            ("exact".into(), Json::Bool(*exact)),
        ]),
        AttackOutcome::Defeated { reason } => Json::Object(vec![
            kind("defeated"),
            ("reason".into(), Json::Str(reason.clone())),
        ]),
        AttackOutcome::Timeout => Json::Object(vec![kind("timeout")]),
        AttackOutcome::IterationLimit => Json::Object(vec![kind("iteration_limit")]),
        AttackOutcome::Inconclusive => Json::Object(vec![kind("inconclusive")]),
    }
}

/// Decodes an outcome from its `kind`-tagged object form.
///
/// # Errors
///
/// A description of a missing or unknown `kind` or a malformed payload
/// field.
pub fn outcome_from_json(json: &Json) -> std::result::Result<AttackOutcome, String> {
    Ok(match json.str_field("kind")? {
        "key_recovered" => AttackOutcome::KeyRecovered {
            key: key_field(json)?,
            verified: json.bool_field("verified")?,
        },
        "approximate_key" => AttackOutcome::ApproximateKey {
            key: key_field(json)?,
            measured_error: json.f64_field("measured_error")?,
        },
        "bypassed" => AttackOutcome::Bypassed {
            error_rate: json.f64_field("error_rate")?,
            exact: json.bool_field("exact")?,
        },
        "defeated" => AttackOutcome::Defeated {
            reason: json.str_field("reason")?.to_string(),
        },
        "timeout" => AttackOutcome::Timeout,
        "iteration_limit" => AttackOutcome::IterationLimit,
        "inconclusive" => AttackOutcome::Inconclusive,
        other => return Err(format!("unknown outcome kind {other:?}")),
    })
}

/// Encodes the resilience record.
pub fn resilience_to_json(r: &RunResilience) -> Json {
    Json::Object(vec![
        ("resumed_from".into(), r.resumed_from.into()),
        (
            "checkpoints_written".into(),
            Json::Int(r.checkpoints_written),
        ),
        (
            "checkpoint_failures".into(),
            Json::Int(r.checkpoint_failures),
        ),
        ("oracle_retries".into(), Json::Int(r.oracle_retries)),
        ("oracle_requeries".into(), Json::Int(r.oracle_requeries)),
        ("quarantined_pairs".into(), Json::Int(r.quarantined_pairs)),
    ])
}

/// Decodes the resilience record. The oracle-resilience counters
/// postdate the first wire documents and are late fields.
///
/// # Errors
///
/// A description of the first malformed field.
pub fn resilience_from_json(json: &Json) -> std::result::Result<RunResilience, String> {
    Ok(RunResilience {
        resumed_from: json.opt_field("resumed_from")?,
        checkpoints_written: json.u64_field("checkpoints_written")?,
        checkpoint_failures: json.u64_field("checkpoint_failures")?,
        oracle_retries: json.late_field("oracle_retries", 0)?,
        oracle_requeries: json.late_field("oracle_requeries", 0)?,
        quarantined_pairs: json.late_field("quarantined_pairs", 0)?,
    })
}

fn verdict_to_json(verdict: &FormalVerdict) -> Json {
    match verdict {
        FormalVerdict::Equivalent => Json::Str("equivalent".into()),
        FormalVerdict::NotEquivalent => Json::Str("not_equivalent".into()),
        FormalVerdict::Unknown => Json::Str("unknown".into()),
        FormalVerdict::Unavailable(reason) => {
            Json::Object(vec![("unavailable".to_string(), Json::Str(reason.clone()))])
        }
    }
}

fn verdict_from_json(json: &Json) -> std::result::Result<FormalVerdict, String> {
    match json.as_str() {
        Some("equivalent") => Ok(FormalVerdict::Equivalent),
        Some("not_equivalent") => Ok(FormalVerdict::NotEquivalent),
        Some("unknown") => Ok(FormalVerdict::Unknown),
        Some(other) => Err(format!("unknown formal verdict {other:?}")),
        None => Ok(FormalVerdict::Unavailable(
            json.str_field("unavailable")?.to_string(),
        )),
    }
}

/// Encodes a key certificate.
pub fn certificate_to_json(cert: &KeyCertificate) -> Json {
    Json::Object(vec![
        ("samples".into(), Json::Int(cert.samples)),
        ("mismatches".into(), Json::Int(cert.mismatches)),
        ("formal".into(), verdict_to_json(&cert.formal)),
    ])
}

/// Decodes a key certificate.
///
/// # Errors
///
/// A description of the first malformed field.
pub fn certificate_from_json(json: &Json) -> std::result::Result<KeyCertificate, String> {
    Ok(KeyCertificate {
        samples: json.u64_field("samples")?,
        mismatches: json.u64_field("mismatches")?,
        formal: json.nested_field("formal", verdict_from_json)?,
    })
}

/// Summarizes attack-specific details for the wire: a `type`-tagged
/// object of the scalar fields worth reading off a remote report. The
/// heavy process-local payloads (netlists, keys already present in the
/// outcome) stay behind; a decoded [`AttackDetails::Wire`] re-emits its
/// summary verbatim.
pub fn details_to_json(details: &AttackDetails) -> Json {
    let tag = |t: &str| ("type".to_string(), Json::Str(t.to_string()));
    match details {
        AttackDetails::Sat(r) => Json::Object(vec![
            tag("sat"),
            (
                "mean_clause_var_ratio".into(),
                Json::Float(r.mean_clause_var_ratio),
            ),
            ("formula_vars".into(), Json::Int(r.formula.0 as u64)),
            ("formula_clauses".into(), Json::Int(r.formula.1 as u64)),
        ]),
        AttackDetails::AppSat(r) => Json::Object(vec![
            tag("appsat"),
            ("measured_error".into(), Json::Float(r.measured_error)),
            ("settled".into(), Json::Bool(r.settled)),
            ("exact".into(), Json::Bool(r.exact)),
        ]),
        AttackDetails::DoubleDip(r) => Json::Object(vec![
            tag("double-dip"),
            ("cleanup_iterations".into(), Json::Int(r.cleanup_iterations)),
        ]),
        AttackDetails::Removal(r) => Json::Object(vec![
            tag("removal"),
            ("error_rate".into(), Json::Float(r.error_rate)),
            ("recovered".into(), Json::Bool(r.recovered)),
        ]),
        AttackDetails::Sps(r) => Json::Object(vec![
            tag("sps"),
            ("skew".into(), Json::Float(r.skew)),
            ("found_suspect".into(), Json::Bool(r.suspect.is_some())),
            ("error_rate".into(), r.error_rate.into()),
        ]),
        AttackDetails::Wire(summary) => summary.clone(),
        // `AttackDetails` is non-exhaustive; summarize future variants
        // minimally rather than failing to encode.
        #[allow(unreachable_patterns)]
        _ => Json::Object(vec![tag("unknown")]),
    }
}

impl AttackReport {
    /// Serializes the report to the versioned wire JSON — the encoding
    /// shared by `fulllock serve`, the CLI `--json` flag, and remote
    /// result files.
    pub fn to_json(&self) -> String {
        Json::Object(vec![
            ("schema_version".into(), Json::Int(WIRE_VERSION)),
            ("attack".into(), Json::Str(self.attack.to_string())),
            ("outcome".into(), outcome_to_json(&self.outcome)),
            ("iterations".into(), Json::Int(self.iterations)),
            (
                "elapsed_secs".into(),
                Json::Float(self.elapsed.as_secs_f64()),
            ),
            ("oracle_queries".into(), Json::Int(self.oracle_queries)),
            ("solver".into(), solver_stats_to_json(&self.solver)),
            ("resilience".into(), resilience_to_json(&self.resilience)),
            (
                "key_certificate".into(),
                self.key_certificate
                    .as_ref()
                    .map(certificate_to_json)
                    .into(),
            ),
            ("details".into(), details_to_json(&self.details)),
        ])
        .to_text()
    }

    /// Parses a wire-format report produced by [`to_json`](Self::to_json)
    /// (by this build or a compatible one). The details come back as
    /// [`AttackDetails::Wire`]; re-encoding reproduces the input
    /// canonically.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::ReportFormat`] on malformed JSON, a
    /// missing or mistyped field, an unknown attack name, or a
    /// `schema_version` other than [`WIRE_VERSION`].
    pub fn from_json(text: &str) -> Result<AttackReport> {
        parse_report(text).map_err(|message| AttackError::ReportFormat { message })
    }
}

fn parse_report(text: &str) -> std::result::Result<AttackReport, String> {
    let root = Json::parse(text)?;
    let version = root.u64_field("schema_version")?;
    if version != WIRE_VERSION {
        return Err(format!(
            "unsupported schema_version {version} (this build reads version {WIRE_VERSION})"
        ));
    }
    let name = root.str_field("attack")?;
    let attack = KNOWN_ATTACKS
        .iter()
        .find(|&&known| known == name)
        .copied()
        .ok_or_else(|| format!("unknown attack name {name:?}"))?;
    let elapsed_secs = root.f64_field("elapsed_secs")?;
    if !elapsed_secs.is_finite() || elapsed_secs < 0.0 {
        return Err(format!(
            "field \"elapsed_secs\" out of range: {elapsed_secs}"
        ));
    }
    Ok(AttackReport {
        attack,
        outcome: root.nested_field("outcome", outcome_from_json)?,
        iterations: root.u64_field("iterations")?,
        elapsed: Duration::from_secs_f64(elapsed_secs),
        oracle_queries: root.u64_field("oracle_queries")?,
        solver: root.nested_field("solver", solver_stats_from_json)?,
        resilience: root.nested_field("resilience", resilience_from_json)?,
        // Required, though it may be null.
        key_certificate: match root.field("key_certificate")? {
            Json::Null => None,
            _ => Some(root.nested_field("key_certificate", certificate_from_json)?),
        },
        details: AttackDetails::Wire(root.field("details")?.clone()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> AttackReport {
        let mut solver = SolverStats {
            decisions: 100,
            conflicts: 42,
            ..SolverStats::default()
        };
        solver.lbd_histogram[3] = 9;
        AttackReport {
            attack: "sat",
            outcome: AttackOutcome::KeyRecovered {
                key: Key::from_bits([true, false, true, true]),
                verified: true,
            },
            iterations: 12,
            elapsed: Duration::from_millis(3375),
            oracle_queries: 14,
            solver,
            resilience: RunResilience {
                resumed_from: Some(5),
                checkpoints_written: 7,
                checkpoint_failures: 0,
                oracle_retries: 3,
                oracle_requeries: 2,
                quarantined_pairs: 1,
            },
            key_certificate: Some(KeyCertificate {
                samples: 512,
                mismatches: 0,
                formal: FormalVerdict::Equivalent,
            }),
            details: AttackDetails::Wire(Json::Object(vec![(
                "type".to_string(),
                Json::Str("sat".to_string()),
            )])),
        }
    }

    #[test]
    fn canonical_round_trip() {
        let report = sample_report();
        let text = report.to_json();
        let back = AttackReport::from_json(&text).expect("round trip");
        assert_eq!(back.to_json(), text);
        assert_eq!(back.attack, "sat");
        assert_eq!(back.iterations, 12);
        assert_eq!(back.solver.conflicts, 42);
        assert_eq!(back.resilience.resumed_from, Some(5));
    }

    #[test]
    fn every_outcome_round_trips() {
        let outcomes = [
            AttackOutcome::KeyRecovered {
                key: Key::from_bits([false, true]),
                verified: false,
            },
            AttackOutcome::ApproximateKey {
                key: Key::from_bits([true]),
                measured_error: 0.125,
            },
            AttackOutcome::Bypassed {
                error_rate: 0.5,
                exact: false,
            },
            AttackOutcome::Defeated {
                reason: "no skewed wire".to_string(),
            },
            AttackOutcome::Timeout,
            AttackOutcome::IterationLimit,
            AttackOutcome::Inconclusive,
        ];
        for outcome in outcomes {
            let back = outcome_from_json(&outcome_to_json(&outcome)).expect("round trip");
            assert_eq!(back, outcome);
        }
    }

    #[test]
    fn every_verdict_round_trips() {
        for verdict in [
            FormalVerdict::Equivalent,
            FormalVerdict::NotEquivalent,
            FormalVerdict::Unknown,
            FormalVerdict::Unavailable("cyclic netlist".to_string()),
        ] {
            let cert = KeyCertificate {
                samples: 1,
                mismatches: 0,
                formal: verdict.clone(),
            };
            let back = certificate_from_json(&certificate_to_json(&cert)).expect("round trip");
            assert_eq!(back.formal, verdict);
        }
    }

    #[test]
    fn absent_oracle_resilience_fields_default_to_zero() {
        // Reports written before the resilient oracle layer carry no
        // oracle counters.
        let text = sample_report()
            .to_json()
            .replace(",\"oracle_retries\":3", "")
            .replace(",\"oracle_requeries\":2", "")
            .replace(",\"quarantined_pairs\":1", "");
        assert!(!text.contains("oracle_retries"), "fields really removed");
        let back = AttackReport::from_json(&text).expect("old-format parse");
        assert_eq!(back.resilience.oracle_retries, 0);
        assert_eq!(back.resilience.oracle_requeries, 0);
        assert_eq!(back.resilience.quarantined_pairs, 0);
    }

    #[test]
    fn absent_inprocess_time_defaults_to_zero() {
        // Reports and checkpoints written before rounds were timed.
        let mut report = sample_report();
        report.solver.inprocess_ns = 7;
        let text = report.to_json().replace(",\"inprocess_ns\":7", "");
        assert!(!text.contains("inprocess_ns"), "field really removed");
        let back = AttackReport::from_json(&text).expect("old-format parse");
        assert_eq!(back.solver.inprocess_ns, 0);
    }

    /// Late counters that are present with the wrong type are errors,
    /// not zeros.
    #[test]
    fn mistyped_late_counters_are_rejected() {
        let mut report = sample_report();
        report.solver.inprocessings = 2;
        let text = report.to_json();
        for (from, to) in [
            ("\"inprocessings\":2", "\"inprocessings\":\"2\""),
            ("\"oracle_retries\":3", "\"oracle_retries\":null"),
        ] {
            let mistyped = text.replace(from, to);
            assert_ne!(mistyped, text, "{from} must occur");
            let e = AttackReport::from_json(&mistyped).expect_err(to);
            assert!(matches!(e, AttackError::ReportFormat { .. }), "{e}");
        }
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let text = sample_report()
            .to_json()
            .replace("\"schema_version\":1", "\"schema_version\":9");
        let e = AttackReport::from_json(&text).expect_err("must reject");
        assert!(matches!(e, AttackError::ReportFormat { .. }), "{e}");
        assert!(e.to_string().contains("schema_version 9"), "{e}");
    }

    #[test]
    fn unknown_attack_name_is_rejected() {
        let text = sample_report()
            .to_json()
            .replace("\"attack\":\"sat\"", "\"attack\":\"quantum\"");
        let e = AttackReport::from_json(&text).expect_err("must reject");
        assert!(e.to_string().contains("quantum"), "{e}");
    }

    #[test]
    fn malformed_documents_are_typed_errors() {
        for bad in ["", "not json", "{}", "{\"schema_version\":1}", "[1,2]"] {
            let e = AttackReport::from_json(bad).expect_err(bad);
            assert!(matches!(e, AttackError::ReportFormat { .. }), "{bad}: {e}");
        }
    }

    #[test]
    fn details_summaries_are_tagged() {
        let json = details_to_json(&AttackDetails::Sps(crate::sps::SpsReport {
            suspect: None,
            skew: 0.25,
            error_rate: None,
        }));
        assert_eq!(json.get("type").and_then(Json::as_str), Some("sps"));
        assert_eq!(
            json.get("found_suspect").and_then(Json::as_bool),
            Some(false)
        );
    }
}
