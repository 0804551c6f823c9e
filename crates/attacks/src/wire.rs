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

fn err(message: impl Into<String>) -> AttackError {
    AttackError::ReportFormat {
        message: message.into(),
    }
}

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
        ("worker_panics".into(), Json::Int(stats.worker_panics)),
        ("exchange_rejects".into(), Json::Int(stats.exchange_rejects)),
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
/// Counters added after the format first shipped default to zero when
/// absent, so older files keep loading.
///
/// # Errors
///
/// Returns a description of the first malformed core field.
pub fn solver_stats_from_json(json: &Json) -> std::result::Result<SolverStats, String> {
    let stat = |name: &str| {
        json.get(name)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("solver field {name:?} must be an unsigned integer"))
    };
    let late_stat = |name: &str| json.get(name).and_then(Json::as_u64).unwrap_or(0);
    let mut lbd_histogram = [0u64; 8];
    let hist = json
        .get("lbd_histogram")
        .and_then(Json::as_array)
        .ok_or("solver field \"lbd_histogram\" must be an array")?;
    if hist.len() != lbd_histogram.len() {
        return Err(format!(
            "solver field \"lbd_histogram\" must have {} buckets",
            lbd_histogram.len()
        ));
    }
    for (bucket, value) in lbd_histogram.iter_mut().zip(hist) {
        *bucket = value
            .as_u64()
            .ok_or("lbd_histogram buckets must be unsigned integers")?;
    }
    Ok(SolverStats {
        decisions: stat("decisions")?,
        propagations: stat("propagations")?,
        conflicts: stat("conflicts")?,
        restarts: stat("restarts")?,
        deleted_learnts: stat("deleted_learnts")?,
        minimized_literals: stat("minimized_literals")?,
        reductions: stat("reductions")?,
        lbd_histogram,
        propagate_ns: stat("propagate_ns")?,
        analyze_ns: stat("analyze_ns")?,
        worker_panics: stat("worker_panics")?,
        // Fields added after the first on-disk files shipped; absent in
        // older documents, so default to zero rather than rejecting them.
        exchange_rejects: late_stat("exchange_rejects"),
        certified_models: late_stat("certified_models"),
        solves: late_stat("solves"),
        learnts_carried: late_stat("learnts_carried"),
        inprocessings: late_stat("inprocessings"),
        inprocess_ns: late_stat("inprocess_ns"),
        vars_eliminated: late_stat("vars_eliminated"),
        clauses_subsumed: late_stat("clauses_subsumed"),
        clauses_strengthened: late_stat("clauses_strengthened"),
        vivification_shrinks: late_stat("vivification_shrinks"),
    })
}

fn key_to_json(key: &Key) -> Json {
    Json::Str(key.to_string())
}

fn key_from_json(json: &Json, context: &str) -> Result<Key> {
    json.as_str()
        .ok_or_else(|| err(format!("{context} must be a bit string")))?
        .parse::<Key>()
        .map_err(|e| err(format!("{context}: {e}")))
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
/// Returns [`AttackError::ReportFormat`] on a missing/unknown `kind` or
/// malformed payload fields.
pub fn outcome_from_json(json: &Json) -> Result<AttackOutcome> {
    let kind = json
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| err("outcome must be an object with a \"kind\" string"))?;
    let float = |name: &str| {
        json.get(name)
            .and_then(Json::as_f64)
            .ok_or_else(|| err(format!("outcome field {name:?} must be a number")))
    };
    let boolean = |name: &str| {
        json.get(name)
            .and_then(Json::as_bool)
            .ok_or_else(|| err(format!("outcome field {name:?} must be a boolean")))
    };
    match kind {
        "key_recovered" => Ok(AttackOutcome::KeyRecovered {
            key: key_from_json(
                json.get("key").ok_or_else(|| err("missing outcome key"))?,
                "outcome field \"key\"",
            )?,
            verified: boolean("verified")?,
        }),
        "approximate_key" => Ok(AttackOutcome::ApproximateKey {
            key: key_from_json(
                json.get("key").ok_or_else(|| err("missing outcome key"))?,
                "outcome field \"key\"",
            )?,
            measured_error: float("measured_error")?,
        }),
        "bypassed" => Ok(AttackOutcome::Bypassed {
            error_rate: float("error_rate")?,
            exact: boolean("exact")?,
        }),
        "defeated" => Ok(AttackOutcome::Defeated {
            reason: json
                .get("reason")
                .and_then(Json::as_str)
                .ok_or_else(|| err("outcome field \"reason\" must be a string"))?
                .to_string(),
        }),
        "timeout" => Ok(AttackOutcome::Timeout),
        "iteration_limit" => Ok(AttackOutcome::IterationLimit),
        "inconclusive" => Ok(AttackOutcome::Inconclusive),
        other => Err(err(format!("unknown outcome kind {other:?}"))),
    }
}

/// Encodes the resilience record.
pub fn resilience_to_json(r: &RunResilience) -> Json {
    Json::Object(vec![
        ("worker_panics".into(), Json::Int(r.worker_panics)),
        (
            "worker_failures".into(),
            Json::Array(
                r.worker_failures
                    .iter()
                    .map(|s| Json::Str(s.clone()))
                    .collect(),
            ),
        ),
        (
            "resumed_from".into(),
            match r.resumed_from {
                Some(n) => Json::Int(n),
                None => Json::Null,
            },
        ),
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

/// Decodes the resilience record.
///
/// # Errors
///
/// Returns [`AttackError::ReportFormat`] on malformed fields.
pub fn resilience_from_json(json: &Json) -> Result<RunResilience> {
    let int = |name: &str| {
        json.get(name).and_then(Json::as_u64).ok_or_else(|| {
            err(format!(
                "resilience field {name:?} must be an unsigned integer"
            ))
        })
    };
    let failures = json
        .get("worker_failures")
        .and_then(Json::as_array)
        .ok_or_else(|| err("resilience field \"worker_failures\" must be an array"))?
        .iter()
        .map(|v| {
            v.as_str()
                .map(str::to_string)
                .ok_or_else(|| err("worker_failures entries must be strings"))
        })
        .collect::<Result<Vec<_>>>()?;
    let resumed_from =
        match json.get("resumed_from") {
            None | Some(Json::Null) => None,
            Some(v) => Some(v.as_u64().ok_or_else(|| {
                err("resilience field \"resumed_from\" must be an integer or null")
            })?),
        };
    // Oracle-resilience counters postdate the first wire documents;
    // absent fields default to zero so older reports keep decoding.
    let late_int = |name: &str| json.get(name).and_then(Json::as_u64).unwrap_or(0);
    Ok(RunResilience {
        worker_panics: int("worker_panics")?,
        worker_failures: failures,
        resumed_from,
        checkpoints_written: int("checkpoints_written")?,
        checkpoint_failures: int("checkpoint_failures")?,
        oracle_retries: late_int("oracle_retries"),
        oracle_requeries: late_int("oracle_requeries"),
        quarantined_pairs: late_int("quarantined_pairs"),
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

fn verdict_from_json(json: &Json) -> Result<FormalVerdict> {
    if let Some(s) = json.as_str() {
        return match s {
            "equivalent" => Ok(FormalVerdict::Equivalent),
            "not_equivalent" => Ok(FormalVerdict::NotEquivalent),
            "unknown" => Ok(FormalVerdict::Unknown),
            other => Err(err(format!("unknown formal verdict {other:?}"))),
        };
    }
    json.get("unavailable")
        .and_then(Json::as_str)
        .map(|reason| FormalVerdict::Unavailable(reason.to_string()))
        .ok_or_else(|| err("formal verdict must be a string or an {\"unavailable\": ...} object"))
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
/// Returns [`AttackError::ReportFormat`] on malformed fields.
pub fn certificate_from_json(json: &Json) -> Result<KeyCertificate> {
    let int = |name: &str| {
        json.get(name).and_then(Json::as_u64).ok_or_else(|| {
            err(format!(
                "certificate field {name:?} must be an unsigned integer"
            ))
        })
    };
    Ok(KeyCertificate {
        samples: int("samples")?,
        mismatches: int("mismatches")?,
        formal: verdict_from_json(
            json.get("formal")
                .ok_or_else(|| err("certificate is missing field \"formal\""))?,
        )?,
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
            (
                "error_rate".into(),
                match r.error_rate {
                    Some(e) => Json::Float(e),
                    None => Json::Null,
                },
            ),
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
                match &self.key_certificate {
                    Some(cert) => certificate_to_json(cert),
                    None => Json::Null,
                },
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
        let root = Json::parse(text).map_err(err)?;
        let field = |name: &str| {
            root.get(name)
                .ok_or_else(|| err(format!("missing field {name:?}")))
        };
        let int = |name: &str| {
            field(name)?
                .as_u64()
                .ok_or_else(|| err(format!("field {name:?} must be an unsigned integer")))
        };
        let version = int("schema_version")?;
        if version != WIRE_VERSION {
            return Err(err(format!(
                "unsupported schema_version {version} (this build reads version {WIRE_VERSION})"
            )));
        }
        let name = field("attack")?
            .as_str()
            .ok_or_else(|| err("field \"attack\" must be a string"))?;
        let attack = KNOWN_ATTACKS
            .iter()
            .find(|&&known| known == name)
            .copied()
            .ok_or_else(|| err(format!("unknown attack name {name:?}")))?;
        let elapsed_secs = field("elapsed_secs")?
            .as_f64()
            .ok_or_else(|| err("field \"elapsed_secs\" must be a number"))?;
        if !elapsed_secs.is_finite() || elapsed_secs < 0.0 {
            return Err(err(format!(
                "field \"elapsed_secs\" out of range: {elapsed_secs}"
            )));
        }
        let key_certificate = match field("key_certificate")? {
            Json::Null => None,
            cert => Some(certificate_from_json(cert)?),
        };
        Ok(AttackReport {
            attack,
            outcome: outcome_from_json(field("outcome")?)?,
            iterations: int("iterations")?,
            elapsed: Duration::from_secs_f64(elapsed_secs),
            oracle_queries: int("oracle_queries")?,
            solver: solver_stats_from_json(field("solver")?).map_err(err)?,
            resilience: resilience_from_json(field("resilience")?)?,
            key_certificate,
            details: AttackDetails::Wire(field("details")?.clone()),
        })
    }
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
                worker_panics: 1,
                worker_failures: vec!["worker 0 panicked".to_string()],
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
