//! One typed surface for the ambient `FULLLOCK_*` environment knobs.
//!
//! A handful of environment variables steer how this workspace solves:
//! answer certification, CDCL inprocessing, fault injection, the
//! wall-clock budget, and the oracle-resilience knobs (vote count, retry
//! budget, rate limit). [`AmbientConfig::parse`] validates all of them
//! at once and captures the one no layer reads on its own, the
//! wall-clock budget (read by the `fulllock attack` CLI and the
//! experiment binaries' `Scale`). Every other knob is read by the layer
//! it steers: certification by `CertifyLevel::from_env`, inprocessing
//! and the oracle knobs through [`env_value`], failpoints by the fault
//! registry.
//!
//! [`AmbientConfig::parse`] is strict where it matters: garbage values
//! are typed [`AmbientError`]s (a typo must not silently run a campaign
//! with defaults), unknown `FULLLOCK_*` variables produce did-you-mean
//! warnings, and a `FULLLOCK_FAILPOINTS` spec is validated against the
//! real [`FaultPlan`] grammar at capture time
//! instead of failing deep inside a worker.

use std::fmt;
use std::time::Duration;

use crate::cdcl::INPROCESS_ENV;
use crate::certify::{CertifyLevel, CERTIFY_ENV};
use crate::faults::FaultPlan;

/// `FULLLOCK_FAILPOINTS`: the fault-injection plan
/// ([`crate::faults::ENV_VAR`], re-exported here so every ambient knob has
/// one naming convention).
pub use crate::faults::ENV_VAR as FAILPOINTS_ENV;

/// `FULLLOCK_THREADS`: SAT solver threads per attack. Only 1 is accepted:
/// every attack solves on the one sequential solver.
pub const THREADS_ENV: &str = "FULLLOCK_THREADS";
/// `FULLLOCK_TIMEOUT_SECS`: per-attack wall-clock budget in seconds.
pub const TIMEOUT_ENV: &str = "FULLLOCK_TIMEOUT_SECS";
/// `FULLLOCK_ORACLE_VOTES`: majority-vote repetitions per oracle query.
pub const ORACLE_VOTES_ENV: &str = "FULLLOCK_ORACLE_VOTES";
/// `FULLLOCK_ORACLE_RETRIES`: retry budget per oracle query.
pub const ORACLE_RETRIES_ENV: &str = "FULLLOCK_ORACLE_RETRIES";
/// `FULLLOCK_ORACLE_QPS`: oracle rate limit in queries per second.
pub const ORACLE_QPS_ENV: &str = "FULLLOCK_ORACLE_QPS";

/// Every `FULLLOCK_*` variable with a meaning somewhere in the workspace
/// — the spell-check reference for unknown-variable warnings. The tail
/// entries belong to the experiment harness and the campaign wrapper
/// script; they pass through this layer untouched.
pub const KNOWN_FULLLOCK_VARS: [&str; 12] = [
    TIMEOUT_ENV,
    THREADS_ENV,
    CERTIFY_ENV,
    INPROCESS_ENV,
    FAILPOINTS_ENV,
    ORACLE_VOTES_ENV,
    ORACLE_RETRIES_ENV,
    ORACLE_QPS_ENV,
    "FULLLOCK_FULL",
    "FULLLOCK_JOBS",
    "FULLLOCK_RESUME",
    "FULLLOCK_CAMPAIGN_DIR",
];

/// A malformed `FULLLOCK_*` environment variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AmbientError {
    /// The offending variable name.
    pub var: String,
    /// Its raw value.
    pub value: String,
    /// Why it was rejected.
    pub reason: String,
}

impl fmt::Display for AmbientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}={:?}: {}", self.var, self.value, self.reason)
    }
}

impl std::error::Error for AmbientError {}

/// A validated snapshot of the ambient `FULLLOCK_*` knobs. Every knob
/// is validated; only [`TIMEOUT_ENV`] is captured, because the layers
/// that honour the others read them themselves.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AmbientConfig {
    /// [`TIMEOUT_ENV`]: wall-clock budget; `None` when unset (callers
    /// apply their own default).
    pub timeout: Option<Duration>,
}

impl AmbientConfig {
    /// Parses the knobs from an explicit variable set (pure — tests feed
    /// synthetic environments). Returns the config plus did-you-mean
    /// warnings for unknown `FULLLOCK_*` variables.
    ///
    /// # Errors
    ///
    /// Returns an [`AmbientError`] describing the first malformed value.
    pub fn parse<I>(vars: I) -> Result<(AmbientConfig, Vec<String>), AmbientError>
    where
        I: IntoIterator<Item = (String, String)>,
    {
        let mut config = AmbientConfig::default();
        let mut warnings = Vec::new();
        for (name, value) in vars {
            let err = |reason: String| AmbientError {
                var: name.clone(),
                value: value.clone(),
                reason,
            };
            match name.as_str() {
                TIMEOUT_ENV => config.timeout = Some(parse_timeout(&value).map_err(err)?),
                THREADS_ENV => parse_threads(&value).map_err(err)?,
                CERTIFY_ENV => {
                    value.parse::<CertifyLevel>().map_err(err)?;
                }
                INPROCESS_ENV => {
                    parse_inprocess(&value).map_err(err)?;
                }
                ORACLE_VOTES_ENV => {
                    parse_oracle_votes(&value).map_err(err)?;
                }
                ORACLE_RETRIES_ENV => {
                    parse_oracle_retries(&value).map_err(err)?;
                }
                ORACLE_QPS_ENV => {
                    parse_oracle_qps(&value).map_err(err)?;
                }
                FAILPOINTS_ENV => {
                    value
                        .trim()
                        .parse::<FaultPlan>()
                        .map_err(|e| err(format!("invalid failpoint spec: {e}")))?;
                }
                other
                    if other.starts_with("FULLLOCK_") && !KNOWN_FULLLOCK_VARS.contains(&other) =>
                {
                    let hint = KNOWN_FULLLOCK_VARS
                        .iter()
                        .map(|known| (edit_distance(other, known), *known))
                        .min()
                        .filter(|(d, _)| *d <= 3)
                        .map(|(_, known)| format!(" (did you mean {known}?)"))
                        .unwrap_or_default();
                    warnings.push(format!("unknown variable {other} ignored{hint}"));
                }
                _ => {}
            }
        }
        Ok((config, warnings))
    }

    /// [`parse`](Self::parse) over the process environment.
    ///
    /// # Errors
    ///
    /// Returns an [`AmbientError`] describing the first malformed value.
    pub fn from_env() -> Result<(AmbientConfig, Vec<String>), AmbientError> {
        AmbientConfig::parse(std::env::vars())
    }
}

/// `var` from the process environment under its grammar `parse`; `None`
/// when it is unset or malformed. The per-layer readers fall back to
/// their defaults on `None`, so a typo never crashes a campaign job;
/// [`AmbientConfig::parse`] is where a malformed value is an error.
pub fn env_value<T>(var: &str, parse: fn(&str) -> Result<T, String>) -> Option<T> {
    parse(&std::env::var(var).ok()?).ok()
}

fn parse_timeout(value: &str) -> Result<Duration, String> {
    let secs: f64 = value
        .trim()
        .parse()
        .map_err(|_| "expected a number of seconds".to_string())?;
    if !secs.is_finite() || secs <= 0.0 {
        return Err(format!(
            "timeout must be a positive finite number, got {secs}"
        ));
    }
    Ok(Duration::from_secs_f64(secs))
}

fn parse_threads(value: &str) -> Result<(), String> {
    match value.trim().parse::<usize>() {
        Ok(0) => Err("thread count must be at least 1".to_string()),
        Ok(1) => Ok(()),
        Ok(_) => Err("only the sequential solver remains; the thread count must be 1".to_string()),
        Err(_) => Err("expected a thread count".to_string()),
    }
}

/// The [`INPROCESS_ENV`] grammar: `off`/`0`/`false`/`no` turn CDCL
/// inprocessing off; empty, `on`/`1`/`true`/`yes` keep it on.
pub fn parse_inprocess(value: &str) -> Result<bool, String> {
    match value.trim().to_ascii_lowercase().as_str() {
        "off" | "0" | "false" | "no" => Ok(false),
        "" | "on" | "1" | "true" | "yes" => Ok(true),
        other => Err(format!(
            "expected on/off/1/0/true/false/yes/no, got {other:?}"
        )),
    }
}

/// The [`ORACLE_VOTES_ENV`] grammar: an odd vote count of at least 1.
pub fn parse_oracle_votes(value: &str) -> Result<u32, String> {
    let votes: u32 = value
        .trim()
        .parse()
        .map_err(|_| "expected a vote count".to_string())?;
    if votes == 0 || votes.is_multiple_of(2) {
        return Err(format!(
            "vote count must be odd and at least 1, got {votes}"
        ));
    }
    Ok(votes)
}

/// The [`ORACLE_RETRIES_ENV`] grammar: a retry count.
pub fn parse_oracle_retries(value: &str) -> Result<u32, String> {
    value
        .trim()
        .parse()
        .map_err(|_| "expected a retry count".to_string())
}

/// The [`ORACLE_QPS_ENV`] grammar: a positive, finite rate in queries
/// per second.
pub fn parse_oracle_qps(value: &str) -> Result<f64, String> {
    let qps: f64 = value
        .trim()
        .parse()
        .map_err(|_| "expected queries per second".to_string())?;
    if !qps.is_finite() || qps <= 0.0 {
        return Err(format!(
            "rate limit must be a positive finite number, got {qps}"
        ));
    }
    Ok(qps)
}

/// Levenshtein distance (iterative two-row), for typo suggestions.
pub(crate) fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(vars: &[(&str, &str)]) -> Result<(AmbientConfig, Vec<String>), AmbientError> {
        AmbientConfig::parse(
            vars.iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn defaults_without_any_variables() {
        // An all-blank failpoint spec is an empty plan, not an error.
        let (config, warnings) =
            parse(&[("PATH", "/bin"), ("HOME", "/root"), (FAILPOINTS_ENV, "  ")]).expect("parses");
        assert_eq!(config, AmbientConfig::default());
        assert!(warnings.is_empty());
    }

    #[test]
    fn all_knobs_parse() {
        let (config, warnings) = parse(&[
            (TIMEOUT_ENV, "2.5"),
            (THREADS_ENV, "1"),
            (CERTIFY_ENV, "proof"),
            (INPROCESS_ENV, "off"),
            (FAILPOINTS_ENV, "service.worker#1=panicx1"),
            (ORACLE_VOTES_ENV, "3"),
            (ORACLE_RETRIES_ENV, "5"),
            (ORACLE_QPS_ENV, "250"),
        ])
        .expect("parses");
        assert_eq!(config.timeout, Some(Duration::from_secs_f64(2.5)));
        assert!(warnings.is_empty());
    }

    #[test]
    fn garbage_is_a_typed_error() {
        for (var, value) in [
            (TIMEOUT_ENV, "soon"),
            (TIMEOUT_ENV, "-3"),
            (TIMEOUT_ENV, "inf"),
            (THREADS_ENV, "0"),
            (THREADS_ENV, "2"),
            (THREADS_ENV, "many"),
            (CERTIFY_ENV, "paranoid"),
            (INPROCESS_ENV, "maybe"),
            (FAILPOINTS_ENV, "not a spec"),
            (ORACLE_VOTES_ENV, "0"),
            (ORACLE_VOTES_ENV, "2"),
            (ORACLE_VOTES_ENV, "lots"),
            (ORACLE_RETRIES_ENV, "-1"),
            (ORACLE_QPS_ENV, "0"),
            (ORACLE_QPS_ENV, "inf"),
        ] {
            let err = parse(&[(var, value)]).expect_err(&format!("{var}={value}"));
            assert_eq!(err.var, var);
        }
    }

    #[test]
    fn unknown_variables_warn_with_hint() {
        let (_, warnings) = parse(&[("FULLLOCK_TIMEOUT_SEC", "3600")]).expect("parses");
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].contains("did you mean FULLLOCK_TIMEOUT_SECS"));
    }
}
