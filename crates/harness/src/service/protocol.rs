//! The `fulllock serve` wire protocol: newline-delimited JSON.
//!
//! Every request is one line of JSON, every response one line back.
//! Requests carry a `verb`; responses carry `"ok": true` plus
//! verb-specific payload, or `"ok": false` plus a typed error envelope:
//!
//! ```json
//! {"ok": false, "error": {"code": "unknown_job", "message": "no job \"x\""}}
//! ```
//!
//! Error codes are stable API: `malformed_request`, `unknown_verb`,
//! `invalid_job`, `duplicate_job`, `unknown_job`, `not_cancelable`,
//! `draining`, the overload/robustness codes (`overloaded` for a full
//! pending queue or connection limit, `request_too_large` for an
//! oversized request line, `deadline_exceeded` for a line that trickled
//! past the socket deadline, `persist_failed` when the queue could not
//! seal the submission, `shard_quarantined` when its shard is known
//! unwritable), plus the quota codes minted by
//! [`QuotaError::code`](crate::service::QuotaError::code) (`concurrency_full`,
//! `conflicts_exhausted`, `wall_time_exhausted`). Clients branch on the
//! code, never on the human-readable message.
//!
//! The six verbs, by example:
//!
//! ```json
//! {"verb": "submit", "tenant": "acme", "job": {"id": "j1", "program": "/bin/true", "args": [], "env": {}}}
//! {"verb": "status", "job": "j1"}
//! {"verb": "cancel", "job": "j1"}
//! {"verb": "list", "tenant": "acme"}
//! {"verb": "stream", "job": "j1"}
//! {"verb": "health"}
//! ```
//!
//! `stream` is the one verb with a multi-line response: the server emits
//! a status line every time the job changes state, ending with the line
//! whose state is terminal. `health` reports the daemon's
//! self-observation snapshot: queue depth per state, worker liveness,
//! connection load, per-tenant quota usage, and last-persist status.

use crate::json::Json;
use crate::plan::JobSpec;
use crate::service::queue::ServiceJob;

/// Version tag of the request/response schema, echoed in every response.
pub const PROTOCOL_VERSION: u64 = 1;

/// A decoded client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit a job owned by `tenant`.
    Submit {
        /// Quota ledger the job is charged against.
        tenant: String,
        /// The command to run.
        job: JobSpec,
    },
    /// One-shot status of a job.
    Status {
        /// Job id.
        job: String,
    },
    /// Cancel a pending or running job.
    Cancel {
        /// Job id.
        job: String,
    },
    /// Summarize jobs, optionally restricted to one tenant.
    List {
        /// Restrict to this tenant when present.
        tenant: Option<String>,
    },
    /// Stream state changes of a job until it reaches a terminal state.
    Stream {
        /// Job id.
        job: String,
    },
    /// The daemon's self-observation snapshot (queue depth, worker
    /// liveness, quota pressure, persist status).
    Health,
}

/// A typed protocol error: stable `code` plus human-readable `message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError {
    /// Stable machine-readable code (see module docs for the list).
    pub code: &'static str,
    /// Human-readable context. Not stable API.
    pub message: String,
}

impl ProtocolError {
    /// Builds an error with the given stable code.
    pub fn new(code: &'static str, message: impl Into<String>) -> ProtocolError {
        ProtocolError {
            code,
            message: message.into(),
        }
    }

    /// The response line for this error.
    pub fn to_response(&self) -> String {
        Json::Object(vec![
            ("ok".to_string(), Json::Bool(false)),
            ("protocol".to_string(), Json::Int(PROTOCOL_VERSION)),
            (
                "error".to_string(),
                Json::Object(vec![
                    ("code".to_string(), Json::Str(self.code.to_string())),
                    ("message".to_string(), Json::Str(self.message.clone())),
                ]),
            ),
        ])
        .to_text()
    }
}

/// Decodes one request line.
///
/// # Errors
///
/// `malformed_request` when the line is not a JSON object or a field has
/// the wrong shape; `unknown_verb` when the verb is not one of the five;
/// `invalid_job` when a submitted job spec fails validation.
pub fn parse_request(line: &str) -> Result<Request, ProtocolError> {
    let malformed = |message: String| ProtocolError::new("malformed_request", message);
    let root = Json::parse(line).map_err(|e| malformed(format!("bad JSON: {e}")))?;
    if !matches!(root, Json::Object(_)) {
        return Err(malformed("request must be a JSON object".to_string()));
    }
    match root.str_field("verb").map_err(malformed)? {
        "submit" => {
            let tenant = root.str_field("tenant").map_err(malformed)?;
            if tenant.is_empty() {
                return Err(malformed("empty tenant name".to_string()));
            }
            let job = root
                .nested_field("job", |job| JobSpec::from_json(job, None))
                .map_err(malformed)?;
            // Reuse the campaign plan validator: id charset, non-empty
            // program, finite positive timeout.
            crate::plan::CampaignPlan::new("submit")
                .job(job.clone())
                .validate()
                .map_err(|e| ProtocolError::new("invalid_job", e.to_string()))?;
            Ok(Request::Submit {
                tenant: tenant.to_string(),
                job,
            })
        }
        "status" => Ok(Request::Status {
            job: root.field_as("job").map_err(malformed)?,
        }),
        "cancel" => Ok(Request::Cancel {
            job: root.field_as("job").map_err(malformed)?,
        }),
        "stream" => Ok(Request::Stream {
            job: root.field_as("job").map_err(malformed)?,
        }),
        "health" => Ok(Request::Health),
        "list" => Ok(Request::List {
            tenant: root.opt_field("tenant").map_err(malformed)?,
        }),
        other => Err(ProtocolError::new(
            "unknown_verb",
            format!("unknown verb {other:?} (expected submit/status/cancel/list/stream/health)"),
        )),
    }
}

/// Encodes a request (the client side of [`parse_request`]).
pub fn encode_request(request: &Request) -> String {
    let json = match request {
        Request::Submit { tenant, job } => Json::Object(vec![
            ("verb".to_string(), Json::Str("submit".to_string())),
            ("tenant".to_string(), Json::Str(tenant.clone())),
            ("job".to_string(), job.to_json(true)),
        ]),
        Request::Status { job } => verb_job("status", job),
        Request::Cancel { job } => verb_job("cancel", job),
        Request::Stream { job } => verb_job("stream", job),
        Request::List { tenant } => Json::Object(vec![
            ("verb".to_string(), Json::Str("list".to_string())),
            ("tenant".to_string(), tenant.as_deref().into()),
        ]),
        Request::Health => {
            Json::Object(vec![("verb".to_string(), Json::Str("health".to_string()))])
        }
    };
    json.to_text()
}

fn verb_job(verb: &str, job: &str) -> Json {
    Json::Object(vec![
        ("verb".to_string(), Json::Str(verb.to_string())),
        ("job".to_string(), Json::Str(job.to_string())),
    ])
}

/// The `{"ok": true}` status line describing one job (used by `submit`
/// acknowledgements, `status`, each `stream` update, and `list` rows via
/// [`job_summary_json`]).
pub fn job_response(job: &ServiceJob) -> String {
    Json::Object(vec![
        ("ok".to_string(), Json::Bool(true)),
        ("protocol".to_string(), Json::Int(PROTOCOL_VERSION)),
        ("job".to_string(), job_summary_json(job)),
    ])
    .to_text()
}

/// One job summarized as a JSON object (id, tenant, state, attempts,
/// completions, charges, last error).
pub fn job_summary_json(job: &ServiceJob) -> Json {
    Json::Object(vec![
        ("id".to_string(), Json::Str(job.id.clone())),
        ("tenant".to_string(), Json::Str(job.tenant.clone())),
        (
            "state".to_string(),
            Json::Str(job.state.as_str().to_string()),
        ),
        ("attempts".to_string(), Json::Int(u64::from(job.attempts))),
        ("completions".to_string(), Json::Int(job.completions)),
        (
            "charged_conflicts".to_string(),
            Json::Int(job.charged_conflicts),
        ),
        (
            "charged_wall_secs".to_string(),
            Json::Float(job.charged_wall_secs),
        ),
        ("interrupted".to_string(), Json::Bool(job.interrupted)),
        ("last_error".to_string(), job.last_error.as_deref().into()),
    ])
}

/// The `list` response line: job summaries (submission order) plus counts.
pub fn list_response(jobs: &[&ServiceJob]) -> String {
    Json::Object(vec![
        ("ok".to_string(), Json::Bool(true)),
        ("protocol".to_string(), Json::Int(PROTOCOL_VERSION)),
        ("count".to_string(), Json::Int(jobs.len() as u64)),
        (
            "jobs".to_string(),
            Json::Array(jobs.iter().map(|j| job_summary_json(j)).collect()),
        ),
    ])
    .to_text()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips() {
        let requests = vec![
            Request::Submit {
                tenant: "acme".to_string(),
                job: JobSpec::new("j1", "/bin/true")
                    .arg("--fast")
                    .env("K", "v")
                    .timeout_secs(5.0)
                    .max_attempts(3),
            },
            Request::Status {
                job: "j1".to_string(),
            },
            Request::Cancel {
                job: "j1".to_string(),
            },
            Request::List { tenant: None },
            Request::List {
                tenant: Some("acme".to_string()),
            },
            Request::Stream {
                job: "j1".to_string(),
            },
            Request::Health,
        ];
        for r in requests {
            let line = encode_request(&r);
            assert_eq!(parse_request(&line).expect("parse"), r, "line: {line}");
        }
    }

    #[test]
    fn malformed_lines_get_typed_errors() {
        for (line, code) in [
            ("not json at all", "malformed_request"),
            ("[1,2,3]", "malformed_request"),
            ("{\"no\":\"verb\"}", "malformed_request"),
            ("{\"verb\":\"frobnicate\"}", "unknown_verb"),
            ("{\"verb\":\"status\"}", "malformed_request"),
            ("{\"verb\":\"submit\",\"job\":{}}", "malformed_request"),
            (
                "{\"verb\":\"submit\",\"tenant\":\"t\",\"job\":{\"id\":\".bad\",\"program\":\"p\"}}",
                "invalid_job",
            ),
        ] {
            let err = parse_request(line).expect_err(line);
            assert_eq!(err.code, code, "line: {line}");
            // The error envelope itself is valid JSON with the code intact.
            let resp = Json::parse(&err.to_response()).expect("error response parses");
            assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
            assert_eq!(
                resp.get("error")
                    .and_then(|e| e.get("code"))
                    .and_then(Json::as_str),
                Some(code)
            );
        }
    }

    #[test]
    fn error_response_shape_is_stable() {
        let line = ProtocolError::new("unknown_job", "no job \"x\"").to_response();
        let json = Json::parse(&line).expect("parses");
        assert_eq!(
            json.get("protocol").and_then(Json::as_u64),
            Some(PROTOCOL_VERSION)
        );
        assert_eq!(
            json.get("error")
                .and_then(|e| e.get("message"))
                .and_then(Json::as_str),
            Some("no job \"x\"")
        );
    }
}
