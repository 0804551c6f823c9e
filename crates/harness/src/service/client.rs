//! A blocking client for the `fulllock serve` protocol.
//!
//! Thin by design: one connection per request ([`Client`] reconnects
//! each call), which keeps the client free of connection-state
//! bookkeeping and matches the server's cheap thread-per-connection
//! handlers. The load-test harness opens its own persistent connections
//! when it wants to measure protocol overhead instead.

use std::io;
use std::time::{Duration, Instant};

use crate::json::Json;
use crate::plan::JobSpec;
use crate::service::protocol::{encode_request, Request};
use crate::service::queue::JobState;
use crate::service::server::{one_shot, Endpoint};

/// A typed response: either the parsed `ok` payload or a typed error.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceReply {
    /// `{"ok": true, ...}` — the full response object.
    Ok(Json),
    /// `{"ok": false, "error": ...}` — stable code + message.
    Err {
        /// Stable machine-readable error code.
        code: String,
        /// Human-readable context.
        message: String,
    },
}

impl ServiceReply {
    /// The job state carried by an `ok` job response, if any.
    pub fn job_state(&self) -> Option<JobState> {
        match self {
            ServiceReply::Ok(json) => JobState::parse(json.get("job")?.str_field("state").ok()?),
            ServiceReply::Err { .. } => None,
        }
    }

    /// The error code, if this is an error reply.
    pub fn error_code(&self) -> Option<&str> {
        match self {
            ServiceReply::Ok(_) => None,
            ServiceReply::Err { code, .. } => Some(code),
        }
    }
}

fn decode_reply(line: &str) -> io::Result<ServiceReply> {
    let invalid =
        |e: String| io::Error::new(io::ErrorKind::InvalidData, format!("bad response: {e}"));
    let json = Json::parse(line).map_err(invalid)?;
    if json.bool_field("ok").map_err(invalid)? {
        return Ok(ServiceReply::Ok(json));
    }
    // A refusal without its envelope still reads as a refusal.
    let error = json.get("error").unwrap_or(&Json::Null);
    Ok(ServiceReply::Err {
        code: error
            .late_field("code", "internal")
            .map_err(invalid)?
            .to_string(),
        message: error
            .late_field("message", "")
            .map_err(invalid)?
            .to_string(),
    })
}

/// Blocking client handle (stores the endpoint; connects per request).
#[derive(Debug, Clone)]
pub struct Client {
    endpoint: Endpoint,
}

impl Client {
    /// A client for the given endpoint.
    pub fn new(endpoint: Endpoint) -> Client {
        Client { endpoint }
    }

    /// Sends one request and decodes the (first) response line.
    ///
    /// # Errors
    ///
    /// I/O errors connecting or talking to the server, or a response
    /// that is not valid protocol JSON. Typed protocol errors are *not*
    /// `Err` — they come back as [`ServiceReply::Err`].
    pub fn request(&self, request: &Request) -> io::Result<ServiceReply> {
        decode_reply(&one_shot(&self.endpoint, &encode_request(request))?)
    }

    /// Submits a job for `tenant`.
    ///
    /// # Errors
    ///
    /// See [`request`](Self::request).
    pub fn submit(&self, tenant: &str, job: JobSpec) -> io::Result<ServiceReply> {
        self.request(&Request::Submit {
            tenant: tenant.to_string(),
            job,
        })
    }

    /// One-shot job status.
    ///
    /// # Errors
    ///
    /// See [`request`](Self::request).
    pub fn status(&self, job: &str) -> io::Result<ServiceReply> {
        self.request(&Request::Status {
            job: job.to_string(),
        })
    }

    /// Requests cancellation of a job.
    ///
    /// # Errors
    ///
    /// See [`request`](Self::request).
    pub fn cancel(&self, job: &str) -> io::Result<ServiceReply> {
        self.request(&Request::Cancel {
            job: job.to_string(),
        })
    }

    /// Lists jobs, optionally for one tenant.
    ///
    /// # Errors
    ///
    /// See [`request`](Self::request).
    pub fn list(&self, tenant: Option<&str>) -> io::Result<ServiceReply> {
        self.request(&Request::List {
            tenant: tenant.map(str::to_string),
        })
    }

    /// The server's self-observation snapshot (queue depth, worker
    /// liveness, quota pressure, persist status).
    ///
    /// # Errors
    ///
    /// See [`request`](Self::request).
    pub fn health(&self) -> io::Result<ServiceReply> {
        self.request(&Request::Health)
    }

    /// Polls `status` until the job reaches a terminal state or the
    /// deadline passes. Returns the final reply.
    ///
    /// # Errors
    ///
    /// `TimedOut` when the deadline passes first; otherwise see
    /// [`request`](Self::request).
    pub fn wait(&self, job: &str, timeout: Duration) -> io::Result<ServiceReply> {
        let deadline = Instant::now() + timeout;
        loop {
            let reply = self.status(job)?;
            match reply.job_state() {
                Some(state) if state.is_terminal() => return Ok(reply),
                Some(_) => {}
                // unknown_job and other typed errors end the wait too.
                None => return Ok(reply),
            }
            if Instant::now() >= deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("job {job:?} not terminal within {timeout:?}"),
                ));
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// Whether the server is reachable (an empty probe connection).
    pub fn is_up(&self) -> bool {
        self.list(None).is_ok()
    }
}
