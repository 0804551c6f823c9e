//! `fulllock serve`: the multi-tenant attack-as-a-service daemon.
//!
//! The pieces, bottom-up:
//!
//! * [`queue`] — the persistent sharded job queue. Every transition is
//!   sealed-and-synced through [`crate::persist`], so a SIGKILL at any
//!   instant is recoverable and completions are recorded exactly once.
//! * [`protocol`] — the newline-delimited JSON wire format: five verbs
//!   (`submit`, `status`, `cancel`, `list`, `stream`) and a typed error
//!   envelope with stable codes.
//! * [`quota`] — per-tenant caps ([`QuotaSpec`]) checked against the
//!   usage the queue sums from the tenant's jobs
//!   ([`ShardedQueue::usage`]); the queue is the only record of spend.
//! * [`server`] — the daemon itself: listener (Unix or TCP), bounded
//!   worker pool supervising child processes with deadline/retry
//!   escalation, quota checks at submit and claim, and graceful drain.
//! * [`client`] — a blocking client used by the CLI, the load-test
//!   bench, and the smoke tests.
//!
//! Attack jobs are ordinary child processes (`fulllock attack …`) whose
//! arguments may reference `{job_dir}`, the job's scratch directory.
//! Pointing the attack's checkpoint at `{job_dir}/attack.ckpt` with
//! `--resume` gives end-to-end exactly-once oracle semantics: a job
//! interrupted by a crash or drain replays its recorded I/O pairs
//! instead of re-buying oracle queries.

pub mod client;
pub mod protocol;
pub mod queue;
pub mod quota;
pub mod server;

pub use client::{Client, ServiceReply};
pub use protocol::{ProtocolError, Request, PROTOCOL_VERSION};
pub use queue::{JobState, QueueCounts, ServiceJob, ShardedQueue, QUEUE_VERSION};
pub use quota::{QuotaError, QuotaSpec, QuotaUsage};
pub use server::{serve, Endpoint, ServeSummary, ServiceConfig};
