//! Fault-tolerant distributed sweep executor for the hardness atlas.
//!
//! A *sweep* fans a parameter grid (instance sizes × clause/variable
//! ratios × seeds, or any axes) across N isolated OS worker processes
//! and folds their measurements into percentile aggregates.
//! Coordination is entirely file-based and partition-tolerant:
//!
//! * [`grid`] — the parameter grid, work units, and the sealed plan
//!   file whose config hash folds in the `FULLLOCK_*` ambient
//!   environment fingerprint (resume refuses drifted environments).
//! * [`lease`] — work units are claimed by atomically-created lease
//!   files with heartbeat renewal; expired or corrupt leases are
//!   *stolen* by live workers, so a SIGKILLed worker's units migrate
//!   without coordinator help.
//! * [`results`] — a unit settles when a worker hard-links its sealed
//!   record to `results/<unit>.json`; the first link wins, so the one
//!   file is both the record and the settle marker, which is where
//!   exactly-once actually lives.
//! * [`mod@aggregate`] — exact p50/p90/p99 summaries and the compact
//!   columnar result store.
//! * [`worker`] — the claim → execute → first-wins settle loop, plus
//!   speculative re-execution of stragglers past a percentile deadline.
//! * [`coordinator`] — process lifecycle, respawn, resume
//!   reconciliation (invalid result files are deleted and their units
//!   re-run), and the final fold.
//!
//! Chaos coverage injects through the `sweep.lease`, `sweep.result`,
//! and `sweep.unit` failpoint sites (see `fulllock_sat::faults`).

pub mod aggregate;
pub mod coordinator;
pub mod grid;
pub mod lease;
pub mod results;
pub mod worker;

pub use aggregate::{aggregate, MetricSummary, SweepAggregates};
pub use coordinator::{reconcile_resume, run_sweep, ResumeReport, SweepConfig, SweepOutcome};
pub use grid::{SweepGrid, SweepPlan, WorkUnit};
pub use lease::{Lease, LeaseDir, LeaseState};
pub use results::{fold_results, ResultFold, SampleRecord};
pub use worker::{
    run_worker, ExecContext, SatUnitExecutor, UnitExecutor, UnitSample, WorkerArgs, WorkerConfig,
    WorkerSummary,
};
