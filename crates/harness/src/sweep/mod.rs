//! Fault-tolerant distributed sweep executor for the hardness atlas.
//!
//! A *sweep* fans a parameter grid (instance sizes × clause/variable
//! ratios × seeds, or any axes) across N isolated OS worker processes
//! and folds their measurements into streaming percentile aggregates.
//! Coordination is entirely file-based and partition-tolerant:
//!
//! * [`grid`] — the parameter grid, work units, and the sealed plan
//!   file whose config hash folds in the `FULLLOCK_*` ambient
//!   environment fingerprint (resume refuses drifted environments).
//! * [`lease`] — work units are claimed by atomically-created lease
//!   files with heartbeat renewal; expired or corrupt leases are
//!   *stolen* by live workers, so a SIGKILLed worker's units migrate
//!   without coordinator help.
//! * [`segment`] — workers stream results as checksummed append-only
//!   segment files; a torn tail truncates to the last valid record and
//!   the fold is first-wins per unit, which is where exactly-once
//!   actually lives.
//! * [`mod@aggregate`] — P² percentile estimators (p50/p90/p99 in five
//!   markers each) and the compact columnar result store.
//! * [`worker`] — the claim → execute → durable-append → first-wins
//!   settle loop, plus speculative re-execution of stragglers past a
//!   percentile deadline.
//! * [`coordinator`] — process lifecycle, respawn, resume
//!   reconciliation (orphan markers re-run; recovered records settle),
//!   and the final fold.
//!
//! Chaos coverage injects through the `sweep.lease`, `sweep.segment`,
//! and `sweep.unit` failpoint sites (see `fulllock_sat::faults`).

pub mod aggregate;
pub mod coordinator;
pub mod grid;
pub mod lease;
pub mod segment;
pub mod worker;

pub use aggregate::{aggregate, MetricStats, MetricSummary, P2Quantile, SweepAggregates};
pub use coordinator::{reconcile_resume, run_sweep, ResumeReport, SweepConfig, SweepOutcome};
pub use grid::{SweepGrid, SweepPlan, WorkUnit};
pub use lease::{Lease, LeaseDir, LeaseState};
pub use segment::{fold_segments, SampleRecord, SegmentFold, SegmentWriter};
pub use worker::{
    run_worker, ExecContext, SatUnitExecutor, UnitExecutor, UnitSample, WorkerArgs, WorkerConfig,
    WorkerSummary,
};
