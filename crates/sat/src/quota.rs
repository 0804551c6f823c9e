//! Multi-tenant resource quotas on lock-free atomics.
//!
//! A [`SolveLimits`](crate::cdcl::SolveLimits) bounds one *solve*: a
//! deadline and a conflict cap. A serving deployment
//! needs the layer above that — one ledger per *tenant*, accumulated
//! across every job the tenant ever submitted, consulted at admission
//! time so a tenant who has spent their allowance is refused new work
//! instead of starving everyone else.
//!
//! [`TenantQuota`] is that ledger: an immutable [`QuotaSpec`] (the caps)
//! plus three atomic counters (jobs in flight, cumulative solver
//! conflicts, cumulative wall-clock nanoseconds). All operations are
//! lock-free and callable from any worker thread:
//!
//! * [`TenantQuota::admit`] — called before a job starts; refuses with a
//!   typed [`QuotaError`] when the concurrency cap is reached or a
//!   cumulative allowance is already spent, otherwise takes an in-flight
//!   slot;
//! * [`TenantQuota::release`] — returns the slot when the job leaves the
//!   running state;
//! * [`TenantQuota::charge`] — adds a finished job's conflicts and wall
//!   time to the ledger.
//!
//! The counters only grow (releases decrement the in-flight gauge, never
//! the cumulative spend), so an exhausted tenant stays exhausted until
//! the process restarts with a fresh ledger — the serving layer persists
//! spend across restarts if it wants stronger guarantees.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// The caps of one tenant's quota. `None` means unlimited on that axis.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QuotaSpec {
    /// Maximum jobs simultaneously running.
    pub max_in_flight: Option<u64>,
    /// Cumulative solver-conflict allowance across all finished jobs.
    pub max_conflicts: Option<u64>,
    /// Cumulative wall-clock allowance across all finished jobs.
    pub max_wall: Option<Duration>,
}

impl QuotaSpec {
    /// No caps on any axis.
    pub fn unlimited() -> QuotaSpec {
        QuotaSpec::default()
    }
}

/// Why an admission was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuotaError {
    /// The tenant already runs `limit` jobs; retry after one finishes.
    ConcurrencyFull {
        /// The concurrency cap.
        limit: u64,
    },
    /// The cumulative conflict allowance is spent; permanent until the
    /// ledger resets.
    ConflictsExhausted {
        /// Conflicts charged so far.
        spent: u64,
        /// The allowance.
        limit: u64,
    },
    /// The cumulative wall-clock allowance is spent; permanent until the
    /// ledger resets.
    WallTimeExhausted {
        /// Wall time charged so far.
        spent: Duration,
        /// The allowance.
        limit: Duration,
    },
}

impl QuotaError {
    /// Whether waiting can clear the refusal (`true` only for the
    /// concurrency gate — cumulative exhaustion is permanent for this
    /// ledger's lifetime).
    pub fn is_transient(&self) -> bool {
        matches!(self, QuotaError::ConcurrencyFull { .. })
    }

    /// Stable machine-readable code (`concurrency_full`,
    /// `conflicts_exhausted`, `wall_time_exhausted`) for wire protocols.
    pub fn code(&self) -> &'static str {
        match self {
            QuotaError::ConcurrencyFull { .. } => "concurrency_full",
            QuotaError::ConflictsExhausted { .. } => "conflicts_exhausted",
            QuotaError::WallTimeExhausted { .. } => "wall_time_exhausted",
        }
    }
}

impl fmt::Display for QuotaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuotaError::ConcurrencyFull { limit } => {
                write!(f, "tenant concurrency quota full ({limit} in flight)")
            }
            QuotaError::ConflictsExhausted { spent, limit } => write!(
                f,
                "tenant conflict allowance exhausted ({spent} of {limit} spent)"
            ),
            QuotaError::WallTimeExhausted { spent, limit } => write!(
                f,
                "tenant wall-time allowance exhausted ({:.1}s of {:.1}s spent)",
                spent.as_secs_f64(),
                limit.as_secs_f64()
            ),
        }
    }
}

impl std::error::Error for QuotaError {}

/// Point-in-time snapshot of a tenant's ledger.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QuotaUsage {
    /// Jobs currently holding an in-flight slot.
    pub in_flight: u64,
    /// Cumulative solver conflicts charged.
    pub conflicts: u64,
    /// Cumulative wall time charged.
    pub wall: Duration,
}

/// One tenant's quota ledger: caps plus lock-free usage counters. See the
/// module docs for the lifecycle (`admit` → run → `release` + `charge`).
#[derive(Debug)]
pub struct TenantQuota {
    spec: QuotaSpec,
    in_flight: AtomicU64,
    conflicts: AtomicU64,
    wall_ns: AtomicU64,
}

impl TenantQuota {
    /// A fresh ledger under the given caps.
    pub fn new(spec: QuotaSpec) -> TenantQuota {
        TenantQuota {
            spec,
            in_flight: AtomicU64::new(0),
            conflicts: AtomicU64::new(0),
            wall_ns: AtomicU64::new(0),
        }
    }

    /// The caps this ledger enforces.
    pub fn spec(&self) -> &QuotaSpec {
        &self.spec
    }

    /// Pre-loads cumulative spend recovered from persistent storage (a
    /// restarted server replaying its queue), so a restart cannot launder
    /// an exhausted allowance.
    pub fn preload(&self, conflicts: u64, wall: Duration) {
        self.conflicts.fetch_add(conflicts, Ordering::Relaxed);
        self.wall_ns
            .fetch_add(saturating_nanos(wall), Ordering::Relaxed);
    }

    /// The cumulative-exhaustion check alone (no slot taken): the error a
    /// *submission* should be refused with, independent of how many jobs
    /// happen to be running right now.
    ///
    /// # Errors
    ///
    /// [`QuotaError::ConflictsExhausted`] / [`QuotaError::WallTimeExhausted`]
    /// when the corresponding allowance is spent.
    pub fn check_cumulative(&self) -> Result<(), QuotaError> {
        if let Some(limit) = self.spec.max_conflicts {
            let spent = self.conflicts.load(Ordering::Relaxed);
            if spent >= limit {
                return Err(QuotaError::ConflictsExhausted { spent, limit });
            }
        }
        if let Some(limit) = self.spec.max_wall {
            let spent_ns = self.wall_ns.load(Ordering::Relaxed);
            if spent_ns >= saturating_nanos(limit) {
                return Err(QuotaError::WallTimeExhausted {
                    spent: Duration::from_nanos(spent_ns),
                    limit,
                });
            }
        }
        Ok(())
    }

    /// Takes an in-flight slot for one job, or refuses.
    ///
    /// # Errors
    ///
    /// Everything [`check_cumulative`](Self::check_cumulative) refuses,
    /// plus [`QuotaError::ConcurrencyFull`] when `max_in_flight` jobs are
    /// already running (a transient refusal — retry after a release).
    pub fn admit(&self) -> Result<(), QuotaError> {
        self.check_cumulative()?;
        if let Some(limit) = self.spec.max_in_flight {
            // Optimistic increment with rollback keeps the gate lock-free;
            // a racing over-admission is corrected before either job runs.
            let prior = self.in_flight.fetch_add(1, Ordering::Relaxed);
            if prior >= limit {
                self.in_flight.fetch_sub(1, Ordering::Relaxed);
                return Err(QuotaError::ConcurrencyFull { limit });
            }
        } else {
            self.in_flight.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Returns an admitted job's in-flight slot (call exactly once per
    /// successful [`admit`](Self::admit), whatever the job's outcome).
    pub fn release(&self) {
        // Saturating decrement: a spurious extra release must not wrap the
        // gauge to u64::MAX and wedge the tenant forever.
        let _ = self
            .in_flight
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                Some(n.saturating_sub(1))
            });
    }

    /// Adds a finished job's spend to the cumulative ledger.
    pub fn charge(&self, conflicts: u64, wall: Duration) {
        self.conflicts.fetch_add(conflicts, Ordering::Relaxed);
        self.wall_ns
            .fetch_add(saturating_nanos(wall), Ordering::Relaxed);
    }

    /// Snapshot of the current usage.
    pub fn usage(&self) -> QuotaUsage {
        QuotaUsage {
            in_flight: self.in_flight.load(Ordering::Relaxed),
            conflicts: self.conflicts.load(Ordering::Relaxed),
            wall: Duration::from_nanos(self.wall_ns.load(Ordering::Relaxed)),
        }
    }
}

/// `Duration` → nanoseconds clamped into `u64` (584 years — effectively
/// "unlimited", but without a multiplication panic on absurd input).
fn saturating_nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_spec_admits_forever() {
        let quota = TenantQuota::new(QuotaSpec::unlimited());
        for _ in 0..1000 {
            quota.admit().expect("unlimited");
        }
        quota.charge(u64::MAX / 2, Duration::from_secs(1 << 40));
        assert!(quota.check_cumulative().is_ok());
    }

    #[test]
    fn concurrency_gate_is_transient() {
        let quota = TenantQuota::new(QuotaSpec {
            max_in_flight: Some(2),
            ..QuotaSpec::default()
        });
        quota.admit().expect("slot 1");
        quota.admit().expect("slot 2");
        let err = quota.admit().expect_err("gate closed");
        assert_eq!(err, QuotaError::ConcurrencyFull { limit: 2 });
        assert!(err.is_transient());
        quota.release();
        quota.admit().expect("slot freed");
    }

    #[test]
    fn cumulative_conflicts_exhaust_permanently() {
        let quota = TenantQuota::new(QuotaSpec {
            max_conflicts: Some(100),
            ..QuotaSpec::default()
        });
        quota.admit().expect("fresh ledger");
        quota.charge(60, Duration::ZERO);
        assert!(quota.check_cumulative().is_ok());
        quota.charge(40, Duration::ZERO);
        let err = quota.check_cumulative().expect_err("spent");
        assert!(!err.is_transient());
        assert_eq!(err.code(), "conflicts_exhausted");
        // Releasing in-flight slots never refunds cumulative spend.
        quota.release();
        assert!(quota.admit().is_err());
    }

    #[test]
    fn wall_time_exhausts() {
        let quota = TenantQuota::new(QuotaSpec {
            max_wall: Some(Duration::from_secs(10)),
            ..QuotaSpec::default()
        });
        quota.charge(0, Duration::from_secs(11));
        assert_eq!(
            quota.check_cumulative().expect_err("spent").code(),
            "wall_time_exhausted"
        );
    }

    #[test]
    fn preload_counts_like_spend() {
        let quota = TenantQuota::new(QuotaSpec {
            max_conflicts: Some(50),
            ..QuotaSpec::default()
        });
        quota.preload(50, Duration::ZERO);
        assert!(quota.admit().is_err(), "restart must not launder spend");
    }

    #[test]
    fn release_saturates_at_zero() {
        let quota = TenantQuota::new(QuotaSpec {
            max_in_flight: Some(1),
            ..QuotaSpec::default()
        });
        quota.release();
        quota.release();
        assert_eq!(quota.usage().in_flight, 0);
        quota.admit().expect("gauge did not wrap");
    }

    #[test]
    fn usage_snapshots_track_charges() {
        let quota = TenantQuota::new(QuotaSpec::unlimited());
        quota.admit().expect("admit");
        quota.charge(7, Duration::from_millis(1500));
        let usage = quota.usage();
        assert_eq!(usage.in_flight, 1);
        assert_eq!(usage.conflicts, 7);
        assert_eq!(usage.wall, Duration::from_millis(1500));
    }
}
