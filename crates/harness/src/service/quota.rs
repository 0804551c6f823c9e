//! Per-tenant quotas, checked against usage the queue derives.
//!
//! A tenant's caps are a [`QuotaSpec`]: jobs in flight, cumulative
//! solver conflicts and cumulative wall time. Its usage is not kept
//! anywhere: [`ShardedQueue::usage`](super::ShardedQueue::usage) sums it
//! from the tenant's jobs (pending and running jobs are in flight; every
//! job carries its persisted `charged_*` spend). The server checks a
//! submission with [`QuotaSpec::check`] before queueing it and a claim
//! before launching it, under the queue lock both already hold, so a
//! restart cannot launder spend and nothing needs rebuilding.

use std::fmt;
use std::time::Duration;

/// The caps of one tenant's quota. `None` means unlimited on that axis.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QuotaSpec {
    /// Maximum jobs simultaneously pending or running.
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

    /// Checks a tenant's usage against these caps: the cumulative
    /// allowances always, the in-flight cap only when `admitting` a new
    /// job. `usage` is computed only when one of the checked axes is
    /// capped, so an uncapped tenant costs no pass over its jobs.
    ///
    /// # Errors
    ///
    /// [`QuotaError::ConflictsExhausted`] / [`QuotaError::WallTimeExhausted`]
    /// when an allowance is spent, then [`QuotaError::ConcurrencyFull`]
    /// when `admitting` and `max_in_flight` jobs are already in flight.
    pub fn check(
        &self,
        admitting: bool,
        usage: impl FnOnce() -> QuotaUsage,
    ) -> Result<(), QuotaError> {
        let in_flight_cap = self.max_in_flight.filter(|_| admitting);
        if in_flight_cap.is_none() && self.max_conflicts.is_none() && self.max_wall.is_none() {
            return Ok(());
        }
        let usage = usage();
        if let Some(limit) = self.max_conflicts {
            if usage.conflicts >= limit {
                return Err(QuotaError::ConflictsExhausted {
                    spent: usage.conflicts,
                    limit,
                });
            }
        }
        if let Some(limit) = self.max_wall {
            if usage.wall >= limit {
                return Err(QuotaError::WallTimeExhausted {
                    spent: usage.wall,
                    limit,
                });
            }
        }
        match in_flight_cap {
            Some(limit) if usage.in_flight >= limit => Err(QuotaError::ConcurrencyFull { limit }),
            _ => Ok(()),
        }
    }
}

/// Why an admission was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuotaError {
    /// The tenant already has `limit` jobs in flight; retry after one
    /// finishes.
    ConcurrencyFull {
        /// The concurrency cap.
        limit: u64,
    },
    /// The cumulative conflict allowance is spent.
    ConflictsExhausted {
        /// Conflicts charged so far.
        spent: u64,
        /// The allowance.
        limit: u64,
    },
    /// The cumulative wall-clock allowance is spent.
    WallTimeExhausted {
        /// Wall time charged so far.
        spent: Duration,
        /// The allowance.
        limit: Duration,
    },
}

impl QuotaError {
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

/// A tenant's usage, summed from its jobs in the queue.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QuotaUsage {
    /// Jobs pending or running.
    pub in_flight: u64,
    /// Solver conflicts charged to the tenant's jobs.
    pub conflicts: u64,
    /// Wall time charged to the tenant's jobs.
    pub wall: Duration,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn usage(in_flight: u64, conflicts: u64, wall: Duration) -> impl FnOnce() -> QuotaUsage {
        move || QuotaUsage {
            in_flight,
            conflicts,
            wall,
        }
    }

    #[test]
    fn unlimited_spec_admits_forever() {
        let spec = QuotaSpec::unlimited();
        let never = || -> QuotaUsage { panic!("an uncapped tenant skips the pass") };
        assert!(spec.check(true, never).is_ok());
        assert!(spec.check(false, never).is_ok());
    }

    #[test]
    fn concurrency_gate_applies_only_to_admission() {
        let spec = QuotaSpec {
            max_in_flight: Some(2),
            ..QuotaSpec::default()
        };
        assert!(spec.check(true, usage(1, 0, Duration::ZERO)).is_ok());
        let err = spec
            .check(true, usage(2, 0, Duration::ZERO))
            .expect_err("gate closed");
        assert_eq!(err, QuotaError::ConcurrencyFull { limit: 2 });
        assert_eq!(err.code(), "concurrency_full");
        // A claim of an already admitted job is not gated on concurrency.
        let never = || -> QuotaUsage { panic!("no cumulative cap to check") };
        assert!(spec.check(false, never).is_ok());
    }

    #[test]
    fn cumulative_conflicts_exhaust_admission_and_claim() {
        let spec = QuotaSpec {
            max_in_flight: Some(5),
            max_conflicts: Some(100),
            ..QuotaSpec::default()
        };
        assert!(spec.check(true, usage(0, 99, Duration::ZERO)).is_ok());
        for admitting in [true, false] {
            let err = spec
                .check(admitting, usage(0, 100, Duration::ZERO))
                .expect_err("spent");
            assert_eq!(
                err,
                QuotaError::ConflictsExhausted {
                    spent: 100,
                    limit: 100
                }
            );
            assert_eq!(err.code(), "conflicts_exhausted");
        }
        // Spend is checked before concurrency.
        let err = spec
            .check(true, usage(5, 100, Duration::ZERO))
            .expect_err("spent and full");
        assert_eq!(err.code(), "conflicts_exhausted");
    }

    #[test]
    fn wall_time_exhausts() {
        let spec = QuotaSpec {
            max_wall: Some(Duration::from_secs(10)),
            ..QuotaSpec::default()
        };
        assert!(spec
            .check(false, usage(0, 0, Duration::from_secs(9)))
            .is_ok());
        let err = spec
            .check(false, usage(0, 0, Duration::from_secs(11)))
            .expect_err("spent");
        assert_eq!(err.code(), "wall_time_exhausted");
        assert!(err.to_string().contains("11.0s of 10.0s"), "{err}");
    }
}
