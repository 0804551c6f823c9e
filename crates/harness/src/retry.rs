//! Retry policy: bounded attempts with exponential backoff, shared by
//! the campaign supervisor and the `fulllock serve` workers.

use std::time::Duration;

use crate::plan::JobSpec;

/// Bounded retries with exponential backoff.
///
/// A job gets at most `max_attempts` executions. After the `n`-th failed
/// attempt (1-based), the next attempt becomes eligible after
/// `base_delay * multiplier^(n-1)`, capped at `max_delay`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total executions allowed per job (1 = no retries).
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base_delay: Duration,
    /// Growth factor per subsequent retry.
    pub multiplier: f64,
    /// Upper bound on any single backoff delay.
    pub max_delay: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 2,
            base_delay: Duration::from_millis(500),
            multiplier: 2.0,
            max_delay: Duration::from_secs(30),
        }
    }
}

impl RetryPolicy {
    /// Backoff to wait after `failures` failed attempts, or `None` when
    /// the attempt budget is exhausted and the job must be declared
    /// permanently failed.
    pub fn delay_after(&self, failures: u32) -> Option<Duration> {
        if failures == 0 || failures >= self.max_attempts {
            return None;
        }
        let factor = self
            .multiplier
            .max(1.0)
            .powi(failures.saturating_sub(1) as i32);
        let delay = self.base_delay.as_secs_f64() * factor;
        Some(self.max_delay.min(Duration::from_secs_f64(delay)))
    }

    /// This policy under `job`'s
    /// [`max_attempts`](JobSpec::max_attempts) override, if it has one.
    pub fn for_job(&self, job: &JobSpec) -> RetryPolicy {
        RetryPolicy {
            max_attempts: job.max_attempts.unwrap_or(self.max_attempts),
            ..*self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_schedule_is_exponential_and_capped() {
        let policy = RetryPolicy {
            max_attempts: 5,
            base_delay: Duration::from_millis(100),
            multiplier: 2.0,
            max_delay: Duration::from_millis(350),
        };
        assert_eq!(policy.delay_after(1), Some(Duration::from_millis(100)));
        assert_eq!(policy.delay_after(2), Some(Duration::from_millis(200)));
        // 400ms hits the cap.
        assert_eq!(policy.delay_after(3), Some(Duration::from_millis(350)));
        assert_eq!(policy.delay_after(4), Some(Duration::from_millis(350)));
        // Budget exhausted.
        assert_eq!(policy.delay_after(5), None);
        assert_eq!(policy.delay_after(99), None);

        // Growth follows the multiplier: 1 s, then 3 s, then the budget
        // of three attempts is spent.
        let tripling = RetryPolicy {
            max_attempts: 3,
            base_delay: Duration::from_secs(1),
            multiplier: 3.0,
            max_delay: Duration::from_secs(60),
        };
        assert_eq!(tripling.delay_after(1), Some(Duration::from_secs(1)));
        assert_eq!(tripling.delay_after(2), Some(Duration::from_secs(3)));
        assert_eq!(tripling.delay_after(3), None);
    }

    #[test]
    fn zero_failures_is_not_a_retry() {
        assert_eq!(RetryPolicy::default().delay_after(0), None);
    }
}
