//! The activated-chip oracle of the SAT-attack threat model.
//!
//! The attacker owns the locked (reverse-engineered) netlist *and* one
//! unlocked chip they can stimulate freely: apply any input, observe the
//! outputs. [`Oracle`] abstracts that chip; [`SimOracle`] realizes it by
//! simulating the original netlist (our stand-in for the authors' working
//! silicon).
//!
//! # The oracle is an untrusted boundary
//!
//! A physical chip answers through a test harness that can drop responses,
//! answer late, or flip a marginal output bit — and one flipped bit
//! silently poisons every constraint the DIP loop accumulates afterwards.
//! This module therefore provides two layers:
//!
//! * [`Oracle::try_query`] — the fallible path with typed
//!   [`OracleError`]s (transient, width mismatch) instead of the
//!   historical panic;
//! * [`ResilientOracle`] — a decorator adding bounded retry with backoff,
//!   token-bucket rate limiting (real chips cap stimulus frequency), and
//!   k-of-n majority voting, configured by an [`OracleResilience`]
//!   policy. A query is bounded by its retry budget; the attack's own
//!   timeout bounds the run.
//!
//! Chaos builds inject oracle faults at
//! [`faults::site::ORACLE_QUERY`](fulllock_sat::faults::site::ORACLE_QUERY)
//! inside [`SimOracle::try_query`] — *below* the resilient wrapper, so an
//! unguarded attack sees the poison directly while a guarded one can vote
//! it away.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::time::{Duration, Instant};

use fulllock_netlist::{Netlist, Result, Simulator};
use fulllock_sat::ambient::{
    env_value, parse_oracle_qps, parse_oracle_retries, parse_oracle_votes, ORACLE_QPS_ENV,
    ORACLE_RETRIES_ENV, ORACLE_VOTES_ENV,
};
use fulllock_sat::faults::{self, site, FaultAction};

/// A typed oracle failure: why a query produced no usable answer.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum OracleError {
    /// A transient failure (lost response, glitched harness); retrying the
    /// same stimulus may succeed.
    Transient(String),
    /// The stimulus width does not match the chip's declared input count.
    WidthMismatch {
        /// The chip's input count.
        expected: usize,
        /// The stimulus width actually applied.
        got: usize,
    },
}

impl fmt::Display for OracleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OracleError::Transient(why) => write!(f, "transient oracle failure: {why}"),
            OracleError::WidthMismatch { expected, got } => {
                write!(
                    f,
                    "oracle stimulus width mismatch: chip has {expected} inputs, got {got}"
                )
            }
        }
    }
}

impl std::error::Error for OracleError {}

/// A black-box functional oracle (an activated chip).
pub trait Oracle {
    /// Number of (data) inputs.
    fn num_inputs(&self) -> usize;

    /// Number of outputs.
    fn num_outputs(&self) -> usize;

    /// Applies one input pattern and observes the outputs.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `inputs.len() != self.num_inputs()`.
    fn query(&self, inputs: &[bool]) -> Vec<bool>;

    /// The fallible query path: like [`query`](Oracle::query), but a
    /// malformed stimulus or a flaky harness yields a typed
    /// [`OracleError`] instead of a panic. The default implementation
    /// checks the width and delegates to `query`.
    ///
    /// # Errors
    ///
    /// [`OracleError::WidthMismatch`] when the stimulus width is wrong;
    /// implementations backed by real harnesses may also return
    /// [`OracleError::Transient`].
    fn try_query(&self, inputs: &[bool]) -> std::result::Result<Vec<bool>, OracleError> {
        if inputs.len() != self.num_inputs() {
            return Err(OracleError::WidthMismatch {
                expected: self.num_inputs(),
                got: inputs.len(),
            });
        }
        Ok(self.query(inputs))
    }

    /// How many queries have been issued (the attack-cost metric the
    /// literature reports alongside iterations).
    fn queries(&self) -> u64;

    /// The reference netlist behind the oracle, if it can expose one.
    ///
    /// A real activated chip cannot (the default `None`), but the
    /// simulation stand-in can — and key certification uses it for a
    /// formal equivalence proof instead of settling for sampled evidence.
    fn netlist(&self) -> Option<&Netlist> {
        None
    }
}

impl<T: Oracle + ?Sized> Oracle for &T {
    fn num_inputs(&self) -> usize {
        (**self).num_inputs()
    }

    fn num_outputs(&self) -> usize {
        (**self).num_outputs()
    }

    fn query(&self, inputs: &[bool]) -> Vec<bool> {
        (**self).query(inputs)
    }

    fn try_query(&self, inputs: &[bool]) -> std::result::Result<Vec<bool>, OracleError> {
        (**self).try_query(inputs)
    }

    fn queries(&self) -> u64 {
        (**self).queries()
    }

    fn netlist(&self) -> Option<&Netlist> {
        (**self).netlist()
    }
}

/// An [`Oracle`] backed by simulation of the original netlist.
///
/// In chaos builds (the `failpoints` feature), [`SimOracle::try_query`]
/// evaluates the [`site::ORACLE_QUERY`] failpoint with the query index:
/// `flip` inverts one output bit of this response only, `stuck` forces
/// output bit 0 to a constant, `drop` loses the response (a transient
/// error), `delay:<ms>` models a slow harness.
///
/// # Example
///
/// ```
/// use fulllock_attacks::{Oracle, SimOracle};
/// use fulllock_netlist::benchmarks;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let original = benchmarks::load("c17")?;
/// let oracle = SimOracle::new(&original)?;
/// let y = oracle.query(&[true; 5]);
/// assert_eq!(y.len(), 2);
/// assert_eq!(oracle.queries(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SimOracle<'a> {
    sim: Simulator<'a>,
    count: Cell<u64>,
}

impl<'a> SimOracle<'a> {
    /// Wraps an original (unlocked) netlist as an oracle.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::Cyclic`](fulllock_netlist::NetlistError::Cyclic)
    /// if the netlist is cyclic (originals never are).
    pub fn new(original: &'a Netlist) -> Result<SimOracle<'a>> {
        Ok(SimOracle {
            sim: Simulator::new(original)?,
            count: Cell::new(0),
        })
    }
}

impl Oracle for SimOracle<'_> {
    fn num_inputs(&self) -> usize {
        self.sim.netlist().inputs().len()
    }

    fn num_outputs(&self) -> usize {
        self.sim.netlist().outputs().len()
    }

    fn query(&self, inputs: &[bool]) -> Vec<bool> {
        self.try_query(inputs)
            .expect("oracle query with the declared input width")
    }

    fn try_query(&self, inputs: &[bool]) -> std::result::Result<Vec<bool>, OracleError> {
        let index = self.count.get();
        self.count.set(index + 1);
        let injected = faults::evaluate(site::ORACLE_QUERY, index as usize);
        match injected {
            Some(FaultAction::Drop) => {
                return Err(OracleError::Transient(format!(
                    "injected failpoint: {} drop at query {index}",
                    site::ORACLE_QUERY
                )))
            }
            Some(delay @ FaultAction::DelayMs(_)) => faults::apply_delay(delay),
            _ => {}
        }
        if inputs.len() != self.num_inputs() {
            return Err(OracleError::WidthMismatch {
                expected: self.num_inputs(),
                got: inputs.len(),
            });
        }
        let mut outputs = self
            .sim
            .run(inputs)
            .map_err(|e| OracleError::Transient(e.to_string()))?;
        if !outputs.is_empty() {
            match injected {
                // A transient upset: only this response carries the flip, a
                // re-query answers correctly. Rotating the bit with the
                // query index spreads flips over the output word.
                Some(FaultAction::Flip) => {
                    let bit = index as usize % outputs.len();
                    outputs[bit] = !outputs[bit];
                }
                // A stuck-at-1 fault on output bit 0: every re-query keeps
                // answering the same wrong way when the true value is 0.
                Some(FaultAction::Stuck) => outputs[0] = true,
                _ => {}
            }
        }
        Ok(outputs)
    }

    fn queries(&self) -> u64 {
        self.count.get()
    }

    fn netlist(&self) -> Option<&Netlist> {
        Some(self.sim.netlist())
    }
}

/// The resilience policy of a [`ResilientOracle`]: how hard the attack
/// works to extract a trustworthy answer from a flaky chip.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OracleResilience {
    /// On an UNSAT key space, diagnose the conflicting pairs with a
    /// one-shot selector-gated re-solve of the recorded ledger, re-query
    /// the suspects under majority vote, quarantine the ones whose
    /// answer changed, and rebuild the constraints from the survivors
    /// (the self-healing DIP loop). The hot path stays selector-free, so
    /// guarding costs nothing until an answer actually conflicts. Off
    /// reproduces the historical trust-everything behaviour.
    pub guard: bool,
    /// Majority-vote repetitions per query (odd, ≥ 1; 1 = no voting).
    pub votes: u32,
    /// Transient-error retries per vote before giving up.
    pub retries: u32,
    /// Token-bucket rate limit in queries per second (`None` = unlimited).
    pub qps: Option<f64>,
}

impl Default for OracleResilience {
    fn default() -> OracleResilience {
        OracleResilience {
            guard: true,
            votes: 1,
            retries: 3,
            qps: None,
        }
    }
}

impl OracleResilience {
    /// The default policy with the ambient `FULLLOCK_ORACLE_*` overrides
    /// applied (unset or unparsable variables keep the defaults — a typo
    /// must never crash a campaign job; `AmbientConfig` is where strict
    /// validation lives).
    pub fn from_env() -> OracleResilience {
        let default = OracleResilience::default();
        OracleResilience {
            votes: env_value(ORACLE_VOTES_ENV, parse_oracle_votes).unwrap_or(default.votes),
            retries: env_value(ORACLE_RETRIES_ENV, parse_oracle_retries).unwrap_or(default.retries),
            qps: env_value(ORACLE_QPS_ENV, parse_oracle_qps).or(default.qps),
            ..default
        }
    }

    /// The trust-everything policy: no guarding, no voting, no retries —
    /// the unguarded baseline the resilience bench compares against.
    pub fn off() -> OracleResilience {
        OracleResilience {
            guard: false,
            votes: 1,
            retries: 0,
            qps: None,
        }
    }
}

/// A token bucket: `qps` tokens per second refill, bursts up to
/// `capacity`, and [`TokenBucket::acquire`] sleeps until a token is due.
#[derive(Debug)]
struct TokenBucket {
    qps: f64,
    capacity: f64,
    tokens: f64,
    last_refill: Instant,
}

impl TokenBucket {
    fn new(qps: f64) -> TokenBucket {
        // A one-second burst window keeps steady-state throughput at `qps`
        // without pacing every single query when the oracle is idle.
        let capacity = qps.max(1.0);
        TokenBucket {
            qps,
            capacity,
            tokens: capacity,
            last_refill: Instant::now(),
        }
    }

    fn refill(&mut self) {
        let now = Instant::now();
        let elapsed = now.duration_since(self.last_refill).as_secs_f64();
        self.tokens = (self.tokens + elapsed * self.qps).min(self.capacity);
        self.last_refill = now;
    }

    fn acquire(&mut self) {
        self.refill();
        if self.tokens < 1.0 {
            let wait = (1.0 - self.tokens) / self.qps;
            std::thread::sleep(Duration::from_secs_f64(wait));
            self.refill();
        }
        self.tokens -= 1.0;
    }
}

/// An [`Oracle`] decorator that survives flaky chips: bounded retry with
/// exponential backoff on [`OracleError::Transient`], token-bucket rate
/// limiting, and k-of-n majority voting — all per the wrapped
/// [`OracleResilience`] policy.
///
/// [`Oracle::queries`] still reports the *inner* oracle's query count, so
/// the attack-cost metric keeps counting real chip stimuli (votes and
/// retries inflate it honestly).
#[derive(Debug)]
pub struct ResilientOracle<O> {
    inner: O,
    policy: OracleResilience,
    bucket: RefCell<Option<TokenBucket>>,
    retries_absorbed: Cell<u64>,
}

impl<O: Oracle> ResilientOracle<O> {
    /// Wraps an oracle under a resilience policy.
    pub fn new(inner: O, policy: OracleResilience) -> ResilientOracle<O> {
        ResilientOracle {
            inner,
            policy,
            bucket: RefCell::new(policy.qps.map(TokenBucket::new)),
            retries_absorbed: Cell::new(0),
        }
    }

    /// Transient errors absorbed by retrying since construction.
    pub fn retries_absorbed(&self) -> u64 {
        self.retries_absorbed.get()
    }

    /// One rate-limited, retried query (no voting).
    fn query_once(&self, inputs: &[bool]) -> std::result::Result<Vec<bool>, OracleError> {
        let mut attempt = 0u32;
        loop {
            if let Some(bucket) = self.bucket.borrow_mut().as_mut() {
                bucket.acquire();
            }
            match self.inner.try_query(inputs) {
                Ok(outputs) => return Ok(outputs),
                Err(err @ OracleError::Transient(_)) => {
                    if attempt >= self.policy.retries {
                        return Err(err);
                    }
                    self.retries_absorbed.set(self.retries_absorbed.get() + 1);
                    // Exponential backoff, capped: 1, 2, 4, … 64 ms.
                    let backoff = Duration::from_millis(1u64 << attempt.min(6));
                    std::thread::sleep(backoff);
                    attempt += 1;
                }
                Err(other) => return Err(other),
            }
        }
    }

    /// Queries under the policy's k-of-n majority vote and returns the
    /// consensus answer plus how many of the repetitions agreed with it
    /// exactly (the per-pair confidence the checkpoint records).
    ///
    /// # Errors
    ///
    /// Propagates the first non-transient error, or the transient error
    /// that exhausted the retry budget of any single vote.
    pub fn query_voted(
        &self,
        inputs: &[bool],
    ) -> std::result::Result<(Vec<bool>, u32), OracleError> {
        let votes = self.policy.votes.max(1);
        if votes == 1 {
            return self.query_once(inputs).map(|y| (y, 1));
        }
        let mut responses: Vec<Vec<bool>> = Vec::with_capacity(votes as usize);
        for _ in 0..votes {
            responses.push(self.query_once(inputs)?);
        }
        let width = responses[0].len();
        let mut consensus = Vec::with_capacity(width);
        for bit in 0..width {
            let ones = responses
                .iter()
                .filter(|r| r.get(bit).copied().unwrap_or(false))
                .count();
            consensus.push(2 * ones > responses.len());
        }
        let agreeing = responses.iter().filter(|r| **r == consensus).count() as u32;
        Ok((consensus, agreeing))
    }
}

impl<O: Oracle> Oracle for ResilientOracle<O> {
    fn num_inputs(&self) -> usize {
        self.inner.num_inputs()
    }

    fn num_outputs(&self) -> usize {
        self.inner.num_outputs()
    }

    fn query(&self, inputs: &[bool]) -> Vec<bool> {
        self.try_query(inputs)
            .expect("oracle query with the declared input width")
    }

    fn try_query(&self, inputs: &[bool]) -> std::result::Result<Vec<bool>, OracleError> {
        self.query_voted(inputs).map(|(outputs, _)| outputs)
    }

    fn queries(&self) -> u64 {
        self.inner.queries()
    }

    fn netlist(&self) -> Option<&Netlist> {
        self.inner.netlist()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_counts_queries() {
        let nl = fulllock_netlist::benchmarks::load("c17").unwrap();
        let oracle = SimOracle::new(&nl).unwrap();
        assert_eq!(oracle.queries(), 0);
        oracle.query(&[false; 5]);
        oracle.query(&[true; 5]);
        assert_eq!(oracle.queries(), 2);
        assert_eq!(oracle.num_inputs(), 5);
        assert_eq!(oracle.num_outputs(), 2);
    }

    #[test]
    fn oracle_matches_simulation() {
        let nl = fulllock_netlist::benchmarks::load("c17").unwrap();
        let oracle = SimOracle::new(&nl).unwrap();
        let sim = Simulator::new(&nl).unwrap();
        for row in 0..32u32 {
            let x: Vec<bool> = (0..5).map(|i| row >> i & 1 == 1).collect();
            assert_eq!(oracle.query(&x), sim.run(&x).unwrap());
        }
    }

    #[test]
    fn width_mismatch_is_a_typed_error_not_a_panic() {
        let nl = fulllock_netlist::benchmarks::load("c17").unwrap();
        let oracle = SimOracle::new(&nl).unwrap();
        // Too narrow and too wide both refuse with the typed error.
        for width in [0usize, 3, 9] {
            match oracle.try_query(&vec![true; width]) {
                Err(OracleError::WidthMismatch { expected: 5, got }) => assert_eq!(got, width),
                other => panic!("width {width}: expected WidthMismatch, got {other:?}"),
            }
        }
        // The malformed attempts still counted as issued queries, and the
        // oracle remains usable afterwards.
        assert_eq!(oracle.queries(), 3);
        assert_eq!(oracle.try_query(&[true; 5]).unwrap().len(), 2);
    }

    #[test]
    #[should_panic(expected = "declared input width")]
    fn infallible_query_keeps_its_documented_panic() {
        let nl = fulllock_netlist::benchmarks::load("c17").unwrap();
        let oracle = SimOracle::new(&nl).unwrap();
        let _ = oracle.query(&[true; 3]);
    }

    #[test]
    fn resilient_wrapper_is_transparent_on_a_clean_oracle() {
        let nl = fulllock_netlist::benchmarks::load("c17").unwrap();
        let oracle = SimOracle::new(&nl).unwrap();
        let resilient = ResilientOracle::new(&oracle, OracleResilience::default());
        let x = [true, false, true, false, true];
        assert_eq!(resilient.query(&x), oracle.query(&x));
        assert_eq!(resilient.num_inputs(), 5);
        assert_eq!(resilient.num_outputs(), 2);
        assert!(resilient.netlist().is_some());
        assert_eq!(resilient.retries_absorbed(), 0);
        // queries() reports the inner chip's stimuli (2 so far).
        assert_eq!(resilient.queries(), 2);
    }

    #[test]
    fn majority_vote_multiplies_query_cost_and_reports_agreement() {
        let nl = fulllock_netlist::benchmarks::load("c17").unwrap();
        let oracle = SimOracle::new(&nl).unwrap();
        let policy = OracleResilience {
            votes: 3,
            ..OracleResilience::default()
        };
        let resilient = ResilientOracle::new(&oracle, policy);
        let (answer, agreeing) = resilient.query_voted(&[false; 5]).unwrap();
        assert_eq!(answer.len(), 2);
        assert_eq!(agreeing, 3, "a clean oracle answers unanimously");
        assert_eq!(oracle.queries(), 3);
    }

    /// An oracle that fails transiently `failures` times before answering.
    struct FlakyOracle {
        failures: Cell<u32>,
        count: Cell<u64>,
    }

    impl Oracle for FlakyOracle {
        fn num_inputs(&self) -> usize {
            2
        }
        fn num_outputs(&self) -> usize {
            1
        }
        fn query(&self, inputs: &[bool]) -> Vec<bool> {
            self.try_query(inputs).expect("flaky oracle exhausted")
        }
        fn try_query(&self, inputs: &[bool]) -> std::result::Result<Vec<bool>, OracleError> {
            self.count.set(self.count.get() + 1);
            if self.failures.get() > 0 {
                self.failures.set(self.failures.get() - 1);
                return Err(OracleError::Transient("lost response".into()));
            }
            Ok(vec![inputs[0] ^ inputs[1]])
        }
        fn queries(&self) -> u64 {
            self.count.get()
        }
    }

    #[test]
    fn transient_errors_are_retried_within_budget() {
        let flaky = FlakyOracle {
            failures: Cell::new(2),
            count: Cell::new(0),
        };
        let resilient = ResilientOracle::new(&flaky, OracleResilience::default());
        assert_eq!(resilient.try_query(&[true, false]).unwrap(), vec![true]);
        assert_eq!(resilient.retries_absorbed(), 2);

        // A budget smaller than the failure streak surfaces the error.
        let flaky = FlakyOracle {
            failures: Cell::new(5),
            count: Cell::new(0),
        };
        let strict = ResilientOracle::new(
            &flaky,
            OracleResilience {
                retries: 1,
                ..OracleResilience::default()
            },
        );
        assert!(matches!(
            strict.try_query(&[true, false]),
            Err(OracleError::Transient(_))
        ));
    }

    #[test]
    fn rate_limit_paces_query_bursts() {
        let nl = fulllock_netlist::benchmarks::load("c17").unwrap();
        let oracle = SimOracle::new(&nl).unwrap();
        // Capacity ≈ 1 token with 1 qps… too slow for a test; use a high
        // rate and just verify the bucket path executes and stays correct.
        let resilient = ResilientOracle::new(
            &oracle,
            OracleResilience {
                qps: Some(10_000.0),
                ..OracleResilience::default()
            },
        );
        for _ in 0..32 {
            assert_eq!(resilient.try_query(&[false; 5]).unwrap().len(), 2);
        }
        assert_eq!(oracle.queries(), 32);
    }

    #[test]
    fn token_bucket_enforces_the_rate() {
        let mut bucket = TokenBucket::new(100.0);
        bucket.tokens = 0.0; // burst spent
        let start = Instant::now();
        bucket.acquire();
        // One token at 100 qps is due in ~10ms.
        assert!(start.elapsed() >= Duration::from_millis(5));
    }

    #[test]
    fn off_policy_disables_everything() {
        let policy = OracleResilience::off();
        assert!(!policy.guard);
        assert_eq!(policy.votes, 1);
        assert_eq!(policy.retries, 0);
        assert_eq!(policy.qps, None);
        assert!(OracleResilience::default().guard);
    }
}
