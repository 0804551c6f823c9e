//! The unified attack interface: the [`Attack`] trait and the common
//! [`AttackReport`] envelope every attack returns.
//!
//! The five attacks of the evaluation suite (SAT, AppSAT, Double-DIP,
//! removal, SPS) historically exposed five free functions with five
//! bespoke report types. The [`Attack`] trait unifies them behind one
//! `run(locked, oracle)` call returning one envelope, so benchmark tables
//! and comparison studies can iterate over `Vec<Box<dyn Attack>>` without
//! caring which attack produced which row. The attack-specific reports
//! survive intact inside [`AttackDetails`].

use std::path::Path;
use std::time::Duration;

use fulllock_locking::{Key, LockedCircuit};
use fulllock_sat::cdcl::SolverStats;

use crate::oracle::Oracle;
use crate::{AttackError, Result};

/// Why an attack run ended — the cross-attack outcome vocabulary.
///
/// The SAT-family attacks produce the exact-key variants
/// ([`KeyRecovered`](AttackOutcome::KeyRecovered), budget exhaustion);
/// AppSAT adds [`ApproximateKey`](AttackOutcome::ApproximateKey); the
/// structural attacks (removal, SPS) report
/// [`Bypassed`](AttackOutcome::Bypassed) or
/// [`Defeated`](AttackOutcome::Defeated).
#[derive(Debug, Clone, PartialEq)]
pub enum AttackOutcome {
    /// The attack converged and extracted an exact key.
    KeyRecovered {
        /// The extracted key.
        key: Key,
        /// Whether the key matched the oracle on every verification
        /// pattern.
        verified: bool,
    },
    /// The attack settled for a key below its error threshold (AppSAT).
    ApproximateKey {
        /// The best key found.
        key: Key,
        /// Its measured error rate (fraction of sampled patterns with any
        /// wrong output).
        measured_error: f64,
    },
    /// A structural attack produced a key-free circuit (removal / SPS).
    Bypassed {
        /// Residual functional error of the bypassed circuit vs the
        /// oracle.
        error_rate: f64,
        /// Whether the bypass was exact on every sampled pattern.
        exact: bool,
    },
    /// The attack found no handle on this scheme (e.g. SPS on a circuit
    /// without a skewed wire).
    Defeated {
        /// Human-readable explanation.
        reason: String,
    },
    /// The wall-clock budget expired first (the paper's `TO`).
    Timeout,
    /// The iteration budget expired first.
    IterationLimit,
    /// The constraint system became unsatisfiable even without the miter —
    /// only possible if the oracle is inconsistent with the locked circuit.
    Inconclusive,
}

impl AttackOutcome {
    /// Whether an exact key was recovered.
    pub fn is_broken(&self) -> bool {
        matches!(self, AttackOutcome::KeyRecovered { .. })
    }

    /// Whether the scheme lost in *any* sense: exact key, settled
    /// approximate key, or exact bypass.
    pub fn is_compromised(&self) -> bool {
        match self {
            AttackOutcome::KeyRecovered { .. } | AttackOutcome::ApproximateKey { .. } => true,
            AttackOutcome::Bypassed { exact, .. } => *exact,
            _ => false,
        }
    }
}

/// Attack-specific report payloads, preserved inside the common envelope.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum AttackDetails {
    /// The SAT attack's full instrumentation.
    Sat(crate::sat_attack::SatAttackReport),
    /// AppSAT's settlement data.
    AppSat(crate::appsat::AppSatReport),
    /// Double-DIP's phase split.
    DoubleDip(crate::double_dip::DoubleDipReport),
    /// The removal study (includes the bypassed netlist).
    Removal(crate::removal::RemovalStudy),
    /// The SPS scan.
    Sps(crate::sps::SpsReport),
    /// A details *summary* decoded from the wire format
    /// ([`AttackReport::from_json`](crate::AttackReport::from_json)).
    /// The full in-process payloads (bypassed netlists, per-phase data)
    /// never cross the wire; re-encoding this variant reproduces the
    /// summary verbatim, so wire round trips are lossless.
    Wire(fulllock_harness::json::Json),
}

/// The formal half of a [`KeyCertificate`]: what SAT-based equivalence
/// checking concluded about the recovered key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FormalVerdict {
    /// The locked circuit under the key is provably equivalent to the
    /// reference netlist: folding and hashing merged every output pair,
    /// or the SAT miter over the pairs left open is UNSAT.
    Equivalent,
    /// A counterexample input exists: the key is wrong.
    NotEquivalent,
    /// The equivalence solve hit its resource limit.
    Unknown,
    /// The check could not run (no reference netlist on the oracle, a
    /// cyclic locked netlist, interleaved inputs); the reason is recorded.
    Unavailable(String),
}

/// Independent evidence that a recovered key is correct, produced *after*
/// the attack by re-checking the key against the oracle — never by
/// trusting the solver that found it.
///
/// Two complementary checks: bit-parallel random simulation against the
/// oracle (cheap, catches gross mistakes across many patterns) and a
/// formal equivalence proof against the oracle's reference netlist when
/// one is available (exhaustive, but may be unavailable or time out).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyCertificate {
    /// Input patterns simulated (requested samples plus the all-zeros and
    /// all-ones corners).
    pub samples: u64,
    /// Patterns where the unlocked circuit disagreed with the oracle.
    /// Non-zero means the key is demonstrably wrong.
    pub mismatches: u64,
    /// The formal equivalence verdict.
    pub formal: FormalVerdict,
}

impl KeyCertificate {
    /// Whether nothing contradicts the key: no simulation mismatch and no
    /// formal counterexample. (A clean certificate with
    /// [`FormalVerdict::Equivalent`] is a *proof*; with
    /// [`Unknown`](FormalVerdict::Unknown) or
    /// [`Unavailable`](FormalVerdict::Unavailable) it is sampled evidence
    /// only.)
    pub fn is_clean(&self) -> bool {
        self.mismatches == 0 && self.formal != FormalVerdict::NotEquivalent
    }

    /// Whether the key is formally proven correct.
    pub fn is_proven(&self) -> bool {
        self.mismatches == 0 && self.formal == FormalVerdict::Equivalent
    }
}

/// How a run weathered faults and interruptions: oracle faults absorbed,
/// and checkpoint activity when the run was checkpointed. All-zeros
/// ([`Default`]) for an undisturbed, un-checkpointed run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunResilience {
    /// Iteration count restored from a checkpoint, when the run resumed
    /// (`None` for a fresh run).
    pub resumed_from: Option<u64>,
    /// Checkpoint snapshots successfully written during the run.
    pub checkpoints_written: u64,
    /// Best-effort checkpoint writes that failed; the run continued, so a
    /// non-zero value means the on-disk snapshot lags the reported
    /// progress.
    pub checkpoint_failures: u64,
    /// Transient oracle failures (dropped responses) absorbed by the
    /// resilient oracle layer's retry loop.
    pub oracle_retries: u64,
    /// Suspect I/O pairs re-queried under majority vote during
    /// self-healing (after an UNSAT key space or a failed verification).
    pub oracle_requeries: u64,
    /// I/O pairs quarantined because their answer changed on re-query —
    /// their constraints were disabled and the run continued without them.
    pub quarantined_pairs: u64,
}

impl RunResilience {
    /// Whether anything noteworthy happened (a fault was absorbed or a
    /// checkpoint was involved).
    pub fn is_eventful(&self) -> bool {
        *self != RunResilience::default()
    }
}

/// The common result envelope every [`Attack`] returns.
#[derive(Debug, Clone)]
pub struct AttackReport {
    /// Short attack name (`"sat"`, `"appsat"`, `"double-dip"`,
    /// `"removal"`, `"sps"`).
    pub attack: &'static str,
    /// Why the run ended.
    pub outcome: AttackOutcome,
    /// Attack iterations completed (DIPs for the SAT family, 0 for
    /// structural attacks).
    pub iterations: u64,
    /// Wall-clock time spent.
    pub elapsed: Duration,
    /// Oracle queries issued.
    pub oracle_queries: u64,
    /// SAT solver counters accumulated over the run (zeroed for attacks
    /// that never touch a solver).
    pub solver: SolverStats,
    /// Fault-tolerance record of the run (oracle faults absorbed,
    /// checkpoint activity).
    pub resilience: RunResilience,
    /// Independent post-attack evidence for the recovered key
    /// ([`certify_key`](crate::certificate::certify_key)); `None` when the
    /// attack recovered no key (structural attacks, timeouts).
    pub key_certificate: Option<KeyCertificate>,
    /// The attack-specific report.
    pub details: AttackDetails,
}

/// One attack of the evaluation suite, runnable against any locked
/// circuit + oracle pair.
///
/// Implemented by [`SatAttackConfig`](crate::SatAttackConfig),
/// [`AppSatConfig`](crate::AppSatConfig),
/// [`DoubleDip`](crate::double_dip::DoubleDip),
/// [`Removal`](crate::removal::Removal), and [`Sps`](crate::sps::Sps) —
/// each configuration struct *is* the attack object.
pub trait Attack {
    /// Short stable name for tables and logs.
    fn name(&self) -> &'static str;

    /// Runs the attack against a locked circuit with oracle access.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError`](crate::AttackError) for interface
    /// mismatches or structural preconditions the attack cannot handle
    /// (e.g. SPS on a cyclic netlist).
    fn run(&self, locked: &LockedCircuit, oracle: &dyn Oracle) -> Result<AttackReport>;

    /// Runs the attack with crash-safe checkpointing: after each completed
    /// iteration a snapshot is written atomically to `checkpoint` (see
    /// [`AttackCheckpoint`](crate::checkpoint::AttackCheckpoint)). With
    /// `resume` set and an existing checkpoint file, the run restores the
    /// snapshot first — re-deriving its constraints without repeating the
    /// completed iterations' oracle queries; with `resume` set and no file
    /// present, the run starts fresh (so a restart script can always pass
    /// `resume = true`).
    ///
    /// The default implementation rejects the call: only the oracle-guided
    /// DIP-loop attacks (SAT, AppSAT, Double-DIP) override it.
    ///
    /// # Errors
    ///
    /// Everything [`run`](Attack::run) returns, plus
    /// [`AttackError::CheckpointIo`] /
    /// [`AttackError::CheckpointFormat`] for unreadable or incompatible
    /// checkpoints, and [`AttackError::Unsupported`] from attacks without
    /// checkpoint support.
    fn run_checkpointed(
        &self,
        locked: &LockedCircuit,
        oracle: &dyn Oracle,
        checkpoint: &Path,
        resume: bool,
    ) -> Result<AttackReport> {
        let _ = (locked, oracle, checkpoint, resume);
        Err(AttackError::Unsupported(format!(
            "attack {:?} does not support checkpointing",
            self.name()
        )))
    }

    /// Resumes a previously checkpointed run from `checkpoint` (shorthand
    /// for [`run_checkpointed`](Attack::run_checkpointed) with
    /// `resume = true`).
    ///
    /// # Errors
    ///
    /// See [`run_checkpointed`](Attack::run_checkpointed).
    fn resume(
        &self,
        locked: &LockedCircuit,
        oracle: &dyn Oracle,
        checkpoint: &Path,
    ) -> Result<AttackReport> {
        self.run_checkpointed(locked, oracle, checkpoint, true)
    }
}
