//! Attacks on locked netlists — the evaluation engine of the Full-Lock
//! reproduction.
//!
//! Implements the attack suite the paper evaluates with (§4):
//!
//! * [`sat_attack`] — the oracle-guided SAT attack (miter + DIP loop),
//!   instrumented with iteration counts, wall-clock timeouts, and
//!   clause/variable-ratio tracking (Tables 2 & 4, Fig 7);
//! * [`cycsat`] — CycSAT no-structural-cycle preprocessing for cyclic
//!   locking (applied automatically when the locked netlist is cyclic);
//! * [`appsat`] — the approximate attack that settles for a low-error key
//!   (defeats point-function schemes; gains nothing on Full-Lock);
//! * [`removal`] — best-case CLN excision with perfect routing recovery
//!   (§4.2.2's removal-resistance study);
//! * [`sps`] — the Signal Probability Skew attack on skewed protection
//!   blocks (breaks Anti-SAT, finds no handle on Full-Lock).
//!
//! The threat model is uniform: the attacker holds the locked netlist and
//! an activated chip ([`Oracle`] / [`SimOracle`]). Every attack implements
//! the [`Attack`] trait and returns the common [`AttackReport`] envelope,
//! so comparison studies can iterate over `Vec<Box<dyn Attack>>`.
//!
//! # Example
//!
//! One attack, one call:
//!
//! ```
//! use fulllock_attacks::{Attack, SatAttackConfig, SimOracle};
//! use fulllock_locking::{LockingScheme, Rll};
//! use fulllock_netlist::benchmarks;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let original = benchmarks::load("c17")?;
//! let locked = Rll::new(4, 0).lock(&original)?;
//! let oracle = SimOracle::new(&original)?;
//! let report = SatAttackConfig::default().run(&locked, &oracle)?;
//! assert!(report.outcome.is_broken());
//! println!("broken in {} iterations", report.iterations);
//! # Ok(())
//! # }
//! ```
//!
//! A whole suite against one scheme (the evaluation-matrix pattern):
//!
//! ```
//! use fulllock_attacks::{AppSatConfig, Attack, SatAttackConfig, SimOracle};
//! use fulllock_attacks::double_dip::DoubleDip;
//! use fulllock_locking::{LockingScheme, Rll};
//! use fulllock_netlist::benchmarks;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let original = benchmarks::load("c17")?;
//! let locked = Rll::new(4, 0).lock(&original)?;
//! let suite: Vec<Box<dyn Attack>> = vec![
//!     Box::new(SatAttackConfig::default()),
//!     Box::new(AppSatConfig::default()),
//!     Box::new(DoubleDip::default()),
//! ];
//! for attack in &suite {
//!     let oracle = SimOracle::new(&original)?;
//!     let report = attack.run(&locked, &oracle)?;
//!     println!("{:>10}: {:?} ({} oracle queries)",
//!              report.attack, report.outcome, report.oracle_queries);
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod appsat;
pub mod certificate;
pub mod checkpoint;
pub mod cycsat;
pub mod double_dip;
mod encode;
mod error;
mod oracle;
pub mod removal;
mod report;
pub mod sat_attack;
pub mod sps;
pub mod wire;

pub use appsat::{AppSatConfig, AppSatReport};
pub use certificate::certify_key;
pub use checkpoint::{AttackCheckpoint, IoPair, CHECKPOINT_VERSION};
pub use double_dip::DoubleDip;
pub use encode::{
    encode_locked, CircuitEncoder, EncodeStyle, InterfaceMap, LockedEncoding, SigVal,
};
pub use error::AttackError;
pub use oracle::{Oracle, OracleError, OracleResilience, ResilientOracle, SimOracle};
pub use removal::Removal;
pub use report::{
    Attack, AttackDetails, AttackOutcome, AttackReport, FormalVerdict, KeyCertificate,
    RunResilience,
};
pub use sat_attack::{SatAttack, SatAttackConfig, SatAttackReport};
pub use sps::Sps;
pub use wire::WIRE_VERSION;

/// The hand-rolled JSON used by the checkpoint format — promoted to
/// `fulllock-harness` so the attack checkpoints and the campaign
/// manifests share one implementation; re-exported here for both the
/// internal `crate::json` path and downstream users.
pub(crate) mod json {
    pub(crate) use fulllock_harness::json::Json;
}
pub use fulllock_harness::json as shared_json;

/// Crate-wide result alias.
pub type Result<T, E = AttackError> = std::result::Result<T, E>;
