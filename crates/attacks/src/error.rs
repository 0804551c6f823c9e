use std::fmt;

/// Errors produced by the attack implementations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AttackError {
    /// The locked circuit and oracle disagree on interface width.
    InterfaceMismatch {
        /// Data inputs of the locked circuit.
        locked_inputs: usize,
        /// Inputs of the oracle.
        oracle_inputs: usize,
    },
    /// An attack precondition failed (e.g. SPS on a cyclic netlist).
    Unsupported(String),
    /// Propagated netlist error.
    Netlist(fulllock_netlist::NetlistError),
    /// Propagated locking-layer error.
    Lock(fulllock_locking::LockError),
    /// A checkpoint file could not be read or written.
    CheckpointIo {
        /// Checkpoint path.
        path: std::path::PathBuf,
        /// Underlying I/O failure.
        message: String,
    },
    /// A checkpoint file parsed but its contents are invalid or
    /// incompatible with the attack / circuit being resumed.
    CheckpointFormat {
        /// Checkpoint path (empty when the text never came from a file).
        path: std::path::PathBuf,
        /// What is wrong.
        message: String,
    },
    /// A solver answer failed its certification check (a claimed model
    /// does not satisfy the formula, or an UNSAT proof does not verify).
    /// The run aborts rather than returning a result built on an
    /// uncertified answer.
    Certification(fulllock_sat::CertifyError),
    /// The solver reported SAT but its model has no value for a variable
    /// the attack needs (a DIP bit or key bit). Silently substituting a
    /// default would fabricate oracle queries and keys; the run aborts.
    IncompleteModel {
        /// Index of the variable missing from the model.
        var: usize,
    },
    /// A wire-format attack report failed to decode (malformed JSON, a
    /// missing field, or an unsupported schema version).
    ReportFormat {
        /// What is wrong.
        message: String,
    },
    /// The activated-chip oracle failed to answer a query even after the
    /// configured retry / deadline budget (a persistently dead harness,
    /// not a one-off glitch — those are absorbed by the resilient layer).
    Oracle(crate::OracleError),
}

impl fmt::Display for AttackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttackError::InterfaceMismatch {
                locked_inputs,
                oracle_inputs,
            } => write!(
                f,
                "locked circuit has {locked_inputs} data inputs but the oracle has {oracle_inputs}"
            ),
            AttackError::Unsupported(msg) => write!(f, "unsupported attack input: {msg}"),
            AttackError::Netlist(e) => write!(f, "netlist error: {e}"),
            AttackError::Lock(e) => write!(f, "locking error: {e}"),
            AttackError::CheckpointIo { path, message } => {
                write!(f, "checkpoint I/O error at {}: {message}", path.display())
            }
            AttackError::CheckpointFormat { path, message } => {
                if path.as_os_str().is_empty() {
                    write!(f, "invalid checkpoint: {message}")
                } else {
                    write!(f, "invalid checkpoint {}: {message}", path.display())
                }
            }
            AttackError::Certification(e) => write!(f, "solver answer failed certification: {e}"),
            AttackError::IncompleteModel { var } => {
                write!(f, "solver model has no value for variable {var}")
            }
            AttackError::ReportFormat { message } => {
                write!(f, "invalid attack report: {message}")
            }
            AttackError::Oracle(e) => write!(f, "oracle failure: {e}"),
        }
    }
}

impl std::error::Error for AttackError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AttackError::Netlist(e) => Some(e),
            AttackError::Lock(e) => Some(e),
            AttackError::Certification(e) => Some(e),
            AttackError::Oracle(e) => Some(e),
            _ => None,
        }
    }
}

impl From<fulllock_sat::CertifyError> for AttackError {
    fn from(e: fulllock_sat::CertifyError) -> Self {
        AttackError::Certification(e)
    }
}

impl From<crate::OracleError> for AttackError {
    fn from(e: crate::OracleError) -> Self {
        AttackError::Oracle(e)
    }
}

impl From<fulllock_netlist::NetlistError> for AttackError {
    fn from(e: fulllock_netlist::NetlistError) -> Self {
        AttackError::Netlist(e)
    }
}

impl From<fulllock_locking::LockError> for AttackError {
    fn from(e: fulllock_locking::LockError) -> Self {
        AttackError::Lock(e)
    }
}
