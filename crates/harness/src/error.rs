//! Error type of the harness: campaigns, sweeps and the serve queue.

use std::fmt;
use std::path::PathBuf;

/// Anything that can go wrong while planning or supervising a campaign,
/// a sweep or the serve queue.
///
/// Job *failures* are not errors — they are recorded in the manifest and
/// the campaign continues. `HarnessError` covers supervisor-level
/// problems only: a malformed plan, an unreadable manifest, a filesystem
/// failure on the output directory.
#[derive(Debug)]
pub enum HarnessError {
    /// A plan or submitted job failed validation or parsing.
    PlanFormat {
        /// What was being planned (`"campaign plan"`, `"sweep grid"`,
        /// `"sweep plan"`, `"serve job"`).
        kind: &'static str,
        /// Offending file, if the plan came from disk.
        path: Option<PathBuf>,
        /// What was wrong.
        message: String,
    },
    /// A persisted document (campaign manifest, queue shard, sweep
    /// plan) exists but no generation of it verifies, or the one that
    /// does cannot be decoded (bad version, malformed field).
    ManifestFormat {
        /// What the document is (`"campaign manifest"`, `"queue shard"`,
        /// `"sweep plan"`).
        kind: &'static str,
        /// The document file.
        path: PathBuf,
        /// What was wrong.
        message: String,
    },
    /// A queue directory holds shards written under a shard count other
    /// than the one it was opened with; jobs would be lost or run twice.
    ShardCount {
        /// The queue directory.
        dir: PathBuf,
        /// The shard count it was opened with.
        shards: u32,
        /// What showed the mismatch.
        evidence: String,
    },
    /// A filesystem operation failed (logs directory, manifest write,
    /// plan read, queue shard, sweep directory, serve socket).
    Io {
        /// The path being touched.
        path: PathBuf,
        /// Underlying failure.
        message: String,
    },
}

impl fmt::Display for HarnessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HarnessError::PlanFormat {
                kind,
                path: Some(p),
                message,
            } => {
                write!(f, "invalid {kind} {}: {message}", p.display())
            }
            HarnessError::PlanFormat {
                kind,
                path: None,
                message,
            } => {
                write!(f, "invalid {kind}: {message}")
            }
            HarnessError::ManifestFormat {
                kind,
                path,
                message,
            } => {
                write!(f, "invalid {kind} {}: {message}", path.display())
            }
            HarnessError::ShardCount {
                dir,
                shards,
                evidence,
            } => {
                write!(
                    f,
                    "queue {} was written under a shard count other than {shards} \
                     ({evidence}); restart with the --shards value it was written under",
                    dir.display()
                )
            }
            HarnessError::Io { path, message } => {
                write!(f, "io error at {}: {message}", path.display())
            }
        }
    }
}

impl std::error::Error for HarnessError {}
