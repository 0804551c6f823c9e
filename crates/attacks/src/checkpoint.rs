//! Crash-safe checkpointing of oracle-guided attack runs.
//!
//! A Full-Lock attack on a production-sized netlist is a long-lived job:
//! hours of DIP iterations against a physical oracle, any of which can be
//! cut short by a crash, an OOM kill, or a cluster pre-emption. Every DIP
//! is paid for with a real oracle query, so losing the accumulated
//! constraints means re-buying them. This module makes runs resumable:
//!
//! * [`AttackCheckpoint`] captures everything a DIP loop needs to pick up
//!   where it stopped — the observed I/O pairs (the *semantic* state; the
//!   CNF is re-derived from them on resume, so the file stays small and
//!   version-independent of the encoder), iteration counters, the phase
//!   (for Double-DIP's two-phase loop), the best candidate key, and the
//!   cumulative instrumentation (elapsed time, oracle queries, solver
//!   counters);
//! * [`AttackCheckpoint::save`] writes through
//!   [`fulllock_harness::persist::save_sealed`]: the JSON is wrapped in a
//!   checksummed envelope, written atomically (`<path>.tmp`, `sync_all`,
//!   `rename`), and the previous good checkpoint is kept one more
//!   generation as `<path>.1`. A crash mid-write leaves the previous
//!   checkpoint intact; a torn write that the filesystem *reports as
//!   successful* fails its checksum on load and falls back to `<path>.1`
//!   instead of aborting the resume;
//! * [`AttackCheckpoint::load`] validates the version and (via
//!   [`AttackCheckpoint::validate_for`]) the attack name and interface
//!   widths, so a checkpoint can never silently resume against the wrong
//!   netlist.
//!
//! The on-disk format is versioned JSON ([`CHECKPOINT_VERSION`]); bit
//! vectors are `"0101"` strings (index 0 first). See `DESIGN.md` for the
//! schema.

use std::path::{Path, PathBuf};
use std::time::Duration;

use fulllock_harness::{persist, HarnessError};
use fulllock_locking::Key;
use fulllock_sat::cdcl::SolverStats;

use crate::json::Json;
use crate::{AttackError, Result};

/// Version tag written into every checkpoint file; loading any other
/// version fails rather than guessing.
pub const CHECKPOINT_VERSION: u64 = 1;

/// One observed oracle I/O pair (the unit of progress of a DIP loop).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IoPair {
    /// Data-input pattern queried.
    pub inputs: Vec<bool>,
    /// Oracle response.
    pub outputs: Vec<bool>,
    /// How many of the majority-vote repetitions agreed with the recorded
    /// response (1 for an unvoted query; also 1 for pairs restored from
    /// checkpoints written before votes were recorded).
    pub votes: u64,
    /// Whether the pair was quarantined: its answer changed on a
    /// suspicion re-query, so its constraints are disabled and stay
    /// disabled across resumes (the pair is kept in the log as evidence).
    pub quarantined: bool,
}

impl IoPair {
    /// A trusted, unquarantined pair with a single supporting vote.
    pub fn new(inputs: Vec<bool>, outputs: Vec<bool>) -> IoPair {
        IoPair {
            inputs,
            outputs,
            votes: 1,
            quarantined: false,
        }
    }
}

/// A resumable snapshot of an oracle-guided attack run.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackCheckpoint {
    /// Schema version ([`CHECKPOINT_VERSION`]).
    pub version: u64,
    /// Attack name (`"sat"`, `"appsat"`, `"double-dip"`); a checkpoint
    /// only resumes the attack that wrote it.
    pub attack: String,
    /// Data-input width of the locked circuit (resume-time validation).
    pub data_bits: usize,
    /// Key width of the locked circuit (resume-time validation).
    pub key_bits: usize,
    /// Loop phase: 0 for single-phase DIP loops; Double-DIP uses 1
    /// (2-DIP phase) and 2 (plain-DIP clean-up).
    pub phase: u64,
    /// Completed primary-loop iterations.
    pub iterations: u64,
    /// Completed clean-up iterations (Double-DIP only; 0 otherwise).
    pub cleanup_iterations: u64,
    /// Best candidate key at snapshot time, if the attack tracked one
    /// (AppSAT's settling key; `None` for the exact attacks mid-loop).
    pub candidate_key: Option<Key>,
    /// Sum of per-iteration clause/variable ratios (Fig 7 instrumentation).
    pub ratio_sum: f64,
    /// Number of ratio samples.
    pub ratio_samples: u64,
    /// Wall-clock time spent before the snapshot (cumulative across
    /// resumes).
    pub elapsed: Duration,
    /// Oracle queries issued before the snapshot (cumulative).
    pub oracle_queries: u64,
    /// Solver counters accumulated before the snapshot (cumulative).
    pub solver: SolverStats,
    /// Every observed I/O pair, in assertion order — replaying these
    /// through the attack's constraint encoder reproduces the formula
    /// without touching the oracle.
    pub io_pairs: Vec<IoPair>,
}

impl AttackCheckpoint {
    /// An empty snapshot for the named attack (counters zero, no pairs).
    pub fn new(attack: &str, data_bits: usize, key_bits: usize) -> AttackCheckpoint {
        AttackCheckpoint {
            version: CHECKPOINT_VERSION,
            attack: attack.to_string(),
            data_bits,
            key_bits,
            phase: 0,
            iterations: 0,
            cleanup_iterations: 0,
            candidate_key: None,
            ratio_sum: 0.0,
            ratio_samples: 0,
            elapsed: Duration::ZERO,
            oracle_queries: 0,
            solver: SolverStats::default(),
            io_pairs: Vec::new(),
        }
    }

    /// Checks this snapshot can resume the named attack on a circuit with
    /// the given interface widths.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::CheckpointFormat`] (with an empty path) on
    /// any mismatch.
    pub fn validate_for(&self, attack: &str, data_bits: usize, key_bits: usize) -> Result<()> {
        let complain = |message: String| {
            Err(AttackError::CheckpointFormat {
                path: PathBuf::new(),
                message,
            })
        };
        if self.attack != attack {
            return complain(format!(
                "checkpoint was written by attack {:?}, not {attack:?}",
                self.attack
            ));
        }
        if self.data_bits != data_bits || self.key_bits != key_bits {
            return complain(format!(
                "checkpoint interface is {}x{} (data x key bits) but the circuit is {data_bits}x{key_bits}",
                self.data_bits, self.key_bits
            ));
        }
        for (i, pair) in self.io_pairs.iter().enumerate() {
            if pair.inputs.len() != data_bits {
                return complain(format!(
                    "io pair {i} has {} input bits, expected {data_bits}",
                    pair.inputs.len()
                ));
            }
        }
        Ok(())
    }

    /// Serializes to the versioned JSON text format. The solver block
    /// uses the shared wire codec
    /// ([`wire::solver_stats_to_json`](crate::wire::solver_stats_to_json)),
    /// so checkpoints and wire reports agree on that schema.
    pub fn to_json(&self) -> String {
        let solver = crate::wire::solver_stats_to_json(&self.solver);
        let pairs = Json::Array(
            self.io_pairs
                .iter()
                .map(|pair| {
                    Json::Object(vec![
                        ("x".into(), Json::Str(bits_to_string(&pair.inputs))),
                        ("y".into(), Json::Str(bits_to_string(&pair.outputs))),
                        ("v".into(), Json::Int(pair.votes)),
                        ("q".into(), Json::Bool(pair.quarantined)),
                    ])
                })
                .collect(),
        );
        Json::Object(vec![
            ("version".into(), Json::Int(self.version)),
            ("attack".into(), Json::Str(self.attack.clone())),
            ("data_bits".into(), Json::Int(self.data_bits as u64)),
            ("key_bits".into(), Json::Int(self.key_bits as u64)),
            ("phase".into(), Json::Int(self.phase)),
            ("iterations".into(), Json::Int(self.iterations)),
            (
                "cleanup_iterations".into(),
                Json::Int(self.cleanup_iterations),
            ),
            (
                "candidate_key".into(),
                self.candidate_key.as_ref().map(Key::to_string).into(),
            ),
            ("ratio_sum".into(), Json::Float(self.ratio_sum)),
            ("ratio_samples".into(), Json::Int(self.ratio_samples)),
            (
                "elapsed_secs".into(),
                Json::Float(self.elapsed.as_secs_f64()),
            ),
            ("oracle_queries".into(), Json::Int(self.oracle_queries)),
            ("solver".into(), solver),
            ("io_pairs".into(), pairs),
        ])
        .to_text()
    }

    /// Parses the JSON text format, validating the version tag.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::CheckpointFormat`] (with an empty path — the
    /// file-level [`load`](Self::load) fills it in) on malformed text or
    /// an unsupported version.
    pub fn from_json(text: &str) -> Result<AttackCheckpoint> {
        parse_checkpoint(text).map_err(|message| AttackError::CheckpointFormat {
            path: PathBuf::new(),
            message,
        })
    }

    /// Writes the checkpoint sealed (checksummed envelope), atomically,
    /// keeping the previous generation as `<path>.1`. A crash at any
    /// point leaves either the old complete checkpoint or the new one;
    /// a torn write is caught by the checksum on [`load`](Self::load),
    /// which then falls back to `<path>.1`. Disk faults are injected one
    /// layer down, at the `persist.write` and `persist.sync` sites of
    /// [`persist::save_sealed`].
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::CheckpointIo`] on any filesystem failure.
    pub fn save(&self, path: &Path) -> Result<()> {
        let io_err = |message: String| AttackError::CheckpointIo {
            path: path.to_path_buf(),
            message,
        };
        let text = self.to_json();
        persist::save_sealed(path, &text).map_err(|e| io_err(format!("save: {e}")))
    }

    /// Loads and parses the newest checksum-valid generation of a
    /// checkpoint file. A corrupt primary is quarantined as
    /// `<path>.corrupt` and the previous generation `<path>.1` is used
    /// instead (with a warning on stderr); unsealed files written by
    /// older builds load as before.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::CheckpointIo`] if no generation can be read,
    /// and [`AttackError::CheckpointFormat`] if the surviving text is
    /// invalid.
    pub fn load(path: &Path) -> Result<AttackCheckpoint> {
        persist::load_document(path, "checkpoint", parse_checkpoint).map_err(|e| match e {
            HarnessError::ManifestFormat { message, .. } => AttackError::CheckpointFormat {
                path: path.to_path_buf(),
                message,
            },
            HarnessError::Io { message, .. } => AttackError::CheckpointIo {
                path: path.to_path_buf(),
                message,
            },
            other => AttackError::CheckpointIo {
                path: path.to_path_buf(),
                message: other.to_string(),
            },
        })
    }
}

/// Renders bits as a `"0101"` string, index 0 first.
fn bits_to_string(bits: &[bool]) -> String {
    bits.iter().map(|&b| if b { '1' } else { '0' }).collect()
}

/// Parses a `"0101"` string back into bits.
fn string_to_bits(s: &str) -> Result<Vec<bool>, String> {
    s.chars()
        .map(|c| match c {
            '0' => Ok(false),
            '1' => Ok(true),
            other => Err(format!("invalid bit character {other:?}")),
        })
        .collect()
}

fn parse_checkpoint(text: &str) -> std::result::Result<AttackCheckpoint, String> {
    let root = Json::parse(text)?;
    let version = root.u64_field("version")?;
    if version != CHECKPOINT_VERSION {
        return Err(format!(
            "unsupported checkpoint version {version} (this build reads version {CHECKPOINT_VERSION})"
        ));
    }
    root.field("candidate_key")?; // required, though it may be null
    let candidate_key = root
        .opt_field::<&str>("candidate_key")?
        .map(str::parse::<Key>)
        .transpose()
        .map_err(|e| format!("invalid candidate_key: {e}"))?;
    let elapsed_secs = root.f64_field("elapsed_secs")?;
    if !elapsed_secs.is_finite() || elapsed_secs < 0.0 {
        return Err(format!(
            "field \"elapsed_secs\" out of range: {elapsed_secs}"
        ));
    }
    Ok(AttackCheckpoint {
        version,
        attack: root.str_field("attack")?.to_string(),
        data_bits: root.u64_field("data_bits")? as usize,
        key_bits: root.u64_field("key_bits")? as usize,
        phase: root.u64_field("phase")?,
        iterations: root.u64_field("iterations")?,
        cleanup_iterations: root.u64_field("cleanup_iterations")?,
        candidate_key,
        ratio_sum: root.f64_field("ratio_sum")?,
        ratio_samples: root.u64_field("ratio_samples")?,
        elapsed: Duration::from_secs_f64(elapsed_secs),
        oracle_queries: root.u64_field("oracle_queries")?,
        solver: root.nested_field("solver", crate::wire::solver_stats_from_json)?,
        // Vote count and quarantine flag arrived with the resilient
        // oracle layer: pairs written before then read as one
        // supporting vote, not quarantined.
        io_pairs: root.items_field("io_pairs", |pair| {
            Ok(IoPair {
                inputs: string_to_bits(pair.str_field("x")?)?,
                outputs: string_to_bits(pair.str_field("y")?)?,
                votes: pair.late_field("v", 1)?,
                quarantined: pair.late_field("q", false)?,
            })
        })?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> AttackCheckpoint {
        let mut cp = AttackCheckpoint::new("sat", 4, 3);
        cp.iterations = 7;
        cp.phase = 0;
        cp.candidate_key = Some(Key::from_bits([true, false, true]));
        cp.ratio_sum = 13.625;
        cp.ratio_samples = 7;
        cp.elapsed = Duration::from_millis(1250);
        cp.oracle_queries = 9;
        cp.solver.conflicts = 123;
        cp.solver.lbd_histogram[2] = 45;
        cp.solver.restarts = 1;
        cp.io_pairs = vec![
            IoPair {
                inputs: vec![true, false, false, true],
                outputs: vec![false, true],
                votes: 3,
                quarantined: false,
            },
            IoPair {
                inputs: vec![false, false, true, true],
                outputs: vec![true, true],
                votes: 2,
                quarantined: true,
            },
        ];
        cp
    }

    #[test]
    fn json_round_trip_is_exact() {
        let cp = sample();
        let back = AttackCheckpoint::from_json(&cp.to_json()).expect("round trip");
        assert_eq!(back, cp);
    }

    #[test]
    fn null_candidate_key_round_trips() {
        let mut cp = sample();
        cp.candidate_key = None;
        let back = AttackCheckpoint::from_json(&cp.to_json()).expect("round trip");
        assert_eq!(back.candidate_key, None);
    }

    #[test]
    fn save_load_round_trips_and_is_atomic() {
        let dir = std::env::temp_dir().join(format!("fulllock-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("attack.ckpt");
        let cp = sample();
        cp.save(&path).expect("save");
        // No temp residue after a successful save.
        assert!(!path.with_extension("ckpt.tmp").exists());
        let back = AttackCheckpoint::load(&path).expect("load");
        assert_eq!(back, cp);
        // Overwrite with a newer snapshot: still one coherent file.
        let mut newer = cp.clone();
        newer.iterations = 8;
        newer.save(&path).expect("second save");
        assert_eq!(AttackCheckpoint::load(&path).expect("reload").iterations, 8);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_primary_falls_back_to_previous_generation() {
        let dir = std::env::temp_dir().join(format!("fulllock-ckpt-torn-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("attack.ckpt");
        let mut cp = sample();
        cp.save(&path).expect("first save");
        cp.iterations = 8;
        cp.save(&path).expect("second save");
        // Tear the primary as a lying-fsync torn write would.
        let full = std::fs::read_to_string(&path).expect("read");
        std::fs::write(&path, &full[..full.len() / 2]).expect("tear");
        let back = AttackCheckpoint::load(&path).expect("fallback load");
        assert_eq!(back.iterations, 7, "previous generation restored");
        let quarantine = dir.join("attack.ckpt.corrupt");
        assert!(quarantine.exists(), "torn primary quarantined");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn legacy_unsealed_checkpoint_still_loads() {
        let dir = std::env::temp_dir().join(format!("fulllock-ckpt-legacy-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("attack.ckpt");
        let cp = sample();
        std::fs::write(&path, cp.to_json() + "\n").expect("write legacy file");
        let back = AttackCheckpoint::load(&path).expect("legacy load");
        assert_eq!(back, cp);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stats_fields_missing_from_old_files_default_to_zero() {
        let cp = sample();
        let text = cp
            .to_json()
            .replace(",\"learnts_carried\":0", "")
            .replace(",\"certified_models\":0", "");
        assert!(!text.contains("learnts_carried"), "field really removed");
        let back = AttackCheckpoint::from_json(&text).expect("old-format parse");
        assert_eq!(back.solver.learnts_carried, 0);
        assert_eq!(back.solver.certified_models, 0);
    }

    #[test]
    fn pairs_without_vote_fields_default_to_one_trusted_vote() {
        // Checkpoints written before the resilient oracle layer carry
        // only "x"/"y" per pair.
        let text = sample()
            .to_json()
            .replace(",\"v\":3,\"q\":false", "")
            .replace(",\"v\":2,\"q\":true", "");
        assert!(!text.contains("\"v\":"), "fields really removed");
        let back = AttackCheckpoint::from_json(&text).expect("legacy pairs parse");
        for pair in &back.io_pairs {
            assert_eq!(pair.votes, 1);
            assert!(!pair.quarantined);
        }
    }

    /// A late field present with the wrong type is an error, not its
    /// default: a poisoned pair must not resume unquarantined.
    #[test]
    fn mistyped_vote_fields_are_rejected() {
        let text = sample().to_json();
        for (from, to) in [("\"q\":true", "\"q\":1"), ("\"v\":3", "\"v\":\"3\"")] {
            let mistyped = text.replace(from, to);
            assert_ne!(mistyped, text, "{from} must occur");
            let err = AttackCheckpoint::from_json(&mistyped).expect_err(to);
            assert!(err.to_string().contains("io_pairs["), "{err}");
        }
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let text = sample()
            .to_json()
            .replace("\"version\":1", "\"version\":99");
        let err = AttackCheckpoint::from_json(&text).expect_err("must reject");
        assert!(matches!(err, AttackError::CheckpointFormat { .. }), "{err}");
        assert!(err.to_string().contains("version 99"), "{err}");
    }

    #[test]
    fn malformed_text_is_rejected_with_context() {
        for bad in ["", "{}", "not json", "{\"version\":1}"] {
            let err = AttackCheckpoint::from_json(bad).expect_err(bad);
            assert!(matches!(err, AttackError::CheckpointFormat { .. }), "{bad}");
        }
    }

    #[test]
    fn validate_for_checks_attack_and_interface() {
        let cp = sample();
        assert!(cp.validate_for("sat", 4, 3).is_ok());
        assert!(cp.validate_for("appsat", 4, 3).is_err());
        assert!(cp.validate_for("sat", 5, 3).is_err());
        assert!(cp.validate_for("sat", 4, 2).is_err());
    }

    #[test]
    fn load_of_missing_file_is_an_io_error() {
        let err =
            AttackCheckpoint::load(Path::new("/nonexistent/fulllock.ckpt")).expect_err("must fail");
        assert!(matches!(err, AttackError::CheckpointIo { .. }), "{err}");
    }
}
