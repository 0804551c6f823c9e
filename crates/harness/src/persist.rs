//! Corruption-resilient file persistence: checksummed envelopes,
//! generation rotation, and quarantine.
//!
//! The atomic tmp+sync+rename writers elsewhere in the workspace already
//! guarantee that a *crash* leaves a complete old or new file — but they
//! cannot defend against a torn write that the filesystem reports as
//! successful (power loss after a lying fsync, bit rot, an interrupted
//! copy of the output directory). This module layers three defences on
//! top:
//!
//! 1. every payload is wrapped in a [`seal`]ed envelope with an FNV-1a
//!    content checksum;
//! 2. [`save_sealed`] rotates generations — the previous good file
//!    survives one more save as `<path>.1`;
//! 3. [`load_sealed`] verifies the checksum, quarantines a corrupt
//!    primary as `<path>.corrupt` (evidence, not deleted), and falls back
//!    to the newest checksum-valid generation instead of aborting.
//!
//! Unsealed files written by older builds load fine (no checksum to
//! verify), so rolling this out does not invalidate existing campaign
//! directories or checkpoints.
//!
//! # One loader
//!
//! Every sealed document — campaign manifest, attack checkpoint, queue
//! shard, sweep plan — loads through [`load_document`], which names the
//! document's kind. It reads the newest generation that verifies, warns
//! on stderr when that is the previous one, and decodes it with the
//! document's own decoder. A document no generation of which can be
//! read is an [`HarnessError::Io`]; one torn in every generation, or
//! whose surviving generation does not decode, is a
//! [`HarnessError::ManifestFormat`] naming the kind.
//!
//! # Disk-fault injection
//!
//! With the `failpoints` feature, [`save_sealed`] consults two fault
//! sites so chaos tests can exercise the write path the way a hostile
//! filesystem would:
//!
//! * [`persist.write`](fulllock_sat::faults::site::PERSIST_WRITE) —
//!   `enospc`/`eio` fail the save before any byte lands; `torn` writes a
//!   truncated envelope but reports success (the checksum catches it at
//!   the next load and the previous generation takes over).
//! * [`persist.sync`](fulllock_sat::faults::site::PERSIST_SYNC) —
//!   `enospc`/`eio` fail the durability fsync; `torn` *skips* it while
//!   reporting success (a lying fsync).
//!
//! Both sites also honor `delay:<ms>` and `panic`; the remaining actions
//! have no IO meaning and are ignored. Without the feature the
//! evaluation compiles to a constant `None` — zero cost.

use std::io;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use fulllock_sat::faults::{self, FaultAction};

use crate::json::{seal, unseal};
use crate::HarnessError;

/// The previous-generation suffix (`file` → `file.1`).
const PREVIOUS_SUFFIX: &str = ".1";
/// Where a checksum-failing primary is moved before falling back.
const QUARANTINE_SUFFIX: &str = ".corrupt";

/// Appends `suffix` to a full file name (`campaign.json` →
/// `campaign.json.1`, not `campaign.1`).
pub(crate) fn with_suffix(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(suffix);
    PathBuf::from(name)
}

/// Consults an IO fault site: `enospc`/`eio` become errors, `delay`
/// sleeps, `panic` panics, `torn` is returned for the caller to apply,
/// anything else is ignored (no IO meaning). The sweep lease and
/// result-file writers share this mapping for their own sites.
pub(crate) fn consult_io_site(site: &'static str, index: usize) -> io::Result<bool> {
    match faults::evaluate(site, index) {
        Some(FaultAction::Enospc) => Err(io::Error::other(format!(
            "injected ENOSPC: no space left on device ({site} failpoint)"
        ))),
        Some(FaultAction::Eio) => Err(io::Error::other(format!(
            "injected EIO: input/output error ({site} failpoint)"
        ))),
        Some(FaultAction::Torn) => Ok(true),
        Some(FaultAction::Panic) => panic!("{site} failpoint: injected panic"),
        Some(delay @ FaultAction::DelayMs(_)) => {
            faults::apply_delay(delay);
            Ok(false)
        }
        _ => Ok(false),
    }
}

/// Writes `payload` sealed into `path`, atomically, keeping the previous
/// generation: serialize to `<path>.tmp`, sync, rotate any existing
/// `path` to `<path>.1`, then rename the temp file into place. After a
/// torn or corrupt write of `path`, `<path>.1` still holds the previous
/// complete, checksum-valid state.
///
/// Under the `failpoints` feature this is also where the
/// `persist.write` and `persist.sync` disk-fault sites fire (see the
/// module docs); an injected `enospc`/`eio` comes back as
/// [`io::ErrorKind::Other`] with the site named in the message.
pub fn save_sealed(path: &Path, payload: &str) -> io::Result<()> {
    let torn_write = consult_io_site(faults::site::PERSIST_WRITE, 0)?;
    save_sealed_raw(path, payload, torn_write)
}

/// The sealed-write machinery with the tear decision already made —
/// `queue.seal=torn` reaches this directly so a shard file can land
/// truncated while the queue reports success.
pub(crate) fn save_sealed_raw(path: &Path, payload: &str, torn: bool) -> io::Result<()> {
    let tmp = with_suffix(path, ".tmp");
    let mut file = std::fs::File::create(&tmp)?;
    let sealed = format!("{}\n", seal(payload));
    let bytes = if torn {
        // Stop mid-envelope: the length the checksum can never excuse.
        &sealed.as_bytes()[..sealed.len() / 2]
    } else {
        sealed.as_bytes()
    };
    file.write_all(bytes)?;
    if !consult_io_site(faults::site::PERSIST_SYNC, 0)? {
        file.sync_all()?;
    }
    drop(file);
    if path.exists() {
        std::fs::rename(path, with_suffix(path, PREVIOUS_SUFFIX))?;
    }
    std::fs::rename(&tmp, path)
}

/// A successfully loaded payload, with provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Loaded {
    /// The verified (or legacy unsealed) payload text.
    pub payload: String,
    /// `true` when the payload came from the previous generation
    /// (`<path>.1`) because the primary was missing or corrupt.
    pub from_previous: bool,
    /// Where the corrupt primary was quarantined, if it was.
    pub quarantined: Option<PathBuf>,
}

/// Reads the newest checksum-valid generation of `path`.
///
/// The primary is tried first. If it is unreadable or fails its checksum
/// it is quarantined as `<path>.corrupt` (best-effort) and `<path>.1` is
/// tried instead. Only if *no* generation verifies does the primary's
/// error come back — [`io::ErrorKind::InvalidData`] for a checksum or
/// framing failure, the original kind for filesystem errors.
///
/// Files written before sealing existed carry no envelope; they are
/// returned as-is (their parse-level validation still applies upstream).
pub fn load_sealed(path: &Path) -> io::Result<Loaded> {
    let primary = read_generation(path);
    let primary_err = match primary {
        Ok(payload) => {
            return Ok(Loaded {
                payload,
                from_previous: false,
                quarantined: None,
            })
        }
        Err(e) => e,
    };
    // Quarantine a *corrupt* primary (keep the evidence out of the way of
    // the next save); a merely missing one has nothing to quarantine.
    let quarantined = if primary_err.kind() == io::ErrorKind::InvalidData {
        let target = with_suffix(path, QUARANTINE_SUFFIX);
        std::fs::rename(path, &target).ok().map(|()| target)
    } else {
        None
    };
    match read_generation(&with_suffix(path, PREVIOUS_SUFFIX)) {
        Ok(payload) => Ok(Loaded {
            payload,
            from_previous: true,
            quarantined,
        }),
        Err(_) => Err(primary_err),
    }
}

/// Loads the sealed `kind` document at `path` (see [`load_sealed`]) and
/// decodes its payload with `decode`. Falling back to the previous
/// generation prints a warning naming the document and where its
/// corrupt primary was quarantined.
///
/// # Errors
///
/// [`HarnessError::Io`] when no generation can be read from disk;
/// [`HarnessError::ManifestFormat`] naming `kind` when no generation
/// verifies or the one that does fails `decode`.
pub fn load_document<T>(
    path: &Path,
    kind: &'static str,
    decode: impl FnOnce(&str) -> Result<T, String>,
) -> crate::Result<T> {
    let format = |message: String| HarnessError::ManifestFormat {
        kind,
        path: path.to_path_buf(),
        message,
    };
    let loaded = load_sealed(path).map_err(|e| match e.kind() {
        io::ErrorKind::InvalidData => format(e.to_string()),
        _ => HarnessError::Io {
            path: path.to_path_buf(),
            message: format!("read {kind}: {e}"),
        },
    })?;
    if loaded.from_previous {
        eprintln!(
            "warning: {kind} {} did not verify{}; using the previous generation",
            path.display(),
            loaded
                .quarantined
                .map(|q| format!(" (quarantined as {})", q.display()))
                .unwrap_or_default(),
        );
    }
    decode(&loaded.payload).map_err(format)
}

/// Reads one generation and verifies its envelope, mapping a seal
/// failure to [`io::ErrorKind::InvalidData`].
fn read_generation(path: &Path) -> io::Result<String> {
    let text = std::fs::read_to_string(path)?;
    match unseal(&text) {
        Ok(Some(payload)) => Ok(payload.to_string()),
        Ok(None) => Ok(text),
        Err(message) => Err(io::Error::new(io::ErrorKind::InvalidData, message)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("fulllock-persist-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    #[test]
    fn save_load_round_trips_and_rotates() {
        let dir = scratch("rotate");
        let path = dir.join("state.json");
        save_sealed(&path, "{\"gen\":1}").expect("first save");
        save_sealed(&path, "{\"gen\":2}").expect("second save");
        assert!(
            with_suffix(&path, ".1").exists(),
            "previous generation kept"
        );
        let loaded = load_sealed(&path).expect("load");
        assert_eq!(loaded.payload, "{\"gen\":2}");
        assert!(!loaded.from_previous);
        let previous = load_sealed(&with_suffix(&path, ".1")).expect("load previous");
        assert_eq!(previous.payload, "{\"gen\":1}");
    }

    #[test]
    fn corrupt_primary_falls_back_and_is_quarantined() {
        let dir = scratch("fallback");
        let path = dir.join("state.json");
        save_sealed(&path, "{\"gen\":1}").expect("first save");
        save_sealed(&path, "{\"gen\":2}").expect("second save");
        // Tear the primary mid-file.
        let full = std::fs::read_to_string(&path).expect("read");
        std::fs::write(&path, &full[..full.len() / 2]).expect("tear");
        let loaded = load_sealed(&path).expect("fallback load");
        assert_eq!(loaded.payload, "{\"gen\":1}");
        assert!(loaded.from_previous);
        let quarantine = loaded.quarantined.expect("quarantined");
        assert!(quarantine.ends_with("state.json.corrupt"));
        assert!(quarantine.exists());
        assert!(!path.exists(), "corrupt primary moved aside");
    }

    #[test]
    fn both_generations_corrupt_is_a_typed_error() {
        let dir = scratch("doublefault");
        let path = dir.join("state.json");
        save_sealed(&path, "{\"gen\":1}").expect("first save");
        save_sealed(&path, "{\"gen\":2}").expect("second save");
        let tear = |p: &Path| {
            let full = std::fs::read_to_string(p).expect("read");
            std::fs::write(p, &full[..full.len() - 4]).expect("tear");
        };
        tear(&path);
        tear(&with_suffix(&path, ".1"));
        let err = load_sealed(&path).expect_err("must fail");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn missing_file_keeps_its_io_error_kind() {
        let dir = scratch("missing");
        let err = load_sealed(&dir.join("absent.json")).expect_err("must fail");
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }

    #[test]
    fn legacy_unsealed_files_still_load() {
        let dir = scratch("legacy");
        let path = dir.join("state.json");
        std::fs::write(&path, "{\"version\":1}\n").expect("write legacy");
        let loaded = load_sealed(&path).expect("legacy load");
        assert_eq!(loaded.payload, "{\"version\":1}\n");
        assert!(!loaded.from_previous);
    }
}
