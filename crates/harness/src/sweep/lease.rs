//! Lease files: file-based, partition-tolerant work claims.
//!
//! Each work unit has at most one lease file
//! (`<dir>/leases/<unit>.lease`) holding a sealed single-line JSON
//! record: owner, a claim nonce, a steal generation, and wall-clock
//! acquire/expiry stamps. The protocol needs no coordinator:
//!
//! * **Claim** — write the lease to a private temp file, then
//!   [`std::fs::hard_link`] it to the lease path. `hard_link` fails with
//!   `AlreadyExists` when another worker got there first, which makes
//!   the fresh claim genuinely atomic (a plain `rename` would clobber).
//! * **Renew** — the owner periodically rewrites its lease with a fresh
//!   expiry (tmp + rename), then reads it back; seeing a foreign nonce
//!   means the lease was stolen in the gap and ownership is lost.
//! * **Steal** — a live worker may take an *expired or corrupt* lease by
//!   renaming its own record over the file and reading it back; the
//!   read-back nonce decides the race when two workers steal at once.
//!
//! Two stealers (or a stealer racing a renewal) can transiently both
//! believe they own a unit — that is by design. Leases are the
//! *duplicate-suppression* layer; correctness (exactly-once settlement)
//! comes from the first-wins result files and the coordinator's fold
//! (see [`crate::sweep::results`] and [`crate::sweep::coordinator`]).
//! A SIGKILLed worker renews nothing, its leases expire, and live
//! workers steal the units — no coordinator intervention required.
//!
//! Every lease write consults the
//! [`sweep.lease`](fulllock_sat::faults::site::SWEEP_LEASE) failpoint:
//! `enospc`/`eio` fail the write, `torn` lands a truncated lease (other
//! workers read it as corrupt, hence stealable), `delay:<ms>` widens the
//! protocol's race windows under test.

use std::io;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use fulllock_sat::faults;

use crate::json::{seal, unseal, Json};
use crate::persist::consult_io_site;

/// Milliseconds since the Unix epoch — the clock the lease protocol
/// runs on (comparable across worker processes on one machine).
pub fn now_millis() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
        .unwrap_or(0)
}

/// One lease record: who holds a unit, until when.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lease {
    /// The work unit this lease covers.
    pub unit: String,
    /// Owning worker's display name.
    pub worker: String,
    /// Random-enough claim identity; the read-back after a steal or
    /// renewal compares nonces to decide races.
    pub nonce: u64,
    /// How many times the unit's lease has been stolen (0 = fresh
    /// claim); diagnostics only.
    pub generation: u64,
    /// When this claim was taken (epoch millis).
    pub acquired_millis: u64,
    /// When the claim lapses unless renewed (epoch millis).
    pub expires_millis: u64,
}

impl Lease {
    /// Whether the lease has lapsed at `now` (epoch millis).
    pub fn is_expired(&self, now: u64) -> bool {
        now >= self.expires_millis
    }

    /// Age of the claim at `now`, in milliseconds (0 if the clock went
    /// backwards).
    pub fn age_millis(&self, now: u64) -> u64 {
        now.saturating_sub(self.acquired_millis)
    }

    /// Serializes to compact single-line JSON (the payload that gets
    /// sealed into the lease file).
    pub fn to_json(&self) -> String {
        Json::Object(vec![
            ("unit".to_string(), Json::Str(self.unit.clone())),
            ("worker".to_string(), Json::Str(self.worker.clone())),
            ("nonce".to_string(), Json::Int(self.nonce)),
            ("generation".to_string(), Json::Int(self.generation)),
            (
                "acquired_millis".to_string(),
                Json::Int(self.acquired_millis),
            ),
            ("expires_millis".to_string(), Json::Int(self.expires_millis)),
        ])
        .to_text()
    }

    /// Parses the JSON payload of a lease file.
    pub fn from_json(text: &str) -> Result<Lease, String> {
        let root = Json::parse(text)?;
        Ok(Lease {
            unit: root.str_field("unit")?.to_string(),
            worker: root.str_field("worker")?.to_string(),
            nonce: root.u64_field("nonce")?,
            generation: root.u64_field("generation")?,
            acquired_millis: root.u64_field("acquired_millis")?,
            expires_millis: root.u64_field("expires_millis")?,
        })
    }
}

/// What a lease file says about a unit right now.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LeaseState {
    /// No lease file: the unit is claimable.
    Free,
    /// A live lease (not yet expired at read time).
    Held(Lease),
    /// A lease whose expiry has passed: stealable.
    Expired(Lease),
    /// The file exists but does not verify (torn write, corruption):
    /// treated as stealable — the writer may be dead, and if it is not,
    /// settlement still dedupes.
    Corrupt,
}

/// Reads and classifies a unit's lease file at `now` (epoch millis).
pub fn read_lease(path: &Path, now: u64) -> LeaseState {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(_) => return LeaseState::Free,
    };
    // Lease files are always sealed; a legacy pass-through (`Ok(None)`)
    // here means a torn prefix, not an old format.
    let payload = match unseal(&text) {
        Ok(Some(payload)) => payload,
        _ => return LeaseState::Corrupt,
    };
    match Lease::from_json(payload) {
        Ok(lease) if lease.is_expired(now) => LeaseState::Expired(lease),
        Ok(lease) => LeaseState::Held(lease),
        Err(_) => LeaseState::Corrupt,
    }
}

/// Per-process counter mixed into nonces so two claims from one worker
/// never collide even within a millisecond.
static NONCE_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A claim identity that is unique enough across workers on one
/// machine: FNV over pid, wall clock, worker name, and a process-local
/// counter.
fn fresh_nonce(worker: &str) -> u64 {
    let mut h = crate::json::Fnv::new();
    h.bytes(&u64::from(std::process::id()).to_le_bytes());
    h.bytes(&now_millis().to_le_bytes());
    h.bytes(&NONCE_COUNTER.fetch_add(1, Ordering::Relaxed).to_le_bytes());
    h.str(worker);
    h.finish()
}

/// The lease directory of one sweep, bound to one worker identity.
#[derive(Debug, Clone)]
pub struct LeaseDir {
    dir: PathBuf,
    worker: String,
    worker_index: usize,
}

impl LeaseDir {
    /// Binds `<sweep_dir>/leases` to a worker identity (the index is the
    /// failpoint context for `sweep.lease`).
    pub fn new(sweep_dir: &Path, worker: impl Into<String>, worker_index: usize) -> LeaseDir {
        LeaseDir {
            dir: sweep_dir.join("leases"),
            worker: worker.into(),
            worker_index,
        }
    }

    /// Creates the directory (idempotent).
    pub fn ensure(&self) -> io::Result<()> {
        std::fs::create_dir_all(&self.dir)
    }

    /// Path of a unit's lease file.
    pub fn lease_path(&self, unit: &str) -> PathBuf {
        self.dir.join(format!("{unit}.lease"))
    }

    /// Writes a sealed lease to a private temp file, honoring the
    /// `sweep.lease` failpoint, and returns the temp path.
    fn write_tmp(&self, lease: &Lease) -> io::Result<PathBuf> {
        let torn = consult_io_site(faults::site::SWEEP_LEASE, self.worker_index)?;
        let tmp = self.dir.join(format!(
            ".{}.{}.{:016x}.tmp",
            lease.unit, self.worker, lease.nonce
        ));
        let sealed = format!("{}\n", seal(&lease.to_json()));
        let bytes = if torn {
            &sealed.as_bytes()[..sealed.len() / 2]
        } else {
            sealed.as_bytes()
        };
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_data()?;
        Ok(tmp)
    }

    /// Attempts a *fresh* claim of `unit` for `ttl`. Returns the new
    /// lease on success, `None` when another worker already holds a
    /// lease file (live or not — fresh claims never clobber; stealing
    /// expired files is [`try_steal`](LeaseDir::try_steal)'s job).
    pub fn try_claim(&self, unit: &str, ttl: Duration) -> io::Result<Option<Lease>> {
        let now = now_millis();
        let lease = Lease {
            unit: unit.to_string(),
            worker: self.worker.clone(),
            nonce: fresh_nonce(&self.worker),
            generation: 0,
            acquired_millis: now,
            expires_millis: now + ttl.as_millis() as u64,
        };
        let tmp = self.write_tmp(&lease)?;
        let outcome = std::fs::hard_link(&tmp, self.lease_path(unit));
        let _ = std::fs::remove_file(&tmp);
        match outcome {
            Ok(()) => Ok(Some(lease)),
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Attempts to steal a lease previously read as
    /// [`Expired`](LeaseState::Expired) or [`Corrupt`](LeaseState::Corrupt):
    /// renames its own record over the file, then reads back — the nonce
    /// that survives wins the steal race. `prior_generation` is the
    /// generation of the expired lease (0 for a corrupt one).
    pub fn try_steal(
        &self,
        unit: &str,
        prior_generation: u64,
        ttl: Duration,
    ) -> io::Result<Option<Lease>> {
        let now = now_millis();
        let lease = Lease {
            unit: unit.to_string(),
            worker: self.worker.clone(),
            nonce: fresh_nonce(&self.worker),
            generation: prior_generation + 1,
            acquired_millis: now,
            expires_millis: now + ttl.as_millis() as u64,
        };
        let tmp = self.write_tmp(&lease)?;
        let path = self.lease_path(unit);
        std::fs::rename(&tmp, &path)?;
        // Read-back decides the race: a concurrent stealer's rename may
        // have landed after ours.
        match read_lease(&path, now) {
            LeaseState::Held(back) | LeaseState::Expired(back) if back.nonce == lease.nonce => {
                Ok(Some(lease))
            }
            _ => Ok(None),
        }
    }

    /// Renews an owned lease for another `ttl` from now. Returns `false`
    /// when ownership was lost (the lease was stolen or the file
    /// replaced): the caller keeps executing — settlement still dedupes
    /// — but should know a competitor exists.
    pub fn renew(&self, lease: &mut Lease, ttl: Duration) -> io::Result<bool> {
        let path = self.lease_path(&lease.unit);
        let now = now_millis();
        match read_lease(&path, now) {
            LeaseState::Held(cur) | LeaseState::Expired(cur) if cur.nonce == lease.nonce => {}
            _ => return Ok(false),
        }
        lease.expires_millis = now + ttl.as_millis() as u64;
        let tmp = self.write_tmp(lease)?;
        std::fs::rename(&tmp, &path)?;
        match read_lease(&path, now) {
            LeaseState::Held(back) | LeaseState::Expired(back) if back.nonce == lease.nonce => {
                Ok(true)
            }
            _ => Ok(false),
        }
    }

    /// Releases an owned lease (best-effort: only removes the file if it
    /// still carries our nonce).
    pub fn release(&self, lease: &Lease) {
        let path = self.lease_path(&lease.unit);
        match read_lease(&path, now_millis()) {
            LeaseState::Held(cur) | LeaseState::Expired(cur) if cur.nonce == lease.nonce => {
                let _ = std::fs::remove_file(&path);
            }
            _ => {}
        }
    }

    /// Removes every lease file (coordinator resume: no workers are
    /// running, so all claims are stale). Returns how many were
    /// cleared.
    pub fn clear_all(&self) -> io::Result<usize> {
        let entries = match std::fs::read_dir(&self.dir) {
            Ok(entries) => entries,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(0),
            Err(e) => return Err(e),
        };
        let mut cleared = 0;
        for entry in entries.flatten() {
            if std::fs::remove_file(entry.path()).is_ok() {
                cleared += 1;
            }
        }
        Ok(cleared)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fulllock-lease-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    #[test]
    fn lease_json_round_trips() {
        let lease = Lease {
            unit: "unit-00003".to_string(),
            worker: "w1".to_string(),
            nonce: 0xdead_beef,
            generation: 2,
            acquired_millis: 1000,
            expires_millis: 3000,
        };
        let back = Lease::from_json(&lease.to_json()).expect("round trip");
        assert_eq!(back, lease);
        assert!(lease.is_expired(3000));
        assert!(!lease.is_expired(2999));
        assert_eq!(lease.age_millis(1500), 500);
    }

    #[test]
    fn fresh_claims_are_mutually_exclusive() {
        let dir = scratch("claim");
        let a = LeaseDir::new(&dir, "a", 0);
        let b = LeaseDir::new(&dir, "b", 1);
        a.ensure().expect("mkdir");
        let ttl = Duration::from_secs(60);
        let lease = a
            .try_claim("unit-00000", ttl)
            .expect("io")
            .expect("claimed");
        assert!(
            b.try_claim("unit-00000", ttl).expect("io").is_none(),
            "second claim must lose"
        );
        // Reads classify it as held.
        let state = read_lease(&a.lease_path("unit-00000"), now_millis());
        assert_eq!(state, LeaseState::Held(lease.clone()));
        // Release frees it for the next claim.
        a.release(&lease);
        assert!(b.try_claim("unit-00000", ttl).expect("io").is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn expired_leases_are_stolen_with_generation_bump() {
        let dir = scratch("steal");
        let a = LeaseDir::new(&dir, "a", 0);
        let b = LeaseDir::new(&dir, "b", 1);
        a.ensure().expect("mkdir");
        // A zero-ttl claim expires immediately.
        let stale = a
            .try_claim("unit-00001", Duration::ZERO)
            .expect("io")
            .expect("claimed");
        let path = a.lease_path("unit-00001");
        std::thread::sleep(Duration::from_millis(2));
        let state = read_lease(&path, now_millis());
        assert_eq!(state, LeaseState::Expired(stale.clone()));
        let stolen = b
            .try_steal("unit-00001", stale.generation, Duration::from_secs(60))
            .expect("io")
            .expect("steal wins");
        assert_eq!(stolen.generation, 1);
        assert_eq!(stolen.worker, "b");
        // The original owner's renewal must now fail.
        let mut lost = stale;
        assert!(!a.renew(&mut lost, Duration::from_secs(60)).expect("io"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_lease_is_stealable() {
        let dir = scratch("corrupt");
        let a = LeaseDir::new(&dir, "a", 0);
        a.ensure().expect("mkdir");
        let path = a.lease_path("unit-00002");
        std::fs::write(&path, "{\"checksum\":12,\"pay").expect("write torn");
        assert_eq!(read_lease(&path, now_millis()), LeaseState::Corrupt);
        let stolen = a
            .try_steal("unit-00002", 0, Duration::from_secs(60))
            .expect("io")
            .expect("steal");
        assert_eq!(stolen.generation, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn renewal_extends_expiry_in_place() {
        let dir = scratch("renew");
        let a = LeaseDir::new(&dir, "a", 0);
        a.ensure().expect("mkdir");
        let mut lease = a
            .try_claim("unit-00004", Duration::from_millis(50))
            .expect("io")
            .expect("claimed");
        let before = lease.expires_millis;
        assert!(a.renew(&mut lease, Duration::from_secs(60)).expect("io"));
        assert!(lease.expires_millis > before);
        let state = read_lease(&a.lease_path("unit-00004"), now_millis());
        assert_eq!(state, LeaseState::Held(lease));
        std::fs::remove_dir_all(&dir).ok();
    }
}
