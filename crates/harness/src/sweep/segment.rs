//! Result segments: checksummed, append-only per-worker sample streams.
//!
//! Each worker owns one segment file (`<dir>/segments/<worker>.seg`) and
//! appends one line per executed unit: a [`seal`]ed single-line JSON
//! [`SampleRecord`]. Append-only + per-line envelopes give exactly the
//! crash semantics a sweep needs:
//!
//! * a SIGKILL mid-append leaves a torn *tail* — the fold truncates to
//!   the last valid record instead of poisoning the file;
//! * a torn write that the filesystem reported as successful (the
//!   [`sweep.segment`](fulllock_sat::faults::site::SWEEP_SEGMENT)
//!   failpoint's `torn` action simulates it) mangles one line — the
//!   envelope checksum rejects that line and every other record
//!   survives;
//! * records for the same unit from two workers (steal and speculation
//!   races) are folded first-wins, so duplicates are *suppressed*, never
//!   double-counted.
//!
//! The fold ([`fold_segments`]) is the single source of truth for which
//! units actually have results; settle markers without a folded record
//! do not count (see [`crate::sweep::coordinator`]).

use std::collections::BTreeMap;
use std::io;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use fulllock_sat::faults;

use crate::json::{seal, unseal, Json};
use crate::persist::consult_io_site;

/// One executed work unit's measurements — the per-instance data the
/// hardness atlas aggregates.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleRecord {
    /// Work unit id (`unit-00042`).
    pub unit: String,
    /// Worker that produced the sample.
    pub worker: String,
    /// Whether the unit was executed under a stolen lease.
    pub stolen: bool,
    /// Whether this was a speculative re-execution (no lease held).
    pub speculative: bool,
    /// Executor verdict (`sat`, `unsat`, `unknown`, `recovered`,
    /// `timeout`, `error`, ...).
    pub verdict: String,
    /// Solver conflicts spent on the unit.
    pub conflicts: u64,
    /// Variables of the generated instance.
    pub vars: u64,
    /// Clauses of the generated instance.
    pub clauses: u64,
    /// Clause/variable ratio of the generated instance.
    pub clause_var_ratio: f64,
    /// Wall-clock seconds the unit took on this worker.
    pub wall_secs: f64,
}

impl SampleRecord {
    /// Serializes to compact single-line JSON (the payload of one sealed
    /// segment line).
    pub fn to_json(&self) -> String {
        Json::Object(vec![
            ("unit".to_string(), Json::Str(self.unit.clone())),
            ("worker".to_string(), Json::Str(self.worker.clone())),
            ("stolen".to_string(), Json::Bool(self.stolen)),
            ("speculative".to_string(), Json::Bool(self.speculative)),
            ("verdict".to_string(), Json::Str(self.verdict.clone())),
            ("conflicts".to_string(), Json::Int(self.conflicts)),
            ("vars".to_string(), Json::Int(self.vars)),
            ("clauses".to_string(), Json::Int(self.clauses)),
            (
                "clause_var_ratio".to_string(),
                Json::Float(self.clause_var_ratio),
            ),
            ("wall_secs".to_string(), Json::Float(self.wall_secs)),
        ])
        .to_text()
    }

    /// Parses one segment line's JSON payload.
    pub fn from_json(text: &str) -> Result<SampleRecord, String> {
        let root = Json::parse(text)?;
        Ok(SampleRecord {
            unit: root.str_field("unit")?.to_string(),
            worker: root.str_field("worker")?.to_string(),
            stolen: root.bool_field("stolen")?,
            speculative: root.bool_field("speculative")?,
            verdict: root.str_field("verdict")?.to_string(),
            conflicts: root.u64_field("conflicts")?,
            vars: root.u64_field("vars")?,
            clauses: root.u64_field("clauses")?,
            clause_var_ratio: root.f64_field("clause_var_ratio")?,
            wall_secs: root.f64_field("wall_secs")?,
        })
    }
}

/// Where a sweep directory keeps its segment files.
pub fn segments_dir(sweep_dir: &Path) -> PathBuf {
    sweep_dir.join("segments")
}

/// An open, append-only segment file owned by one worker.
#[derive(Debug)]
pub struct SegmentWriter {
    file: std::fs::File,
    path: PathBuf,
    worker_index: usize,
}

impl SegmentWriter {
    /// Creates (or reopens for append) this worker's segment file. The
    /// name carries the worker so respawned workers with fresh names
    /// never collide. Reopening a file that ends in a torn half-line
    /// (the writer was SIGKILLed mid-append) first terminates that line
    /// so the next record starts fresh instead of being swallowed into
    /// the invalid tail.
    pub fn open(sweep_dir: &Path, worker: &str, worker_index: usize) -> io::Result<SegmentWriter> {
        let dir = segments_dir(sweep_dir);
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{worker}.seg"));
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?;
        let existing = std::fs::read(&path)?;
        if existing.last().is_some_and(|&b| b != b'\n') {
            file.write_all(b"\n")?;
            file.sync_data()?;
        }
        Ok(SegmentWriter {
            file,
            path,
            worker_index,
        })
    }

    /// The segment file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one sealed record line and fsyncs it durable. Under the
    /// `sweep.segment` failpoint, `enospc`/`eio` fail the append before
    /// any byte lands and `torn` writes half the line while reporting
    /// success — the fold's checksum catches it and the unit re-runs.
    pub fn append(&mut self, record: &SampleRecord) -> io::Result<()> {
        let torn = consult_io_site(faults::site::SWEEP_SEGMENT, self.worker_index)?;
        let line = format!("{}\n", seal(&record.to_json()));
        let bytes = if torn {
            &line.as_bytes()[..line.len() / 2]
        } else {
            line.as_bytes()
        };
        self.file.write_all(bytes)?;
        self.file.sync_data()
    }
}

/// What one segment file held.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentRead {
    /// The checksum-valid records, in append order.
    pub records: Vec<SampleRecord>,
    /// Lines that failed their envelope or parse (torn writes that
    /// later appends buried mid-file).
    pub invalid_lines: usize,
    /// Whether the file ended in a torn tail (truncated to the last
    /// valid record).
    pub torn_tail: bool,
}

/// Reads one segment file, keeping every checksum-valid line and
/// counting the rest. A trailing invalid line is a torn tail (the
/// classic SIGKILL-mid-append shape); an invalid line mid-file is a torn
/// write later appends buried.
pub fn read_segment(path: &Path) -> io::Result<SegmentRead> {
    let text = std::fs::read_to_string(path)?;
    let mut records = Vec::new();
    let mut invalid_lines = 0usize;
    let mut last_invalid = false;
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        // Segment lines are always sealed; `Ok(None)` (no envelope
        // prefix) means a torn prefix here, not a legacy format.
        let parsed = match unseal(line) {
            Ok(Some(payload)) => SampleRecord::from_json(payload).ok(),
            _ => None,
        };
        match parsed {
            Some(record) => {
                records.push(record);
                last_invalid = false;
            }
            None => {
                invalid_lines += 1;
                last_invalid = true;
            }
        }
    }
    // A file that ends without a newline concatenates the torn half-line
    // with nothing — lines() still yields it; `last_invalid` covers both.
    Ok(SegmentRead {
        records,
        invalid_lines,
        torn_tail: last_invalid,
    })
}

/// The folded view of every segment in a sweep directory.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SegmentFold {
    /// First-wins sample per unit id.
    pub samples: BTreeMap<String, SampleRecord>,
    /// Later records for already-sampled units (steal/speculation races)
    /// — suppressed, never double-counted.
    pub duplicates: usize,
    /// Checksum-failing lines across all segments.
    pub invalid_lines: usize,
    /// Segments that ended in a torn tail.
    pub torn_tails: usize,
    /// How many folded samples ran under a stolen lease.
    pub stolen: usize,
    /// How many folded samples were speculative re-executions.
    pub speculative: usize,
}

/// Folds every `*.seg` file under `<sweep_dir>/segments`, first-wins per
/// unit. Files are visited in sorted name order so the fold is
/// deterministic for a given directory state.
pub fn fold_segments(sweep_dir: &Path) -> io::Result<SegmentFold> {
    let dir = segments_dir(sweep_dir);
    let mut fold = SegmentFold::default();
    let entries = match std::fs::read_dir(&dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(fold),
        Err(e) => return Err(e),
    };
    let mut paths: Vec<PathBuf> = entries
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "seg"))
        .collect();
    paths.sort();
    for path in paths {
        let read = read_segment(&path)?;
        fold.invalid_lines += read.invalid_lines;
        fold.torn_tails += usize::from(read.torn_tail);
        for record in read.records {
            if fold.samples.contains_key(&record.unit) {
                fold.duplicates += 1;
                continue;
            }
            fold.stolen += usize::from(record.stolen);
            fold.speculative += usize::from(record.speculative);
            fold.samples.insert(record.unit.clone(), record);
        }
    }
    Ok(fold)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fulllock-seg-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    fn sample(unit: &str, worker: &str) -> SampleRecord {
        SampleRecord {
            unit: unit.to_string(),
            worker: worker.to_string(),
            stolen: false,
            speculative: false,
            verdict: "sat".to_string(),
            conflicts: 123,
            vars: 50,
            clauses: 215,
            clause_var_ratio: 4.3,
            wall_secs: 0.25,
        }
    }

    #[test]
    fn record_json_round_trips() {
        let mut rec = sample("unit-00000", "w0");
        rec.stolen = true;
        rec.speculative = true;
        let back = SampleRecord::from_json(&rec.to_json()).expect("round trip");
        assert_eq!(back, rec);
    }

    #[test]
    fn append_read_round_trips() {
        let dir = scratch("roundtrip");
        let mut w = SegmentWriter::open(&dir, "w0", 0).expect("open");
        for i in 0..5 {
            w.append(&sample(&format!("unit-{i:05}"), "w0"))
                .expect("append");
        }
        let read = read_segment(w.path()).expect("read");
        assert_eq!(read.records.len(), 5);
        assert_eq!(read.invalid_lines, 0);
        assert!(!read.torn_tail);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_truncates_to_last_valid_record() {
        let dir = scratch("torn");
        let mut w = SegmentWriter::open(&dir, "w0", 0).expect("open");
        w.append(&sample("unit-00000", "w0")).expect("append");
        w.append(&sample("unit-00001", "w0")).expect("append");
        // SIGKILL mid-append: half a line, no newline.
        let full = format!("{}\n", seal(&sample("unit-00002", "w0").to_json()));
        let mut raw = std::fs::OpenOptions::new()
            .append(true)
            .open(w.path())
            .expect("reopen");
        raw.write_all(&full.as_bytes()[..full.len() / 2])
            .expect("tear");
        drop(raw);
        let read = read_segment(w.path()).expect("read");
        assert_eq!(read.records.len(), 2, "valid prefix survives");
        assert!(read.torn_tail);
        assert_eq!(read.invalid_lines, 1);
        // Reopening repairs the torn tail (terminates the half-line), so
        // records appended by the successor are never swallowed into it.
        let mut w = SegmentWriter::open(&dir, "w0", 0).expect("reopen writer");
        w.append(&sample("unit-00003", "w0")).expect("append");
        w.append(&sample("unit-00004", "w0")).expect("append");
        let read = read_segment(w.path()).expect("read again");
        assert_eq!(
            read.records.len(),
            4,
            "both new records land on fresh lines"
        );
        assert_eq!(
            read.invalid_lines, 1,
            "the quarantined half-line stays invalid"
        );
        assert!(!read.torn_tail, "the file no longer *ends* torn");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fold_is_first_wins_and_counts_duplicates() {
        let dir = scratch("fold");
        let mut a = SegmentWriter::open(&dir, "a", 0).expect("open a");
        let mut b = SegmentWriter::open(&dir, "b", 1).expect("open b");
        a.append(&sample("unit-00000", "a")).expect("append");
        let mut dup = sample("unit-00000", "b");
        dup.speculative = true;
        b.append(&dup).expect("append dup");
        b.append(&sample("unit-00001", "b")).expect("append");
        let fold = fold_segments(&dir).expect("fold");
        assert_eq!(fold.samples.len(), 2);
        assert_eq!(fold.duplicates, 1);
        // Sorted file order: a.seg before b.seg, so "a" won unit 0.
        assert_eq!(fold.samples["unit-00000"].worker, "a");
        assert_eq!(
            fold.speculative, 0,
            "the losing speculative copy was suppressed"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fold_of_missing_dir_is_empty() {
        let dir = scratch("empty");
        let fold = fold_segments(&dir.join("nope")).expect("fold");
        assert!(fold.samples.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }
}
