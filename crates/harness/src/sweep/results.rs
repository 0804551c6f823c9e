//! Result files: one sealed sample record per settled unit.
//!
//! A worker settles a unit by writing its [`seal`]ed [`SampleRecord`]
//! to a private dotfile in `<dir>/results/`, syncing it, and
//! hard-linking it to `results/<unit>.json` ([`settle`]). `hard_link`
//! fails with `AlreadyExists` when another worker settled first, so the
//! first link wins the steal and speculation races, and the one file is
//! both the record and the settle marker. The record is durable before
//! it is visible.
//!
//! A result file that is not a valid record of its unit is an orphan:
//! a write the filesystem reported as successful but tore (the
//! [`sweep.result`](fulllock_sat::faults::site::SWEEP_RESULT)
//! failpoint's `torn` action links half a record), or bit rot. The
//! envelope checksum rejects it, and the coordinator deletes it so the
//! unit re-runs ([`fold_results`] lists the orphans; see
//! [`crate::sweep::coordinator`]).

use std::collections::BTreeMap;
use std::io;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use fulllock_sat::faults;

use crate::json::{seal, unseal, Json};
use crate::persist::consult_io_site;
use crate::sweep::grid::WorkUnit;

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
    /// Serializes to compact single-line JSON (the sealed payload of one
    /// result file).
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

    /// Parses the JSON payload of one result file.
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

/// Where a sweep directory keeps its result files.
pub fn results_dir(sweep_dir: &Path) -> PathBuf {
    sweep_dir.join("results")
}

fn result_path(sweep_dir: &Path, unit: &str) -> PathBuf {
    results_dir(sweep_dir).join(format!("{unit}.json"))
}

/// Settles `record`'s unit, first-wins: writes the sealed record to a
/// private dotfile, syncs it, and hard-links it to the unit's result
/// file. Returns whether *this* call won. Under the `sweep.result`
/// failpoint, `enospc`/`eio` fail before any byte lands and `torn`
/// links half the record while reporting success.
pub fn settle(sweep_dir: &Path, record: &SampleRecord, worker_index: usize) -> io::Result<bool> {
    let dir = results_dir(sweep_dir);
    std::fs::create_dir_all(&dir)?;
    let torn = consult_io_site(faults::site::SWEEP_RESULT, worker_index)?;
    let text = format!("{}\n", seal(&record.to_json()));
    let bytes = if torn {
        &text.as_bytes()[..text.len() / 2]
    } else {
        text.as_bytes()
    };
    let tmp = dir.join(format!(".{}.{}.tmp", record.unit, record.worker));
    let written = std::fs::File::create(&tmp).and_then(|mut file| {
        file.write_all(bytes)?;
        file.sync_data()
    });
    let linked =
        written.and_then(|()| std::fs::hard_link(&tmp, result_path(sweep_dir, &record.unit)));
    let _ = std::fs::remove_file(&tmp);
    match linked {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == io::ErrorKind::AlreadyExists => Ok(false),
        Err(e) => Err(e),
    }
}

/// Whether a unit has a result file.
pub fn is_settled(sweep_dir: &Path, unit: &str) -> bool {
    result_path(sweep_dir, unit).exists()
}

/// Counts result files (cheap progress probe for the coordinator).
pub fn count_settled(sweep_dir: &Path) -> usize {
    match std::fs::read_dir(results_dir(sweep_dir)) {
        Ok(entries) => entries
            .flatten()
            .filter(|e| e.path().extension().is_some_and(|ext| ext == "json"))
            .count(),
        Err(_) => 0,
    }
}

/// Deletes a unit's result file so the unit re-runs.
pub fn remove_result(sweep_dir: &Path, unit: &str) -> io::Result<()> {
    match std::fs::remove_file(result_path(sweep_dir, unit)) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    }
}

/// The result files of a sweep's units, read one per unit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResultFold {
    /// The sample of every unit whose result file is a valid record of
    /// it, by unit id.
    pub samples: BTreeMap<String, SampleRecord>,
    /// Units whose result file exists but is not a valid record of the
    /// unit (torn, corrupt, or another unit's record).
    pub orphans: Vec<String>,
}

/// Reads the result file of every unit in `units`: a valid record is
/// the unit's sample, anything else an orphan, and a missing file an
/// unsettled unit.
pub fn fold_results(sweep_dir: &Path, units: &[WorkUnit]) -> io::Result<ResultFold> {
    let mut fold = ResultFold::default();
    for unit in units {
        let text = match std::fs::read_to_string(result_path(sweep_dir, &unit.id)) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
            // Invalid UTF-8 is a corrupt record, not an IO failure.
            Err(e) if e.kind() == io::ErrorKind::InvalidData => String::new(),
            Err(e) => return Err(e),
        };
        // Result files are always sealed; `Ok(None)` (no envelope prefix)
        // means a torn prefix here, not a legacy format.
        let record = match unseal(&text) {
            Ok(Some(payload)) => SampleRecord::from_json(payload).ok(),
            _ => None,
        };
        match record {
            Some(record) if record.unit == unit.id => {
                fold.samples.insert(unit.id.clone(), record);
            }
            _ => fold.orphans.push(unit.id.clone()),
        }
    }
    Ok(fold)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::grid::SweepGrid;

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("fulllock-results-{tag}-{}", std::process::id()));
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

    fn units(n: usize) -> Vec<WorkUnit> {
        let seeds: Vec<String> = (0..n).map(|i| i.to_string()).collect();
        SweepGrid::new("t").axis("seed", seeds).units()
    }

    #[test]
    fn record_json_round_trips() {
        let mut rec = sample("unit-00000", "w0");
        rec.stolen = true;
        rec.speculative = true;
        let back = SampleRecord::from_json(&rec.to_json()).expect("round trip");
        assert_eq!(back, rec);
    }

    /// Two workers settle one unit: the first link wins, the loser's
    /// record is not kept, and no dotfile is left behind.
    #[test]
    fn settle_is_first_wins_with_one_file() {
        let dir = scratch("settle");
        assert!(settle(&dir, &sample("unit-00000", "a"), 0).expect("io"));
        let mut late = sample("unit-00000", "b");
        late.speculative = true;
        assert!(!settle(&dir, &late, 1).expect("io"), "loser");
        assert!(is_settled(&dir, "unit-00000"));
        assert!(!is_settled(&dir, "unit-00001"));
        assert_eq!(count_settled(&dir), 1);
        let files: Vec<_> = std::fs::read_dir(results_dir(&dir))
            .expect("list results")
            .flatten()
            .map(|e| e.file_name())
            .collect();
        assert_eq!(files, ["unit-00000.json"]);
        let fold = fold_results(&dir, &units(2)).expect("fold");
        assert_eq!(fold.samples.len(), 1);
        assert_eq!(fold.samples["unit-00000"].worker, "a");
        assert!(fold.orphans.is_empty());
        remove_result(&dir, "unit-00000").expect("remove");
        assert!(!is_settled(&dir, "unit-00000"));
        remove_result(&dir, "unit-00000").expect("idempotent");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_or_foreign_records_are_orphans() {
        let dir = scratch("orphans");
        for unit in ["unit-00000", "unit-00001", "unit-00002"] {
            settle(&dir, &sample(unit, "w0"), 0).expect("settle");
        }
        // A torn record, and a valid record filed under the wrong unit.
        let torn = result_path(&dir, "unit-00001");
        let bytes = std::fs::read(&torn).expect("read");
        std::fs::write(&torn, &bytes[..bytes.len() / 2]).expect("tear");
        std::fs::copy(
            result_path(&dir, "unit-00000"),
            result_path(&dir, "unit-00002"),
        )
        .expect("misfile");
        let fold = fold_results(&dir, &units(4)).expect("fold");
        assert_eq!(fold.samples.keys().collect::<Vec<_>>(), ["unit-00000"]);
        assert_eq!(fold.orphans, ["unit-00001", "unit-00002"]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
