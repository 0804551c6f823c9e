//! Aggregation of sweep samples: exact percentiles, metric summaries,
//! and the compact columnar result store.
//!
//! [`aggregate`] walks a [`ResultFold`], which holds every sample, so
//! each metric's p50/p90/p99 is exact: the samples are sorted and the
//! nearest rank `ceil(q·n)` taken. The coordinator writes two
//! artifacts:
//!
//! * `atlas.json` — the sealed [`SweepAggregates`] report;
//! * `columns.json` — a sealed columnar store (parallel arrays keyed by
//!   unit id) that downstream analysis loads without re-reading every
//!   result file.

use std::io;
use std::path::Path;

use crate::json::Json;
use crate::sweep::results::{ResultFold, SampleRecord};

/// A finished metric summary, as reported in `atlas.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSummary {
    /// Observations folded.
    pub count: u64,
    /// Smallest observation (0 when empty).
    pub min: f64,
    /// Largest observation (0 when empty).
    pub max: f64,
    /// Arithmetic mean (0 when empty).
    pub mean: f64,
    /// Median (nearest rank; 0 when empty).
    pub p50: f64,
    /// 90th percentile (nearest rank; 0 when empty).
    pub p90: f64,
    /// 99th percentile (nearest rank; 0 when empty).
    pub p99: f64,
}

impl MetricSummary {
    /// Summarizes `values`, ignoring non-finite ones. Percentiles are
    /// exact: the nearest rank `ceil(q·n)` of the sorted values.
    pub fn of(values: impl IntoIterator<Item = f64>) -> MetricSummary {
        let mut sorted: Vec<f64> = values.into_iter().filter(|x| x.is_finite()).collect();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let rank = |q: f64| {
            let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
            sorted.get(rank - 1).copied().unwrap_or(0.0)
        };
        MetricSummary {
            count: n as u64,
            min: sorted.first().copied().unwrap_or(0.0),
            max: sorted.last().copied().unwrap_or(0.0),
            mean: if n == 0 {
                0.0
            } else {
                sorted.iter().sum::<f64>() / n as f64
            },
            p50: rank(0.50),
            p90: rank(0.90),
            p99: rank(0.99),
        }
    }

    fn to_json(&self) -> Json {
        Json::Object(vec![
            ("count".to_string(), Json::Int(self.count)),
            ("min".to_string(), Json::Float(self.min)),
            ("max".to_string(), Json::Float(self.max)),
            ("mean".to_string(), Json::Float(self.mean)),
            ("p50".to_string(), Json::Float(self.p50)),
            ("p90".to_string(), Json::Float(self.p90)),
            ("p99".to_string(), Json::Float(self.p99)),
        ])
    }
}

/// The aggregate report of a sweep: per-metric summaries, verdict
/// counts, and the robustness counters that prove (or disprove) the
/// exactly-once invariant.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepAggregates {
    /// Units the grid expands to.
    pub units: u64,
    /// Units with a valid result (== `units` on a complete sweep).
    pub samples: u64,
    /// Folded samples executed under a stolen lease.
    pub stolen: u64,
    /// Folded samples from speculative re-execution.
    pub speculative: u64,
    /// Solver conflicts per unit.
    pub conflicts: MetricSummary,
    /// Clause/variable ratio per unit.
    pub clause_var_ratio: MetricSummary,
    /// Wall seconds per unit.
    pub wall_secs: MetricSummary,
    /// Verdict → count, sorted by verdict.
    pub verdicts: Vec<(String, u64)>,
}

/// Folds the per-unit samples into the aggregate report.
pub fn aggregate(fold: &ResultFold, units: usize) -> SweepAggregates {
    let samples = || fold.samples.values();
    let mut verdicts: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
    for sample in samples() {
        *verdicts.entry(sample.verdict.clone()).or_insert(0) += 1;
    }
    SweepAggregates {
        units: units as u64,
        samples: fold.samples.len() as u64,
        stolen: samples().filter(|s| s.stolen).count() as u64,
        speculative: samples().filter(|s| s.speculative).count() as u64,
        conflicts: MetricSummary::of(samples().map(|s| s.conflicts as f64)),
        clause_var_ratio: MetricSummary::of(samples().map(|s| s.clause_var_ratio)),
        wall_secs: MetricSummary::of(samples().map(|s| s.wall_secs)),
        verdicts: verdicts.into_iter().collect(),
    }
}

impl SweepAggregates {
    /// Serializes the report (the payload of the sealed `atlas.json`).
    pub fn to_json(&self) -> String {
        Json::Object(vec![
            ("units".to_string(), Json::Int(self.units)),
            ("samples".to_string(), Json::Int(self.samples)),
            ("stolen".to_string(), Json::Int(self.stolen)),
            ("speculative".to_string(), Json::Int(self.speculative)),
            ("conflicts".to_string(), self.conflicts.to_json()),
            (
                "clause_var_ratio".to_string(),
                self.clause_var_ratio.to_json(),
            ),
            ("wall_secs".to_string(), self.wall_secs.to_json()),
            (
                "verdicts".to_string(),
                Json::Object(
                    self.verdicts
                        .iter()
                        .map(|(v, n)| (v.clone(), Json::Int(*n)))
                        .collect(),
                ),
            ),
        ])
        .to_text()
    }

    /// Writes the sealed report file.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        crate::persist::save_sealed(path, &self.to_json())
    }
}

/// Writes the compact columnar result store: one sealed JSON object of
/// parallel arrays (`unit[i]`, `verdict[i]`, `conflicts[i]`, ...) in
/// unit-id order. Downstream analysis gets every per-unit number without
/// re-reading the result files.
pub fn write_columns<'a, I>(path: &Path, samples: I) -> io::Result<()>
where
    I: IntoIterator<Item = &'a SampleRecord>,
{
    let mut unit = Vec::new();
    let mut worker = Vec::new();
    let mut verdict = Vec::new();
    let mut conflicts = Vec::new();
    let mut vars = Vec::new();
    let mut clauses = Vec::new();
    let mut ratio = Vec::new();
    let mut wall = Vec::new();
    for s in samples {
        unit.push(Json::Str(s.unit.clone()));
        worker.push(Json::Str(s.worker.clone()));
        verdict.push(Json::Str(s.verdict.clone()));
        conflicts.push(Json::Int(s.conflicts));
        vars.push(Json::Int(s.vars));
        clauses.push(Json::Int(s.clauses));
        ratio.push(Json::Float(s.clause_var_ratio));
        wall.push(Json::Float(s.wall_secs));
    }
    let payload = Json::Object(vec![
        ("version".to_string(), Json::Int(1)),
        ("rows".to_string(), Json::Int(unit.len() as u64)),
        (
            "columns".to_string(),
            Json::Object(vec![
                ("unit".to_string(), Json::Array(unit)),
                ("worker".to_string(), Json::Array(worker)),
                ("verdict".to_string(), Json::Array(verdict)),
                ("conflicts".to_string(), Json::Array(conflicts)),
                ("vars".to_string(), Json::Array(vars)),
                ("clauses".to_string(), Json::Array(clauses)),
                ("clause_var_ratio".to_string(), Json::Array(ratio)),
                ("wall_secs".to_string(), Json::Array(wall)),
            ]),
        ),
    ])
    .to_text();
    crate::persist::save_sealed(path, &payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_exact_nearest_ranks() {
        // 1..=200 shuffled: nearest rank ceil(q·n) of the sorted values.
        let values = (1..=200).map(|i| f64::from((i * 7919) % 200 + 1));
        let s = MetricSummary::of(values.chain([f64::NAN, f64::INFINITY]));
        assert_eq!(s.count, 200);
        assert_eq!((s.min, s.max), (1.0, 200.0));
        assert!((s.mean - 100.5).abs() < 1e-9);
        assert_eq!((s.p50, s.p90, s.p99), (100.0, 180.0, 198.0));
        // Few samples: the 99th percentile is the largest.
        let few = MetricSummary::of([5.0, 1.0, 3.0]);
        assert_eq!((few.p50, few.p90, few.p99), (3.0, 5.0, 5.0));
        // Empty summaries degrade to zeros, not NaN.
        let empty = MetricSummary::of([]);
        assert_eq!((empty.count, empty.mean, empty.p99), (0, 0.0, 0.0));
    }

    #[test]
    fn aggregate_report_round_trips_as_json() {
        let mut fold = ResultFold::default();
        for i in 0..10 {
            fold.samples.insert(
                format!("unit-{i:05}"),
                SampleRecord {
                    unit: format!("unit-{i:05}"),
                    worker: "w0".to_string(),
                    stolen: i == 3,
                    speculative: false,
                    verdict: if i % 2 == 0 { "sat" } else { "unsat" }.to_string(),
                    conflicts: 100 + i,
                    vars: 50,
                    clauses: 215,
                    clause_var_ratio: 4.3,
                    wall_secs: 0.1,
                },
            );
        }
        let agg = aggregate(&fold, 10);
        assert_eq!(agg.samples, 10);
        assert_eq!(agg.stolen, 1);
        assert_eq!(agg.verdicts.len(), 2);
        assert_eq!(agg.conflicts.p50, 104.0);
        let text = agg.to_json();
        let parsed = Json::parse(&text).expect("valid json");
        assert_eq!(parsed.get("samples").and_then(Json::as_u64), Some(10));
        assert_eq!(
            parsed
                .get("verdicts")
                .and_then(|v| v.get("sat"))
                .and_then(Json::as_u64),
            Some(5)
        );
        assert!(parsed.get("duplicates").is_none());
    }
}
