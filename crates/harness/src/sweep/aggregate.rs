//! Streaming aggregation of sweep samples: P² percentiles, metric
//! summaries, and the compact columnar result store.
//!
//! The [`P2Quantile`] estimator (Jain & Chlamtac's P² algorithm, 1985)
//! tracks one quantile in five markers in one pass, accurate to well
//! under a percent on the unimodal distributions (conflicts,
//! clause/var ratio, wall time) the atlas cares about. [`aggregate`]
//! walks a [`SegmentFold`], which holds every sample, so the atlas's
//! memory still grows with sweep size. The coordinator folds each
//! metric through a [`MetricStats`] (count / min / max / mean +
//! p50/p90/p99) and writes two artifacts:
//!
//! * `atlas.json` — the sealed [`SweepAggregates`] report;
//! * `columns.json` — a sealed columnar store (parallel arrays keyed by
//!   unit id) that downstream analysis loads without re-reading every
//!   segment.

use std::io;
use std::path::Path;

use crate::json::Json;
use crate::sweep::segment::{SampleRecord, SegmentFold};

/// One-quantile P² estimator (Jain & Chlamtac): five markers whose
/// heights approximate the quantile after parabolic adjustment on every
/// observation.
#[derive(Debug, Clone)]
pub struct P2Quantile {
    q: f64,
    /// Marker heights (sorted ascending once primed).
    heights: [f64; 5],
    /// Marker positions, 1-based as in the paper.
    positions: [f64; 5],
    /// Desired marker positions.
    desired: [f64; 5],
    /// Per-observation increments of the desired positions.
    increments: [f64; 5],
    /// Observations seen; the first five only prime the markers.
    count: usize,
}

impl P2Quantile {
    /// An estimator for quantile `q` in `(0, 1)`.
    pub fn new(q: f64) -> P2Quantile {
        P2Quantile {
            q,
            heights: [0.0; 5],
            positions: [1.0, 2.0, 3.0, 4.0, 5.0],
            desired: [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0],
            increments: [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0],
            count: 0,
        }
    }

    /// Feeds one observation.
    pub fn observe(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        if self.count < 5 {
            self.heights[self.count] = x;
            self.count += 1;
            if self.count == 5 {
                self.heights.sort_by(f64::total_cmp);
            }
            return;
        }
        self.count += 1;

        // Find the cell k with heights[k] <= x < heights[k+1], clamping
        // the extremes to the observed min/max.
        let k = if x < self.heights[0] {
            self.heights[0] = x;
            0
        } else if x >= self.heights[4] {
            self.heights[4] = x;
            3
        } else {
            // One of the middle cells.
            let mut cell = 0;
            for i in 0..4 {
                if x >= self.heights[i] && x < self.heights[i + 1] {
                    cell = i;
                    break;
                }
            }
            cell
        };
        for pos in self.positions.iter_mut().skip(k + 1) {
            *pos += 1.0;
        }
        for (d, inc) in self.desired.iter_mut().zip(self.increments) {
            *d += inc;
        }

        // Adjust the three interior markers toward their desired
        // positions, parabolically when possible, linearly otherwise.
        for i in 1..4 {
            let delta = self.desired[i] - self.positions[i];
            let right = self.positions[i + 1] - self.positions[i];
            let left = self.positions[i - 1] - self.positions[i];
            if (delta >= 1.0 && right > 1.0) || (delta <= -1.0 && left < -1.0) {
                let d = delta.signum();
                let parabolic = self.heights[i]
                    + d / (self.positions[i + 1] - self.positions[i - 1])
                        * ((self.positions[i] - self.positions[i - 1] + d)
                            * (self.heights[i + 1] - self.heights[i])
                            / right
                            + (self.positions[i + 1] - self.positions[i] - d)
                                * (self.heights[i] - self.heights[i - 1])
                                / -left);
                self.heights[i] =
                    if self.heights[i - 1] < parabolic && parabolic < self.heights[i + 1] {
                        parabolic
                    } else if d > 0.0 {
                        // Linear fallback toward the right neighbour.
                        self.heights[i] + (self.heights[i + 1] - self.heights[i]) / right
                    } else {
                        self.heights[i] + (self.heights[i - 1] - self.heights[i]) / -left
                    };
                self.positions[i] += d;
            }
        }
    }

    /// The current estimate; exact (sorted interpolation) while fewer
    /// than five observations have been seen, `None` with zero.
    pub fn value(&self) -> Option<f64> {
        match self.count {
            0 => None,
            n @ 1..=4 => {
                let mut sorted = self.heights[..n].to_vec();
                sorted.sort_by(f64::total_cmp);
                // Nearest-rank on the tiny prefix.
                let rank = ((self.q * n as f64).ceil() as usize).clamp(1, n);
                Some(sorted[rank - 1])
            }
            _ => Some(self.heights[2]),
        }
    }
}

/// Streaming count/min/max/mean plus p50/p90/p99 for one metric.
#[derive(Debug, Clone)]
pub struct MetricStats {
    count: u64,
    min: f64,
    max: f64,
    sum: f64,
    p50: P2Quantile,
    p90: P2Quantile,
    p99: P2Quantile,
}

impl Default for MetricStats {
    fn default() -> MetricStats {
        MetricStats::new()
    }
}

impl MetricStats {
    /// An empty accumulator.
    pub fn new() -> MetricStats {
        MetricStats {
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
            p50: P2Quantile::new(0.50),
            p90: P2Quantile::new(0.90),
            p99: P2Quantile::new(0.99),
        }
    }

    /// Feeds one observation (non-finite values are ignored).
    pub fn observe(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.count += 1;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        self.sum += x;
        self.p50.observe(x);
        self.p90.observe(x);
        self.p99.observe(x);
    }

    /// Snapshot of the accumulated summary.
    pub fn summary(&self) -> MetricSummary {
        let or_zero = |v: Option<f64>| v.unwrap_or(0.0);
        MetricSummary {
            count: self.count,
            min: if self.count == 0 { 0.0 } else { self.min },
            max: if self.count == 0 { 0.0 } else { self.max },
            mean: if self.count == 0 {
                0.0
            } else {
                self.sum / self.count as f64
            },
            p50: or_zero(self.p50.value()),
            p90: or_zero(self.p90.value()),
            p99: or_zero(self.p99.value()),
        }
    }
}

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
    /// Streaming median estimate.
    pub p50: f64,
    /// Streaming 90th-percentile estimate.
    pub p90: f64,
    /// Streaming 99th-percentile estimate.
    pub p99: f64,
}

impl MetricSummary {
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
    /// Units with a folded sample (== `units` on a complete sweep).
    pub samples: u64,
    /// Suppressed duplicate records (steal/speculation races).
    pub duplicates: u64,
    /// Checksum-failing segment lines.
    pub invalid_lines: u64,
    /// Segments that ended in a torn tail.
    pub torn_tails: u64,
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
pub fn aggregate(fold: &SegmentFold, units: usize) -> SweepAggregates {
    let mut conflicts = MetricStats::new();
    let mut ratio = MetricStats::new();
    let mut wall = MetricStats::new();
    let mut verdicts: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
    for sample in fold.samples.values() {
        conflicts.observe(sample.conflicts as f64);
        ratio.observe(sample.clause_var_ratio);
        wall.observe(sample.wall_secs);
        *verdicts.entry(sample.verdict.clone()).or_insert(0) += 1;
    }
    SweepAggregates {
        units: units as u64,
        samples: fold.samples.len() as u64,
        duplicates: fold.duplicates as u64,
        invalid_lines: fold.invalid_lines as u64,
        torn_tails: fold.torn_tails as u64,
        stolen: fold.stolen as u64,
        speculative: fold.speculative as u64,
        conflicts: conflicts.summary(),
        clause_var_ratio: ratio.summary(),
        wall_secs: wall.summary(),
        verdicts: verdicts.into_iter().collect(),
    }
}

impl SweepAggregates {
    /// Serializes the report (the payload of the sealed `atlas.json`).
    pub fn to_json(&self) -> String {
        Json::Object(vec![
            ("units".to_string(), Json::Int(self.units)),
            ("samples".to_string(), Json::Int(self.samples)),
            ("duplicates".to_string(), Json::Int(self.duplicates)),
            ("invalid_lines".to_string(), Json::Int(self.invalid_lines)),
            ("torn_tails".to_string(), Json::Int(self.torn_tails)),
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
/// re-folding segments.
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

    /// Deterministic pseudo-random stream (xorshift) for estimator tests.
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    #[test]
    fn p2_matches_exact_quantiles_on_uniform_data() {
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut values = Vec::new();
        let mut p50 = P2Quantile::new(0.5);
        let mut p90 = P2Quantile::new(0.9);
        let mut p99 = P2Quantile::new(0.99);
        for _ in 0..20_000 {
            let x = (xorshift(&mut state) % 1_000_000) as f64 / 1_000_000.0;
            values.push(x);
            p50.observe(x);
            p90.observe(x);
            p99.observe(x);
        }
        values.sort_by(f64::total_cmp);
        let exact = |q: f64| values[((q * values.len() as f64) as usize).min(values.len() - 1)];
        assert!((p50.value().expect("nonempty") - exact(0.5)).abs() < 0.02);
        assert!((p90.value().expect("nonempty") - exact(0.9)).abs() < 0.02);
        assert!((p99.value().expect("nonempty") - exact(0.99)).abs() < 0.02);
    }

    #[test]
    fn p2_is_exact_on_tiny_streams() {
        let mut p50 = P2Quantile::new(0.5);
        assert_eq!(p50.value(), None);
        for x in [5.0, 1.0, 3.0] {
            p50.observe(x);
        }
        assert_eq!(p50.value(), Some(3.0));
        let mut p99 = P2Quantile::new(0.99);
        p99.observe(7.0);
        assert_eq!(p99.value(), Some(7.0));
    }

    #[test]
    fn metric_stats_summary_is_consistent() {
        let mut m = MetricStats::new();
        for x in 1..=100 {
            m.observe(f64::from(x));
        }
        let s = m.summary();
        assert_eq!(s.count, 100);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert!((s.mean - 50.5).abs() < 1e-9);
        assert!((s.p50 - 50.0).abs() <= 2.0, "p50 {}", s.p50);
        assert!((s.p90 - 90.0).abs() <= 3.0, "p90 {}", s.p90);
        // Empty stats degrade to zeros, not NaN.
        let empty = MetricStats::new().summary();
        assert_eq!(empty.count, 0);
        assert_eq!(empty.mean, 0.0);
    }

    #[test]
    fn aggregate_report_round_trips_as_json() {
        use crate::sweep::segment::SampleRecord;
        let mut fold = SegmentFold::default();
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
        fold.stolen = 1;
        let agg = aggregate(&fold, 10);
        assert_eq!(agg.samples, 10);
        assert_eq!(agg.stolen, 1);
        assert_eq!(agg.verdicts.len(), 2);
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
    }
}
