//! Summary statistics and the result line the benchmark prints.

/// Nearest-rank percentile of ascending `sorted` samples: the smallest
/// sample with at least `p` percent of the samples at or below it.
/// Returns 0 for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest whole percentile whose nearest-rank sample still has at
/// least ten samples beyond it, or `None` when there are too few samples
/// for any.
pub fn tail_percentile(samples: usize) -> Option<u32> {
    (1..=99u32)
        .rev()
        .find(|&p| (p as usize * samples).div_ceil(100) + 10 <= samples)
}

/// The summary of a timing printed on standard error: sample count,
/// median, p95, and the highest percentile with at least ten samples
/// beyond it.
pub fn describe_latency(sorted: &[f64]) -> String {
    let tail = match tail_percentile(sorted.len()) {
        Some(p) => format!("p{p} {:.4} s", percentile(sorted, f64::from(p))),
        None => "no percentile has 10 samples beyond it".to_string(),
    };
    format!(
        "over {} samples: p50 {:.4} s, p95 {:.4} s, {tail}",
        sorted.len(),
        percentile(sorted, 50.0),
        percentile(sorted, 95.0)
    )
}

/// Median (nearest rank, lower middle for even counts) of unsorted
/// samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples), 50.0)
}

/// An ascending copy of `samples`.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Peak resident set size (`VmHWM`) of a live process, in MB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What one benchmark run reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Every recovered key and every service check passed.
    pub correct: bool,
    /// Instances (or service jobs) attempted.
    pub attempted: u64,
    /// Attempts that ended without a certified key (timeouts, errors,
    /// wrong keys).
    pub failed: u64,
    /// End-to-end metrics untraced, per-layer metrics traced.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// The single JSON line the benchmark ends its standard output with.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                // Non-finite values cannot be written as JSON numbers.
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 91.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(10), None);
        assert_eq!(tail_percentile(11), Some(9));
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(240), Some(95));
        assert_eq!(tail_percentile(1000), Some(99));
        for n in 11..2000 {
            let p = tail_percentile(n).expect("more than ten samples");
            let rank = (p as usize * n).div_ceil(100);
            assert!(n - rank >= 10, "n={n} p={p}");
            let next = ((p as usize + 1) * n).div_ceil(100);
            assert!(p == 99 || n - next < 10, "n={n}: p{} also qualifies", p + 1);
        }
    }

    #[test]
    fn result_line_is_one_json_object() {
        let outcome = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![
                Metric {
                    name: "break_s",
                    value: 1.25,
                    unit: "s",
                },
                Metric {
                    name: "dip_iterations",
                    value: 42.0,
                    unit: "count",
                },
            ],
        };
        let line = outcome.to_json();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"break_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"dip_iterations\": {\"value\": 42, \"unit\": \"count\"}}}"
        );
        assert!(fulllock_harness::json::Json::parse(&line).is_ok());
    }
}
