//! One schema and one writer for the `BENCH_*.json` guard records.
//!
//! Six guards record the layers under time-to-break: CDCL propagation
//! (`BENCH_cdcl.json`), the DIP loop, the oracle layer, the `serve`
//! daemon, its chaos soak and the sweep executor.
//! Each builds one [`BenchRecord`] of named metrics and the bars they
//! must clear. [`BenchRecord::finish`] judges every bar, writes the
//! record as one line of JSON, and only then exits non-zero if a bar
//! failed, so a failing run still leaves its numbers on disk:
//!
//! ```json
//! {"workload":"…","host_cores":2,"commit":"1a2b3c4","metrics":{"speedup":3.2},
//!  "bars":[{"metric":"speedup","cmp":">=","bound":2.0,"pass":true}],"pass":true}
//! ```
//!
//! [`parse_flag`] and [`percentile`], which the guard binaries share,
//! live here too.

use std::fmt::Display;
use std::path::Path;
use std::str::FromStr;

use fulllock_harness::json::Json;

/// How a bar compares its metric with its bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// The metric must stay below the bound.
    Lt,
    /// The metric must reach the bound.
    Ge,
    /// The metric must equal the bound (counts and verdicts).
    Eq,
}

impl Cmp {
    fn as_str(self) -> &'static str {
        match self {
            Cmp::Lt => "<",
            Cmp::Ge => ">=",
            Cmp::Eq => "==",
        }
    }

    fn holds(self, value: &Json, bound: &Json) -> bool {
        match (value.as_f64(), bound.as_f64()) {
            (Some(v), Some(b)) => match self {
                Cmp::Lt => v < b,
                Cmp::Ge => v >= b,
                Cmp::Eq => v == b,
            },
            _ => self == Cmp::Eq && value == bound,
        }
    }
}

/// One acceptance bar: `metric cmp bound`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bar {
    /// The metric the bar judges.
    pub metric: String,
    /// How the metric is compared.
    pub cmp: Cmp,
    /// What it is compared with.
    pub bound: Json,
}

/// A guard's record: what ran, on how many cores, at which commit, what
/// it measured and the bars it must clear.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// What the guard ran.
    pub workload: String,
    /// `available_parallelism` of the recording host.
    pub host_cores: u64,
    /// `git rev-parse --short HEAD` of the recorded checkout, if known.
    pub commit: Option<String>,
    /// Named measurements, in recording order.
    pub metrics: Vec<(String, Json)>,
    /// The bars the metrics must clear.
    pub bars: Vec<Bar>,
}

impl BenchRecord {
    /// An empty record of `workload` on this host, at this checkout's
    /// commit.
    pub fn new(workload: impl Into<String>) -> BenchRecord {
        BenchRecord {
            workload: workload.into(),
            host_cores: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
            commit: head_commit(),
            metrics: Vec::new(),
            bars: Vec::new(),
        }
    }

    /// Records a named metric.
    pub fn metric(&mut self, name: &str, value: impl Into<Json>) -> &mut BenchRecord {
        self.metrics.push((name.to_string(), value.into()));
        self
    }

    /// States a bar on a metric.
    pub fn bar(&mut self, metric: &str, cmp: Cmp, bound: impl Into<Json>) -> &mut BenchRecord {
        self.bars.push(Bar {
            metric: metric.to_string(),
            cmp,
            bound: bound.into(),
        });
        self
    }

    /// Whether `bar` holds: its metric was recorded and compares as stated.
    fn holds(&self, bar: &Bar) -> bool {
        self.metrics
            .iter()
            .any(|(name, value)| *name == bar.metric && bar.cmp.holds(value, &bar.bound))
    }

    /// Whether every bar holds.
    fn pass(&self) -> bool {
        self.bars.iter().all(|bar| self.holds(bar))
    }

    /// The record as JSON, with each bar's verdict and the record's.
    fn to_json(&self) -> Json {
        let bars = self.bars.iter().map(|bar| {
            Json::Object(vec![
                ("metric".to_string(), Json::from(bar.metric.as_str())),
                ("cmp".to_string(), Json::from(bar.cmp.as_str())),
                ("bound".to_string(), bar.bound.clone()),
                ("pass".to_string(), Json::from(self.holds(bar))),
            ])
        });
        Json::Object(vec![
            ("workload".to_string(), Json::from(self.workload.as_str())),
            ("host_cores".to_string(), Json::from(self.host_cores)),
            ("commit".to_string(), self.commit.as_deref().into()),
            ("metrics".to_string(), Json::Object(self.metrics.clone())),
            ("bars".to_string(), Json::Array(bars.collect())),
            ("pass".to_string(), Json::from(self.pass())),
        ])
    }

    /// Parses a record, and checks that every verdict it stores is the
    /// one its metrics give.
    ///
    /// # Errors
    ///
    /// A message naming the missing or malformed field, or saying that
    /// the record differs from its re-judged self.
    pub fn parse(text: &str) -> Result<BenchRecord, String> {
        let root = Json::parse(text)?;
        let host_cores = root.u64_field("host_cores")?;
        if host_cores == 0 {
            return Err("field \"host_cores\" must be at least 1".to_string());
        }
        root.field("commit")?; // required, though it may be null
        let record = BenchRecord {
            workload: root.str_field("workload")?.to_string(),
            host_cores,
            commit: root.opt_field("commit")?,
            metrics: root.field_as::<&[(String, Json)]>("metrics")?.to_vec(),
            bars: root.items_field("bars", |bar| {
                let cmp = bar.str_field("cmp")?;
                Ok(Bar {
                    metric: bar.str_field("metric")?.to_string(),
                    cmp: [Cmp::Lt, Cmp::Ge, Cmp::Eq]
                        .into_iter()
                        .find(|c| c.as_str() == cmp)
                        .ok_or_else(|| format!("unknown cmp {cmp:?}"))?,
                    bound: bar.field("bound")?.clone(),
                })
            })?,
        };
        // A record must be exactly what its own fields write: a stored
        // verdict its metrics do not give, or a stray field, differs.
        if record.to_json() != root {
            return Err("stored verdicts or fields differ from the re-judged record".to_string());
        }
        Ok(record)
    }

    /// Writes the judged record to `path` as one line and prints it, then
    /// exits with status 1 if any bar failed.
    ///
    /// # Panics
    ///
    /// Panics if `path` cannot be written: a guard without its record
    /// has nothing to show.
    pub fn finish(&self, path: impl AsRef<Path>) {
        let path = path.as_ref();
        let text = self.to_json().to_text() + "\n";
        std::fs::write(path, &text)
            .unwrap_or_else(|e| panic!("write bench record {}: {e}", path.display()));
        print!("{}: {text}", path.display());
        if !self.pass() {
            eprintln!("{}: FAILED, a bar does not hold", path.display());
            std::process::exit(1);
        }
    }
}

fn head_commit() -> Option<String> {
    let out = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()?;
    let hash = String::from_utf8(out.stdout).ok()?.trim().to_string();
    (out.status.success() && !hash.is_empty()).then_some(hash)
}

/// The value after `name` in `args`, parsed, or `default` when `name` is
/// absent. A value that does not parse ends the process with status 2.
pub fn parse_flag<T: FromStr<Err: Display>>(args: &[String], name: &str, default: T) -> T {
    let Some(i) = args.iter().position(|a| a == name) else {
        return default;
    };
    let value = args.get(i + 1).map_or("", String::as_str);
    value.parse().unwrap_or_else(|e| {
        eprintln!("error: {name} {value:?}: {e}");
        std::process::exit(2)
    })
}

/// The `p`-th percentile (0-100) of an ascending slice, by nearest rank;
/// 0 for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_strings_round_trip_escaped() {
        let tricky = "a \"quoted\" C:\\path\nsecond line";
        let mut record = BenchRecord::new(tricky);
        record
            .metric("outcome", tricky)
            .bar("outcome", Cmp::Eq, tricky);
        let back = BenchRecord::parse(&record.to_json().to_text()).expect("parses");
        assert_eq!(back.metrics[0].1.as_str(), Some(tricky));
        assert_eq!(back, record);
    }

    #[test]
    fn a_failed_bar_writes_pass_false() {
        let mut record = BenchRecord::new("demo");
        record.metric("speedup", 1.5).bar("speedup", Cmp::Ge, 2.0);
        let text = record.to_json().to_text();
        let verdicts =
            r#""bars":[{"metric":"speedup","cmp":">=","bound":2.0,"pass":false}],"pass":false}"#;
        assert!(text.ends_with(verdicts), "{text}");
        assert!(!BenchRecord::parse(&text).expect("parses").pass());
    }
}
