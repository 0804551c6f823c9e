//! The metric catalogue: every name and unit `BENCHMARK.json` declares,
//! and the collector each workload fills.

use std::collections::BTreeMap;

use fulllock_harness::json::Json;

use crate::pool::Workload;
use crate::stats::Metric;

/// End-to-end metrics, reported by every untraced run.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("break_s", "s"),
    ("secs_per_dip", "s"),
    ("dip_iterations", "count"),
    ("oracle_queries", "count"),
    ("jobs_per_min", "jobs/min"),
    ("job_latency_p50_s", "s"),
    ("job_latency_p95_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every traced run. A layer a workload
/// never calls reports 0.
pub const PER_LAYER: [(&str, &str); 54] = [
    ("sat.propagate_s", "s"),
    ("sat.props_per_s", "1/s"),
    ("sat.analyze_s", "s"),
    ("sat.conflicts", "count"),
    ("sat.decisions", "count"),
    ("sat.propagations", "count"),
    ("sat.restarts", "count"),
    ("sat.solves", "count"),
    ("sat.learnts_carried", "count"),
    ("sat.deleted_learnts", "count"),
    ("sat.inprocessings", "count"),
    ("sat.vars_eliminated", "count"),
    ("sat.mean_lbd", "count"),
    ("sat.certified_models", "count"),
    ("attacks.setup_s", "s"),
    ("attacks.step_self_s", "s"),
    ("attacks.dip_step_p50_s", "s"),
    ("attacks.dip_step_max_s", "s"),
    ("attacks.final_unsat_s", "s"),
    ("attacks.extract_key_s", "s"),
    ("attacks.verify_s", "s"),
    ("attacks.formula_vars", "count"),
    ("attacks.formula_clauses", "count"),
    ("attacks.clause_var_ratio", "ratio"),
    ("attacks.double_dip.residual_s", "s"),
    ("encode.s_per_dip", "s"),
    ("encode.clauses_per_dip", "count"),
    ("encode.vars_per_dip", "count"),
    ("oracle.queries", "count"),
    ("oracle.s", "s"),
    ("oracle.us_per_query", "us"),
    ("certificate.s", "s"),
    ("certificate.proven", "count"),
    ("checkpoint.save_s", "s"),
    ("checkpoint.load_s", "s"),
    ("checkpoint.bytes", "bytes"),
    ("service.checkpoints_per_job", "count"),
    ("service.daemon_start_s", "s"),
    ("service.submit_p50_s", "s"),
    ("service.submit_p95_s", "s"),
    ("service.attack_p50_s", "s"),
    ("service.overhead_p50_s", "s"),
    ("service.overhead_p95_s", "s"),
    ("service.attempts_per_job", "count"),
    ("service.shed", "count"),
    ("service.persist_failures", "count"),
    ("netlist.load_s", "s"),
    ("netlist.bench_write_s", "s"),
    ("netlist.gates", "count"),
    ("locking.lock_s", "s"),
    ("locking.key_bits", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.coverage_frac", "ratio"),
    ("host.slowdown", "ratio"),
];

/// Metric values collected by one run, by name.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Sets a metric; the name must be in one of the catalogues.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.0.insert(name, value);
    }

    /// The metrics of `catalogue`, in order, 0 where nothing was set,
    /// with times (`s`, `us`) divided by the host's `slowdown` and rates
    /// (`1/s`, `jobs/min`) multiplied by it (see `host`).
    pub fn select(&self, catalogue: &[(&'static str, &'static str)], slowdown: f64) -> Vec<Metric> {
        catalogue
            .iter()
            .map(|&(name, unit)| {
                let raw = self.0.get(name).copied().unwrap_or(0.0);
                let value = match unit {
                    "s" | "us" => raw / slowdown,
                    "1/s" | "jobs/min" => raw * slowdown,
                    _ => raw,
                };
                // `+ 0.0` turns the -0.0 an empty float sum yields into 0.
                Metric {
                    name,
                    value: value + 0.0,
                    unit,
                }
            })
            .collect()
    }
}

/// Checks that `BENCHMARK.json` (its text) declares exactly the
/// workloads and the metric catalogues of this program, names and units
/// in order, so that the two cannot drift apart.
///
/// # Errors
///
/// Invalid JSON, a missing list, or the first list that differs.
pub fn check_declaration(text: &str) -> Result<(), String> {
    let json = Json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = |key: &str, fields: &[&str]| -> Result<Vec<Vec<String>>, String> {
        let items = json
            .get(key)
            .and_then(Json::as_array)
            .ok_or(format!("BENCHMARK.json has no {key:?} list"))?;
        items
            .iter()
            .map(|item| {
                fields
                    .iter()
                    .map(|f| {
                        item.get(f)
                            .and_then(Json::as_str)
                            .map(str::to_string)
                            .ok_or(format!("BENCHMARK.json: an entry of {key:?} has no {f:?}"))
                    })
                    .collect()
            })
            .collect()
    };
    let ours = |catalogue: &[(&str, &str)]| -> Vec<Vec<String>> {
        catalogue
            .iter()
            .map(|(n, u)| vec![n.to_string(), u.to_string()])
            .collect()
    };
    let workloads: Vec<Vec<String>> = Workload::ALL
        .iter()
        .map(|w| vec![w.name().to_string()])
        .collect();
    for (key, declared, expected) in [
        ("workloads", list("workloads", &["name"])?, workloads),
        (
            "end_to_end",
            list("end_to_end", &["name", "unit"])?,
            ours(&END_TO_END),
        ),
        (
            "per_layer",
            list("per_layer", &["name", "unit"])?,
            ours(&PER_LAYER),
        ),
    ] {
        if declared != expected {
            return Err(format!(
                "BENCHMARK.json {key:?} declares {declared:?}, the benchmark reports {expected:?}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn select_scales_times_and_rates_by_the_slowdown() {
        let mut values = Values::default();
        values.set("break_s", 3.0);
        values.set("jobs_per_min", 10.0);
        values.set("dip_iterations", 7.0);
        let got = values.select(&END_TO_END, 1.5);
        let value = |n: &str| got.iter().find(|m| m.name == n).expect(n).value;
        assert_eq!(value("break_s"), 2.0);
        assert_eq!(value("jobs_per_min"), 15.0);
        assert_eq!(value("dip_iterations"), 7.0);
        assert_eq!(value("setup_s"), 0.0);
        assert!(value("setup_s").is_sign_positive());
    }

    /// The catalogues here and the declaration in `BENCHMARK.json` must
    /// not drift apart.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        check_declaration(&text).expect("BENCHMARK.json declares this catalogue");
        let renamed = text.replace("\"break_s\"", "\"break_secs\"");
        assert!(check_declaration(&renamed).is_err());
        assert!(check_declaration("{}").is_err());
    }
}
