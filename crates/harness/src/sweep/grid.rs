//! Parameter grids and sweep plans: the work a distributed sweep covers.
//!
//! A [`SweepGrid`] is a named Cartesian product of axes
//! (`vars = 50,100 × ratio = 4.0,4.3 × seed = 0..8`); its expansion is a
//! flat, deterministic list of [`WorkUnit`]s whose stable ids
//! (`unit-00042`) name lease files and result files.
//! A [`SweepPlan`] wraps the grid with everything else that affects
//! execution (executor name, per-unit budget, seed) and hashes it all —
//! *including* the ambient `FULLLOCK_*` fingerprint — so `--resume`
//! detects both plan edits and environment drift instead of silently
//! reusing stale results.

use std::path::Path;

use crate::json::{Fnv, Json};
use crate::{HarnessError, Result};

/// Version tag written into every sweep plan file; loading any other
/// version fails rather than guessing.
pub const SWEEP_PLAN_VERSION: u64 = 1;

/// Hard ceiling on grid expansion, as a guard against a typo'd axis
/// turning into a hundred-million-unit sweep.
pub const MAX_UNITS: usize = 1_000_000;

/// One point of the parameter grid: a stable id plus the axis values
/// that define it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkUnit {
    /// Position in the grid expansion (also the failpoint context index
    /// for [`sweep.unit`](fulllock_sat::faults::site::SWEEP_UNIT)).
    pub index: usize,
    /// Stable identity (`unit-00042`): names the unit's lease file and
    /// result file.
    pub id: String,
    /// Axis name → value pairs, in axis order.
    pub params: Vec<(String, String)>,
}

impl WorkUnit {
    /// Looks up an axis value by name.
    pub fn param(&self, key: &str) -> Option<&str> {
        self.params
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// The stable id for a grid position.
    pub fn id_for(index: usize) -> String {
        format!("unit-{index:05}")
    }
}

/// A named Cartesian product of parameter axes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepGrid {
    /// Grid name, recorded in the plan and the atlas report.
    pub name: String,
    /// Axes in declaration order; the *last* axis varies fastest in the
    /// expansion.
    pub axes: Vec<(String, Vec<String>)>,
}

impl SweepGrid {
    /// An empty grid with the given name.
    pub fn new(name: impl Into<String>) -> SweepGrid {
        SweepGrid {
            name: name.into(),
            axes: Vec::new(),
        }
    }

    /// Appends an axis (builder style).
    pub fn axis(
        mut self,
        name: impl Into<String>,
        values: impl IntoIterator<Item = impl Into<String>>,
    ) -> SweepGrid {
        self.axes
            .push((name.into(), values.into_iter().map(Into::into).collect()));
        self
    }

    /// Parses the CLI grid spec: `name=v1,v2;name2=v3` (axes separated
    /// by `;`, values by `,`).
    pub fn parse_spec(name: impl Into<String>, spec: &str) -> Result<SweepGrid> {
        let mut grid = SweepGrid::new(name);
        for raw in spec.split(';') {
            let raw = raw.trim();
            if raw.is_empty() {
                continue;
            }
            let (axis, values) = raw
                .split_once('=')
                .ok_or_else(|| HarnessError::PlanFormat {
                    kind: "sweep grid",
                    path: None,
                    message: format!("grid axis {raw:?}: expected name=v1,v2,..."),
                })?;
            grid = grid.axis(
                axis.trim(),
                values.split(',').map(str::trim).filter(|v| !v.is_empty()),
            );
        }
        grid.validate()?;
        Ok(grid)
    }

    /// Number of grid points (product of axis sizes).
    pub fn unit_count(&self) -> usize {
        self.axes.iter().map(|(_, v)| v.len()).product()
    }

    /// Expands the grid into its flat, deterministic unit list (last
    /// axis varies fastest).
    pub fn units(&self) -> Vec<WorkUnit> {
        let total = self.unit_count();
        let mut units = Vec::with_capacity(total);
        for index in 0..total {
            let mut params = Vec::with_capacity(self.axes.len());
            let mut rest = index;
            for (name, values) in self.axes.iter().rev() {
                params.push((name.clone(), values[rest % values.len()].clone()));
                rest /= values.len();
            }
            params.reverse();
            units.push(WorkUnit {
                index,
                id: WorkUnit::id_for(index),
                params,
            });
        }
        units
    }

    /// Checks the grid is non-degenerate: at least one axis, well-formed
    /// unique axis names, non-empty value lists, and a bounded product.
    pub fn validate(&self) -> Result<()> {
        let complain = |message: String| {
            Err(HarnessError::PlanFormat {
                kind: "sweep grid",
                path: None,
                message,
            })
        };
        if self.axes.is_empty() {
            return complain("sweep grid has no axes".to_string());
        }
        for (i, (name, values)) in self.axes.iter().enumerate() {
            if name.is_empty()
                || name
                    .chars()
                    .any(|c| !c.is_ascii_alphanumeric() && !matches!(c, '.' | '_' | '-'))
            {
                return complain(format!(
                    "axis #{i} name {name:?} invalid; allowed: [A-Za-z0-9._-]"
                ));
            }
            if self.axes[..i].iter().any(|(other, _)| other == name) {
                return complain(format!("duplicate axis name {name:?}"));
            }
            if values.is_empty() {
                return complain(format!("axis {name:?} has no values"));
            }
        }
        let count = self.unit_count();
        if count == 0 || count > MAX_UNITS {
            return complain(format!(
                "grid expands to {count} units (allowed: 1..={MAX_UNITS})"
            ));
        }
        Ok(())
    }
}

/// Everything a sweep executes: the grid plus the execution knobs that
/// must invalidate results when they change.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPlan {
    /// The parameter grid.
    pub grid: SweepGrid,
    /// Which [`UnitExecutor`](crate::sweep::UnitExecutor) interprets the
    /// grid params (`"sat"` — synthetic random 3-SAT, `"atlas"` — the
    /// CLN hardness atlas in the `full-lock` crate, or a custom name).
    pub executor: String,
    /// Per-unit wall-clock budget hint, in seconds (executors translate
    /// it into conflict caps / attack timeouts).
    pub unit_timeout_secs: f64,
    /// Base seed mixed into per-unit seeds by executors.
    pub seed: u64,
}

impl SweepPlan {
    /// A plan over `grid` with the default executor and budget.
    pub fn new(grid: SweepGrid) -> SweepPlan {
        SweepPlan {
            grid,
            executor: "sat".to_string(),
            unit_timeout_secs: 60.0,
            seed: 0,
        }
    }

    /// Validates the grid and the knobs.
    pub fn validate(&self) -> Result<()> {
        self.grid.validate()?;
        if self.executor.is_empty() {
            return Err(HarnessError::PlanFormat {
                kind: "sweep plan",
                path: None,
                message: "sweep plan has an empty executor name".to_string(),
            });
        }
        if !self.unit_timeout_secs.is_finite() || self.unit_timeout_secs <= 0.0 {
            return Err(HarnessError::PlanFormat {
                kind: "sweep plan",
                path: None,
                message: format!("invalid unit_timeout_secs {}", self.unit_timeout_secs),
            });
        }
        Ok(())
    }

    /// FNV-1a hash over everything that affects the sweep's results:
    /// the grid, the executor, the per-unit budget, the seed, and the
    /// ambient `FULLLOCK_*` fingerprint
    /// ([`crate::plan::ambient_fingerprint`]). A `--resume` whose hash
    /// differs refuses to reuse the directory — the on-disk samples were
    /// produced under a different effective configuration.
    pub fn config_hash(&self, ambient: u64) -> u64 {
        let mut h = Fnv::new();
        h.str(&self.grid.name);
        h.bytes(&(self.grid.axes.len() as u64).to_le_bytes());
        for (name, values) in &self.grid.axes {
            h.str(name);
            h.bytes(&(values.len() as u64).to_le_bytes());
            for v in values {
                h.str(v);
            }
        }
        h.str(&self.executor);
        h.bytes(&self.unit_timeout_secs.to_bits().to_le_bytes());
        h.bytes(&self.seed.to_le_bytes());
        h.bytes(&ambient.to_le_bytes());
        h.finish()
    }

    /// Serializes to the versioned JSON plan format, with the config
    /// hash under which the sweep runs baked in.
    pub fn to_json(&self, ambient: u64) -> String {
        let axes = Json::Array(
            self.grid
                .axes
                .iter()
                .map(|(name, values)| {
                    Json::Object(vec![
                        ("name".to_string(), Json::Str(name.clone())),
                        (
                            "values".to_string(),
                            Json::Array(values.iter().cloned().map(Json::Str).collect()),
                        ),
                    ])
                })
                .collect(),
        );
        Json::Object(vec![
            ("version".to_string(), Json::Int(SWEEP_PLAN_VERSION)),
            ("name".to_string(), Json::Str(self.grid.name.clone())),
            ("executor".to_string(), Json::Str(self.executor.clone())),
            (
                "unit_timeout_secs".to_string(),
                Json::Float(self.unit_timeout_secs),
            ),
            ("seed".to_string(), Json::Int(self.seed)),
            ("axes".to_string(), axes),
            (
                "config_hash".to_string(),
                Json::Int(self.config_hash(ambient)),
            ),
        ])
        .to_text()
    }

    /// Parses the JSON plan format, returning the plan and the config
    /// hash recorded at write time.
    ///
    /// # Errors
    ///
    /// [`HarnessError::PlanFormat`] on malformed text, an unsupported
    /// version, or an invalid grid.
    pub fn from_json(text: &str) -> Result<(SweepPlan, u64)> {
        let parsed = parse_sweep_plan(text).map_err(|message| HarnessError::PlanFormat {
            kind: "sweep plan",
            path: None,
            message,
        })?;
        parsed.0.validate()?;
        Ok(parsed)
    }

    /// Writes the sealed plan file (`sweep.json`) into the sweep
    /// directory.
    pub fn save(&self, dir: &Path, ambient: u64) -> Result<()> {
        let path = plan_path(dir);
        crate::persist::save_sealed(&path, &self.to_json(ambient)).map_err(|e| HarnessError::Io {
            path,
            message: format!("write sweep plan: {e}"),
        })
    }

    /// Loads the sealed plan file from a sweep directory, returning the
    /// plan and its recorded config hash.
    ///
    /// # Errors
    ///
    /// [`HarnessError::Io`] when no generation of the file can be read,
    /// [`HarnessError::ManifestFormat`] when none verifies or the plan it
    /// holds is malformed or invalid.
    pub fn load(dir: &Path) -> Result<(SweepPlan, u64)> {
        crate::persist::load_document(&plan_path(dir), "sweep plan", |text| {
            let (plan, hash) = parse_sweep_plan(text)?;
            plan.validate().map_err(|e| e.to_string())?;
            Ok((plan, hash))
        })
    }
}

/// Where the sealed plan lives inside a sweep directory.
pub fn plan_path(dir: &Path) -> std::path::PathBuf {
    dir.join("sweep.json")
}

fn parse_sweep_plan(text: &str) -> std::result::Result<(SweepPlan, u64), String> {
    let root = Json::parse(text)?;
    let version = root.u64_field("version")?;
    if version != SWEEP_PLAN_VERSION {
        return Err(format!(
            "unsupported sweep plan version {version} (this build reads version \
             {SWEEP_PLAN_VERSION})"
        ));
    }
    let axes = root.items_field("axes", |axis| {
        Ok((
            axis.str_field("name")?.to_string(),
            axis.field_as::<Vec<String>>("values")?,
        ))
    })?;
    let plan = SweepPlan {
        grid: SweepGrid {
            name: root.str_field("name")?.to_string(),
            axes,
        },
        executor: root.str_field("executor")?.to_string(),
        unit_timeout_secs: root.f64_field("unit_timeout_secs")?,
        seed: root.u64_field("seed")?,
    };
    Ok((plan, root.u64_field("config_hash")?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SweepPlan {
        let mut plan = SweepPlan::new(
            SweepGrid::new("mini")
                .axis("vars", ["50", "100"])
                .axis("ratio", ["4.0", "4.3"])
                .axis("seed", ["0", "1", "2"]),
        );
        plan.unit_timeout_secs = 5.0;
        plan.seed = 7;
        plan
    }

    #[test]
    fn expansion_is_deterministic_and_last_axis_fastest() {
        let plan = sample();
        let units = plan.grid.units();
        assert_eq!(units.len(), 12);
        assert_eq!(units[0].id, "unit-00000");
        assert_eq!(units[0].param("vars"), Some("50"));
        assert_eq!(units[0].param("seed"), Some("0"));
        assert_eq!(units[1].param("seed"), Some("1"));
        assert_eq!(units[3].param("ratio"), Some("4.3"));
        assert_eq!(units[11].param("vars"), Some("100"));
        assert_eq!(units[11].param("seed"), Some("2"));
        assert_eq!(units, plan.grid.units(), "expansion is pure");
    }

    #[test]
    fn plan_round_trips_with_hash() {
        let plan = sample();
        let text = plan.to_json(0xdead);
        let (back, hash) = SweepPlan::from_json(&text).expect("round trip");
        assert_eq!(back, plan);
        assert_eq!(hash, plan.config_hash(0xdead));
    }

    #[test]
    fn config_hash_tracks_grid_executor_and_ambient() {
        let plan = sample();
        let base = plan.config_hash(1);
        assert_eq!(base, sample().config_hash(1));
        assert_ne!(base, plan.config_hash(2), "ambient drift changes the hash");
        let mut edited = sample();
        edited.grid.axes[0].1.push("200".to_string());
        assert_ne!(base, edited.config_hash(1));
        let mut other_exec = sample();
        other_exec.executor = "atlas".to_string();
        assert_ne!(base, other_exec.config_hash(1));
        let mut other_budget = sample();
        other_budget.unit_timeout_secs = 6.0;
        assert_ne!(base, other_budget.config_hash(1));
    }

    #[test]
    fn parse_spec_handles_the_cli_grammar() {
        let grid = SweepGrid::parse_spec("g", "vars=50,100; ratio=4.3 ;seed=0,1").expect("parses");
        assert_eq!(grid.axes.len(), 3);
        assert_eq!(grid.unit_count(), 4, "2 vars x 1 ratio x 2 seeds");
        assert!(SweepGrid::parse_spec("g", "noequals").is_err());
        assert!(SweepGrid::parse_spec("g", "").is_err(), "no axes");
        assert!(SweepGrid::parse_spec("g", "a=").is_err(), "no values");
        assert!(SweepGrid::parse_spec("g", "sp ace=1").is_err());
        assert!(SweepGrid::parse_spec("g", "a=1;a=2").is_err(), "dup axis");
    }

    #[test]
    fn validation_bounds_the_expansion() {
        let mut plan = sample();
        plan.unit_timeout_secs = -1.0;
        assert!(plan.validate().is_err());
        let huge: Vec<String> = (0..1001).map(|i| i.to_string()).collect();
        let grid = SweepGrid::new("huge")
            .axis("a", huge.clone())
            .axis("b", huge);
        assert!(grid.validate().is_err(), "1001^2 exceeds MAX_UNITS");
    }
}
