//! Deterministic fault injection ("failpoints") for chaos testing.
//!
//! A production attack run is a long-lived job behind a flaky activated
//! chip, a daemon's worker pool and a disk that can fill up or tear a
//! write. The only way to *test* that a flipped oracle answer, a worker
//! panic, or a failed save degrades the run gracefully — instead of taking
//! the whole attack down — is to inject those faults on purpose, at named
//! program points, deterministically.
//!
//! This module provides exactly that:
//!
//! * a [`FaultPlan`] — an ordered set of [`Failpoint`]s, built
//!   programmatically or parsed from the `FULLLOCK_FAILPOINTS` environment
//!   variable;
//! * named fault *sites* in the oracle, serve, persistence and sweep
//!   layers (see the [`site`] constants) that call [`evaluate`] with a
//!   context index (a worker, shard, unit or query index);
//! * a process-global plan registry: [`install`] / [`clear`] for tests,
//!   with the environment plan as the fallback.
//!
//! # Zero cost without the feature
//!
//! The plan types and the spec parser are always available (so tooling can
//! validate specs anywhere), but [`evaluate`] only consults the registry
//! when the crate is built with the `failpoints` feature. Without it,
//! `evaluate` is a `const`-foldable `None` and every site disappears from
//! the optimized build.
//!
//! # Spec grammar
//!
//! ```text
//! plan   := point (';' point)*
//! point  := name ['#' index] '=' action ['@' skip] ['x' limit]
//! action := panic | drop | corrupt | trigger | delay:<millis>
//!         | enospc | eio | torn | flip | stuck
//! ```
//!
//! The three IO actions arm the *disk-fault* sites ([`site::PERSIST_WRITE`],
//! [`site::PERSIST_SYNC`], [`site::QUEUE_SEAL`]): `enospc` and `eio` make
//! the write fail with the corresponding errno-flavoured error, `torn`
//! makes it *lie* — the file lands truncated mid-envelope but the call
//! reports success, exactly what a powered-off disk behind a lying fsync
//! produces.
//!
//! The two *oracle* actions arm [`site::ORACLE_QUERY`]: `flip` inverts one
//! output bit of the response (a transient metastability upset — a
//! re-query answers correctly), `stuck` forces one output bit to a
//! constant (a stuck-at fault that answers the same wrong way on every
//! re-query).
//!
//! `#index` restricts the point to one context index (e.g. worker 1);
//! `@skip` ignores the first `skip` matching evaluations; `xlimit` fires at
//! most `limit` times. Example:
//!
//! ```text
//! FULLLOCK_FAILPOINTS="service.worker#1=panic x1"   # (spaces not allowed)
//! FULLLOCK_FAILPOINTS="service.worker#1=panicx1;oracle.query=flip@2"
//! ```
//!
//! # Example
//!
//! ```
//! use fulllock_sat::faults::{FaultAction, FaultPlan};
//!
//! let plan: FaultPlan = "service.worker#1=panicx1".parse().unwrap();
//! assert_eq!(plan.points().len(), 1);
//! assert_eq!(plan.points()[0].action, FaultAction::Panic);
//! assert_eq!(plan.points()[0].index, Some(1));
//! assert_eq!(plan.points()[0].limit, Some(1));
//! ```

use std::fmt;
use std::str::FromStr;
use std::sync::atomic::AtomicU64;
#[cfg(feature = "failpoints")]
use std::sync::atomic::Ordering;
#[cfg(feature = "failpoints")]
use std::sync::{Arc, OnceLock, PoisonError, RwLock};

use crate::SatError;

/// The named fault sites of the workspace.
pub mod site {
    /// Evaluated by a `fulllock serve` worker just before it launches a
    /// job's child process, with the worker index. `panic` kills the
    /// worker thread (the server must catch it and retry the job on
    /// another worker), `trigger` fails the launch spuriously (exercising
    /// the retry path), `delay:<ms>` slows the worker down.
    pub const SERVICE_WORKER: &str = "service.worker";
    /// Evaluated inside `fulllock_harness::persist::save_sealed` (context
    /// index 0) before the payload is written. `enospc`/`eio` fail the
    /// save with the corresponding error, `torn` writes a truncated
    /// envelope but reports success (the checksum catches it at the next
    /// load), `delay:<ms>` slows the write.
    pub const PERSIST_WRITE: &str = "persist.write";
    /// Evaluated just before the durability `fsync` of a sealed save
    /// (context index 0). `eio`/`enospc` fail the sync, `torn` *skips*
    /// it while reporting success (a lying fsync), `delay:<ms>` slows it.
    pub const PERSIST_SYNC: &str = "persist.sync";
    /// Evaluated by `ShardedQueue` when it seals a shard file, with the
    /// shard index. `enospc`/`eio` fail the shard write (the server must
    /// refuse the request with a typed error and quarantine the shard),
    /// `torn` tears the shard on disk while reporting success (the next
    /// open must fall back to the previous generation).
    pub const QUEUE_SEAL: &str = "queue.seal";
    /// Evaluated by the sweep executor on every lease-file write (claim,
    /// heartbeat renewal, steal), with the worker index. `enospc`/`eio`
    /// fail the write (the worker loses the claim and moves on), `torn`
    /// lands a truncated lease that other workers must treat as expired
    /// and stealable, `delay:<ms>` slows the lease protocol down so
    /// renewal races and steal windows actually open under test.
    pub const SWEEP_LEASE: &str = "sweep.lease";
    /// Evaluated by a sweep worker on every result-file write (the
    /// settle of a unit), with the worker index. `enospc`/`eio` fail the
    /// write before the record lands, `torn` links half a record while
    /// reporting success (the coordinator's fold must find the result
    /// file invalid, delete it and re-run the unit), `delay:<ms>` slows
    /// the write.
    pub const SWEEP_RESULT: &str = "sweep.result";
    /// Evaluated by a sweep worker just before it executes a claimed work
    /// unit, with the *unit* index (not the worker index), so chaos plans
    /// can target one grid point. `delay:<ms>` turns the unit into a
    /// straggler (exercising speculation), `panic` kills the worker while
    /// it holds the lease (exercising steal), `trigger` fails the unit
    /// execution spuriously.
    pub const SWEEP_UNIT: &str = "sweep.unit";
    /// Evaluated by `SimOracle::try_query` on every oracle query, with the
    /// query index. `flip` inverts one output bit of this response only (a
    /// transient upset — re-querying answers correctly), `stuck` forces
    /// one output bit to a constant wrong value (persists across
    /// re-queries), `drop` loses the response (the caller sees a transient
    /// error and must retry), `delay:<ms>` models a slow test harness.
    pub const ORACLE_QUERY: &str = "oracle.query";
}

/// What happens when a failpoint fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic at the site (the caller must contain it: a serve worker, a
    /// sweep worker, a chaos child).
    Panic,
    /// Drop the payload (an oracle response).
    Drop,
    /// Corrupt the payload (a chaos child's output).
    Corrupt,
    /// Trip the site's condition spuriously (a failed job launch, a failed
    /// sweep unit).
    Trigger,
    /// Sleep this many milliseconds before proceeding.
    DelayMs(u64),
    /// Fail an IO site as if the disk were full (`ENOSPC`).
    Enospc,
    /// Fail an IO site with a generic IO error (`EIO`).
    Eio,
    /// Tear the write: the file lands truncated mid-payload but the call
    /// reports success (a lying fsync / power-loss torn write).
    Torn,
    /// Flip one output bit of an oracle response (transient upset — only
    /// this response is wrong; a re-query answers correctly).
    Flip,
    /// Force one oracle output bit to a constant wrong value (stuck-at
    /// fault — every re-query answers the same wrong way).
    Stuck,
}

impl fmt::Display for FaultAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultAction::Panic => write!(f, "panic"),
            FaultAction::Drop => write!(f, "drop"),
            FaultAction::Corrupt => write!(f, "corrupt"),
            FaultAction::Trigger => write!(f, "trigger"),
            FaultAction::DelayMs(ms) => write!(f, "delay:{ms}"),
            FaultAction::Enospc => write!(f, "enospc"),
            FaultAction::Eio => write!(f, "eio"),
            FaultAction::Torn => write!(f, "torn"),
            FaultAction::Flip => write!(f, "flip"),
            FaultAction::Stuck => write!(f, "stuck"),
        }
    }
}

/// One armed fault: a site name, an optional context-index filter, an
/// action, and fire-count bookkeeping.
#[derive(Debug)]
pub struct Failpoint {
    /// Site name (one of the [`site`] constants, or any custom name).
    pub name: String,
    /// Restrict to one context index (e.g. a worker id); `None` matches
    /// all.
    pub index: Option<usize>,
    /// What to do when the point fires.
    pub action: FaultAction,
    /// Skip the first `skip` matching evaluations.
    pub skip: u64,
    /// Fire at most this many times; `None` is unlimited.
    pub limit: Option<u64>,
    // Only read by `check`, which is compiled under the feature.
    #[cfg_attr(not(feature = "failpoints"), allow(dead_code))]
    hits: AtomicU64,
}

impl Failpoint {
    /// A failpoint that always fires at `name` (optionally only for one
    /// context index).
    pub fn new(name: impl Into<String>, index: Option<usize>, action: FaultAction) -> Failpoint {
        Failpoint {
            name: name.into(),
            index,
            action,
            skip: 0,
            limit: None,
            hits: AtomicU64::new(0),
        }
    }

    /// Skips the first `skip` matching evaluations before firing.
    pub fn after(mut self, skip: u64) -> Failpoint {
        self.skip = skip;
        self
    }

    /// Fires at most `limit` times.
    pub fn times(mut self, limit: u64) -> Failpoint {
        self.limit = Some(limit);
        self
    }

    #[cfg(feature = "failpoints")]
    fn check(&self, name: &str, index: usize) -> Option<FaultAction> {
        if self.name != name || self.index.is_some_and(|i| i != index) {
            return None;
        }
        let seen = self.hits.fetch_add(1, Ordering::Relaxed);
        if seen < self.skip {
            return None;
        }
        if self.limit.is_some_and(|limit| seen - self.skip >= limit) {
            return None;
        }
        Some(self.action)
    }
}

impl fmt::Display for Failpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)?;
        if let Some(i) = self.index {
            write!(f, "#{i}")?;
        }
        write!(f, "={}", self.action)?;
        if self.skip > 0 {
            write!(f, "@{}", self.skip)?;
        }
        if let Some(limit) = self.limit {
            write!(f, "x{limit}")?;
        }
        Ok(())
    }
}

/// An ordered set of failpoints; the first matching point wins.
#[derive(Debug, Default)]
pub struct FaultPlan {
    points: Vec<Failpoint>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Adds a failpoint (builder style).
    pub fn with(mut self, point: Failpoint) -> FaultPlan {
        self.points.push(point);
        self
    }

    /// The armed failpoints, in evaluation order.
    pub fn points(&self) -> &[Failpoint] {
        &self.points
    }

    /// Whether the plan arms no failpoints.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    #[cfg(feature = "failpoints")]
    fn evaluate(&self, name: &str, index: usize) -> Option<FaultAction> {
        self.points.iter().find_map(|p| p.check(name, index))
    }
}

impl FromStr for FaultPlan {
    type Err = SatError;

    /// Parses the `FULLLOCK_FAILPOINTS` grammar (see the [module
    /// docs](self)). An empty or all-whitespace spec is an empty plan.
    fn from_str(spec: &str) -> Result<FaultPlan, SatError> {
        let mut plan = FaultPlan::new();
        for raw in spec.split(';') {
            let raw = raw.trim();
            if raw.is_empty() {
                continue;
            }
            plan.points.push(parse_point(raw)?);
        }
        Ok(plan)
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, p) in self.points.iter().enumerate() {
            if i > 0 {
                write!(f, ";")?;
            }
            write!(f, "{p}")?;
        }
        Ok(())
    }
}

fn bad_spec(raw: &str, why: &str) -> SatError {
    SatError::FaultSpec {
        spec: raw.to_string(),
        message: why.to_string(),
    }
}

fn parse_point(raw: &str) -> Result<Failpoint, SatError> {
    let (lhs, rhs) = raw
        .split_once('=')
        .ok_or_else(|| bad_spec(raw, "expected name=action"))?;
    let (name, index) = match lhs.split_once('#') {
        Some((name, idx)) => {
            let index: usize = idx
                .trim()
                .parse()
                .map_err(|_| bad_spec(raw, "index after '#' must be an integer"))?;
            (name.trim(), Some(index))
        }
        None => (lhs.trim(), None),
    };
    if name.is_empty() {
        return Err(bad_spec(raw, "empty failpoint name"));
    }

    // action [@skip] [xlimit], in that order.
    let mut rest = rhs.trim();
    let mut limit = None;
    if let Some(pos) = rest.rfind('x') {
        // Only treat a trailing `xN` as a limit (not the x in an action name
        // — no action contains 'x', but be strict about the digits).
        if rest[pos + 1..].chars().all(|c| c.is_ascii_digit()) && !rest[pos + 1..].is_empty() {
            limit = Some(
                rest[pos + 1..]
                    .parse::<u64>()
                    .map_err(|_| bad_spec(raw, "limit after 'x' out of range"))?,
            );
            rest = rest[..pos].trim();
        }
    }
    let mut skip = 0;
    if let Some((action_str, skip_str)) = rest.split_once('@') {
        skip = skip_str
            .trim()
            .parse::<u64>()
            .map_err(|_| bad_spec(raw, "skip count after '@' must be an integer"))?;
        rest = action_str.trim();
    }
    let action = match rest {
        "panic" => FaultAction::Panic,
        "drop" => FaultAction::Drop,
        "corrupt" => FaultAction::Corrupt,
        "trigger" => FaultAction::Trigger,
        "enospc" => FaultAction::Enospc,
        "eio" => FaultAction::Eio,
        "torn" => FaultAction::Torn,
        "flip" => FaultAction::Flip,
        "stuck" => FaultAction::Stuck,
        other => match other.strip_prefix("delay:") {
            Some(ms) => FaultAction::DelayMs(
                ms.trim()
                    .parse::<u64>()
                    .map_err(|_| bad_spec(raw, "delay milliseconds must be an integer"))?,
            ),
            None => {
                return Err(bad_spec(
                    raw,
                    "unknown action (expected panic|drop|corrupt|trigger|delay:<ms>|\
                     enospc|eio|torn|flip|stuck)",
                ))
            }
        },
    };
    let mut point = Failpoint::new(name, index, action);
    point.skip = skip;
    point.limit = limit;
    Ok(point)
}

/// The environment variable holding the ambient fault plan.
pub const ENV_VAR: &str = "FULLLOCK_FAILPOINTS";

#[cfg(feature = "failpoints")]
fn registry() -> &'static RwLock<Option<Arc<FaultPlan>>> {
    static REGISTRY: OnceLock<RwLock<Option<Arc<FaultPlan>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| RwLock::new(None))
}

#[cfg(feature = "failpoints")]
fn env_plan() -> &'static Option<Arc<FaultPlan>> {
    static ENV_PLAN: OnceLock<Option<Arc<FaultPlan>>> = OnceLock::new();
    ENV_PLAN.get_or_init(|| {
        let spec = std::env::var(ENV_VAR).ok()?;
        match spec.parse::<FaultPlan>() {
            Ok(plan) if !plan.is_empty() => Some(Arc::new(plan)),
            Ok(_) => None,
            Err(e) => {
                eprintln!("warning: ignoring invalid {ENV_VAR}: {e}");
                None
            }
        }
    })
}

/// Installs a plan process-wide, replacing any previously installed plan
/// and shadowing the `FULLLOCK_FAILPOINTS` environment plan until
/// [`clear`] is called. No-op (returning `false`) without the
/// `failpoints` feature.
pub fn install(plan: FaultPlan) -> bool {
    #[cfg(feature = "failpoints")]
    {
        *registry().write().unwrap_or_else(PoisonError::into_inner) = Some(Arc::new(plan));
        true
    }
    #[cfg(not(feature = "failpoints"))]
    {
        let _ = plan;
        false
    }
}

/// Removes the installed plan; evaluation falls back to the environment
/// plan (if any). No-op without the `failpoints` feature.
pub fn clear() {
    #[cfg(feature = "failpoints")]
    {
        *registry().write().unwrap_or_else(PoisonError::into_inner) = None;
    }
}

/// Evaluates the site `name` with context `index` against the active plan
/// (installed plan first, environment plan otherwise). Returns the action
/// to inject, or `None` to proceed normally.
///
/// Without the `failpoints` feature this is a constant `None` and the
/// whole call folds away.
#[cfg(feature = "failpoints")]
pub fn evaluate(name: &str, index: usize) -> Option<FaultAction> {
    let installed = registry()
        .read()
        .unwrap_or_else(PoisonError::into_inner)
        .clone();
    match installed {
        Some(plan) => plan.evaluate(name, index),
        None => env_plan().as_ref().and_then(|p| p.evaluate(name, index)),
    }
}

/// Evaluates the site `name` with context `index` against the active plan.
/// This build has the `failpoints` feature disabled, so the answer is
/// always `None` and the call folds away.
#[cfg(not(feature = "failpoints"))]
#[inline(always)]
pub fn evaluate(_name: &str, _index: usize) -> Option<FaultAction> {
    None
}

/// Sleeps for an injected delay (helper for `DelayMs` sites).
pub fn apply_delay(action: FaultAction) {
    if let FaultAction::DelayMs(ms) = action {
        std::thread::sleep(std::time::Duration::from_millis(ms));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_grammar() {
        let plan: FaultPlan = "service.worker#1=panic;campaign.child.run=corrupt@2x3;\
             sweep.unit=trigger;oracle.query#0=drop;service.worker#0=delay:250"
            .parse()
            .expect("valid spec");
        let pts = plan.points();
        assert_eq!(pts.len(), 5);
        assert_eq!(pts[0].name, site::SERVICE_WORKER);
        assert_eq!(pts[0].index, Some(1));
        assert_eq!(pts[0].action, FaultAction::Panic);
        assert_eq!(pts[1].skip, 2);
        assert_eq!(pts[1].limit, Some(3));
        assert_eq!(pts[1].action, FaultAction::Corrupt);
        assert_eq!(pts[2].name, site::SWEEP_UNIT);
        assert_eq!(pts[2].index, None);
        assert_eq!(pts[2].action, FaultAction::Trigger);
        assert_eq!(pts[3].name, site::ORACLE_QUERY);
        assert_eq!(pts[3].action, FaultAction::Drop);
        assert_eq!(pts[4].action, FaultAction::DelayMs(250));
    }

    #[test]
    fn parses_io_actions_and_sites() {
        let plan: FaultPlan = "persist.write=enospc@2x1;persist.sync=eio;queue.seal#3=torn"
            .parse()
            .expect("valid spec");
        let pts = plan.points();
        assert_eq!(pts.len(), 3);
        assert_eq!(pts[0].name, site::PERSIST_WRITE);
        assert_eq!(pts[0].action, FaultAction::Enospc);
        assert_eq!(pts[0].skip, 2);
        assert_eq!(pts[0].limit, Some(1));
        assert_eq!(pts[1].name, site::PERSIST_SYNC);
        assert_eq!(pts[1].action, FaultAction::Eio);
        assert_eq!(pts[2].name, site::QUEUE_SEAL);
        assert_eq!(pts[2].index, Some(3));
        assert_eq!(pts[2].action, FaultAction::Torn);
    }

    #[test]
    fn parses_sweep_sites() {
        let plan: FaultPlan = "sweep.lease=delay:50;sweep.result=torn@1x2;sweep.unit#7=delay:3000"
            .parse()
            .expect("valid spec");
        let pts = plan.points();
        assert_eq!(pts.len(), 3);
        assert_eq!(pts[0].name, site::SWEEP_LEASE);
        assert_eq!(pts[0].action, FaultAction::DelayMs(50));
        assert_eq!(pts[1].name, site::SWEEP_RESULT);
        assert_eq!(pts[1].action, FaultAction::Torn);
        assert_eq!(pts[1].skip, 1);
        assert_eq!(pts[1].limit, Some(2));
        assert_eq!(pts[2].name, site::SWEEP_UNIT);
        assert_eq!(pts[2].index, Some(7));
    }

    #[test]
    fn parses_oracle_sites() {
        let plan: FaultPlan =
            "oracle.query=flip@10x3;oracle.query#5=stuck;oracle.query=delay:25x10"
                .parse()
                .expect("valid spec");
        let pts = plan.points();
        assert_eq!(pts.len(), 3);
        assert_eq!(pts[0].name, site::ORACLE_QUERY);
        assert_eq!(pts[0].action, FaultAction::Flip);
        assert_eq!(pts[0].skip, 10);
        assert_eq!(pts[0].limit, Some(3));
        assert_eq!(pts[1].action, FaultAction::Stuck);
        assert_eq!(pts[1].index, Some(5));
        assert_eq!(pts[2].action, FaultAction::DelayMs(25));
        assert_eq!(pts[2].limit, Some(10));
    }

    #[test]
    fn empty_and_whitespace_specs_are_empty_plans() {
        assert!("".parse::<FaultPlan>().expect("empty ok").is_empty());
        assert!("  ; ;".parse::<FaultPlan>().expect("semis ok").is_empty());
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            "justname",
            "site=explode",
            "site#x=panic",
            "site=panic@abc",
            "site=delay:soon",
            "=panic",
        ] {
            let err = bad.parse::<FaultPlan>().expect_err(bad);
            assert!(matches!(err, SatError::FaultSpec { .. }), "{bad}: {err}");
        }
    }

    #[test]
    fn display_round_trips() {
        let spec = "a.b#2=panicx1;c.d=delay:10@3;e.f=enospc;g.h=torn@1;i.j=eiox2";
        let plan: FaultPlan = spec.parse().expect("valid");
        let printed = plan.to_string();
        let back: FaultPlan = printed.parse().expect("round trip");
        assert_eq!(back.to_string(), printed);
        assert_eq!(back.points().len(), 5);
        assert_eq!(back.points()[1].skip, 3);
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn skip_and_limit_windows() {
        let point = Failpoint::new("s", None, FaultAction::Drop)
            .after(1)
            .times(2);
        assert_eq!(point.check("s", 0), None); // skipped
        assert_eq!(point.check("s", 3), Some(FaultAction::Drop));
        assert_eq!(point.check("s", 0), Some(FaultAction::Drop));
        assert_eq!(point.check("s", 0), None); // limit spent
        assert_eq!(point.check("other", 0), None);
    }
}
