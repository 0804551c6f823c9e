//! The oracle-guided SAT attack (Subramanyan et al., HOST 2015).
//!
//! The attack maintains a *miter*: two copies of the locked circuit sharing
//! the data inputs `X` but carrying independent keys `K1`, `K2`, with the
//! constraint that some output differs. A model of the miter yields a
//! *Discriminating Input Pattern* (DIP): an input on which at least two
//! candidate keys disagree, so the oracle's answer on it rules at least one
//! of them out. The observed I/O pair is asserted for both key copies and
//! the loop repeats; when the miter goes UNSAT, no input distinguishes the
//! remaining keys and any key satisfying the accumulated constraints is
//! functionally correct.
//!
//! The instrumentation mirrors what the paper reports: iteration counts
//! (Tables 2 and 4), wall-clock time with a timeout, and the
//! clause/variable ratio of the growing formula (Fig 7).
//!
//! The engine is not tied to two key copies. Its base formula holds N
//! copies sharing `X`, and a miter relates them in one or more loop
//! phases, each gated by its own activation literal: the plain DIP miter
//! (two copies, one phase) drives the SAT attack and AppSAT, and the
//! 2-DIP miter (four copies, two phases) drives
//! [`DoubleDip`](crate::double_dip::DoubleDip). Every observation is
//! asserted on every key copy; key extraction switches every phase off.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use fulllock_locking::{Key, LockedCircuit};
use fulllock_netlist::topo;
use fulllock_sat::backend::{BackendSpec, SolveBackend};
use fulllock_sat::cdcl::{SolveLimits, SolveResult, SolverStats};
use fulllock_sat::tseytin::encode_xor2_lits;
use fulllock_sat::{CertifyError, CertifyLevel, Cnf, Lit, Var};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::checkpoint::{AttackCheckpoint, IoPair};
use crate::encode::{encode_locked, CircuitEncoder, EncodeStyle, SigVal};
use crate::oracle::{Oracle, OracleResilience, ResilientOracle};
use crate::report::{Attack, AttackDetails, AttackReport, RunResilience};
use crate::{cycsat, AttackError, Result};

pub use crate::report::AttackOutcome;

/// Configuration of a SAT attack run.
#[derive(Debug, Clone, Copy)]
pub struct SatAttackConfig {
    /// Wall-clock budget; `None` runs to completion. (The paper's testbed
    /// used 2×10⁶ s; scaled-down budgets reproduce the same TO patterns.)
    pub timeout: Option<Duration>,
    /// Iteration budget; `None` is unlimited.
    pub max_iterations: Option<u64>,
    /// Add CycSAT no-structural-cycle clauses even for acyclic netlists
    /// (they are generated automatically whenever the netlist is cyclic).
    pub force_cycsat: bool,
    /// The solver configuration that answers the miter queries.
    pub backend: BackendSpec,
    /// How much to trust the solver's answers (see
    /// [`CertifyLevel`]); a failed check aborts the run with
    /// [`AttackError::Certification`] instead of returning a result built
    /// on an uncertified answer.
    pub certify: CertifyLevel,
    /// Encode observed I/O pairs by constant-propagating the known DIP
    /// inputs and asserting only the key-dependent fanin cone, instead of
    /// appending two full circuit copies per iteration. Only applies to
    /// acyclic locked netlists (cyclic ones keep the full-copy + CycSAT
    /// path).
    pub cone_reduce: bool,
    /// Clause shapes the encoder emits (see [`EncodeStyle`]).
    pub encode_style: EncodeStyle,
    /// How the run survives a noisy, flaky, or rate-limited oracle:
    /// retry/vote/rate policy for every query, plus an UNSAT-diagnosis
    /// pass (a one-shot selector-gated re-solve over the recorded pairs)
    /// that quarantines poisoned answers instead of corrupting the
    /// verdict (see [`OracleResilience`]).
    pub resilience: OracleResilience,
}

impl Default for SatAttackConfig {
    /// The default reads [`CertifyLevel::from_env`] and
    /// [`OracleResilience::from_env`], so `FULLLOCK_CERTIFY=model` or
    /// `FULLLOCK_ORACLE_VOTES=3` configures a whole campaign without
    /// touching any call site.
    fn default() -> SatAttackConfig {
        SatAttackConfig {
            timeout: None,
            max_iterations: None,
            force_cycsat: false,
            backend: BackendSpec::default(),
            certify: CertifyLevel::from_env(),
            cone_reduce: true,
            encode_style: EncodeStyle::default(),
            resilience: OracleResilience::from_env(),
        }
    }
}

/// Result and instrumentation of a SAT attack run.
#[derive(Debug, Clone)]
pub struct SatAttackReport {
    /// Why the run ended.
    pub outcome: AttackOutcome,
    /// Completed DIP iterations.
    pub iterations: u64,
    /// Wall-clock time spent.
    pub elapsed: Duration,
    /// Oracle queries issued.
    pub oracle_queries: u64,
    /// Mean clause/variable ratio of the attack formula over iterations
    /// (Fig 7's metric).
    pub mean_clause_var_ratio: f64,
    /// Final formula size (variables, clauses).
    pub formula: (usize, usize),
    /// Solver statistics counters accumulated over the run.
    pub solver: SolverStats,
}

/// One step of the DIP loop (exposed for AppSAT).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// A DIP was found, queried, and asserted.
    Dip(Vec<bool>),
    /// No DIP remains: the key space is functionally collapsed.
    NoMoreDips,
    /// A resource limit was hit.
    Budget,
}

/// How the engine's key copies are related while it searches for
/// discriminating inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Miter {
    /// Two key copies whose outputs differ: the SAT attack's DIP, one
    /// phase.
    Dip,
    /// Four key copies: phase 1 searches 2-DIPs (outputs agree within
    /// the pairs {0, 1} and {2, 3}, differ across them, and each pair
    /// holds two distinct keys); phase 2 cleans up with plain DIPs
    /// between copies 0 and 2.
    DoubleDip,
}

impl Miter {
    fn key_copies(self) -> usize {
        match self {
            Miter::Dip => 2,
            Miter::DoubleDip => 4,
        }
    }

    /// Adds the miter over the copies' outputs `outs` and key variables
    /// `keys`; returns one activation literal per loop phase, in order.
    fn encode(self, cnf: &mut Cnf, outs: &[Vec<SigVal>], keys: &[Vec<Var>]) -> Vec<Lit> {
        let gated = |cnf: &mut Cnf, act: Lit, lits: &[Lit]| {
            cnf.add_clause(std::iter::once(!act).chain(lits.iter().copied()));
        };
        match self {
            Miter::Dip => {
                let diff = miter_diff_lits(cnf, &outs[0], &outs[1]);
                let act = Lit::positive(cnf.new_var());
                gated(cnf, act, &diff);
                vec![act]
            }
            Miter::DoubleDip => {
                let within = [
                    miter_diff_lits(cnf, &outs[0], &outs[1]),
                    miter_diff_lits(cnf, &outs[2], &outs[3]),
                ];
                let across = miter_diff_lits(cnf, &outs[0], &outs[2]);
                let act_double = Lit::positive(cnf.new_var());
                for &d in within.iter().flatten() {
                    cnf.add_clause([!act_double, !d]);
                }
                gated(cnf, act_double, &across);
                // Within-pair key disequality: without it a pair could be
                // one key twice, and the pair's elimination would remove
                // only one key.
                for (a, b) in [(0, 1), (2, 3)] {
                    let differ: Vec<Lit> = keys[a]
                        .iter()
                        .zip(&keys[b])
                        .map(|(&ka, &kb)| {
                            let d = Lit::positive(cnf.new_var());
                            encode_xor2_lits(cnf, d, Lit::positive(ka), Lit::positive(kb));
                            d
                        })
                        .collect();
                    gated(cnf, act_double, &differ);
                }
                let act_single = Lit::positive(cnf.new_var());
                gated(cnf, act_single, &across);
                vec![act_double, act_single]
            }
        }
    }
}

/// Upper bound on the healing rounds of one run: each UNSAT heal
/// quarantines at least one pair (else the run ends), so this only guards
/// against an oracle whose answers never stabilize.
const MAX_HEALING_ROUNDS: u32 = 32;

/// How [`SatAttack::settle`] checks a recovered key against the oracle:
/// on the all-zeros and all-ones corners plus `samples` random patterns
/// drawn from `seed`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct KeyCheck {
    pub(crate) samples: usize,
    pub(crate) seed: u64,
    /// Under guarding, take every answer by boosted majority vote.
    /// Otherwise each pattern is asked once under the engine's policy
    /// (one query at the default single vote), and under guarding a
    /// mismatch is re-queried by vote before it can convict the key.
    pub(crate) vote_every_pattern: bool,
}

/// The incremental SAT-attack engine. [`Attack::run`] on
/// [`SatAttackConfig`] is the one-call version; instantiate this
/// directly to drive the loop yourself (AppSAT does).
pub struct SatAttack<'a> {
    locked: &'a LockedCircuit,
    oracle: &'a dyn Oracle,
    /// The oracle behind the resilience decorator: every DIP query goes
    /// through retry / rate-limit / majority-vote per the configured
    /// [`OracleResilience`] policy.
    resilient: ResilientOracle<&'a dyn Oracle>,
    config: SatAttackConfig,
    solver: Box<dyn SolveBackend>,
    cnf: Cnf,
    /// The cone-reduced structure-aware encoder; `None` for cyclic
    /// netlists (and under `force_cycsat`), which keep the legacy
    /// full-copy encoding.
    encoder: Option<CircuitEncoder<'a>>,
    transferred: usize,
    x_vars: Vec<Var>,
    /// One key variable vector per key copy of the miter.
    key_vars: Vec<Vec<Var>>,
    miter: Miter,
    /// One activation literal per loop phase.
    acts: Vec<Lit>,
    /// The loop phase whose activation literal the DIP search assumes.
    phase: usize,
    start: Instant,
    deadline: Option<Instant>,
    /// DIPs found across all phases.
    iterations: u64,
    /// DIPs found after the first phase (Double-DIP's clean-up DIPs).
    cleanup_iterations: u64,
    ratio_sum: f64,
    ratio_samples: u64,
    /// Every asserted I/O pair, in order — the semantic state a checkpoint
    /// persists (the CNF is re-derived from these on resume, and again by
    /// [`rebuild_solver`](Self::rebuild_solver) after a quarantine).
    /// Quarantined pairs stay in the log as evidence but are never
    /// encoded.
    io_log: Vec<IoPair>,
    /// Suspect I/O pairs re-queried under majority vote while healing.
    oracle_requeries: u64,
    /// Transient errors absorbed by ad-hoc re-query probes (folded into
    /// the main resilient wrapper's counter when reporting).
    extra_retries: u64,
    /// Where to write snapshots after each DIP; `None` disables
    /// checkpointing.
    checkpoint_path: Option<PathBuf>,
    checkpoints_written: u64,
    checkpoint_failures: u64,
    /// Best candidate key known so far (set by AppSAT's probes; persisted
    /// in checkpoints).
    candidate_key: Option<Key>,
    /// Attack name written into (and required of) checkpoints, and named
    /// by the sealed report: `"sat"` unless a wrapping attack (AppSAT,
    /// Double-DIP) relabels the engine.
    checkpoint_label: &'static str,
    /// Instrumentation restored from a checkpoint: the pre-crash run's
    /// elapsed time, oracle queries, and solver counters, folded into
    /// reports.
    prior_elapsed: Duration,
    prior_oracle_queries: u64,
    prior_solver: SolverStats,
    /// Oracle query count at engine construction — the shared oracle may
    /// have served earlier runs in this process.
    oracle_baseline: u64,
    resumed_from: Option<u64>,
    /// First certification failure observed on any solve; sticky — once
    /// set, the run's result cannot be trusted and the envelope aborts.
    certify_failure: Option<CertifyError>,
}

impl std::fmt::Debug for SatAttack<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SatAttack")
            .field("iterations", &self.iterations)
            .field("formula_vars", &self.cnf.num_vars())
            .field("formula_clauses", &self.cnf.num_clauses())
            .finish_non_exhaustive()
    }
}

/// The part of the engine state that [`SatAttack::rebuild_solver`]
/// replaces wholesale: the base formula (miter + CycSAT constraints),
/// the cone encoder, the interface variables, the activation literals,
/// and a fresh backend with the interface frozen.
struct EngineBase<'a> {
    cnf: Cnf,
    encoder: Option<CircuitEncoder<'a>>,
    x_vars: Vec<Var>,
    key_vars: Vec<Vec<Var>>,
    acts: Vec<Lit>,
    solver: Box<dyn SolveBackend>,
}

impl<'a> SatAttack<'a> {
    /// Builds the base formula and solver shared by
    /// [`with_miter`](Self::with_miter) and
    /// [`rebuild_solver`](Self::rebuild_solver): one circuit copy per key
    /// copy, all sharing the data inputs, related by the miter, plus (for
    /// cyclic locked netlists) CycSAT no-cycle constraints on every key
    /// copy.
    fn build_base(
        locked: &'a LockedCircuit,
        config: &SatAttackConfig,
        miter: Miter,
    ) -> EngineBase<'a> {
        let mut cnf = Cnf::new();
        let x_vars: Vec<Var> = locked.data_inputs.iter().map(|_| cnf.new_var()).collect();
        let key_vars: Vec<Vec<Var>> = (0..miter.key_copies())
            .map(|_| locked.key_inputs.iter().map(|_| cnf.new_var()).collect())
            .collect();
        let needs_cycsat = config.force_cycsat || topo::is_cyclic(&locked.netlist);
        let encoder = if needs_cycsat {
            None
        } else {
            CircuitEncoder::new(locked, config.encode_style)
        };
        // The miter's phases are gated by activation literals so each
        // loop phase, and key extraction, picks its miter by assumption.
        let acts = {
            let outs: Vec<Vec<SigVal>> = key_vars
                .iter()
                .map(|kv| match &encoder {
                    Some(enc) => enc.encode_copy(&mut cnf, &x_vars, kv),
                    None => encode_locked(locked, &mut cnf, &x_vars, kv)
                        .output_vars
                        .iter()
                        .map(|&v| SigVal::L(Lit::positive(v)))
                        .collect(),
                })
                .collect();
            miter.encode(&mut cnf, &outs, &key_vars)
        };

        if needs_cycsat {
            for kv in &key_vars {
                cycsat::add_no_cycle_clauses(locked, &mut cnf, kv);
            }
        }

        // The interface variables stay live across every incremental
        // solve: freeze them so inprocessing never eliminates them.
        let mut solver = config.backend.create_certified(config.certify);
        for &v in x_vars.iter().chain(key_vars.iter().flatten()) {
            solver.freeze_var(v);
        }
        for act in &acts {
            solver.freeze_var(act.var());
        }

        EngineBase {
            cnf,
            encoder,
            x_vars,
            key_vars,
            acts,
            solver,
        }
    }

    /// Builds the attack engine: miter construction plus (for cyclic locked
    /// netlists) CycSAT no-cycle constraints on both key copies.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::InterfaceMismatch`] if the oracle's width
    /// differs from the locked circuit's data interface.
    pub fn new(
        locked: &'a LockedCircuit,
        oracle: &'a dyn Oracle,
        config: SatAttackConfig,
    ) -> Result<SatAttack<'a>> {
        Self::with_miter(locked, oracle, config, Miter::Dip)
    }

    /// [`new`](Self::new) with the given miter.
    pub(crate) fn with_miter(
        locked: &'a LockedCircuit,
        oracle: &'a dyn Oracle,
        config: SatAttackConfig,
        miter: Miter,
    ) -> Result<SatAttack<'a>> {
        if oracle.num_inputs() != locked.data_inputs.len() {
            return Err(AttackError::InterfaceMismatch {
                locked_inputs: locked.data_inputs.len(),
                oracle_inputs: oracle.num_inputs(),
            });
        }
        let base = Self::build_base(locked, &config, miter);

        let start = Instant::now();
        let mut attack = SatAttack {
            locked,
            oracle,
            resilient: ResilientOracle::new(oracle, config.resilience),
            config,
            solver: base.solver,
            cnf: base.cnf,
            encoder: base.encoder,
            transferred: 0,
            x_vars: base.x_vars,
            key_vars: base.key_vars,
            miter,
            acts: base.acts,
            phase: 0,
            start,
            deadline: config.timeout.map(|t| start + t),
            iterations: 0,
            cleanup_iterations: 0,
            ratio_sum: 0.0,
            ratio_samples: 0,
            io_log: Vec::new(),
            oracle_requeries: 0,
            extra_retries: 0,
            checkpoint_path: None,
            checkpoints_written: 0,
            checkpoint_failures: 0,
            candidate_key: None,
            checkpoint_label: "sat",
            prior_elapsed: Duration::ZERO,
            prior_oracle_queries: 0,
            prior_solver: SolverStats::default(),
            oracle_baseline: oracle.queries(),
            resumed_from: None,
            certify_failure: None,
        };
        attack.transfer_clauses();
        Ok(attack)
    }

    /// Enables crash-safe checkpointing: after every completed DIP a
    /// snapshot is written atomically to `path` (best effort — a failed
    /// write is counted, not fatal).
    pub fn set_checkpoint(&mut self, path: impl Into<PathBuf>) {
        self.checkpoint_path = Some(path.into());
    }

    /// Checkpoints this (fresh) engine to `path`. With `resume`, first
    /// restores the snapshot at `path` if there is one (a missing file
    /// starts fresh): the recorded I/O pairs are re-asserted without a
    /// single oracle query, and the counters and instrumentation pick up
    /// where the snapshot left off. [`Attack::run_checkpointed`] of every
    /// attack on this engine starts here.
    ///
    /// # Errors
    ///
    /// [`AttackError::CheckpointIo`] / [`AttackError::CheckpointFormat`]
    /// for an unreadable or incompatible checkpoint file.
    pub(crate) fn attach_checkpoint(&mut self, path: &Path, resume: bool) -> Result<()> {
        if resume && path.exists() {
            self.restore(&AttackCheckpoint::load(path)?)?;
        }
        self.set_checkpoint(path);
        Ok(())
    }

    /// Relabels the attack name written into (and required of)
    /// checkpoints. A wrapping attack that drives this engine (AppSAT)
    /// sets its own name so its checkpoints never resume a different
    /// attack. Must be called before [`restore`](Self::restore).
    pub fn set_checkpoint_label(&mut self, label: &'static str) {
        self.checkpoint_label = label;
    }

    /// Restores a loaded snapshot into this (fresh) engine. Validates the
    /// attack name and interface widths, replays the recorded I/O pairs
    /// through [`assert_io`](Self::assert_io) (no oracle queries), and
    /// adopts the snapshot's loop phase and counters.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::CheckpointFormat`] for an incompatible
    /// snapshot.
    pub fn restore(&mut self, snapshot: &AttackCheckpoint) -> Result<()> {
        snapshot.validate_for(
            self.checkpoint_label,
            self.locked.data_inputs.len(),
            self.locked.key_inputs.len(),
        )?;
        for pair in &snapshot.io_pairs {
            self.assert_pair(pair.clone());
        }
        self.iterations = snapshot.iterations + snapshot.cleanup_iterations;
        self.cleanup_iterations = snapshot.cleanup_iterations;
        self.phase = (snapshot.phase as usize)
            .saturating_sub(1)
            .min(self.acts.len() - 1);
        self.ratio_sum = snapshot.ratio_sum;
        self.ratio_samples = snapshot.ratio_samples;
        self.prior_elapsed = snapshot.elapsed;
        self.prior_oracle_queries = snapshot.oracle_queries;
        self.prior_solver = snapshot.solver;
        self.candidate_key = snapshot.candidate_key.clone();
        self.resumed_from = Some(self.iterations);
        Ok(())
    }

    /// Completed DIP iterations so far (including iterations restored from
    /// a checkpoint).
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// The part of [`iterations`](Self::iterations) found after the first
    /// loop phase.
    pub(crate) fn cleanup_iterations(&self) -> u64 {
        self.cleanup_iterations
    }

    /// Elapsed wall-clock time, including time restored from a checkpoint.
    pub fn elapsed(&self) -> Duration {
        self.prior_elapsed + self.start.elapsed()
    }

    /// Oracle queries attributable to this run: queries issued since
    /// construction plus queries restored from a checkpoint.
    pub fn oracle_queries(&self) -> u64 {
        self.prior_oracle_queries + (self.oracle.queries() - self.oracle_baseline)
    }

    /// The iteration count this engine resumed from, if it was restored
    /// from a checkpoint.
    pub fn resumed_from(&self) -> Option<u64> {
        self.resumed_from
    }

    /// Records the best candidate key known so far (persisted in
    /// checkpoints; AppSAT updates it after each settlement probe).
    pub fn set_candidate_key(&mut self, key: Key) {
        self.candidate_key = Some(key);
    }

    /// The best candidate key known so far (possibly restored from a
    /// checkpoint).
    pub fn candidate_key(&self) -> Option<&Key> {
        self.candidate_key.as_ref()
    }

    /// Builds a resumable snapshot of the current loop state.
    pub fn snapshot(&self) -> AttackCheckpoint {
        let mut cp = AttackCheckpoint::new(
            self.checkpoint_label,
            self.locked.data_inputs.len(),
            self.locked.key_inputs.len(),
        );
        // Phases are numbered from 1 in checkpoints; 0 marks a
        // single-phase loop.
        if self.acts.len() > 1 {
            cp.phase = self.phase as u64 + 1;
        }
        cp.iterations = self.iterations - self.cleanup_iterations;
        cp.cleanup_iterations = self.cleanup_iterations;
        cp.candidate_key = self.candidate_key.clone();
        cp.ratio_sum = self.ratio_sum;
        cp.ratio_samples = self.ratio_samples;
        cp.elapsed = self.elapsed();
        cp.oracle_queries = self.oracle_queries();
        cp.solver = self.solver_stats();
        cp.io_pairs = self.io_log.clone();
        cp
    }

    /// Writes a snapshot to the configured checkpoint path now (no-op
    /// without [`set_checkpoint`](Self::set_checkpoint)). Best effort: a
    /// failed write increments the failure counter and the run continues —
    /// losing a snapshot must never kill an attack that is making
    /// progress.
    pub fn checkpoint_now(&mut self) {
        let Some(path) = self.checkpoint_path.clone() else {
            return;
        };
        match self.snapshot().save(&path) {
            Ok(()) => self.checkpoints_written += 1,
            Err(_) => self.checkpoint_failures += 1,
        }
    }

    /// Fault-tolerance record of the run so far: checkpoint activity,
    /// oracle faults absorbed, and the resume origin.
    pub fn resilience(&self) -> RunResilience {
        RunResilience {
            resumed_from: self.resumed_from,
            checkpoints_written: self.checkpoints_written,
            checkpoint_failures: self.checkpoint_failures,
            oracle_retries: self.resilient.retries_absorbed() + self.extra_retries,
            oracle_requeries: self.oracle_requeries,
            quarantined_pairs: self.io_log.iter().filter(|p| p.quarantined).count() as u64,
        }
    }

    fn transfer_clauses(&mut self) {
        self.solver.ensure_vars(self.cnf.num_vars());
        for clause in &self.cnf.clauses()[self.transferred..] {
            self.solver.add_clause(clause);
        }
        self.transferred = self.cnf.num_clauses();
    }

    fn limits(&self) -> SolveLimits {
        let mut builder = SolveLimits::builder();
        if let Some(deadline) = self.deadline {
            builder = builder.deadline(deadline);
        }
        builder.build()
    }

    fn out_of_budget(&self) -> bool {
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return true;
            }
        }
        if let Some(max) = self.config.max_iterations {
            if self.iterations >= max {
                return true;
            }
        }
        false
    }

    /// The last model's value for `var`.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::IncompleteModel`] if the model has no value
    /// for `var` — fabricating a default would silently corrupt DIPs and
    /// keys.
    fn model_bit(&self, var: Var) -> Result<bool> {
        self.solver
            .model_value(var)
            .ok_or(AttackError::IncompleteModel { var: var.index() })
    }

    /// Runs one DIP iteration: search, oracle query, constraint assertion.
    /// The oracle query goes through the resilient layer (retry, rate
    /// limit, majority vote per the configured policy). When the current
    /// loop phase has no DIP left, the search moves on to the next phase;
    /// [`Step::NoMoreDips`] means the last phase has none.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::IncompleteModel`] if the solver claimed SAT
    /// with an incomplete model, and [`AttackError::Oracle`] if the
    /// oracle failed past the retry / deadline budget.
    pub fn step(&mut self) -> Result<Step> {
        loop {
            if self.out_of_budget() {
                return Ok(Step::Budget);
            }
            match self
                .solver
                .solve_limited(&[self.acts[self.phase]], self.limits())
            {
                SolveResult::Unknown => {
                    self.note_certify_failure();
                    return Ok(Step::Budget);
                }
                SolveResult::Unsat if self.phase + 1 < self.acts.len() => {
                    self.phase += 1;
                    // A resume must never fall back into a finished phase.
                    self.checkpoint_now();
                }
                SolveResult::Unsat => return Ok(Step::NoMoreDips),
                SolveResult::Sat => {
                    let dip: Vec<bool> = self
                        .x_vars
                        .iter()
                        .map(|&v| self.model_bit(v))
                        .collect::<Result<_>>()?;
                    let (response, votes) = self
                        .resilient
                        .query_voted(&dip)
                        .map_err(AttackError::Oracle)?;
                    let mut pair = IoPair::new(dip.clone(), response);
                    pair.votes = u64::from(votes);
                    self.assert_pair(pair);
                    self.iterations += 1;
                    if self.phase > 0 {
                        self.cleanup_iterations += 1;
                    }
                    self.ratio_sum += self.cnf.clause_to_variable_ratio();
                    self.ratio_samples += 1;
                    self.checkpoint_now();
                    return Ok(Step::Dip(dip));
                }
            }
        }
    }

    /// Asserts an observed I/O pair for every key copy (also used by
    /// AppSAT for its random-query reinforcement). Every pair is recorded
    /// in the checkpoint I/O log.
    ///
    /// On acyclic netlists (with [`SatAttackConfig::cone_reduce`] on, the
    /// default) the known inputs are constant-propagated and only the
    /// key-dependent fanin cone is encoded; otherwise a full circuit copy
    /// per key copy is appended as in the original attack.
    pub fn assert_io(&mut self, inputs: &[bool], outputs: &[bool]) {
        self.assert_pair(IoPair::new(inputs.to_vec(), outputs.to_vec()));
    }

    /// Asserts a recorded pair. Quarantined pairs (restored from a
    /// checkpoint or disabled by [`heal_unsat`](Self::heal_unsat)) stay
    /// in the log as evidence but are never encoded — so a `--resume`
    /// can never resurrect a poisoned constraint. The constraints go in
    /// ungated (identical to the historical trust-everything encoding,
    /// so guarding costs the DIP loop nothing); disabling a pair later
    /// is done by [`rebuild_solver`](Self::rebuild_solver).
    fn assert_pair(&mut self, pair: IoPair) {
        if !pair.quarantined {
            let cone = self.encoder.as_ref().filter(|_| self.config.cone_reduce);
            for key_vars in &self.key_vars {
                encode_pair(self.locked, cone, &mut self.cnf, &pair, key_vars);
            }
        }
        self.io_log.push(pair);
        self.transfer_clauses();
    }

    /// Extracts a key consistent with every constraint asserted so far
    /// (the miter is switched off via the activation literal). Returns
    /// `None` if the budget ran out or the constraints are unsatisfiable.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::IncompleteModel`] if the solver claimed SAT
    /// with an incomplete model.
    pub fn extract_key(&mut self) -> Result<Option<Key>> {
        self.solve_key().map(|(_, key)| key)
    }

    /// The key-extraction solve, also reporting the raw solver verdict so
    /// the self-healing loop can tell a genuine UNSAT (inconsistent
    /// constraints — an oracle lied) from a budget-induced Unknown.
    fn solve_key(&mut self) -> Result<(SolveResult, Option<Key>)> {
        let miters_off: Vec<Lit> = self.acts.iter().map(|&act| !act).collect();
        let result = self.solver.solve_limited(&miters_off, self.limits());
        match result {
            SolveResult::Sat => {
                let bits = self.key_vars[0]
                    .iter()
                    .map(|&v| self.model_bit(v))
                    .collect::<Result<Vec<bool>>>()?;
                Ok((result, Some(Key::from_bits(bits))))
            }
            _ => {
                self.note_certify_failure();
                Ok((result, None))
            }
        }
    }

    /// Re-queries a stimulus under a boosted majority vote (at least
    /// three repetitions) — the trusted probe the healing paths use to
    /// decide whether a recorded answer was poison.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::Oracle`] if the oracle failed past its
    /// retry / deadline budget.
    fn requery(&mut self, inputs: &[bool]) -> Result<(Vec<bool>, u32)> {
        let mut policy = self.config.resilience;
        policy.votes = policy.votes.max(3) | 1;
        let probe = ResilientOracle::new(self.oracle, policy);
        let answer = probe.query_voted(inputs).map_err(AttackError::Oracle);
        self.extra_retries += probe.retries_absorbed();
        answer
    }

    /// Rebuilds the incremental solver from the surviving ledger: a fresh
    /// base formula plus every non-quarantined recorded pair, re-derived
    /// without a single oracle query (the same replay a checkpoint resume
    /// performs). Quarantine needs this because the hot-path constraints
    /// are asserted ungated and cannot be retracted from an incremental
    /// solver. Solver counters accumulate across rebuilds.
    fn rebuild_solver(&mut self) {
        self.prior_solver.merge(&self.solver.stats());
        let base = Self::build_base(self.locked, &self.config, self.miter);
        self.cnf = base.cnf;
        self.encoder = base.encoder;
        self.x_vars = base.x_vars;
        self.key_vars = base.key_vars;
        self.acts = base.acts;
        self.solver = base.solver;
        self.transferred = 0;
        self.transfer_clauses();
        for pair in std::mem::take(&mut self.io_log) {
            self.assert_pair(pair);
        }
    }

    /// Finds which recorded pairs make the key space unsatisfiable, via a
    /// one-shot diagnosis solve: every active pair's constraint is encoded
    /// over a single key copy and gated behind a fresh selector literal,
    /// and the formula is solved assuming every selector. The solver's
    /// [failed-assumption core](SolveBackend::final_assumption_core) then
    /// names the conflicting subset. Falls back to suspecting every
    /// active pair when no usable core comes back (a backend without core
    /// support, or a budget-induced Unknown).
    ///
    /// The diagnosis formula is built on demand precisely so the DIP
    /// loop's own encoding stays selector-free (and therefore as fast as
    /// the unguarded attack): the gating cost is paid only when an UNSAT
    /// key space actually needs explaining.
    fn diagnose_suspects(&mut self) -> Vec<usize> {
        let mut cnf = Cnf::new();
        let k_vars: Vec<Var> = self
            .locked
            .key_inputs
            .iter()
            .map(|_| cnf.new_var())
            .collect();
        let needs_cycsat = self.config.force_cycsat || topo::is_cyclic(&self.locked.netlist);
        if needs_cycsat {
            cycsat::add_no_cycle_clauses(self.locked, &mut cnf, &k_vars);
        }
        let cone = self.encoder.as_ref().filter(|_| self.config.cone_reduce);
        let mut gated: Vec<(usize, Lit)> = Vec::new();
        for (i, pair) in self.io_log.iter().enumerate() {
            if pair.quarantined {
                continue;
            }
            let sel = Lit::positive(cnf.new_var());
            let start = cnf.num_clauses();
            encode_pair(self.locked, cone, &mut cnf, pair, &k_vars);
            cnf.gate_clauses_from(start, !sel);
            gated.push((i, sel));
        }
        let mut solver = self.config.backend.create_certified(self.config.certify);
        for &v in &k_vars {
            solver.freeze_var(v);
        }
        for &(_, sel) in &gated {
            solver.freeze_var(sel.var());
        }
        solver.ensure_vars(cnf.num_vars());
        for clause in cnf.clauses() {
            solver.add_clause(clause);
        }
        let assumps: Vec<Lit> = gated.iter().map(|&(_, sel)| sel).collect();
        let verdict = solver.solve_limited(&assumps, self.limits());
        if self.certify_failure.is_none() {
            self.certify_failure = solver.certify_failure();
        }
        if matches!(verdict, SolveResult::Unsat) {
            let core = solver.final_assumption_core();
            let suspects: Vec<usize> = gated
                .iter()
                .filter(|(_, sel)| core.contains(sel))
                .map(|&(i, _)| i)
                .collect();
            if !suspects.is_empty() {
                return suspects;
            }
        }
        gated.iter().map(|&(i, _)| i).collect()
    }

    /// Attempts to heal an UNSAT key space: diagnoses the conflicting
    /// pair subset ([`diagnose_suspects`](Self::diagnose_suspects)),
    /// re-queries each suspect under majority vote, quarantines every
    /// pair whose answer changed, rebuilds the solver from the surviving
    /// ledger, and re-asserts the trusted consensus in the poison's
    /// place. Returns whether anything changed (if not, the constraints
    /// are genuinely inconsistent and the run must report
    /// [`AttackOutcome::Inconclusive`]).
    fn heal_unsat(&mut self) -> Result<bool> {
        let suspects = self.diagnose_suspects();
        let mut changed = false;
        let mut replacements: Vec<IoPair> = Vec::new();
        for i in suspects {
            let inputs = self.io_log[i].inputs.clone();
            let (consensus, votes) = self.requery(&inputs)?;
            self.oracle_requeries += 1;
            if consensus == self.io_log[i].outputs {
                self.io_log[i].votes = self.io_log[i].votes.max(u64::from(votes));
                continue;
            }
            // The answer changed under majority vote: the recorded pair
            // was poison. Quarantine it and queue the trusted consensus
            // as a fresh pair.
            self.io_log[i].quarantined = true;
            changed = true;
            let mut replacement = IoPair::new(inputs, consensus);
            replacement.votes = u64::from(votes);
            replacements.push(replacement);
        }
        if changed {
            self.rebuild_solver();
            for replacement in replacements {
                self.assert_pair(replacement);
            }
            self.checkpoint_now();
        }
        Ok(changed)
    }

    /// Searches for a verification counterexample: a pattern where the
    /// locked circuit under `key` disagrees with the oracle. Every query
    /// goes through the resilient layer (retry, rate limit). With
    /// guarding on, only an answer taken under a boosted majority vote can
    /// convict the key, so a transient flip cannot fake a mismatch; the
    /// returned response is therefore trusted enough to re-assert.
    fn find_mismatch(
        &mut self,
        key: &Key,
        check: KeyCheck,
    ) -> Result<Option<(Vec<bool>, Vec<bool>)>> {
        let guard = self.config.resilience.guard;
        let vote_first = guard && check.vote_every_pattern;
        let cyclic = topo::is_cyclic(&self.locked.netlist);
        for x in check_patterns(self.locked.data_inputs.len(), check.samples, check.seed) {
            let want = if vote_first {
                self.requery(&x)?.0
            } else {
                self.resilient
                    .query_voted(&x)
                    .map_err(AttackError::Oracle)?
                    .0
            };
            if reproduces(self.locked, cyclic, &x, key, &want) {
                continue;
            }
            let want = if guard && !vote_first {
                self.requery(&x)?.0
            } else {
                want
            };
            if !reproduces(self.locked, cyclic, &x, key, &want) {
                return Ok(Some((x, want)));
            }
        }
        Ok(None)
    }

    /// Records the backend's certification failure, if any (sticky: the
    /// first failure wins). Called after every solve that can yield
    /// `Unknown`.
    fn note_certify_failure(&mut self) {
        if self.certify_failure.is_none() {
            self.certify_failure = self.solver.certify_failure();
        }
    }

    /// The certification failure that poisoned this run, if any.
    pub fn certify_failure(&self) -> Option<&CertifyError> {
        self.certify_failure.as_ref()
    }

    /// One oracle query through the resilient layer (retry, rate limit),
    /// for attacks that probe the oracle outside the DIP loop (AppSAT's
    /// settlement probes).
    ///
    /// # Errors
    ///
    /// [`AttackError::Oracle`] when the query fails past its retries.
    pub(crate) fn query(&self, x: &[bool]) -> Result<Vec<bool>> {
        self.resilient.try_query(x).map_err(AttackError::Oracle)
    }

    /// Verifies a candidate key against the oracle on random patterns
    /// (plus the all-zeros / all-ones corners). For cyclic locked netlists
    /// the outputs must settle *and* match. Queries go through the
    /// resilient layer; one that still fails fails the check.
    pub fn verify_key(&self, key: &Key, samples: usize, seed: u64) -> bool {
        let cyclic = topo::is_cyclic(&self.locked.netlist);
        check_patterns(self.locked.data_inputs.len(), samples, seed).all(|x| {
            self.resilient
                .try_query(&x)
                .is_ok_and(|want| reproduces(self.locked, cyclic, &x, key, &want))
        })
    }

    /// Lifetime SAT-solver counters, merged across the solvers a
    /// quarantine rebuilt and including counters restored from a
    /// checkpoint.
    pub fn solver_stats(&self) -> SolverStats {
        let mut stats = self.prior_solver;
        stats.merge(&self.solver.stats());
        stats
    }

    /// Runs the DIP loop to completion (or budget) and reports.
    ///
    /// With oracle guarding on (the default), the loop self-heals instead
    /// of trusting a poisoned ledger: a recovered key that fails
    /// verification triggers a trusted re-query reinforcement, and an
    /// UNSAT key space triggers assumption-core suspect extraction and
    /// quarantine — the run continues
    /// on the surviving constraints rather than silently reporting a
    /// wrong key or a spurious [`AttackOutcome::Inconclusive`].
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::IncompleteModel`] if the solver ever claimed
    /// SAT with an incomplete model, and [`AttackError::Oracle`] if the
    /// oracle failed past its retry / deadline budget.
    pub fn run(&mut self) -> Result<SatAttackReport> {
        let outcome = self.drive(KeyCheck {
            samples: 32,
            seed: 0xF17,
            vote_every_pattern: true,
        })?;
        Ok(self.report(outcome))
    }

    /// The loop behind [`run`](Self::run), self-healing as described
    /// there: DIP steps until none remains, then [`settle`](Self::settle).
    pub(crate) fn drive(&mut self, check: KeyCheck) -> Result<AttackOutcome> {
        let mut healing_rounds = 0u32;
        loop {
            match self.step()? {
                Step::Dip(_) => {}
                Step::NoMoreDips => {
                    if let Some(outcome) = self.settle(check, &mut healing_rounds)? {
                        return Ok(outcome);
                    }
                }
                Step::Budget => {
                    if self
                        .config
                        .max_iterations
                        .is_some_and(|m| self.iterations >= m)
                    {
                        return Ok(AttackOutcome::IterationLimit);
                    }
                    return Ok(AttackOutcome::Timeout);
                }
            }
        }
    }

    /// Ends a DIP loop whose last phase has no DIP left: extracts a key
    /// and runs `check` on it against the oracle. With guarding on, a key
    /// that fails the check reinforces the ledger with the trusted pair,
    /// and an empty key space is healed by quarantine
    /// ([`heal_unsat`](Self::heal_unsat)); both return `None`, and the
    /// caller's loop searches for DIPs again. `healing_rounds` counts
    /// those repairs across the caller's loop. An empty key space that
    /// healing cannot repair ends the run as
    /// [`AttackOutcome::Inconclusive`].
    pub(crate) fn settle(
        &mut self,
        check: KeyCheck,
        healing_rounds: &mut u32,
    ) -> Result<Option<AttackOutcome>> {
        let may_heal = self.config.resilience.guard && *healing_rounds < MAX_HEALING_ROUNDS;
        let (result, key) = self.solve_key()?;
        let Some(key) = key else {
            // Distinguish budget exhaustion from inconsistency.
            if self.out_of_budget() {
                return Ok(Some(AttackOutcome::Timeout));
            }
            if matches!(result, SolveResult::Unsat) && may_heal {
                *healing_rounds += 1;
                if self.heal_unsat()? {
                    return Ok(None);
                }
            }
            return Ok(Some(AttackOutcome::Inconclusive));
        };
        match self.find_mismatch(&key, check)? {
            None => Ok(Some(AttackOutcome::KeyRecovered {
                key,
                verified: true,
            })),
            Some((x, y)) if may_heal => {
                // The candidate is wrong on a trusted observation: some
                // asserted answer was poison. Reinforce with the trusted
                // pair and keep iterating — the next pass either finds a
                // better key or goes UNSAT and quarantines.
                *healing_rounds += 1;
                self.oracle_requeries += 1;
                self.assert_pair(IoPair::new(x, y));
                self.checkpoint_now();
                Ok(None)
            }
            Some(_) => Ok(Some(AttackOutcome::KeyRecovered {
                key,
                verified: false,
            })),
        }
    }

    /// Folds a finished run into the common envelope under the attack
    /// name the checkpoints carry, capturing the fault-tolerance record
    /// and certifying any recovered (or approximate) key with independent
    /// simulation + formal equivalence. The certificate queries through
    /// the resilient layer, so a dropped answer is retried.
    ///
    /// A certification failure on any solve aborts with
    /// [`AttackError::Certification`] — an uncertified answer never
    /// becomes a report.
    pub(crate) fn seal(
        &self,
        outcome: AttackOutcome,
        details: AttackDetails,
    ) -> Result<AttackReport> {
        if let Some(failure) = &self.certify_failure {
            return Err(AttackError::Certification(failure.clone()));
        }
        let mut report = AttackReport {
            attack: self.checkpoint_label,
            outcome,
            iterations: self.iterations,
            elapsed: self.elapsed(),
            oracle_queries: self.oracle_queries(),
            solver: self.solver_stats(),
            resilience: self.resilience(),
            key_certificate: None,
            details,
        };
        if let AttackOutcome::KeyRecovered { key, .. } | AttackOutcome::ApproximateKey { key, .. } =
            &report.outcome
        {
            report.key_certificate = Some(crate::certificate::certify_key(
                self.locked,
                &self.resilient,
                key,
                64,
                0xCE87,
            ));
        }
        Ok(report)
    }

    /// Builds a report for the given outcome using current instrumentation.
    pub fn report(&self, outcome: AttackOutcome) -> SatAttackReport {
        SatAttackReport {
            outcome,
            iterations: self.iterations,
            elapsed: self.elapsed(),
            oracle_queries: self.oracle_queries(),
            mean_clause_var_ratio: if self.ratio_samples == 0 {
                self.cnf.clause_to_variable_ratio()
            } else {
                self.ratio_sum / self.ratio_samples as f64
            },
            formula: (self.cnf.num_vars(), self.cnf.num_clauses()),
            solver: self.solver_stats(),
        }
    }
}

impl Attack for SatAttackConfig {
    fn name(&self) -> &'static str {
        "sat"
    }

    fn run(&self, locked: &LockedCircuit, oracle: &dyn Oracle) -> Result<AttackReport> {
        let mut engine = SatAttack::new(locked, oracle, *self)?;
        envelope(&mut engine)
    }

    fn run_checkpointed(
        &self,
        locked: &LockedCircuit,
        oracle: &dyn Oracle,
        checkpoint: &Path,
        resume: bool,
    ) -> Result<AttackReport> {
        let mut engine = SatAttack::new(locked, oracle, *self)?;
        engine.attach_checkpoint(checkpoint, resume)?;
        envelope(&mut engine)
    }
}

/// Runs the engine's DIP loop and folds the result into the common
/// envelope.
fn envelope(engine: &mut SatAttack<'_>) -> Result<AttackReport> {
    let report = engine.run()?;
    engine.seal(report.outcome.clone(), AttackDetails::Sat(report))
}

/// Asserts that the locked circuit maps `pair`'s inputs to its outputs
/// under the key variables `key_vars`: only the key-dependent cone when a
/// `cone` encoder is given, else a full circuit copy whose inputs and
/// outputs are fixed by unit clauses.
fn encode_pair(
    locked: &LockedCircuit,
    cone: Option<&CircuitEncoder<'_>>,
    cnf: &mut Cnf,
    pair: &IoPair,
    key_vars: &[Var],
) {
    if let Some(enc) = cone {
        enc.encode_observation(cnf, &pair.inputs, &pair.outputs, key_vars);
        return;
    }
    let data_vars: Vec<Var> = pair.inputs.iter().map(|_| cnf.new_var()).collect();
    let enc = encode_locked(locked, cnf, &data_vars, key_vars);
    for (&v, &bit) in data_vars.iter().zip(&pair.inputs) {
        cnf.add_clause([Lit::with_polarity(v, bit)]);
    }
    for (&v, &bit) in enc.output_vars.iter().zip(&pair.outputs) {
        cnf.add_clause([Lit::with_polarity(v, bit)]);
    }
}

/// The patterns a key check queries: the all-zeros and all-ones corners,
/// then `samples` random patterns drawn from `seed`.
fn check_patterns(width: usize, samples: usize, seed: u64) -> impl Iterator<Item = Vec<bool>> {
    let mut rng = StdRng::seed_from_u64(seed);
    [vec![false; width], vec![true; width]]
        .into_iter()
        .chain((0..samples).map(move |_| (0..width).map(|_| rng.gen_bool(0.5)).collect()))
}

/// Whether the locked circuit under `key` answers `want` on `x`; on a
/// `cyclic` netlist every output must also settle.
pub(crate) fn reproduces(
    locked: &LockedCircuit,
    cyclic: bool,
    x: &[bool],
    key: &Key,
    want: &[bool],
) -> bool {
    if cyclic {
        locked.eval_cyclic(x, key).is_ok_and(|eval| {
            eval.all_outputs_known()
                && eval
                    .outputs
                    .iter()
                    .zip(want)
                    .all(|(t, w)| t.to_bool() == Some(*w))
        })
    } else {
        locked.eval(x, key).is_ok_and(|got| got == want)
    }
}

/// Builds the miter difference literals from two output encodings
/// (SigVal-level, so constant-folded copies shrink the miter):
///
/// * identical values (equal constants or the same literal) contribute
///   nothing — that output cannot distinguish keys;
/// * a constant against a literal contributes the literal with the
///   polarity that makes it "differs";
/// * opposite values (differing constants or `l` vs `!l`) are always
///   different, encoded as a unit-true variable so the miter clause is
///   trivially satisfied;
/// * two independent literals get a fresh XOR-defined difference variable.
fn miter_diff_lits(cnf: &mut Cnf, out1: &[SigVal], out2: &[SigVal]) -> Vec<Lit> {
    let mut diff_lits = Vec::with_capacity(out1.len());
    let always_different = |cnf: &mut Cnf, diff_lits: &mut Vec<Lit>| {
        let t = Lit::positive(cnf.new_var());
        cnf.add_clause([t]);
        diff_lits.push(t);
    };
    for (&a, &b) in out1.iter().zip(out2) {
        match (a, b) {
            (SigVal::Const(ca), SigVal::Const(cb)) => {
                if ca != cb {
                    always_different(cnf, &mut diff_lits);
                }
            }
            (SigVal::Const(c), SigVal::L(l)) | (SigVal::L(l), SigVal::Const(c)) => {
                // Differs exactly when the literal disagrees with the
                // constant.
                diff_lits.push(if c { !l } else { l });
            }
            (SigVal::L(la), SigVal::L(lb)) => {
                if la == lb {
                    continue;
                }
                if la == !lb {
                    always_different(cnf, &mut diff_lits);
                    continue;
                }
                let d = cnf.new_var();
                fulllock_sat::tseytin::encode_xor2_lits(cnf, Lit::positive(d), la, lb);
                diff_lits.push(Lit::positive(d));
            }
        }
    }
    diff_lits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimOracle;
    use fulllock_locking::{
        FullLock, FullLockConfig, LockingScheme, LutLock, PlrSpec, Rll, SarLock, WireSelection,
    };
    use fulllock_netlist::random::{generate, RandomCircuitConfig};
    use fulllock_netlist::{Netlist, Simulator};

    fn run_sat(
        locked: &fulllock_locking::LockedCircuit,
        oracle: &dyn Oracle,
        config: SatAttackConfig,
    ) -> SatAttackReport {
        SatAttack::new(locked, oracle, config)
            .unwrap()
            .run()
            .unwrap()
    }

    fn host(gates: usize, seed: u64) -> Netlist {
        generate(RandomCircuitConfig {
            inputs: 12,
            outputs: 6,
            gates,
            max_fanin: 3,
            seed,
        })
        .unwrap()
    }

    /// The recovered key must make the locked circuit equivalent to the
    /// oracle (not necessarily equal to the inserted key).
    fn assert_functionally_correct(
        original: &Netlist,
        locked: &fulllock_locking::LockedCircuit,
        key: &Key,
    ) {
        let sim = Simulator::new(original).unwrap();
        let mut rng = StdRng::seed_from_u64(77);
        for _ in 0..64 {
            let x: Vec<bool> = (0..original.inputs().len())
                .map(|_| rng.gen_bool(0.5))
                .collect();
            assert_eq!(locked.eval(&x, key).unwrap(), sim.run(&x).unwrap());
        }
    }

    #[test]
    fn breaks_rll() {
        let original = host(120, 1);
        let locked = Rll::new(12, 3).lock(&original).unwrap();
        let oracle = SimOracle::new(&original).unwrap();
        let report = run_sat(&locked, &oracle, SatAttackConfig::default());
        match report.outcome {
            AttackOutcome::KeyRecovered { key, verified } => {
                assert!(verified);
                assert_functionally_correct(&original, &locked, &key);
            }
            other => panic!("expected key recovery, got {other:?}"),
        }
        assert!(report.iterations >= 1);
        assert!(report.oracle_queries >= report.iterations);
    }

    #[test]
    fn breaks_lutlock() {
        let original = host(120, 2);
        let locked = LutLock::new(6, 1).lock(&original).unwrap();
        let oracle = SimOracle::new(&original).unwrap();
        let report = run_sat(&locked, &oracle, SatAttackConfig::default());
        match report.outcome {
            AttackOutcome::KeyRecovered { key, verified } => {
                assert!(verified);
                assert_functionally_correct(&original, &locked, &key);
            }
            other => panic!("expected key recovery, got {other:?}"),
        }
    }

    #[test]
    fn breaks_small_fulllock() {
        // A 4×4 PLR is within easy reach of the attack — the paper's point
        // is the growth rate, not impossibility at toy sizes.
        let original = host(150, 3);
        let config = FullLockConfig {
            plrs: vec![PlrSpec::new(4)],
            selection: WireSelection::Acyclic,
            twist_probability: 0.5,
            seed: 4,
        };
        let locked = FullLock::new(config).lock(&original).unwrap();
        let oracle = SimOracle::new(&original).unwrap();
        let report = run_sat(&locked, &oracle, SatAttackConfig::default());
        match report.outcome {
            AttackOutcome::KeyRecovered { key, verified } => {
                assert!(verified);
                assert_functionally_correct(&original, &locked, &key);
            }
            other => panic!("expected key recovery, got {other:?}"),
        }
    }

    #[test]
    fn sarlock_needs_an_iteration_per_key() {
        // SARLock over m bits forces ~2^m iterations: with m = 4 the
        // attack should need on the order of 15 DIPs.
        let original = host(100, 5);
        let locked = SarLock::new(4, 2).lock(&original).unwrap();
        let oracle = SimOracle::new(&original).unwrap();
        let report = run_sat(&locked, &oracle, SatAttackConfig::default());
        assert!(report.outcome.is_broken());
        assert!(
            report.iterations >= 10,
            "SARLock fell in {} iterations",
            report.iterations
        );
    }

    #[test]
    fn timeout_reports_timeout() {
        let original = generate(RandomCircuitConfig {
            inputs: 16,
            outputs: 8,
            gates: 500,
            max_fanin: 3,
            seed: 6,
        })
        .unwrap();
        let config = FullLockConfig {
            plrs: vec![PlrSpec::new(16)],
            selection: WireSelection::Acyclic,
            twist_probability: 0.5,
            seed: 7,
        };
        let locked = FullLock::new(config).lock(&original).unwrap();
        let oracle = SimOracle::new(&original).unwrap();
        let report = run_sat(
            &locked,
            &oracle,
            SatAttackConfig {
                timeout: Some(Duration::from_millis(50)),
                ..Default::default()
            },
        );
        assert_eq!(report.outcome, AttackOutcome::Timeout);
    }

    #[test]
    fn iteration_limit_reports_limit() {
        let original = host(100, 8);
        let locked = SarLock::new(8, 3).lock(&original).unwrap();
        let oracle = SimOracle::new(&original).unwrap();
        let report = run_sat(
            &locked,
            &oracle,
            SatAttackConfig {
                max_iterations: Some(3),
                ..Default::default()
            },
        );
        assert_eq!(report.outcome, AttackOutcome::IterationLimit);
        assert_eq!(report.iterations, 3);
    }

    #[test]
    fn interface_mismatch_detected() {
        let original = host(100, 9);
        let other = host(100, 10);
        let locked = Rll::new(4, 0).lock(&original).unwrap();
        let bigger = generate(RandomCircuitConfig {
            inputs: 20,
            outputs: 6,
            gates: 100,
            max_fanin: 3,
            seed: 11,
        })
        .unwrap();
        let oracle = SimOracle::new(&bigger).unwrap();
        assert!(matches!(
            SatAttack::new(&locked, &oracle, SatAttackConfig::default()),
            Err(AttackError::InterfaceMismatch { .. })
        ));
        let _ = other;
    }

    #[test]
    fn ratio_instrumentation_is_populated() {
        let original = host(120, 12);
        let locked = Rll::new(8, 4).lock(&original).unwrap();
        let oracle = SimOracle::new(&original).unwrap();
        let report = run_sat(&locked, &oracle, SatAttackConfig::default());
        assert!(report.mean_clause_var_ratio > 1.0);
        assert!(report.formula.0 > 0 && report.formula.1 > 0);
    }
}
