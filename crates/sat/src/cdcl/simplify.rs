//! Inprocessing: formula simplification between restarts.
//!
//! Three bounded techniques run at decision level 0, triggered when the
//! problem database has grown noticeably (the DIP loop appends a key-cone
//! encoding per iteration) or a conflict budget has elapsed:
//!
//! * **subsumption / self-subsuming resolution** — a clause `C ⊆ D` kills
//!   `D`; if `C \ {l} ∪ {¬l} ⊆ D` then `¬l` is removed from `D`
//!   (strengthening);
//! * **bounded variable elimination (BVE)** — a variable whose positive ×
//!   negative occurrences resolve into no more clauses than were deleted
//!   is eliminated; its clauses are stored on an elimination stack so
//!   models can be reconstructed and the variable can be *restored* if a
//!   later clause or assumption mentions it;
//! * **clause vivification** — assume the negation of a clause's literals
//!   one by one; a conflict or forced literal proves a shorter clause,
//!   which replaces the original.
//!
//! A round simplifies what changed since the last one. The clause arena's
//! watermark marks where the last round ended, so every clause past it is
//! new: the caller's additions since then, and the BVE resolvents and
//! strengthened or vivified clauses the round itself allocates. A
//! growth-triggered round works on that delta: vivification tries only new
//! problem clauses, subsumption and self-subsuming resolution test only
//! pairs that include a new clause, and BVE considers only variables that
//! occur in a new problem clause. Root cleaning is always a full pass. A
//! conflict-triggered round first resets the watermark to the arena start,
//! because the learnt clauses of a conflict gap can prove more about old
//! clauses too; it then runs the same passes over the whole formula.
//!
//! Root cleaning also strips root-false literals from learnt clauses. The
//! shorter clause stays learnt, with the LBD and activity of the one it
//! replaces, so database reduction can still delete it and it never counts
//! toward the growth trigger.
//!
//! Interface variables the caller [`froze`](crate::cdcl::Solver::freeze_var)
//! (the attack freezes its `x`/`k1`/`k2`/`act` vars) and the current
//! assumptions are never eliminated, so incremental solving keeps working.
//!
//! Every change is DRAT-logged when proof logging is on: resolvents and
//! strengthened/vivified clauses are reverse-unit-propagation additions
//! *while their parents are still live*, so additions are pushed before
//! the parent deletions and the built-in forward checker accepts the
//! trace (`CertifyLevel::Proof` keeps verifying with inprocessing on).
//! Root literals are logged as units before a round may delete the
//! clauses that implied them (see `clear_root_reasons`).

use std::time::Instant;

use super::clause_db::{CRef, CREF_UNDEF};
use super::{SolveLimits, Solver, VAL_FALSE, VAL_TRUE, VAL_UNDEF};
use crate::{Lit, Var};

/// A variable is only considered for elimination when both occurrence
/// lists are at most this long.
const BVE_MAX_OCCS: usize = 10;
/// Resolvents longer than this abort the elimination of their variable.
const BVE_MAX_RESOLVENT: usize = 20;
/// Clauses longer than this are not used as subsumers (they can still be
/// subsumed).
const SUBSUME_MAX_SIZE: usize = 12;
/// Occurrence lists longer than this are skipped by the subsumption scan.
const SUBSUME_MAX_OCCS: usize = 400;
/// Only clauses with a size in this range are vivification candidates.
const VIVIFY_SIZE: std::ops::RangeInclusive<usize> = 3..=12;
/// Unit propagations one inprocessing round may spend on vivification.
const VIVIFY_BUDGET: u64 = 200_000;
/// Conflicts between conflict-triggered inprocessing rounds.
const INPROCESS_CONFLICT_GAP: u64 = 20_000;
/// How many pass iterations run between deadline polls — each
/// pass stays abortable so inprocessing never overshoots a wall-clock
/// budget by more than one bounded operation.
const LIMIT_POLL_INTERVAL: usize = 64;

/// Per-solver simplification state: which variables are frozen or
/// eliminated, the elimination stack for model reconstruction and
/// restore-on-reuse, and the triggers of the next round.
#[derive(Debug, Default)]
pub(super) struct SimpState {
    /// Variables the caller declared interface/assumption variables:
    /// never eliminated.
    pub(super) frozen: Vec<bool>,
    /// Variables currently eliminated by BVE.
    pub(super) eliminated: Vec<bool>,
    /// `(var, its deleted problem clauses)` in elimination order — the
    /// data both model reconstruction and restoration replay.
    pub(super) elim_stack: Vec<(Var, Vec<Vec<Lit>>)>,
    /// Problem-clause count after the last round (growth trigger).
    pub(super) last_problem: usize,
    /// `stats.conflicts` after the last round (conflict trigger).
    pub(super) last_conflicts: u64,
    /// Root trail literals already logged as DRAT units (the root trail
    /// only grows).
    pub(super) units_logged: usize,
}

impl Solver {
    /// Declares `var` an interface variable: inprocessing will never
    /// eliminate it, so clauses and assumptions mentioning it stay cheap
    /// to add between solves.
    pub fn freeze_var(&mut self, var: Var) {
        self.ensure_vars(var.index() + 1);
        self.simp.frozen[var.index()] = true;
    }

    /// Runs an inprocessing round if the triggers say it is worth it.
    /// Must be called at decision level 0. The limits bound the round
    /// itself: every pass polls the deadline and aborts early
    /// (soundly — each operation is individually complete).
    pub(super) fn maybe_inprocess(&mut self, assumptions: &[Lit], limits: &SolveLimits) {
        if !self.config.inprocess || !self.ok {
            return;
        }
        if self.deadline_hit(limits) {
            return;
        }
        let problem = self.db.num_problem();
        let grown = problem >= self.simp.last_problem + self.simp.last_problem / 5 + 100;
        let conflicted = self.stats.conflicts >= self.simp.last_conflicts + INPROCESS_CONFLICT_GAP;
        if grown || conflicted {
            if conflicted {
                // The learnts of a conflict gap can prove more about old
                // clauses too: this round treats every clause as new.
                self.db.reset_watermark();
            }
            // Simplification must never starve search: the round gets at
            // most half of whatever wall-clock remains.
            let round_limits = match limits.deadline() {
                Some(d) => {
                    let now = std::time::Instant::now();
                    let mut bounded = limits.clone();
                    bounded.deadline = Some(now + (d - now) / 2);
                    bounded
                }
                None => limits.clone(),
            };
            let start = Instant::now();
            self.inprocess(assumptions, &round_limits);
            self.stats.inprocess_ns += start.elapsed().as_nanos() as u64;
        }
    }

    /// One inprocessing round: clean, subsume/strengthen, eliminate,
    /// vivify, then move the watermark past everything it saw and compact
    /// if enough of the arena is dead.
    fn inprocess(&mut self, assumptions: &[Lit], limits: &SolveLimits) {
        debug_assert_eq!(self.decision_level(), 0);
        if self.propagate().is_some() {
            self.ok = false;
            self.log_proof_add(&[]);
            return;
        }
        self.stats.inprocessings += 1;
        // Deleting a clause that forced a root literal must leave no
        // dangling reason behind (conflict analysis never dereferences
        // level-0 reasons, but database compaction remaps every
        // non-sentinel one).
        self.clear_root_reasons();
        let mut temp_frozen = Vec::new();
        for &a in assumptions {
            let v = a.var().index();
            if !self.simp.frozen[v] {
                self.simp.frozen[v] = true;
                temp_frozen.push(v);
            }
        }

        self.clean_root_clauses(limits);
        if self.ok {
            self.subsume_and_strengthen(limits);
        }
        if self.ok {
            self.eliminate_vars(limits);
        }
        if self.ok {
            self.vivify_clauses(limits);
        }

        for v in temp_frozen {
            self.simp.frozen[v] = false;
        }
        self.simp.last_problem = self.db.num_problem();
        self.simp.last_conflicts = self.stats.conflicts;
        self.clear_root_reasons();
        self.db.advance_watermark();
        if self.db.wasted_fraction() > 0.25 {
            self.db.prune_deleted_learnts();
            self.compact_db();
        }
    }

    /// Root-assigned literals need no reasons (analysis stops at level 0);
    /// clearing them lets inprocessing delete any clause. Each root literal
    /// not yet in the DRAT trace is first logged as a unit, while its
    /// reason is still live: once the round deletes that reason (a clause
    /// the literal satisfies), the checker could no longer derive it.
    fn clear_root_reasons(&mut self) {
        debug_assert_eq!(self.decision_level(), 0);
        for i in self.simp.units_logged..self.trail.len() {
            let unit = self.trail[i];
            self.log_proof_add(&[unit]);
        }
        self.simp.units_logged = self.trail.len();
        for i in 0..self.trail.len() {
            let v = self.trail[i].var().index();
            self.reason[v] = CREF_UNDEF;
        }
    }

    /// DRAT-logs and marks a clause deleted.
    fn remove_clause(&mut self, c: CRef) {
        if self.proof.is_some() {
            let lits: Vec<Lit> = self.db.lits(c).collect();
            if let Some(trace) = &mut self.proof {
                trace.push_delete(lits);
            }
        }
        self.db.mark_deleted(c);
    }

    /// Replaces clause `c` by the (strictly stronger) `new_lits`: the new
    /// clause is DRAT-logged *before* the old one is deleted, so it is
    /// checkable while its parent is live. It keeps `c`'s learnt flag, LBD
    /// and activity.
    fn replace_clause(&mut self, c: CRef, new_lits: &[Lit]) {
        debug_assert!(!new_lits.is_empty());
        let (learnt, lbd, activity) = (self.db.is_learnt(c), self.db.lbd(c), self.db.activity(c));
        self.log_proof_add(new_lits);
        self.remove_clause(c);
        if let Some(nc) = self.materialize_derived(new_lits, learnt) {
            self.db.set_lbd(nc, lbd);
            self.db.set_activity(nc, activity);
        }
    }

    /// Installs a derived clause that was already DRAT-logged, first
    /// re-simplifying it against the *current* root assignment — literals
    /// may have been fixed since the clause was computed, and attaching a
    /// watch to an already-propagated false literal would make the clause
    /// invisible to the search. A unit is enqueued and propagated; a
    /// root-satisfied clause is skipped entirely. Returns the new clause
    /// reference when one was allocated.
    fn materialize_derived(&mut self, lits: &[Lit], learnt: bool) -> Option<CRef> {
        let mut simplified: Vec<Lit> = Vec::new();
        for &l in lits {
            match self.assigns[l.code()] {
                VAL_TRUE => return None, // root-satisfied
                VAL_FALSE => {}
                _ => simplified.push(l),
            }
        }
        if simplified.len() != lits.len() && !simplified.is_empty() {
            self.log_proof_add(&simplified);
        }
        match simplified.len() {
            0 => {
                self.ok = false;
                self.log_proof_add(&[]);
                None
            }
            1 => {
                if !self.enqueue(simplified[0], CREF_UNDEF) || self.propagate().is_some() {
                    self.ok = false;
                    self.log_proof_add(&[]);
                } else {
                    self.clear_root_reasons();
                }
                None
            }
            _ => {
                let nc = self.db.alloc(&simplified, learnt);
                self.attach_clause(nc);
                Some(nc)
            }
        }
    }

    /// Deletes root-satisfied clauses and strips root-false literals: the
    /// cone-reduced DIP assertions pin many interface literals at the
    /// root, and this pass folds those constants into the database. It
    /// visits every clause, problem and learnt, old and new: a new root
    /// literal can touch any of them.
    fn clean_root_clauses(&mut self, limits: &SolveLimits) {
        let crefs: Vec<CRef> = self.db.iter_crefs().collect();
        for (i, c) in crefs.into_iter().enumerate() {
            if !self.ok {
                return;
            }
            if i % LIMIT_POLL_INTERVAL == 0 && self.deadline_hit(limits) {
                return;
            }
            if self.db.is_deleted(c) {
                continue;
            }
            let mut satisfied = false;
            let mut num_false = 0usize;
            for l in self.db.lits(c) {
                match self.assigns[l.code()] {
                    VAL_TRUE => {
                        satisfied = true;
                        break;
                    }
                    VAL_FALSE => num_false += 1,
                    _ => {}
                }
            }
            if satisfied {
                self.remove_clause(c);
            } else if num_false > 0 {
                let new_lits: Vec<Lit> = self
                    .db
                    .lits(c)
                    .filter(|l| self.assigns[l.code()] != VAL_FALSE)
                    .collect();
                debug_assert!(
                    !new_lits.is_empty(),
                    "all-false clause survived propagation"
                );
                self.replace_clause(c, &new_lits);
                self.stats.clauses_strengthened += 1;
            }
        }
    }

    /// 64-bit occurrence signature for the subset pre-check: a literal of
    /// `C` missing from `D`'s signature proves `C ⊄ D` in one AND.
    fn signature(&self, c: CRef) -> u64 {
        self.db
            .lits(c)
            .fold(0u64, |sig, l| sig | 1u64 << (l.code() % 64))
    }

    /// Whether every literal of `c` occurs in `d`.
    fn is_subset(&self, c: CRef, d: CRef) -> bool {
        self.db.lits(c).all(|cl| self.db.lits(d).any(|dl| dl == cl))
    }

    /// Whether every literal of `c` except `skip` occurs in `d` (used with
    /// `skip`'s negation known to be in `d`: self-subsuming resolution).
    fn is_subset_except(&self, c: CRef, d: CRef, skip: Lit) -> bool {
        self.db
            .lits(c)
            .filter(|&cl| cl != skip)
            .all(|cl| self.db.lits(d).any(|dl| dl == cl))
    }

    /// Forward subsumption and self-subsuming resolution over the problem
    /// clauses, bounded by occurrence-list length. Only pairs that include
    /// a new clause are tested: a new clause meets every clause, an old
    /// one only the new ones.
    fn subsume_and_strengthen(&mut self, limits: &SolveLimits) {
        let problem: Vec<CRef> = self
            .db
            .iter_crefs()
            .filter(|&c| !self.db.is_learnt(c))
            .collect();
        let mut occ: Vec<Vec<CRef>> = vec![Vec::new(); 2 * self.num_vars()];
        let mut occ_new: Vec<Vec<CRef>> = vec![Vec::new(); 2 * self.num_vars()];
        for &c in &problem {
            let new = self.db.is_new(c);
            for l in self.db.lits(c) {
                occ[l.code()].push(c);
                if new {
                    occ_new[l.code()].push(c);
                }
            }
        }
        // An old clause meets a new one only through a shared variable.
        let mut crefs: Vec<CRef> = problem
            .into_iter()
            .filter(|&c| {
                self.db.is_new(c)
                    || self
                        .db
                        .lits(c)
                        .any(|l| !occ_new[l.code()].is_empty() || !occ_new[(!l).code()].is_empty())
            })
            .collect();
        crefs.sort_by_key(|&c| self.db.size(c));
        for (i, &c) in crefs.iter().enumerate() {
            if !self.ok {
                return;
            }
            if i % LIMIT_POLL_INTERVAL == 0 && self.deadline_hit(limits) {
                return;
            }
            if self.db.is_deleted(c) || self.db.size(c) > SUBSUME_MAX_SIZE {
                continue;
            }
            let sig = self.signature(c);
            let partners = if self.db.is_new(c) { &occ } else { &occ_new };
            // Scan the shortest occurrence list for clauses C subsumes.
            let best = self
                .db
                .lits(c)
                .min_by_key(|l| occ[l.code()].len())
                .expect("clauses are non-empty");
            if occ[best.code()].len() <= SUBSUME_MAX_OCCS {
                for &d in &partners[best.code()] {
                    if d == c || self.db.is_deleted(d) || self.db.size(d) < self.db.size(c) {
                        continue;
                    }
                    if sig & !self.signature(d) == 0 && self.is_subset(c, d) {
                        self.remove_clause(d);
                        self.stats.clauses_subsumed += 1;
                    }
                }
            }
            // Self-subsuming resolution: C \ {l} ∪ {¬l} ⊆ D removes ¬l
            // from D (the resolvent of C and D on l subsumes D).
            let lits: Vec<Lit> = self.db.lits(c).collect();
            for &l in &lits {
                if self.db.is_deleted(c) {
                    break;
                }
                let sig_rest = sig & !(1u64 << (l.code() % 64));
                if occ[(!l).code()].len() > SUBSUME_MAX_OCCS {
                    continue;
                }
                for &d in &partners[(!l).code()] {
                    if d == c || self.db.is_deleted(d) || self.db.size(d) < self.db.size(c) {
                        continue;
                    }
                    if sig_rest & !self.signature(d) != 0 || !self.is_subset_except(c, d, l) {
                        continue;
                    }
                    let stronger: Vec<Lit> = self.db.lits(d).filter(|&dl| dl != !l).collect();
                    if stronger.is_empty() {
                        continue; // C = {l}, D = {¬l}: root conflict found elsewhere
                    }
                    self.replace_clause(d, &stronger);
                    self.stats.clauses_strengthened += 1;
                    if !self.ok {
                        return;
                    }
                }
            }
        }
    }

    /// Bounded variable elimination. A candidate must occur in a new
    /// problem clause, be unfrozen and unassigned, have short occurrence
    /// lists, and its pairwise resolvents must not outnumber the clauses
    /// they replace. The variable's problem clauses move to the
    /// elimination stack; learnt clauses mentioning it are simply deleted
    /// (they are implied).
    fn eliminate_vars(&mut self, limits: &SolveLimits) {
        // Occurrence lists over every live clause, and the candidates,
        // both maintained as resolvents (new problem clauses) are added so
        // later candidates see them.
        let mut occ: Vec<Vec<CRef>> = vec![Vec::new(); 2 * self.num_vars()];
        let mut candidate = vec![false; self.num_vars()];
        let crefs: Vec<CRef> = self.db.iter_crefs().collect();
        for &c in &crefs {
            let new_problem = self.db.is_new(c) && !self.db.is_learnt(c);
            for l in self.db.lits(c) {
                occ[l.code()].push(c);
                candidate[l.var().index()] |= new_problem;
            }
        }
        for v in 0..self.num_vars() {
            if !self.ok {
                return;
            }
            if v % LIMIT_POLL_INTERVAL == 0 && self.deadline_hit(limits) {
                break;
            }
            if !candidate[v]
                || self.simp.frozen[v]
                || self.simp.eliminated[v]
                || self.assigns[2 * v] != VAL_UNDEF
            {
                continue;
            }
            let pos_lit = Lit::positive(Var::new(v));
            let live = |db: &super::ClauseDb, list: &[CRef]| -> Vec<CRef> {
                list.iter()
                    .copied()
                    .filter(|&c| !db.is_deleted(c))
                    .collect()
            };
            let pos = live(&self.db, &occ[pos_lit.code()]);
            let neg = live(&self.db, &occ[(!pos_lit).code()]);
            // Skip unused variables and oversized occurrence lists; only
            // problem clauses gate the decision (learnts are deleted, not
            // resolved).
            let pos_p: Vec<CRef> = pos
                .iter()
                .copied()
                .filter(|&c| !self.db.is_learnt(c))
                .collect();
            let neg_p: Vec<CRef> = neg
                .iter()
                .copied()
                .filter(|&c| !self.db.is_learnt(c))
                .collect();
            if pos_p.is_empty() && neg_p.is_empty() {
                continue;
            }
            if pos_p.len() > BVE_MAX_OCCS || neg_p.len() > BVE_MAX_OCCS {
                continue;
            }
            let Some(resolvents) = self.bounded_resolvents(&pos_p, &neg_p, pos_lit) else {
                continue;
            };
            // Commit: log and materialize every resolvent while the
            // parents are live (they make each resolvent RUP), then delete
            // the parents and every learnt mentioning v.
            for r in &resolvents {
                self.log_proof_add(r);
            }
            for r in &resolvents {
                if let Some(nc) = self.materialize_derived(r, false) {
                    for l in self.db.lits(nc).collect::<Vec<_>>() {
                        occ[l.code()].push(nc);
                        candidate[l.var().index()] = true;
                    }
                }
                if !self.ok {
                    return;
                }
            }
            if self.assigns[2 * v] != VAL_UNDEF {
                // A unit resolvent's propagation fixed v through a still
                // live parent: abort the elimination (the resolvents stay,
                // they are implied; the next clean pass folds the parents).
                continue;
            }
            let stored: Vec<Vec<Lit>> = pos_p
                .iter()
                .chain(&neg_p)
                .map(|&c| self.db.lits(c).collect())
                .collect();
            for &c in pos_p.iter().chain(&neg_p) {
                self.remove_clause(c);
            }
            for &c in pos.iter().chain(&neg) {
                if self.db.is_learnt(c) && !self.db.is_deleted(c) {
                    self.remove_clause(c);
                    self.stats.deleted_learnts += 1;
                }
            }
            self.simp.eliminated[v] = true;
            self.simp.elim_stack.push((Var::new(v), stored));
            self.stats.vars_eliminated += 1;
        }
        self.db.prune_deleted_learnts();
    }

    /// The non-tautological pairwise resolvents of `pos` × `neg` on `v`,
    /// or `None` when they exceed the replaced clause count, a resolvent
    /// is too long, or a resolvent is empty (handled by the caller's
    /// propagation finding the root conflict on the units instead — an
    /// empty resolvent means both parents are units, which propagation
    /// has already resolved).
    fn bounded_resolvents(
        &self,
        pos: &[CRef],
        neg: &[CRef],
        pos_lit: Lit,
    ) -> Option<Vec<Vec<Lit>>> {
        let limit = pos.len() + neg.len();
        let mut resolvents: Vec<Vec<Lit>> = Vec::new();
        for &cp in pos {
            for &cn in neg {
                let mut r: Vec<Lit> = self.db.lits(cp).filter(|&l| l != pos_lit).collect();
                let before = r.len();
                for l in self.db.lits(cn).filter(|&l| l != !pos_lit) {
                    if r[..before].contains(&!l) {
                        r.clear();
                        break; // tautology: drop this resolvent
                    }
                    if !r[..before].contains(&l) {
                        r.push(l);
                    }
                }
                if r.is_empty() && before == 0 {
                    return None; // both parents units: a root conflict, not ours to handle
                }
                if r.is_empty() {
                    continue; // tautology
                }
                if r.len() > BVE_MAX_RESOLVENT {
                    return None;
                }
                resolvents.push(r);
                if resolvents.len() > limit {
                    return None;
                }
            }
        }
        Some(resolvents)
    }

    /// Clause vivification: for each new problem clause, assume the
    /// negations of its literals left to right at a throwaway decision
    /// level; a conflict or a forced literal proves a shorter clause.
    fn vivify_clauses(&mut self, limits: &SolveLimits) {
        let mut budget = VIVIFY_BUDGET;
        let crefs: Vec<CRef> = self
            .db
            .iter_new_crefs()
            .filter(|&c| !self.db.is_learnt(c) && VIVIFY_SIZE.contains(&self.db.size(c)))
            .collect();
        for c in crefs {
            if budget == 0 || !self.ok {
                break;
            }
            // Vivification propagates per candidate: poll every clause so
            // a tight wall-clock budget cuts the pass short.
            if self.deadline_hit(limits) {
                break;
            }
            if self.db.is_deleted(c) {
                continue;
            }
            let lits: Vec<Lit> = self.db.lits(c).collect();
            if lits.iter().any(|l| self.assigns[l.code()] != VAL_UNDEF) {
                continue; // a root-assigned literal: next clean pass's job
            }
            debug_assert_eq!(self.decision_level(), 0);
            self.trail_lim.push(self.trail.len());
            let mut kept: Vec<Lit> = Vec::new();
            for &l in &lits {
                match self.assigns[l.code()] {
                    VAL_TRUE => {
                        // ¬kept propagated l: (kept ∨ l) is implied.
                        kept.push(l);
                        break;
                    }
                    VAL_FALSE => continue, // ¬l is implied by ¬kept: drop l
                    _ => {}
                }
                kept.push(l);
                let enq = self.enqueue(!l, CREF_UNDEF);
                debug_assert!(enq, "undef literal must enqueue");
                let before = self.stats.propagations;
                let conflict = self.propagate().is_some();
                budget = budget.saturating_sub(self.stats.propagations - before);
                if conflict {
                    // ¬kept alone is contradictory: kept is implied.
                    break;
                }
            }
            self.cancel_until(0);
            if kept.len() < lits.len() {
                self.replace_clause(c, &kept);
                self.stats.vivification_shrinks += 1;
            }
        }
    }

    /// Extends the model with values for eliminated variables, walking the
    /// elimination stack newest-first so clauses stored for an early
    /// elimination see the reconstructed values of later ones.
    pub(super) fn extend_model_with_eliminated(&mut self) {
        for idx in (0..self.simp.elim_stack.len()).rev() {
            let (var, _) = self.simp.elim_stack[idx];
            let mut forced: Option<bool> = None;
            for clause in &self.simp.elim_stack[idx].1 {
                let mut satisfied_by_others = false;
                let mut own_polarity = false;
                for &l in clause {
                    if l.var() == var {
                        own_polarity = l.is_positive();
                        continue;
                    }
                    let value = self.model.get(l.var().index()).copied().unwrap_or(false);
                    if value == l.is_positive() {
                        satisfied_by_others = true;
                        break;
                    }
                }
                if !satisfied_by_others {
                    debug_assert_ne!(
                        forced,
                        Some(!own_polarity),
                        "eliminated variable forced both ways: a resolvent is falsified"
                    );
                    forced = Some(own_polarity);
                }
            }
            if let Some(value) = forced {
                self.model[var.index()] = value;
            }
        }
    }

    /// Whether any literal mentions an eliminated variable (the trigger
    /// for [`Solver::restore_all_eliminated`]).
    pub(super) fn mentions_eliminated(&self, lits: &[Lit]) -> bool {
        !self.simp.elim_stack.is_empty()
            && lits.iter().any(|l| {
                self.simp
                    .eliminated
                    .get(l.var().index())
                    .copied()
                    .unwrap_or(false)
            })
    }

    /// Un-eliminates every variable by re-adding the stored problem
    /// clauses. Rare (a new clause or assumption touched an eliminated
    /// variable — interface variables are frozen precisely to avoid
    /// this); restoring the whole stack sidesteps the ordering hazards of
    /// partial restores, since clauses stored for an early elimination
    /// may mention variables eliminated later.
    pub(super) fn restore_all_eliminated(&mut self) {
        debug_assert_eq!(self.decision_level(), 0);
        let stack = std::mem::take(&mut self.simp.elim_stack);
        for (var, _) in &stack {
            self.simp.eliminated[var.index()] = false;
        }
        for (_, clauses) in stack {
            for clause in clauses {
                self.reattach_stored(&clause);
                if !self.ok {
                    return;
                }
            }
        }
    }

    /// Re-adds one stored clause. It is logged as an original DRAT step —
    /// it genuinely re-enters the live set, and the forward checker
    /// accepts originals wherever they appear — then simplified against
    /// the current root assignment exactly like [`Solver::add_clause`].
    fn reattach_stored(&mut self, clause: &[Lit]) {
        if let Some(trace) = &mut self.proof {
            trace.push_original(clause.to_vec());
        }
        let mut simplified: Vec<Lit> = Vec::new();
        for &l in clause {
            match self.assigns[l.code()] {
                VAL_TRUE => return, // root-satisfied
                VAL_FALSE => {}
                _ => simplified.push(l),
            }
        }
        if simplified.len() != clause.len() && !simplified.is_empty() {
            self.log_proof_add(&simplified);
        }
        match simplified.len() {
            0 => {
                self.ok = false;
                self.log_proof_add(&[]);
            }
            1 => {
                if !self.enqueue(simplified[0], CREF_UNDEF) || self.propagate().is_some() {
                    self.ok = false;
                    self.log_proof_add(&[]);
                }
            }
            _ => {
                let c = self.db.alloc(&simplified, false);
                self.attach_clause(c);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_cleaning_keeps_learnt_clauses_learnt() {
        let mut s = Solver::new();
        let lits: Vec<Lit> = (0..4).map(|_| Lit::positive(s.new_var())).collect();
        let [a, b, c, d] = lits[..] else {
            unreachable!("four variables")
        };
        for l in &lits {
            s.freeze_var(l.var()); // keep BVE from deleting the learnt
        }
        s.add_clause([a, b, c]);
        s.add_clause([!c, d]);
        // Their resolvent on c, planted as a learnt clause.
        let learnt = s.db.alloc(&[a, b, d], true);
        s.db.set_lbd(learnt, 3);
        s.attach_clause(learnt);
        s.add_clause([!a]);
        let problem = s.num_clauses();
        s.inprocess(&[], &SolveLimits::default());
        assert_eq!(
            s.num_clauses(),
            problem,
            "a learnt clause became a problem clause"
        );
        assert_eq!(s.db.num_learnts(), 1);
        let kept = s.db.learnts[0];
        assert!(s.db.is_learnt(kept));
        assert_eq!(s.db.lits(kept).collect::<Vec<_>>(), vec![b, d]);
        assert_eq!(s.db.lbd(kept), 3);
    }

    #[test]
    fn root_literal_stays_derivable_after_its_reason_is_deleted() {
        let mut s = Solver::new();
        assert!(s.enable_proof());
        let [a, b, c] = [0, 1, 2].map(|_| Lit::positive(s.new_var()));
        s.add_clause([!a, b]);
        s.add_clause([a]); // propagates b at the root, reason (¬a ∨ b)
        s.inprocess(&[], &SolveLimits::default());
        assert_eq!(s.num_clauses(), 0, "root cleaning deletes (¬a ∨ b)");
        // UNSAT only through b: the trace must still derive it.
        s.add_clause([!b, c]);
        assert!(!s.add_clause([!b, !c]));
        let trace = s.proof().expect("proof logging is on");
        assert_eq!(crate::certify::check_unsat_proof(trace), Ok(()));
    }
}
