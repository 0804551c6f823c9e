//! The flat clause arena: every clause — problem and learnt — lives
//! back-to-back in one `Vec<u32>`, referenced by offset.
//!
//! Layout of one clause at offset `c`:
//!
//! ```text
//! arena[c]     size << 2 | deleted << 1 | learnt
//! arena[c+1]   LBD ("glue": distinct decision levels at learning time)
//! arena[c+2]   activity (f32 bits)
//! arena[c+3..] literal codes (Lit::code), size of them
//! ```
//!
//! Compared to one heap allocation per clause, the arena keeps the watch
//! scan's memory traffic sequential (header and watched literals share a
//! cache line for short clauses) and makes learnt-database reduction a
//! single compacting sweep instead of a free-list churn.
//!
//! Clauses are only ever appended, and compaction keeps arena order, so an
//! offset splits the database by age. The *watermark* is the offset where
//! the last inprocessing round ended: every clause at or past it was
//! allocated since (see [`ClauseDb::is_new`]).

use crate::Lit;

/// Reference to a clause: its offset in the arena.
pub(crate) type CRef = u32;

/// Sentinel: "no clause" (also used as "no reason" on the trail).
pub(crate) const CREF_UNDEF: CRef = u32::MAX;

const HEADER_WORDS: usize = 3;
const FLAG_LEARNT: u32 = 0b01;
const FLAG_DELETED: u32 = 0b10;

/// Forward map from pre-compaction to post-compaction clause offsets.
///
/// Only indices that were live clause headers are meaningful.
#[derive(Debug)]
pub(crate) struct CRefMap {
    forward: Vec<u32>,
}

impl CRefMap {
    /// The new offset of a clause that was live at `old`.
    pub(crate) fn get(&self, old: CRef) -> CRef {
        self.forward[old as usize]
    }
}

/// The arena of all clauses plus the learnt-clause index.
#[derive(Debug, Default)]
pub(crate) struct ClauseDb {
    arena: Vec<u32>,
    /// Offsets of live learnt clauses, in arena order.
    pub(crate) learnts: Vec<CRef>,
    /// Words occupied by deleted clauses (drives compaction).
    wasted: usize,
    num_problem: usize,
    /// Arena offset where the last inprocessing round ended; always a
    /// clause boundary or the arena end.
    watermark: usize,
}

impl ClauseDb {
    pub(crate) fn new() -> ClauseDb {
        ClauseDb::default()
    }

    /// Appends a clause; returns its reference.
    pub(crate) fn alloc(&mut self, lits: &[Lit], learnt: bool) -> CRef {
        debug_assert!(!lits.is_empty());
        let cref = u32::try_from(self.arena.len()).expect("clause arena exceeds u32 offsets");
        self.arena
            .push(((lits.len() as u32) << 2) | (u32::from(learnt) * FLAG_LEARNT));
        self.arena.push(0); // LBD, set by the learner
        self.arena.push(0f32.to_bits());
        self.arena.extend(lits.iter().map(|l| l.code() as u32));
        if learnt {
            self.learnts.push(cref);
        } else {
            self.num_problem += 1;
        }
        cref
    }

    /// Number of live problem (non-learnt) clauses.
    pub(crate) fn num_problem(&self) -> usize {
        self.num_problem
    }

    /// Number of live learnt clauses.
    pub(crate) fn num_learnts(&self) -> usize {
        self.learnts.len()
    }

    #[inline]
    pub(crate) fn size(&self, c: CRef) -> usize {
        (self.arena[c as usize] >> 2) as usize
    }

    #[inline]
    pub(crate) fn is_learnt(&self, c: CRef) -> bool {
        self.arena[c as usize] & FLAG_LEARNT != 0
    }

    #[inline]
    pub(crate) fn is_deleted(&self, c: CRef) -> bool {
        self.arena[c as usize] & FLAG_DELETED != 0
    }

    #[inline]
    pub(crate) fn lit(&self, c: CRef, i: usize) -> Lit {
        Lit::from_code(self.arena[c as usize + HEADER_WORDS + i] as usize)
    }

    #[inline]
    pub(crate) fn swap_lits(&mut self, c: CRef, i: usize, j: usize) {
        self.arena
            .swap(c as usize + HEADER_WORDS + i, c as usize + HEADER_WORDS + j);
    }

    /// The clause's literals as an iterator (header skipped).
    pub(crate) fn lits(&self, c: CRef) -> impl Iterator<Item = Lit> + '_ {
        let base = c as usize + HEADER_WORDS;
        self.arena[base..base + self.size(c)]
            .iter()
            .map(|&code| Lit::from_code(code as usize))
    }

    #[inline]
    pub(crate) fn lbd(&self, c: CRef) -> u32 {
        self.arena[c as usize + 1]
    }

    #[inline]
    pub(crate) fn set_lbd(&mut self, c: CRef, lbd: u32) {
        self.arena[c as usize + 1] = lbd;
    }

    #[inline]
    pub(crate) fn activity(&self, c: CRef) -> f32 {
        f32::from_bits(self.arena[c as usize + 2])
    }

    #[inline]
    pub(crate) fn set_activity(&mut self, c: CRef, activity: f32) {
        self.arena[c as usize + 2] = activity.to_bits();
    }

    /// Marks a clause deleted. Its watches are dropped lazily by the
    /// propagation scan and for good at the next [`ClauseDb::compact`].
    pub(crate) fn mark_deleted(&mut self, c: CRef) {
        debug_assert!(!self.is_deleted(c));
        self.arena[c as usize] |= FLAG_DELETED;
        self.wasted += HEADER_WORDS + self.size(c);
        if !self.is_learnt(c) {
            // Inprocessing (subsumption, variable elimination) deletes
            // problem clauses too; keep the live count honest.
            self.num_problem -= 1;
        }
    }

    /// Whether clause `c` was allocated since the last inprocessing round
    /// ended (it lies at or past the watermark).
    #[inline]
    pub(crate) fn is_new(&self, c: CRef) -> bool {
        c as usize >= self.watermark
    }

    /// Moves the watermark to the arena end: every clause allocated so far
    /// counts as old from now on.
    pub(crate) fn advance_watermark(&mut self) {
        self.watermark = self.arena.len();
    }

    /// Moves the watermark to the arena start: every clause counts as new.
    pub(crate) fn reset_watermark(&mut self) {
        self.watermark = 0;
    }

    /// Every live (non-deleted) clause reference, problem and learnt, in
    /// arena order. Collect before mutating the database.
    pub(crate) fn iter_crefs(&self) -> impl Iterator<Item = CRef> + '_ {
        self.iter_crefs_from(0)
    }

    /// [`ClauseDb::iter_crefs`] restricted to the clauses that
    /// [`ClauseDb::is_new`] accepts.
    pub(crate) fn iter_new_crefs(&self) -> impl Iterator<Item = CRef> + '_ {
        self.iter_crefs_from(self.watermark)
    }

    fn iter_crefs_from(&self, start: usize) -> impl Iterator<Item = CRef> + '_ {
        let mut offset = start;
        std::iter::from_fn(move || {
            while offset < self.arena.len() {
                let header = self.arena[offset];
                let cref = offset as CRef;
                offset += HEADER_WORDS + (header >> 2) as usize;
                if header & FLAG_DELETED == 0 {
                    return Some(cref);
                }
            }
            None
        })
    }

    /// Drops deleted clauses from the learnt index (their arena words are
    /// reclaimed later by [`ClauseDb::compact`]).
    pub(crate) fn prune_deleted_learnts(&mut self) {
        let arena = &self.arena;
        self.learnts
            .retain(|&c| arena[c as usize] & FLAG_DELETED == 0);
    }

    /// Fraction of arena words occupied by deleted clauses.
    pub(crate) fn wasted_fraction(&self) -> f64 {
        if self.arena.is_empty() {
            0.0
        } else {
            self.wasted as f64 / self.arena.len() as f64
        }
    }

    /// Compacts the arena in place, dropping deleted clauses, and returns
    /// the old→new offset map so the solver can rewrite watch lists,
    /// reason pointers, and the learnt index. Literal order within each
    /// clause is preserved, so the two-watched-literal invariant survives
    /// untouched. The watermark moves to the first surviving clause at or
    /// after it (the new arena end if none survives), so the new clauses
    /// stay exactly the ones allocated since the last round.
    pub(crate) fn compact(&mut self) -> CRefMap {
        let mut forward = vec![CREF_UNDEF; self.arena.len()];
        let mut write = 0usize;
        let mut read = 0usize;
        let mut watermark = None;
        while read < self.arena.len() {
            if watermark.is_none() && read >= self.watermark {
                debug_assert_eq!(read, self.watermark, "watermark inside a clause");
                watermark = Some(write);
            }
            let words = HEADER_WORDS + (self.arena[read] >> 2) as usize;
            if self.arena[read] & FLAG_DELETED == 0 {
                forward[read] = write as u32;
                self.arena.copy_within(read..read + words, write);
                write += words;
            }
            read += words;
        }
        self.arena.truncate(write);
        self.watermark = watermark.unwrap_or(write);
        self.wasted = 0;
        let map = CRefMap { forward };
        self.learnts.retain_mut(|c| {
            *c = map.get(*c);
            *c != CREF_UNDEF
        });
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Var;

    fn lit(i: usize) -> Lit {
        Lit::positive(Var::new(i))
    }

    #[test]
    fn alloc_and_accessors_round_trip() {
        let mut db = ClauseDb::new();
        let a = db.alloc(&[lit(0), lit(1), lit(2)], false);
        let b = db.alloc(&[lit(3), lit(4)], true);
        assert_eq!(db.size(a), 3);
        assert_eq!(db.size(b), 2);
        assert!(!db.is_learnt(a));
        assert!(db.is_learnt(b));
        assert_eq!(db.lits(a).collect::<Vec<_>>(), vec![lit(0), lit(1), lit(2)]);
        db.set_lbd(b, 2);
        db.set_activity(b, 1.5);
        assert_eq!(db.lbd(b), 2);
        assert_eq!(db.activity(b), 1.5);
        assert_eq!(db.num_problem(), 1);
        assert_eq!(db.num_learnts(), 1);
    }

    #[test]
    fn swap_preserves_contents() {
        let mut db = ClauseDb::new();
        let c = db.alloc(&[lit(0), lit(1), lit(2)], false);
        db.swap_lits(c, 0, 2);
        assert_eq!(db.lits(c).collect::<Vec<_>>(), vec![lit(2), lit(1), lit(0)]);
    }

    #[test]
    fn compaction_drops_deleted_and_remaps() {
        let mut db = ClauseDb::new();
        let a = db.alloc(&[lit(0), lit(1)], false);
        let b = db.alloc(&[lit(2), lit(3), lit(4)], true);
        let c = db.alloc(&[lit(5), lit(6)], true);
        db.set_lbd(c, 2);
        db.mark_deleted(b);
        assert!(db.wasted_fraction() > 0.0);
        let map = db.compact();
        let new_a = map.get(a);
        let new_c = map.get(c);
        assert_eq!(new_a, a, "first clause does not move");
        assert!(new_c < c, "clause after a deleted one moves down");
        assert_eq!(db.lits(new_c).collect::<Vec<_>>(), vec![lit(5), lit(6)]);
        assert_eq!(db.lbd(new_c), 2);
        assert_eq!(db.learnts, vec![new_c]);
        assert_eq!(db.wasted_fraction(), 0.0);
    }

    #[test]
    fn compaction_moves_the_watermark_to_the_first_new_survivor() {
        // Both compactions, the learnt-database reduction's and the
        // inprocessing round's, go through `compact`.
        let mut db = ClauseDb::new();
        let old_kept = db.alloc(&[lit(0), lit(1)], false);
        let old_dropped = db.alloc(&[lit(2), lit(3), lit(4)], true);
        db.advance_watermark();
        let new_dropped = db.alloc(&[lit(5), lit(6)], false);
        let new_kept = db.alloc(&[lit(7), lit(8)], true);
        let newest = db.alloc(&[lit(9), lit(10)], false);
        db.mark_deleted(old_dropped);
        db.mark_deleted(new_dropped);
        let map = db.compact();
        assert!(!db.is_new(map.get(old_kept)));
        assert!(db.is_new(map.get(new_kept)));
        assert!(db.is_new(map.get(newest)));
        assert_eq!(
            db.iter_new_crefs().collect::<Vec<_>>(),
            vec![map.get(new_kept), map.get(newest)]
        );
        assert_eq!(db.watermark, map.get(new_kept) as usize);

        // Nothing new survives: the watermark lands on the arena end, and
        // the next allocation is new.
        db.advance_watermark();
        let gone = db.alloc(&[lit(11), lit(12)], false);
        db.mark_deleted(gone);
        db.compact();
        assert_eq!(db.iter_new_crefs().count(), 0);
        assert_eq!(db.watermark, db.arena.len());
        let fresh = db.alloc(&[lit(13), lit(14)], false);
        assert!(db.is_new(fresh));
        assert_eq!(db.iter_new_crefs().collect::<Vec<_>>(), vec![fresh]);

        // After a reset everything is new, and compaction keeps it so.
        db.reset_watermark();
        db.mark_deleted(map.get(old_kept));
        let map = db.compact();
        assert_eq!(db.watermark, 0);
        assert!(db.is_new(map.get(fresh)));
    }

    #[test]
    fn compaction_of_clean_arena_is_identity() {
        let mut db = ClauseDb::new();
        let a = db.alloc(&[lit(0), lit(1)], false);
        let b = db.alloc(&[lit(2), lit(3)], true);
        let map = db.compact();
        assert_eq!(map.get(a), a);
        assert_eq!(map.get(b), b);
    }
}
