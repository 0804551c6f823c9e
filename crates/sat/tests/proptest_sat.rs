//! Property-based tests of the SAT kit: solver agreement, DIMACS
//! round-trips, and Tseytin/equivalence coherence.

use fulllock_netlist::random::{generate, RandomCircuitConfig};
use fulllock_netlist::{Netlist, Simulator};
use fulllock_sat::backend::BackendSpec;
use fulllock_sat::cdcl::{SolveLimits, SolveResult, Solver, SolverConfig};
use fulllock_sat::random_sat::{self, RandomSatConfig};
use fulllock_sat::{dpll, equiv, CertifyLevel, Cnf, Lit, Var};
use proptest::prelude::*;

/// Every input pattern of an `inputs`-wide netlist, 64 per word: lane
/// `l` of word `w` is pattern `64·w + l`, and input `i` carries bit `i` of
/// the pattern.
fn exhaustive_words(inputs: usize) -> impl Iterator<Item = Vec<u64>> {
    (0..(1usize << inputs).div_ceil(64)).map(move |w| {
        (0..inputs)
            .map(|i| {
                (0..64)
                    .filter(|l| (64 * w + l) >> i & 1 == 1)
                    .fold(0, |acc, l| acc | 1u64 << l)
            })
            .collect()
    })
}

/// Whether two netlists with the same interface agree on every input
/// pattern, by exhaustive bit-parallel simulation — a judge that shares no
/// code with the CEC.
fn agree_everywhere(a: &Netlist, b: &Netlist) -> bool {
    let (sim_a, sim_b) = (Simulator::new(a).unwrap(), Simulator::new(b).unwrap());
    exhaustive_words(a.inputs().len())
        .all(|words| sim_a.run_u64(&words).unwrap() == sim_b.run_u64(&words).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// CDCL and the reference DPLL agree on verdicts across the phase
    /// transition, and SAT models check out.
    #[test]
    fn cdcl_agrees_with_dpll(vars in 10usize..28, ratio in 2.0f64..7.0, seed in any::<u64>()) {
        let cnf = random_sat::generate(RandomSatConfig::from_ratio(vars, ratio, 3, seed))
            .expect("valid config");
        let reference = dpll::solve(&cnf, None);
        let mut solver = Solver::from_cnf(&cnf);
        match (reference.result, solver.solve(&[])) {
            (dpll::DpllResult::Sat(_), SolveResult::Sat) => {
                prop_assert!(cnf.is_satisfied_by(solver.model()));
            }
            (dpll::DpllResult::Unsat, SolveResult::Unsat) => {}
            (a, b) => return Err(TestCaseError::fail(format!("disagreement: {a:?} vs {b:?}"))),
        }
    }

    /// Incremental solving under assumptions matches DPLL on the formula
    /// augmented with the assumptions as unit clauses — across several
    /// rounds on the SAME solver, so learnt clauses from one assumption
    /// set must never corrupt verdicts under another.
    #[test]
    fn incremental_assumption_solves_agree_with_dpll(
        vars in 10usize..22,
        ratio in 3.0f64..5.5,
        seed in any::<u64>(),
        picks in any::<u64>(),
    ) {
        let cnf = random_sat::generate(RandomSatConfig::from_ratio(vars, ratio, 3, seed))
            .expect("valid config");
        let mut solver = Solver::from_cnf(&cnf);
        for round in 0..3u32 {
            let mut assumptions: Vec<Lit> = (0..3u32)
                .map(|i| {
                    let bits = picks.rotate_right(round * 17 + i * 5);
                    let v = (bits >> 1) as usize % vars;
                    Lit::with_polarity(Var::new(v), bits & 1 == 1)
                })
                .collect();
            // Two assumptions on one variable may contradict; keep one.
            assumptions.sort_unstable_by_key(|l| l.var().index());
            assumptions.dedup_by_key(|l| l.var().index());
            let got = solver.solve(&assumptions);
            let mut augmented = cnf.clone();
            for &a in &assumptions {
                augmented.add_clause([a]);
            }
            let reference = dpll::solve(&augmented, None);
            match (reference.result, got) {
                (dpll::DpllResult::Sat(_), SolveResult::Sat) => {
                    prop_assert!(
                        augmented.is_satisfied_by(solver.model()),
                        "model violates formula or assumptions (round {round})"
                    );
                }
                (dpll::DpllResult::Unsat, SolveResult::Unsat) => {}
                (a, b) => {
                    return Err(TestCaseError::fail(format!(
                        "round {round} disagreement: {a:?} vs {b:?}"
                    )))
                }
            }
        }
        // Assumptions must not leak: the unconstrained verdict still
        // matches the reference afterwards.
        let reference = dpll::solve(&cnf, None);
        match (reference.result, solver.solve(&[])) {
            (dpll::DpllResult::Sat(_), SolveResult::Sat) => {
                prop_assert!(cnf.is_satisfied_by(solver.model()));
            }
            (dpll::DpllResult::Unsat, SolveResult::Unsat) => {}
            (a, b) => return Err(TestCaseError::fail(format!("final disagreement: {a:?} vs {b:?}"))),
        }
    }

    /// Assumption cores are sound: after an UNSAT answer under
    /// assumptions, [`Solver::final_assumption_core`] returns a subset of
    /// those assumptions that is itself jointly inconsistent with the
    /// formula — re-solving under only the core stays UNSAT, and the
    /// reference DPLL agrees. After a SAT answer the core is empty.
    #[test]
    fn assumption_cores_are_sound(
        vars in 8usize..16,
        ratio in 3.5f64..5.5,
        seed in any::<u64>(),
        picks in any::<u64>(),
    ) {
        let cnf = random_sat::generate(RandomSatConfig::from_ratio(vars, ratio, 3, seed))
            .expect("valid config");
        let mut solver = Solver::from_cnf(&cnf);
        let mut assumptions: Vec<Lit> = (0..6u32)
            .map(|i| {
                let bits = picks.rotate_right(i * 11);
                let v = (bits >> 1) as usize % vars;
                Lit::with_polarity(Var::new(v), bits & 1 == 1)
            })
            .collect();
        assumptions.sort_unstable_by_key(|l| l.var().index());
        assumptions.dedup_by_key(|l| l.var().index());
        match solver.solve(&assumptions) {
            SolveResult::Unsat => {
                let core: Vec<Lit> = solver.final_assumption_core().to_vec();
                for &l in &core {
                    prop_assert!(
                        assumptions.contains(&l),
                        "core literal outside the assumption set"
                    );
                }
                // The core alone reproduces the refutation.
                prop_assert_eq!(solver.solve(&core), SolveResult::Unsat);
                // And it is genuinely inconsistent, by an independent
                // decision procedure.
                let mut augmented = cnf.clone();
                for &a in &core {
                    augmented.add_clause([a]);
                }
                prop_assert!(matches!(
                    dpll::solve(&augmented, None).result,
                    dpll::DpllResult::Unsat
                ));
            }
            SolveResult::Sat => {
                prop_assert!(solver.final_assumption_core().is_empty());
            }
            SolveResult::Unknown => unreachable!("no limits"),
        }
    }

    /// Assumption cores stay sound across inprocessing rounds when the
    /// assumed variables are frozen — the exact shape of the DIP loop's
    /// quarantine machinery: frozen selector literals gating private
    /// contradictions, interleaved with formula growth that re-trips the
    /// simplifier.
    #[test]
    fn cores_survive_inprocessing_with_frozen_selectors(
        vars in 24usize..32,
        seed in any::<u64>(),
    ) {
        let base = random_sat::generate(RandomSatConfig::from_ratio(vars, 3.0, 3, seed))
            .expect("valid config");
        let mut solver = Solver::from_cnf_with_config(
            &base,
            SolverConfig { inprocess: true },
        );
        let mut selectors: Vec<Lit> = Vec::new();
        for round in 0..3u64 {
            // A fresh frozen selector gating a private contradiction
            // (sel → x ∧ ¬x), as the attack layer encodes a quarantinable
            // I/O pair.
            let x = solver.new_var();
            let sel = Lit::positive(solver.new_var());
            solver.freeze_var(sel.var());
            solver.add_clause([!sel, Lit::positive(x)]);
            solver.add_clause([!sel, !Lit::positive(x)]);
            selectors.push(sel);
            // Growth between solves, enough to re-trip inprocessing.
            let extra = random_sat::generate(RandomSatConfig {
                vars,
                clauses: 40,
                clause_len: 3,
                seed: seed.wrapping_add(round + 1),
            }).expect("valid config");
            for clause in extra.clauses() {
                solver.add_clause(clause.iter().copied());
            }
            prop_assert_eq!(
                solver.solve(&selectors),
                SolveResult::Unsat,
                "gated contradiction must refute round {}",
                round
            );
            let core: Vec<Lit> = solver.final_assumption_core().to_vec();
            for &l in &core {
                prop_assert!(selectors.contains(&l), "core leaked a non-assumption");
            }
            prop_assert_eq!(solver.solve(&core), SolveResult::Unsat);
            if core.is_empty() {
                // The grown formula became UNSAT on its own; the core
                // correctly blames no selector, and nothing further can
                // be asserted this run.
                break;
            }
        }
    }

    /// DIMACS round-trips exactly.
    #[test]
    fn dimacs_round_trip(vars in 3usize..20, clauses in 1usize..60, seed in any::<u64>()) {
        let cnf = random_sat::generate(RandomSatConfig {
            vars,
            clauses,
            clause_len: 3,
            seed,
        }).expect("valid config");
        let text = cnf.to_dimacs();
        let back = Cnf::from_dimacs(&text).expect("own output parses");
        prop_assert_eq!(back, cnf);
    }

    /// Parser hardening: a single-character mutation anywhere in a valid
    /// DIMACS file — or an adversarial token spliced into it — is either
    /// still parseable or a typed [`fulllock_sat::SatError::Dimacs`],
    /// never a panic (untrusted benchmark files reach this parser).
    #[test]
    fn mutated_dimacs_never_panics(
        vars in 3usize..12,
        clauses in 1usize..20,
        seed in any::<u64>(),
        pos in any::<usize>(),
        replacement in any::<u8>(),
    ) {
        let cnf = random_sat::generate(RandomSatConfig {
            vars,
            clauses,
            clause_len: 3,
            seed,
        }).expect("valid config");
        let mut bytes = cnf.to_dimacs().into_bytes();
        let at = pos % bytes.len();
        // Stay printable ASCII so the text remains valid UTF-8; the
        // interesting corruption space is token-level, not encoding-level.
        bytes[at] = 0x20 + (replacement % 0x5f);
        let mutated = String::from_utf8(bytes).expect("printable ascii");
        // Ok or Err are both acceptable; only a panic is a bug.
        let _ = Cnf::from_dimacs(&mutated);
    }

    /// Adding the negation of a found model as a clause makes the model
    /// count drop — repeated, the solver enumerates distinct models.
    #[test]
    fn blocking_clauses_enumerate_distinct_models(seed in any::<u64>()) {
        let cnf = random_sat::generate(RandomSatConfig {
            vars: 12,
            clauses: 24, // under-constrained: several models
            clause_len: 3,
            seed,
        }).expect("valid config");
        let mut solver = Solver::from_cnf(&cnf);
        let mut seen: Vec<Vec<bool>> = Vec::new();
        for _ in 0..4 {
            match solver.solve(&[]) {
                SolveResult::Sat => {
                    let model: Vec<bool> = solver.model().to_vec();
                    prop_assert!(!seen.contains(&model), "model repeated");
                    // Block this model.
                    solver.add_clause(model.iter().enumerate().map(|(i, &b)| {
                        fulllock_sat::Lit::with_polarity(fulllock_sat::Var::new(i), !b)
                    }));
                    seen.push(model);
                }
                SolveResult::Unsat => break,
                SolveResult::Unknown => unreachable!("no limits"),
            }
        }
        prop_assert!(!seen.is_empty(), "under-constrained formula must have a model");
    }

    /// Inprocessing is invisible to verdicts: an identical incremental
    /// solve sequence — growing the formula between solves, which is
    /// exactly what the DIP loop does — gives the same answers with
    /// simplification on and off, and every `Sat` model (reconstructed
    /// through eliminated variables) satisfies every clause ever added.
    #[test]
    fn inprocessing_preserves_incremental_verdicts(
        vars in 24usize..40,
        seed in any::<u64>(),
        picks in any::<u64>(),
    ) {
        // Start near the satisfiable side so growth keeps verdicts mixed,
        // and big enough (>100 clauses) to trip the inprocessing trigger.
        let base = random_sat::generate(RandomSatConfig::from_ratio(vars, 3.5, 3, seed))
            .expect("valid config");
        let mut plain = Solver::from_cnf_with_config(
            &base,
            SolverConfig { inprocess: false },
        );
        let mut simplifying = Solver::from_cnf_with_config(
            &base,
            SolverConfig { inprocess: true },
        );
        let mut all_clauses = base.clone();
        for round in 0..3u32 {
            let assumptions: Vec<Lit> = {
                let bits = picks.rotate_right(round * 13);
                let v = (bits >> 1) as usize % vars;
                vec![Lit::with_polarity(Var::new(v), bits & 1 == 1)]
            };
            let want = plain.solve(&assumptions);
            let got = simplifying.solve(&assumptions);
            prop_assert_eq!(want, got, "round {} verdicts diverge", round);
            if got == SolveResult::Sat {
                let mut assumed = all_clauses.clone();
                for &a in &assumptions {
                    assumed.add_clause([a]);
                }
                prop_assert!(
                    assumed.is_satisfied_by(simplifying.model()),
                    "round {}: simplified solver's model violates the formula",
                    round
                );
            }
            // Grow the formula like the DIP loop: enough fresh clauses to
            // re-trip the growth trigger.
            let extra = random_sat::generate(RandomSatConfig {
                vars,
                clauses: 40,
                clause_len: 3,
                seed: seed.wrapping_add(round as u64 + 1),
            }).expect("valid config");
            for clause in extra.clauses() {
                all_clauses.add_clause(clause.iter().copied());
                plain.add_clause(clause.iter().copied());
                simplifying.add_clause(clause.iter().copied());
            }
        }
    }

    /// Every generated circuit is equivalent to its own `.bench`
    /// round-trip (formally, via the CEC).
    #[test]
    fn circuits_equivalent_to_their_roundtrip(seed in any::<u64>()) {
        let nl = generate(RandomCircuitConfig {
            inputs: 8,
            outputs: 4,
            gates: 60,
            max_fanin: 3,
            seed,
        }).expect("valid config");
        let text = fulllock_netlist::bench_io::write(&nl);
        let back = fulllock_netlist::bench_io::parse(&text, "rt").expect("parses");
        prop_assert!(equiv::check(&nl, &back, None).expect("checkable").is_equivalent());
    }

    /// The logic optimizer is semantics-preserving: optimized circuits
    /// agree with their originals on all 1,024 input patterns. The CEC
    /// runs this optimizer itself, so simulation, not the CEC, is the
    /// judge.
    #[test]
    fn optimizer_is_equivalence_preserving(seed in any::<u64>()) {
        let nl = generate(RandomCircuitConfig {
            inputs: 10,
            outputs: 5,
            gates: 100,
            max_fanin: 4,
            seed,
        }).expect("valid config");
        let optimized = fulllock_netlist::opt::optimize(&nl).expect("acyclic");
        prop_assert!(optimized.netlist.stats().gates <= nl.stats().gates);
        prop_assert!(agree_everywhere(&nl, &optimized.netlist));
    }

    /// Mutating one gate kind is (almost always) detected by the CEC with
    /// a genuine counterexample; when the CEC says `Equivalent`, the
    /// mutation is masked on all 256 input patterns.
    #[test]
    fn cec_counterexamples_are_genuine(seed in any::<u64>()) {
        let nl = generate(RandomCircuitConfig {
            inputs: 8,
            outputs: 4,
            gates: 50,
            max_fanin: 3,
            seed,
        }).expect("valid config");
        let mut mutated = nl.clone();
        // Invert the kind of the first invertible live gate.
        let target = mutated
            .gates()
            .find(|&g| mutated.node(g).gate_kind().and_then(|k| k.invert()).is_some());
        let Some(g) = target else { return Ok(()) };
        let inverted = mutated.node(g).gate_kind().unwrap().invert().unwrap();
        mutated.set_gate_kind(g, inverted).unwrap();
        match equiv::check(&nl, &mutated, None).expect("checkable") {
            equiv::EquivResult::Equivalent => {
                // Possible if the mutated gate is masked everywhere; rare
                // but legal.
                prop_assert!(agree_everywhere(&nl, &mutated));
            }
            equiv::EquivResult::Counterexample(cex) => {
                let sim_a = Simulator::new(&nl).unwrap();
                let sim_b = Simulator::new(&mutated).unwrap();
                prop_assert_ne!(sim_a.run(&cex).unwrap(), sim_b.run(&cex).unwrap());
            }
            equiv::EquivResult::Unknown => unreachable!("no limits"),
        }
    }
}

proptest! {
    // Only about a quarter of the cases reach an UNSAT answer after a
    // growth round, so this property gets more cases than the rest.
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Inprocessing survives DRAT proof certification: every change it
    /// makes is logged, so `CertifyLevel::Proof` keeps accepting UNSAT
    /// answers and models keep checking. The formula grows between three
    /// solves, as the DIP loop grows it, by enough clauses to re-trip the
    /// growth trigger, so the later rounds simplify only what was added
    /// since the one before; every UNSAT answer after such a round is
    /// forward-checked over the whole trace. Verdicts must match DPLL's.
    #[test]
    fn inprocessing_passes_proof_certification(
        vars in 20usize..32,
        ratio in 3.0f64..6.0,
        seed in any::<u64>(),
    ) {
        let mut cnf = random_sat::generate(RandomSatConfig::from_ratio(vars, ratio, 3, seed))
            .expect("valid config");
        let mut backend = BackendSpec::Configured(
            SolverConfig { inprocess: true },
        ).create_certified(CertifyLevel::Proof);
        backend.ensure_vars(cnf.num_vars());
        for clause in cnf.clauses() {
            backend.add_clause(clause);
        }
        for round in 0..3u64 {
            let verdict = backend.solve_limited(&[], SolveLimits::default());
            prop_assert!(
                backend.certify_failure().is_none(),
                "round {}: certification failed: {:?}",
                round,
                backend.certify_failure()
            );
            let reference = dpll::solve(&cnf, None);
            match (reference.result, verdict) {
                (dpll::DpllResult::Sat(_), SolveResult::Sat) => {}
                (dpll::DpllResult::Unsat, SolveResult::Unsat) => {}
                (a, b) => {
                    return Err(TestCaseError::fail(format!("round {round}: {a:?} vs {b:?}")))
                }
            }
            if verdict == SolveResult::Unsat {
                break; // growth cannot undo it
            }
            // Fresh clauses over three times the variables, so new
            // variables keep the verdicts mixed.
            let extra = random_sat::generate(RandomSatConfig {
                vars: 3 * vars,
                clauses: 160,
                clause_len: 3,
                seed: seed.wrapping_add(round + 1),
            }).expect("valid config");
            backend.ensure_vars(extra.num_vars());
            for clause in extra.clauses() {
                backend.add_clause(clause);
                cnf.add_clause(clause.iter().copied());
            }
        }
    }
}
