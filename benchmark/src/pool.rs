//! The four workloads and the locked instances each one attacks, all
//! generated from the `--seed`.
//!
//! The in-process families are chosen so that the hardness of one
//! instance varies little with its lock seed: the benchmark compares
//! medians over runs with different seeds, so a family whose instances
//! range from trivial to intractable (Full-Lock PLRs of 8 or more wires on
//! the paper's circuits) would measure the seed, not the code. The
//! service workload attacks a fixed pool of the paper's circuits instead,
//! in a seed-shuffled order, because it measures the service path, not
//! hardness.

use std::time::Instant;

use fulllock_bench::{cln_locked_host, cln_testbed};
use fulllock_locking::{
    ClnTopology, FullLock, FullLockConfig, LockedCircuit, LockingScheme, PlrSpec, WireSelection,
};
use fulllock_netlist::benchmarks;
use fulllock_netlist::random::{generate, RandomCircuitConfig};
use fulllock_netlist::Netlist;

use crate::attack::AttackKind;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The SAT attack, run to a certified key, on many small Full-Lock
    /// lockings: many cheap incremental solves.
    SatBreak,
    /// The SAT attack on the bare CLN testbed of the paper's Table 2: a
    /// few DIPs, each a hard CDCL search.
    ClnBare,
    /// Double-DIP on CLN-locked hosts with real logic around the CLN:
    /// four full circuit copies re-encoded per I/O pair.
    DoubleDipBreak,
    /// The real `fulllock serve` daemon running `fulllock attack` jobs
    /// on the [`serve_pool`], one at a time, submitted by two closed-loop
    /// clients.
    ServeAttacks,
}

/// What generates an in-process workload's instances.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// A full Full-Lock PLR (almost non-blocking CLN, LUTs, inverters,
    /// twist 0.5, acyclic) on a random host of `gates` gates with 64
    /// inputs, 32 outputs and fan-in at most 3.
    FullLockHost {
        /// Host gate count.
        gates: usize,
        /// CLN width.
        cln: usize,
    },
    /// `fulllock_bench::cln_testbed`: an `n`-wire identity circuit locked
    /// by one almost non-blocking CLN.
    BareCln {
        /// CLN width.
        n: usize,
    },
    /// `fulllock_bench::cln_locked_host`: a random host locked by one
    /// almost non-blocking CLN without LUTs.
    ClnHost {
        /// Host gate count.
        gates: usize,
        /// CLN width.
        cln: usize,
    },
}

/// The circuits of the service pool: the paper's benchmarks whose 4-wire
/// Full-Lock lockings all break within a second (`c1355` takes 2 to 4 s,
/// half of it in the key certificate).
pub const SERVE_CIRCUITS: [&str; 6] = ["c432", "c499", "c880", "c1908", "apex2", "i4"];

/// Lock seeds per circuit in the service pool: seeds `0..SERVE_LOCK_SEEDS`.
pub const SERVE_LOCK_SEEDS: u64 = 3;

/// Locked circuits in the service pool.
pub const SERVE_POOL_LEN: usize = SERVE_CIRCUITS.len() * SERVE_LOCK_SEEDS as usize;

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::SatBreak,
        Workload::ClnBare,
        Workload::DoubleDipBreak,
        Workload::ServeAttacks,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SatBreak => "sat_break",
            Workload::ClnBare => "cln_bare",
            Workload::DoubleDipBreak => "double_dip_break",
            Workload::ServeAttacks => "serve_attacks",
        }
    }

    /// Inverse of [`name`](Self::name).
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The attack and instance family of an in-process workload; `None`
    /// for the service workload.
    pub fn in_process(self) -> Option<(AttackKind, Family)> {
        match self {
            Workload::SatBreak => {
                Some((AttackKind::Sat, Family::FullLockHost { gates: 300, cln: 4 }))
            }
            Workload::ClnBare => Some((AttackKind::Sat, Family::BareCln { n: 16 })),
            Workload::DoubleDipBreak => Some((
                AttackKind::DoubleDip,
                Family::ClnHost { gates: 300, cln: 4 },
            )),
            Workload::ServeAttacks => None,
        }
    }

    /// Wall seconds one unit of work takes on the recorded host (2
    /// cores): for the in-process workloads one instance (the SAT attack
    /// on one `FullLockHost` lock, on one 16-wire bare CLN, Double-DIP on
    /// one `ClnHost` lock); for the service one pass over the pool, one
    /// job at a time.
    fn unit_cost_s(self) -> f64 {
        match self {
            Workload::SatBreak => 0.125,
            Workload::ClnBare => 1.45,
            Workload::DoubleDipBreak => 0.30,
            Workload::ServeAttacks => 5.5,
        }
    }

    /// How many instances (service: jobs) a run of `seconds` attacks:
    /// enough to fill four fifths of the budget on the recorded host,
    /// leaving the rest for set-up and for the host probes taken between
    /// instances; nine tenths for the service, whose probes run beside
    /// its jobs. The service runs whole passes over its pool. The count
    /// depends only on `seconds`, never on measured speed, so a slower
    /// commit attacks the same instances.
    pub fn instances_for(self, seconds: f64) -> usize {
        let fill = match self {
            Workload::ServeAttacks => 0.9,
            _ => 0.8,
        };
        let units = ((fill * seconds / self.unit_cost_s()).floor() as usize).max(1);
        match self {
            Workload::ServeAttacks => units * SERVE_POOL_LEN,
            _ => units,
        }
    }
}

/// One locked circuit and the oracle netlist it was locked from.
#[derive(Debug, Clone)]
pub struct Instance {
    /// Stable identity within a run; names its `.bench` files.
    pub id: String,
    /// Seed the lock (and a random host) was drawn with.
    pub seed: u64,
    /// The unlocked netlist (the oracle).
    pub original: Netlist,
    /// The locked netlist.
    pub locked: LockedCircuit,
}

/// Time spent building a pool, split by layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildTimes {
    /// Host generation or `benchmarks::load` (`netlist`).
    pub load_s: f64,
    /// Locking (`locking`); for the `fulllock_bench` families this also
    /// covers their built-in host generation.
    pub lock_s: f64,
}

/// SplitMix64: the seed of instance `index` of a run seeded `seed`.
pub fn instance_seed(seed: u64, index: usize) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index as u64 + 1)
        .wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Full-Lock with one `PlrSpec::new(cln)` PLR, acyclic, twist 0.5.
fn full_lock(host: &Netlist, cln: usize, seed: u64) -> Result<LockedCircuit, String> {
    FullLock::new(FullLockConfig {
        plrs: vec![PlrSpec::new(cln)],
        selection: WireSelection::Acyclic,
        twist_probability: 0.5,
        seed,
    })
    .lock(host)
    .map_err(|e| e.to_string())
}

/// Builds the first `count` instances of `family` for a run seeded
/// `seed`.
///
/// # Errors
///
/// A host or lock the generators reject (none do for the workload
/// families; the message names the instance).
pub fn build(
    family: Family,
    seed: u64,
    count: usize,
) -> Result<(Vec<Instance>, BuildTimes), String> {
    let mut times = BuildTimes::default();
    let mut pool = Vec::with_capacity(count);
    for index in 0..count {
        let s = instance_seed(seed, index);
        let id = format!("i{index:04}");
        let fail = |e: &dyn std::fmt::Display| format!("instance {id} (seed {s}): {e}");
        let (original, locked) = match family {
            Family::FullLockHost { gates, cln } => {
                let t = Instant::now();
                let host = generate(RandomCircuitConfig {
                    inputs: 64,
                    outputs: 32,
                    gates,
                    max_fanin: 3,
                    seed: s,
                })
                .map_err(|e| fail(&e))?;
                times.load_s += t.elapsed().as_secs_f64();
                let t = Instant::now();
                let locked = full_lock(&host, cln, s).map_err(|e| fail(&e))?;
                times.lock_s += t.elapsed().as_secs_f64();
                (host, locked)
            }
            Family::BareCln { n } => {
                let t = Instant::now();
                let built = cln_testbed(n, ClnTopology::AlmostNonBlocking, s);
                times.lock_s += t.elapsed().as_secs_f64();
                built
            }
            Family::ClnHost { gates, cln } => {
                let t = Instant::now();
                let built = cln_locked_host(gates, cln, ClnTopology::AlmostNonBlocking, s);
                times.lock_s += t.elapsed().as_secs_f64();
                built
            }
        };
        pool.push(Instance {
            id,
            seed: s,
            original,
            locked,
        });
    }
    Ok((pool, times))
}

/// Builds the service pool: every circuit of [`SERVE_CIRCUITS`], loaded
/// with `benchmarks::load` and locked with a 4-wire Full-Lock PLR at each
/// lock seed below [`SERVE_LOCK_SEEDS`]. It does not depend on the run's
/// seed: the pool's hardness spreads too widely from lock to lock (a
/// 4-wire lock of `c880` needs 14 to 112 DIPs) for a run to sample it
/// afresh.
///
/// # Errors
///
/// An unknown circuit or a lock the generator rejects (neither happens
/// for the pool above).
pub fn serve_pool() -> Result<(Vec<Instance>, BuildTimes), String> {
    let mut times = BuildTimes::default();
    let mut pool = Vec::with_capacity(SERVE_POOL_LEN);
    for name in SERVE_CIRCUITS {
        let t = Instant::now();
        let original = benchmarks::load(name).map_err(|e| format!("load {name}: {e}"))?;
        times.load_s += t.elapsed().as_secs_f64();
        for seed in 0..SERVE_LOCK_SEEDS {
            let t = Instant::now();
            let locked = full_lock(&original, 4, seed)
                .map_err(|e| format!("lock {name} seed {seed}: {e}"))?;
            times.lock_s += t.elapsed().as_secs_f64();
            pool.push(Instance {
                id: format!("{name}-s{seed}"),
                seed,
                original: original.clone(),
                locked,
            });
        }
    }
    Ok((pool, times))
}

/// The service workload's jobs, as indices into the [`serve_pool`]:
/// `jobs / SERVE_POOL_LEN` passes over the pool, each pass in its own
/// order, shuffled (Fisher–Yates) with seeds drawn from `seed`.
pub fn serve_jobs(seed: u64, jobs: usize) -> Vec<usize> {
    let mut order = Vec::with_capacity(jobs);
    for pass in 0..jobs / SERVE_POOL_LEN {
        let mut shuffled: Vec<usize> = (0..SERVE_POOL_LEN).collect();
        for i in (1..SERVE_POOL_LEN).rev() {
            let draw = instance_seed(seed, pass * SERVE_POOL_LEN + i);
            shuffled.swap(i, (draw % (i as u64 + 1)) as usize);
        }
        order.extend(shuffled);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use fulllock_netlist::bench_io;

    fn fingerprint(pool: &[Instance]) -> Vec<(String, u64, String, String)> {
        pool.iter()
            .map(|i| {
                (
                    i.id.clone(),
                    i.seed,
                    bench_io::write(&i.original),
                    bench_io::write(&i.locked.netlist),
                )
            })
            .collect()
    }

    #[test]
    fn same_seed_same_instances_other_seed_other_instances() {
        for workload in Workload::ALL {
            let Some((_, family)) = workload.in_process() else {
                continue;
            };
            let (a, _) = build(family, 5, 3).expect("pool builds");
            let (b, _) = build(family, 5, 3).expect("pool builds");
            let (c, _) = build(family, 6, 3).expect("pool builds");
            assert_eq!(fingerprint(&a), fingerprint(&b), "{}", workload.name());
            assert_eq!(
                a.iter().map(|i| &i.locked.correct_key).collect::<Vec<_>>(),
                b.iter().map(|i| &i.locked.correct_key).collect::<Vec<_>>()
            );
            let (fa, fc) = (fingerprint(&a), fingerprint(&c));
            assert!(
                fa.iter().zip(&fc).all(|(x, y)| x.1 != y.1 && x.3 != y.3),
                "{}: another seed must lock other netlists",
                workload.name()
            );
        }
    }

    #[test]
    fn serve_pool_is_fixed_and_its_order_follows_the_seed() {
        let (a, _) = serve_pool().expect("pool builds");
        let (b, _) = serve_pool().expect("pool builds");
        assert_eq!(a.len(), SERVE_POOL_LEN);
        assert_eq!(fingerprint(&a), fingerprint(&b));
        let jobs = 3 * SERVE_POOL_LEN;
        let order = serve_jobs(5, jobs);
        assert_eq!(order, serve_jobs(5, jobs));
        assert_ne!(order, serve_jobs(6, jobs));
        // Every pass attacks every locked circuit once.
        for pass in order.chunks(SERVE_POOL_LEN) {
            let mut seen = pass.to_vec();
            seen.sort_unstable();
            assert_eq!(seen, (0..SERVE_POOL_LEN).collect::<Vec<_>>());
        }
        assert_ne!(
            order[..SERVE_POOL_LEN],
            order[SERVE_POOL_LEN..2 * SERVE_POOL_LEN]
        );
    }

    #[test]
    fn instance_seeds_are_distinct_within_and_across_runs() {
        let mut seen = std::collections::HashSet::new();
        for seed in 0..20 {
            for index in 0..200 {
                assert!(seen.insert(instance_seed(seed, index)));
            }
        }
    }

    #[test]
    fn pool_size_follows_the_time_budget_only() {
        for workload in Workload::ALL {
            assert!(workload.instances_for(0.0) >= 1);
            assert!(workload.instances_for(25.0) > workload.instances_for(5.0));
            assert_eq!(Workload::parse(workload.name()), Some(workload));
        }
        assert_eq!(Workload::ServeAttacks.instances_for(0.0), SERVE_POOL_LEN);
        assert_eq!(
            Workload::ServeAttacks.instances_for(30.0) % SERVE_POOL_LEN,
            0
        );
        assert_eq!(Workload::parse("nope"), None);
    }
}
