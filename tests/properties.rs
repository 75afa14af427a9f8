//! Property-based tests of the workspace's core invariants.

use dpc::alg::diba::{DibaConfig, DibaRun};
use dpc::alg::knapsack;
use dpc::alg::primal_dual::{self, PrimalDualConfig};
use dpc::alg::problem::{Allocation, PowerBudgetProblem};
use dpc::alg::{baselines, centralized};
use dpc::models::metrics::{snp_arithmetic, snp_geometric, unfairness};
use dpc::models::throughput::{CurveParams, QuadraticUtility};
use dpc::models::units::Watts;
use dpc::topology::Graph;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy: a random valid utility on a random power box.
fn utility_strategy() -> impl Strategy<Value = QuadraticUtility> {
    (0.02f64..0.95, 110.0f64..140.0, 60.0f64..120.0).prop_map(|(mb, lo, span)| {
        CurveParams::for_memory_boundedness(mb).utility(Watts(lo), Watts(lo + span))
    })
}

/// Strategy: a feasible problem of 3–24 servers with a random tightness.
fn problem_strategy() -> impl Strategy<Value = PowerBudgetProblem> {
    (
        proptest::collection::vec(utility_strategy(), 3..24),
        0.02f64..1.2,
    )
        .prop_map(|(utilities, tightness)| {
            let min: Watts = utilities.iter().map(|u| u.p_min()).sum();
            let max: Watts = utilities.iter().map(|u| u.p_max()).sum();
            let budget = min + (max - min) * tightness.min(1.0) + Watts(1.0);
            PowerBudgetProblem::new(utilities, budget).expect("strictly above floor")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn oracle_dominates_all_other_schemes(p in problem_strategy()) {
        let oracle = centralized::solve(&p);
        let opt = p.total_utility(&oracle.allocation);
        prop_assert!(p.is_feasible(&oracle.allocation, Watts(1e-3)));

        let uniform = baselines::uniform(&p);
        prop_assert!(p.is_feasible(&uniform, Watts(1e-3)));
        prop_assert!(p.total_utility(&uniform) <= opt + opt.abs() * 1e-9);

        let greedy = baselines::greedy_throughput_per_watt(&p, Watts(1.0));
        prop_assert!(p.is_feasible(&greedy, Watts(1e-3)));
        prop_assert!(p.total_utility(&greedy) <= opt + opt.abs() * 1e-9);
    }

    #[test]
    fn primal_dual_lands_feasible_and_near_optimal(p in problem_strategy()) {
        let r = primal_dual::solve(&p, &PrimalDualConfig::default());
        prop_assert!(p.is_feasible(&r.allocation, Watts(1e-3)));
        if r.converged {
            let opt = p.total_utility(&centralized::solve(&p).allocation);
            prop_assert!(p.total_utility(&r.allocation) >= opt * 0.985);
        }
    }

    #[test]
    fn diba_preserves_invariants_under_random_problems(p in problem_strategy()) {
        let n = p.len();
        let mut run = DibaRun::new(p.clone(), Graph::ring(n), DibaConfig::default()).unwrap();
        run.run(300);
        prop_assert!(run.invariant_drift() < 1e-6, "drift {}", run.invariant_drift());
        prop_assert!(run.total_power() <= p.budget() + Watts(1e-6));
        let alloc = run.allocation();
        for (u, &pw) in p.utilities().iter().zip(alloc.powers()) {
            prop_assert!(pw >= u.p_min() - Watts(1e-9));
            prop_assert!(pw <= u.p_max() + Watts(1e-9));
        }
    }

    #[test]
    fn diba_survives_random_budget_walks(
        p in problem_strategy(),
        deltas in proptest::collection::vec(-0.2f64..0.2, 1..6),
    ) {
        let n = p.len();
        let floor = p.min_total();
        let mut run = DibaRun::new(p.clone(), Graph::ring(n), DibaConfig::default()).unwrap();
        run.run(100);
        let span = p.max_total() - floor;
        for d in deltas {
            let target = (run.problem().budget() + span * d)
                .max(floor + Watts(1.0))
                .min(p.max_total() + Watts(50.0));
            run.set_budget(target).unwrap();
            run.run(200);
            prop_assert!(run.invariant_drift() < 1e-6);
        }
        // After settling, the last announced budget is respected. Walks can
        // end arbitrarily close to the feasibility floor, where the
        // residual must diffuse around the whole ring before the last watts
        // shed — give the settle phase room.
        run.run(5_000);
        prop_assert!(
            run.total_power() <= run.problem().budget() + Watts(1e-6),
            "total {} over budget {}",
            run.total_power(),
            run.problem().budget()
        );
    }

    #[test]
    fn knapsack_respects_budget_and_beats_bottom_caps(p in problem_strategy()) {
        // Build a ladder inside the common box.
        let lo = p.utilities().iter().map(|u| u.p_min()).fold(Watts(0.0), Watts::max);
        let hi = p.utilities().iter().map(|u| u.p_max()).fold(Watts(1e9), Watts::min);
        prop_assume!(hi > lo + Watts(8.0));
        let step = (hi - lo) / 4.0;
        let levels: Vec<Watts> = (0..4).map(|j| lo + step * j as f64).collect();
        match knapsack::solve(&p, &levels, Watts(1.0)) {
            Ok(s) => {
                prop_assert!(s.allocation.total() <= p.budget() + Watts(1e-9));
                let bottom: f64 = p.utilities().iter().map(|u| u.anp(levels[0]).ln()).sum();
                prop_assert!(s.log_value >= bottom - 1e-9);
            }
            Err(e) => {
                // Only acceptable failure: the ladder floor exceeds the budget.
                let infeasible =
                    matches!(e, dpc::alg::problem::AlgError::InfeasibleBudget { .. });
                prop_assert!(infeasible, "unexpected error: {e}");
            }
        }
    }

    #[test]
    fn random_connected_graphs_are_connected_with_exact_edges(
        n in 4usize..60,
        extra in 0usize..40,
        seed in 0u64..1000,
    ) {
        let m = (n - 1 + extra).min(n * (n - 1) / 2);
        let mut rng = StdRng::seed_from_u64(seed);
        let g = Graph::erdos_renyi_connected(n, m, &mut rng, 200).unwrap();
        prop_assert!(g.is_connected());
        prop_assert_eq!(g.num_edges(), m);
    }

    #[test]
    fn metrics_are_bounded_and_consistent(
        anps in proptest::collection::vec(0.05f64..=1.0, 1..50),
    ) {
        let a = snp_arithmetic(&anps);
        let g = snp_geometric(&anps);
        prop_assert!(g <= a + 1e-12, "geometric {g} > arithmetic {a}");
        prop_assert!(a > 0.0 && a <= 1.0 + 1e-9);
        prop_assert!(unfairness(&anps) >= 0.0);
    }

    #[test]
    fn allocation_permutation_equivariance(p in problem_strategy(), seed in 0u64..100) {
        // Permuting the servers permutes the oracle allocation.
        use rand::seq::SliceRandom;
        let mut rng = StdRng::seed_from_u64(seed);
        let n = p.len();
        let mut perm: Vec<usize> = (0..n).collect();
        perm.shuffle(&mut rng);

        let base = centralized::solve(&p).allocation;
        let permuted_utilities: Vec<_> = perm.iter().map(|&i| p.utilities()[i]).collect();
        let permuted_problem =
            PowerBudgetProblem::new(permuted_utilities, p.budget()).unwrap();
        let permuted = centralized::solve(&permuted_problem).allocation;

        let expected: Allocation = perm.iter().map(|&i| base.power(i)).collect();
        prop_assert!(permuted.max_abs_diff(&expected) < Watts(1e-6));
    }

    #[test]
    fn zero_event_replay_is_bitwise_identical_to_a_plain_run(
        servers in 8usize..32,
        seed in 0u64..500,
    ) {
        // A replay with no events is exactly the initial settle —
        // replaying must add nothing to the trajectory, serial or parallel.
        use dpc::alg::exec::Threads;
        use dpc::sim::replay::{replay, ReplayConfig, Scenario, SettleCriterion};
        let scenario = Scenario {
            servers,
            seed,
            topology: "ring".to_string(),
            budget: Watts(170.0 * servers as f64),
            events: Vec::new(),
        };
        let settle = SettleCriterion {
            tol_watts: 1e-2,
            stable_rounds: 5,
            max_rounds: 50_000,
        };
        for threads in [Threads::Fixed(1), Threads::Fixed(4)] {
            let diba = DibaConfig {
                threads,
                ..DibaConfig::default()
            };
            let out = replay(&scenario, &ReplayConfig { diba, settle, compare_cold: false })
                .unwrap();
            prop_assert!(out.report.events.is_empty());
            let mut plain = DibaRun::new(
                scenario.initial_problem().unwrap(),
                scenario.graph().unwrap(),
                diba,
            )
            .unwrap();
            let rounds =
                plain.run_to_rest(settle.tol_watts, settle.stable_rounds, settle.max_rounds);
            prop_assert_eq!(out.report.initial_rounds, rounds);
            let (replayed, direct) = (out.run.allocation(), plain.allocation());
            prop_assert_eq!(replayed.powers(), direct.powers());
        }
    }

    #[test]
    fn warm_resolve_matches_cold_solve_within_eps(
        p in problem_strategy(),
        trim in 0.97f64..1.0,
        mb in 0.05f64..0.95,
    ) {
        // A warm re-solve after a mutation and a cold solve on the mutated
        // instance share their equilibrium (η is re-derived from the
        // problem alone), so their resting allocations must agree within
        // the workspace's numeric-equivalence budget.
        let n = p.len();
        let mut run = DibaRun::new(p.clone(), Graph::ring(n), DibaConfig::default()).unwrap();
        prop_assume!(run.run_to_rest(1e-4, 20, 200_000).is_some());
        let floor = p.min_total();
        let target = (p.budget() * trim).max(floor + Watts(1.0));
        run.set_budget(target).unwrap();
        let u0 = run.problem().utility(0);
        let new_u = CurveParams::for_memory_boundedness(mb).utility(u0.p_min(), u0.p_max());
        run.replace_utilities(&[(0, new_u)]).unwrap();
        prop_assume!(run.run_to_rest(1e-4, 20, 200_000).is_some());

        let mut cold =
            DibaRun::new(run.problem().clone(), Graph::ring(n), DibaConfig::default()).unwrap();
        prop_assume!(cold.run_to_rest(1e-4, 20, 200_000).is_some());

        // Rest can be declared while the barrier continuation is still
        // dissipating, and the two runs re-arm it differently. A fixed
        // post-rest polish lets both finish the decay and close in on the
        // shared equilibrium before the ε comparison.
        run.run(30_000);
        cold.run(30_000);

        let eps = DibaConfig::default().equiv_eps_watts;
        let (warm_alloc, cold_alloc) = (run.allocation(), cold.allocation());
        for (i, (w, c)) in warm_alloc
            .powers()
            .iter()
            .zip(cold_alloc.powers())
            .enumerate()
        {
            prop_assert!(
                (*w - *c).abs() <= Watts(eps),
                "node {i}: warm {w} vs cold {c} beyond ε = {eps} W"
            );
        }
    }
}

/// The shape of the tree, pinned: three ways to drive an agent, each
/// reachable from the CLI under its own key; a usage text that names
/// exactly the subcommands `cli::run` dispatches and, under each, exactly
/// the flags that subcommand accepts; and no stopwatch outside
/// `benchmark/`. Re-adding a driver, shipping an undocumented subcommand
/// or flag, or growing a `bench` command back fails here.
#[test]
fn drivers_and_subcommands_match_what_the_cli_documents() {
    use dpc::cli;
    use dpc::runtime::TransportKind;
    use std::collections::BTreeSet;

    // One wire driver: the lockstep reference and the reactor, which is
    // also what a `dpc node` process runs.
    assert_eq!(
        TransportKind::ALL.map(TransportKind::key),
        ["lockstep", "reactor"]
    );
    for transport in TransportKind::ALL {
        let key = transport.key();
        assert_eq!(TransportKind::from_key(key), Some(transport));
        let args = ["cluster", "--servers", "4", "--transport", key].map(String::from);
        let out = cli::run(&args).unwrap();
        assert!(
            out.contains(&format!("4 nodes on {key} transport")),
            "{out}"
        );
    }

    // A subcommand's usage entry starts at a two-space indent; its flag
    // lines sit deeper and belong to the entry above them.
    let usage = cli::usage();
    let mut documented: Vec<(&str, BTreeSet<&str>)> = Vec::new();
    for line in usage.lines().skip_while(|l| *l != "COMMANDS:").skip(1) {
        if line.starts_with("  ") && !line.starts_with("   ") {
            documented.push((line.split_whitespace().next().unwrap(), BTreeSet::new()));
        }
        let flags = line.split_whitespace().filter_map(|w| w.strip_prefix("--"));
        let flags = flags.map(|f| f.trim_end_matches(|c: char| !c.is_ascii_alphanumeric()));
        let entry = documented.last_mut().expect("an entry precedes its flags");
        entry.1.extend(flags);
    }
    // The accepted side is what each subcommand's parse step reads.
    let mut dispatched: Vec<(&str, BTreeSet<&str>)> = cli::COMMANDS
        .iter()
        .map(|&(name, parse)| (name, cli::accepted(parse).into_iter().collect()))
        .collect();
    dispatched.push(("help", BTreeSet::new()));
    assert_eq!(documented, dispatched);

    // One stopwatch: wall-clock measurement lives in `benchmark/`.
    assert_eq!(cli::COMMANDS.len(), 10);
    let takes_bench: Vec<&str> = cli::COMMANDS
        .iter()
        .filter(|&&(name, parse)| name == "bench" || cli::accepted(parse).contains(&"bench"))
        .map(|(name, _)| *name)
        .collect();
    assert_eq!(takes_bench, ["hier"]);
}
