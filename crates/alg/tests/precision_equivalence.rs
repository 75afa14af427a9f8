//! The two-tier numerical contract, pinned. `Precision::Reference` is the
//! bitwise-reproducible trajectory; `Precision::Fast` trades byte equality
//! for throughput and is held to a *numeric* equivalence gate instead:
//! the final allocation must land within `equiv_eps_watts` of the
//! reference per node, the 99 %-of-optimal convergence round must agree
//! within `equiv_rounds`, and the residual invariant `Σe = Σp − P` must
//! hold to the same drift budget. Within the fast tier itself the usual
//! determinism laws still apply — worker count and `run(k)` batching
//! must be bitwise invisible — which this suite also pins.

use dpc_alg::centralized;
use dpc_alg::diba::{DibaConfig, DibaRun};
use dpc_alg::exec::{Precision, Threads};
use dpc_alg::problem::PowerBudgetProblem;
use dpc_models::units::Watts;
use dpc_models::workload::ClusterBuilder;
use dpc_topology::Graph;
use proptest::prelude::*;

fn graph_for(n: usize, topology: usize) -> Graph {
    match topology {
        0 => Graph::ring(n),
        1 => Graph::ring_with_chords(n, 2),
        _ => Graph::ring_with_chords(n, (n / 4).max(2)),
    }
}

fn run_for(
    n: usize,
    seed: u64,
    topology: usize,
    threads: Threads,
    precision: Precision,
) -> DibaRun {
    let cluster = ClusterBuilder::new(n).seed(seed).build();
    let problem = PowerBudgetProblem::new(cluster.utilities(), Watts(171.0 * n as f64)).unwrap();
    let config = DibaConfig {
        threads,
        precision,
        ..DibaConfig::default()
    };
    DibaRun::new(problem, graph_for(n, topology), config).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// After the same number of rounds on the same problem, the fast tier's
    /// allocation sits within the `equiv_eps_watts` budget of the reference
    /// per node, stays feasible, and conserves the residual invariant —
    /// across random problems, topologies, and worker counts.
    #[test]
    fn fast_allocation_stays_within_the_equivalence_budget(
        seed in 0u64..1_000,
        n in 8usize..48,
        topology in 0usize..3,
        rounds in 100usize..400,
        threads in (0usize..3).prop_map(|i| [1usize, 2, 7][i]),
    ) {
        let eps = DibaConfig::default().equiv_eps_watts;
        let mut reference = run_for(n, seed, topology, Threads::Fixed(threads), Precision::Reference);
        let mut fast = run_for(n, seed, topology, Threads::Fixed(threads), Precision::Fast);
        reference.run(rounds);
        fast.run(rounds);

        let budget = Watts(171.0 * n as f64);
        prop_assert!(fast.total_power() <= budget + Watts(1e-6));
        prop_assert!(fast.invariant_drift() < 1e-6, "drift {}", fast.invariant_drift());

        let worst = reference
            .allocation()
            .powers()
            .iter()
            .zip(fast.allocation().powers())
            .map(|(r, f)| (r.0 - f.0).abs())
            .fold(0.0, f64::max);
        prop_assert!(
            worst <= eps,
            "max per-node deviation {worst} W exceeds the {eps} W budget \
             (n = {n}, topology = {topology}, {threads} threads)"
        );
    }

    /// Both tiers reach the paper's 99 %-of-optimal criterion, and the
    /// round at which they do differs by at most `equiv_rounds`.
    #[test]
    fn fast_convergence_round_tracks_the_reference(
        seed in 0u64..1_000,
        n in 8usize..40,
        topology in 0usize..3,
    ) {
        let k = DibaConfig::default().equiv_rounds;
        let mut reference = run_for(n, seed, topology, Threads::Fixed(1), Precision::Reference);
        let mut fast = run_for(n, seed, topology, Threads::Fixed(1), Precision::Fast);
        let optimal = reference
            .problem()
            .total_utility(&centralized::solve(reference.problem()).allocation);

        let r_ref = reference.run_until_within(optimal, 0.01, 20_000);
        let r_fast = fast.run_until_within(optimal, 0.01, 20_000);
        prop_assert!(r_ref.is_some(), "reference never converged");
        prop_assert!(r_fast.is_some(), "fast tier never converged");
        let (r_ref, r_fast) = (r_ref.unwrap(), r_fast.unwrap());
        prop_assert!(
            r_ref.abs_diff(r_fast) <= k,
            "convergence rounds diverged: reference {r_ref}, fast {r_fast} (±{k} allowed)"
        );
    }

    /// Inside the fast tier the determinism laws are unchanged: the
    /// trajectory is bitwise invariant to the worker count and to
    /// `run(k)` batching, and batching preserves `Σe = Σp − P`.
    #[test]
    fn fast_tier_is_worker_and_batching_invariant(
        seed in 0u64..1_000,
        n in 8usize..48,
        topology in 0usize..3,
        k in 1usize..60,
    ) {
        let mut serial = run_for(n, seed, topology, Threads::Fixed(1), Precision::Fast);
        let mut two = run_for(n, seed, topology, Threads::Fixed(2), Precision::Fast);
        let mut seven = run_for(n, seed, topology, Threads::Fixed(7), Precision::Fast);
        let mut batched = run_for(n, seed, topology, Threads::Fixed(2), Precision::Fast);

        for _ in 0..k {
            serial.step();
            two.step();
            seven.step();
        }
        batched.run(k);

        prop_assert_eq!(serial.allocation(), two.allocation());
        prop_assert_eq!(serial.allocation(), seven.allocation());
        prop_assert_eq!(two.allocation(), batched.allocation());
        prop_assert_eq!(two.residuals(), batched.residuals());
        prop_assert_eq!(two.node_states(), batched.node_states());
        prop_assert!(batched.invariant_drift() < 1e-6);
    }
}
