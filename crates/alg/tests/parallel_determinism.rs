//! The round engine's central guarantee: every parallel execution path is
//! *bitwise* deterministic. For any cluster, topology and round count, a
//! `DibaRun` sharded over 1, 2, 7 or 16 worker threads walks exactly the same
//! `(p, e)` trajectory as the serial engine — not merely close, identical
//! to the last mantissa bit.

use dpc_alg::diba::{DibaConfig, DibaRun};
use dpc_alg::exec::Threads;
use dpc_alg::problem::PowerBudgetProblem;
use dpc_models::units::Watts;
use dpc_models::workload::ClusterBuilder;
use dpc_topology::Graph;
use proptest::prelude::*;

fn graph_for(kind: usize, n: usize) -> Graph {
    match kind {
        0 => Graph::ring(n),
        1 => Graph::star(n),
        2 => Graph::ring_with_chords(n, (n / 4).max(2)),
        _ => {
            // Smallest near-square factorization of a padded grid.
            let rows = (1..=n)
                .rev()
                .find(|r| n.is_multiple_of(*r) && *r * *r <= n)
                .unwrap_or(1);
            Graph::grid(rows, n / rows)
        }
    }
}

fn trajectory(
    n: usize,
    seed: u64,
    per_server: f64,
    kind: usize,
    rounds: usize,
    threads: usize,
) -> Vec<(f64, f64)> {
    let cluster = ClusterBuilder::new(n).seed(seed).build();
    let problem =
        PowerBudgetProblem::new(cluster.utilities(), Watts(per_server * n as f64)).unwrap();
    let config = DibaConfig {
        threads: Threads::Fixed(threads),
        ..DibaConfig::default()
    };
    let mut run = DibaRun::new(problem, graph_for(kind, n), config).unwrap();
    run.run(rounds);
    run.node_states()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Execution with 1, 2, 7 and 16 workers reproduces the serial
    /// trajectory bit for bit, over random clusters, budgets, topologies
    /// and round counts. At 16 workers (capped at n) many shards are
    /// shorter than one 4-lane block, and some are empty.
    #[test]
    fn parallel_rounds_match_serial_bitwise(
        n in 3usize..90,
        seed in 0u64..1_000,
        per_server in 160.0f64..200.0,
        kind in 0usize..4,
        rounds in 1usize..50,
    ) {
        let serial = trajectory(n, seed, per_server, kind, rounds, 1);
        for threads in [1usize, 2, 7, 16] {
            let parallel = trajectory(n, seed, per_server, kind, rounds, threads);
            prop_assert_eq!(serial.len(), parallel.len());
            for (i, (&(ps, es), &(pp, ep))) in serial.iter().zip(&parallel).enumerate() {
                prop_assert_eq!(
                    ps.to_bits(), pp.to_bits(),
                    "p[{}] diverged with {} workers: {} vs {}",
                    i, threads, ps, pp
                );
                prop_assert_eq!(
                    es.to_bits(), ep.to_bits(),
                    "e[{}] diverged with {} workers: {} vs {}",
                    i, threads, es, ep
                );
            }
        }
    }

    /// The stop rules decide inside the dispatch, from sums folded per
    /// worker — and still the *returned round* (and the state it stops in)
    /// does not depend on how many workers folded them.
    #[test]
    fn stop_rounds_are_worker_count_invariant(
        n in 8usize..90,
        seed in 0u64..1_000,
        per_server in 165.0f64..180.0,
        kind in 0usize..4,
        max_rounds in 1usize..500,
    ) {
        let cluster = ClusterBuilder::new(n).seed(seed).build();
        let problem =
            PowerBudgetProblem::new(cluster.utilities(), Watts(per_server * n as f64)).unwrap();
        let reference =
            problem.total_utility(&dpc_alg::centralized::solve(&problem).allocation);
        let solve = |threads: usize| {
            let config = DibaConfig {
                threads: Threads::Fixed(threads),
                ..DibaConfig::default()
            };
            let mut run = DibaRun::new(problem.clone(), graph_for(kind, n), config).unwrap();
            let capped = run.run_until_within(reference, 0.01, max_rounds);
            let rested = run.run_to_rest(0.05, 5, max_rounds);
            (capped, rested, run.node_states())
        };
        let serial = solve(1);
        for threads in [2usize, 7] {
            prop_assert_eq!(&solve(threads), &serial, "{} workers", threads);
        }
    }

    /// Changing the worker count mid-run (as the simulator may) also
    /// leaves the trajectory untouched — the shard cuts are rebuilt, the
    /// FP order is not.
    #[test]
    fn rethreading_mid_run_is_invisible(
        n in 4usize..60,
        seed in 0u64..1_000,
        rounds in 2usize..40,
    ) {
        let serial = trajectory(n, seed, 180.0, 0, rounds, 1);

        let cluster = ClusterBuilder::new(n).seed(seed).build();
        let problem =
            PowerBudgetProblem::new(cluster.utilities(), Watts(180.0 * n as f64)).unwrap();
        let config = DibaConfig {
            threads: Threads::Fixed(3),
            ..DibaConfig::default()
        };
        let mut run = DibaRun::new(problem, Graph::ring(n), config).unwrap();
        let half = rounds / 2;
        run.run(half);
        run.set_threads(Threads::Fixed(5));
        run.run(rounds - half);

        for (&(ps, es), (pp, ep)) in serial.iter().zip(run.node_states()) {
            prop_assert_eq!(ps.to_bits(), pp.to_bits());
            prop_assert_eq!(es.to_bits(), ep.to_bits());
        }
    }
}
