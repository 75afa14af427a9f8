//! `Precision` selects nothing, pinned. There is one numeric contract —
//! the reference kernel's arithmetic in its fold orders — and `DibaRun`
//! picks its round traversal (CSR rows, or the 4-lane ring sweep) from the
//! graph's shape, not from the configured precision. So
//! `Precision::Reference` and `Precision::Fast` must produce the same bits
//! on every topology and worker count: the same allocation and residuals
//! after the same rounds, and the same 99 %-of-optimal convergence round.
//! Within either setting the usual determinism laws still apply — worker
//! count and `run(k)` batching must be bitwise invisible.

use dpc_alg::centralized;
use dpc_alg::diba::{DibaConfig, DibaRun};
use dpc_alg::exec::{Precision, Threads};
use dpc_alg::problem::PowerBudgetProblem;
use dpc_models::units::Watts;
use dpc_models::workload::ClusterBuilder;
use dpc_topology::Graph;
use proptest::prelude::*;

/// Ring, two chords, `n/4` chords, or a torus over `rows × cols` nodes.
fn graph_for(rows: usize, cols: usize, topology: usize) -> Graph {
    let n = rows * cols;
    match topology {
        0 => Graph::ring(n),
        1 => Graph::ring_with_chords(n, 2),
        2 => Graph::ring_with_chords(n, (n / 4).max(2)),
        _ => Graph::torus(rows, cols).expect("sides of at least 3"),
    }
}

fn run_for(
    rows: usize,
    cols: usize,
    seed: u64,
    topology: usize,
    threads: Threads,
    precision: Precision,
) -> DibaRun {
    let n = rows * cols;
    let cluster = ClusterBuilder::new(n).seed(seed).build();
    let problem = PowerBudgetProblem::new(cluster.utilities(), Watts(171.0 * n as f64)).unwrap();
    let config = DibaConfig {
        threads,
        precision,
        ..DibaConfig::default()
    };
    DibaRun::new(problem, graph_for(rows, cols, topology), config).unwrap()
}

/// Every `(p, e)` as bits, so `-0.0` and `0.0` count as different.
fn bits(run: &DibaRun) -> Vec<(u64, u64)> {
    run.node_states()
        .into_iter()
        .map(|(p, e)| (p.to_bits(), e.to_bits()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// After the same number of rounds on the same problem, both settings
    /// hold the same `(p, e)` bits and the same last max |dp| — across
    /// random problems, topologies and worker counts.
    #[test]
    fn fast_allocation_stays_within_the_equivalence_budget(
        seed in 0u64..1_000,
        rows in 3usize..7,
        cols in 3usize..8,
        topology in 0usize..4,
        rounds in 100usize..400,
        threads in (0usize..3).prop_map(|i| [1usize, 2, 7][i]),
    ) {
        let mut reference =
            run_for(rows, cols, seed, topology, Threads::Fixed(threads), Precision::Reference);
        let mut fast = run_for(rows, cols, seed, topology, Threads::Fixed(threads), Precision::Fast);
        reference.run(rounds);
        fast.run(rounds);
        prop_assert_eq!(
            bits(&fast),
            bits(&reference),
            "topology {}, {} threads", topology, threads
        );
        prop_assert_eq!(fast.last_max_step().to_bits(), reference.last_max_step().to_bits());
        prop_assert!(fast.invariant_drift() < 1e-6, "drift {}", fast.invariant_drift());
    }

    /// Both settings reach the paper's 99 %-of-optimal criterion on the
    /// same round, in the same bits.
    #[test]
    fn fast_convergence_round_tracks_the_reference(
        seed in 0u64..1_000,
        rows in 3usize..6,
        cols in 3usize..7,
        topology in 0usize..4,
    ) {
        let mut reference =
            run_for(rows, cols, seed, topology, Threads::Fixed(1), Precision::Reference);
        let mut fast = run_for(rows, cols, seed, topology, Threads::Fixed(1), Precision::Fast);
        let optimal = reference
            .problem()
            .total_utility(&centralized::solve(reference.problem()).allocation);

        let r_ref = reference.run_until_within(optimal, 0.01, 20_000);
        prop_assert!(r_ref.is_some(), "reference never converged");
        prop_assert_eq!(fast.run_until_within(optimal, 0.01, 20_000), r_ref);
        prop_assert_eq!(bits(&fast), bits(&reference));
    }

    /// Under `Precision::Fast` the determinism laws are unchanged: the
    /// trajectory is bitwise invariant to the worker count and to `run(k)`
    /// batching, and batching preserves `Σe = Σp − P`.
    #[test]
    fn fast_tier_is_worker_and_batching_invariant(
        seed in 0u64..1_000,
        rows in 3usize..7,
        cols in 3usize..8,
        topology in 0usize..4,
        k in 1usize..60,
    ) {
        let fast = |threads| run_for(rows, cols, seed, topology, Threads::Fixed(threads), Precision::Fast);
        let (mut serial, mut two, mut seven, mut batched) = (fast(1), fast(2), fast(7), fast(2));

        for _ in 0..k {
            serial.step();
            two.step();
            seven.step();
        }
        batched.run(k);

        prop_assert_eq!(bits(&serial), bits(&two));
        prop_assert_eq!(bits(&serial), bits(&seven));
        prop_assert_eq!(bits(&two), bits(&batched));
        prop_assert!(batched.invariant_drift() < 1e-6);
    }
}
