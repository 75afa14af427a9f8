//! Equivalence and safety properties of the hierarchical budget tree.
//!
//! The bitwise tests pin the trivial-tree contract: a chain of domains
//! around a single leaf must reproduce the flat DiBA run exactly — same
//! budget, same ring, same engine — under both the serial and the auto
//! thread policy. The property tests then cover what a fixed example
//! cannot: tenant caps binding at arbitrary fractions of the uncapped
//! draw.

use dpc_alg::centralized;
use dpc_alg::diba::{DibaConfig, DibaRun};
use dpc_alg::exec::Threads;
use dpc_alg::hierarchy::{BudgetTree, DomainSpec, LeafSolver, TenantCap};
use dpc_alg::problem::PowerBudgetProblem;
use dpc_models::units::Watts;
use dpc_models::workload::ClusterBuilder;
use dpc_topology::Graph;
use proptest::prelude::*;

fn cluster(n: usize, seed: u64) -> Vec<dpc_models::QuadraticUtility> {
    ClusterBuilder::new(n).seed(seed).build().utilities()
}

/// A dc → row → rack chain holding every server in the one leaf.
fn trivial_tree(n: usize) -> DomainSpec {
    DomainSpec::internal(
        "dc",
        vec![DomainSpec::internal(
            "row",
            vec![DomainSpec::leaf("rack", (0..n).collect())],
        )],
    )
}

/// Runs the trivial tree and the flat DiBA side by side and asserts the
/// allocations are bitwise identical.
fn assert_trivial_tree_matches_flat(threads: Threads) {
    let n = 40;
    let u = cluster(n, 13);
    let budget = Watts(168.0 * n as f64);
    let config = DibaConfig {
        threads,
        ..DibaConfig::default()
    };
    let rel_tol = 0.01;
    let max_rounds = 60_000;

    let problem = PowerBudgetProblem::new(u.clone(), budget).unwrap();
    let reference = problem.total_utility(&centralized::solve(&problem).allocation);
    let mut flat = DibaRun::new(problem, Graph::ring(n), config).unwrap();
    flat.run_until_within(reference, rel_tol, max_rounds)
        .expect("flat run converges");
    let flat_alloc = flat.allocation();

    let mut tree = BudgetTree::new(u, &trivial_tree(n), budget, vec![]).unwrap();
    let sol = tree
        .solve(&LeafSolver::Diba {
            config,
            rel_tol,
            max_rounds,
        })
        .unwrap();

    for i in 0..n {
        assert_eq!(
            sol.allocation.power(i).0.to_bits(),
            flat_alloc.power(i).0.to_bits(),
            "server {i} diverged under {threads:?}"
        );
    }
}

#[test]
fn trivial_tree_is_bitwise_the_flat_diba_run_serial() {
    assert_trivial_tree_matches_flat(Threads::Fixed(1));
}

#[test]
fn trivial_tree_is_bitwise_the_flat_diba_run_auto() {
    assert_trivial_tree_matches_flat(Threads::Auto);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A tenant capped anywhere below its uncapped draw ends up exactly at
    /// (or under) the cap, with the nested chain and the facility budget
    /// still respected.
    #[test]
    fn binding_tenant_caps_are_always_respected(
        seed in 0u64..64,
        frac in 0.55f64..0.95,
        stride in 3usize..6,
    ) {
        let n = 36;
        let u = cluster(n, seed);
        let budget = Watts(185.0 * n as f64);
        let spec = DomainSpec::uniform(n, 3, 1);
        let members: Vec<usize> = (0..n).step_by(stride).collect();

        let uncapped = {
            let mut tree = BudgetTree::new(u.clone(), &spec, budget, vec![]).unwrap();
            let sol = tree.solve(&LeafSolver::Oracle).unwrap();
            members.iter().map(|&i| sol.allocation.power(i).0).sum::<f64>()
        };
        let floor: f64 = members.iter().map(|&i| u[i].p_min().0).sum();
        let cap = (frac * uncapped).max(floor * (1.0 + 1e-6));
        prop_assume!(cap < uncapped * 0.999);

        let tenants = vec![TenantCap::new("t", members.clone(), Watts(cap))];
        let mut tree = BudgetTree::new(u, &spec, budget, tenants).unwrap();
        let sol = tree.solve(&LeafSolver::Oracle).unwrap();

        let usage: f64 = members.iter().map(|&i| sol.allocation.power(i).0).sum();
        prop_assert!(
            usage <= cap * (1.0 + 1e-6),
            "usage {usage} exceeds cap {cap}"
        );
        prop_assert!(sol.tenants[0].price > 0.0, "cap below draw must price in");
        prop_assert!(sol.total_power <= budget + Watts(1e-6));
        prop_assert!(tree.nested_feasible(Watts(1e-6)));
    }
}
