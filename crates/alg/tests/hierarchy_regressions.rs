//! Regression test for the budget-split feasibility bug of the seed-era
//! flat hierarchy: it split the facility budget proportionally to member
//! *count*, so a group with high idle floors got `InfeasibleBudget` even
//! when the total was ample. The budget tree must never do that.

use dpc_alg::hierarchy::{BudgetTree, DomainSpec, LeafSolver};
use dpc_models::throughput::{CurveParams, QuadraticUtility};
use dpc_models::units::Watts;

fn curves(n: usize, mb: f64, p_min: f64, p_max: f64) -> Vec<QuadraticUtility> {
    (0..n)
        .map(|_| CurveParams::for_memory_boundedness(mb).utility(Watts(p_min), Watts(p_max)))
        .collect()
}

/// A domain whose members have high idle floors must receive at least its
/// aggregate floor whenever the *total* budget is ample — the split
/// follows the children's aggregate demand curves, not member count.
#[test]
fn ample_budget_with_heterogeneous_floors_is_feasible() {
    // Group 0: 10 servers idling at 150 W; group 1: 10 servers idling at
    // 60 W. Facility floor is 2100 W; the budget leaves 20 % slack, yet a
    // count-proportional split hands group 0 only 1260 W < its 1500 W floor.
    let mut all = curves(10, 0.3, 150.0, 210.0);
    all.extend(curves(10, 0.3, 60.0, 210.0));
    let spec = DomainSpec::internal(
        "dc",
        vec![
            DomainSpec::leaf("hot", (0..10).collect()),
            DomainSpec::leaf("cool", (10..20).collect()),
        ],
    );
    let total = Watts(2100.0 * 1.2);

    let mut tree = BudgetTree::new(all, &spec, total, vec![])
        .expect("ample total budget must be feasible for every group");
    let sol = tree
        .solve(&LeafSolver::Oracle)
        .expect("depth-1 tree solves");
    // The tree's feasibility tolerance everywhere (curve inversion lands
    // a floor-pinned domain within roundoff of its floor).
    let tol = Watts(1e-6);
    assert!(sol.total_power <= total + tol);
    assert!(tree.nested_feasible(tol));

    let budgets: Vec<Watts> = tree.domain_reports()[1..]
        .iter()
        .map(|d| d.budget)
        .collect();
    assert!(
        budgets[0] >= Watts(1500.0) - tol,
        "high-floor group got {} < its 1500 W floor",
        budgets[0]
    );
    assert!(budgets[1] >= Watts(600.0) - tol);
    let sum: Watts = budgets.iter().copied().sum();
    assert!(
        (sum - total).abs() < tol,
        "split does not conserve the total: {sum} vs {total}"
    );
}
