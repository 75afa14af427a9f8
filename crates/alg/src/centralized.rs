//! Centralized oracle solver.
//!
//! The paper solves Eqs. 4.1–4.3 centrally with CVX; for concave quadratics
//! with box constraints the KKT conditions give a closed form per dual price
//! λ — every server sits at `argmax r_i(p) − λ·p` — and the total power
//! `Σ p_i(λ)` is nonincreasing in λ, so the optimal price is found by
//! bisection (water-filling). This is exact to tolerance and serves as the
//! reference every decentralized scheme is measured against.

use crate::problem::{Allocation, PowerBudgetProblem};
use dpc_models::units::Watts;

/// Result of the centralized solve.
#[derive(Debug, Clone, PartialEq)]
pub struct CentralizedSolution {
    /// The optimal power caps.
    pub allocation: Allocation,
    /// The optimal dual price λ* (0 when the budget is slack).
    pub lambda: f64,
    /// Bisection iterations used.
    pub iterations: usize,
}

/// Tolerance on the budget residual, as a fraction of the budget.
const BUDGET_REL_TOL: f64 = 1e-9;

/// Solves the problem exactly by KKT bisection on the dual price.
///
/// Runs in `O(n · log(1/tol))`.
pub fn solve(problem: &PowerBudgetProblem) -> CentralizedSolution {
    let n = problem.len();
    debug_assert!(n > 0);

    if problem.is_unconstrained() {
        let allocation: Allocation = problem.utilities().iter().map(|u| u.p_max()).collect();
        return CentralizedSolution {
            allocation,
            lambda: 0.0,
            iterations: 0,
        };
    }

    let total_at = |lambda: f64| -> Watts {
        problem
            .utilities()
            .iter()
            .map(|u| u.argmax_minus_price(lambda))
            .sum()
    };

    // At λ = 0 every node sits at p_max (monotone utilities): total > budget
    // here since the unconstrained case was handled above. Raise λ until the
    // total fits.
    let mut lo = 0.0_f64;
    let mut hi = problem
        .utilities()
        .iter()
        .map(|u| u.slope(u.p_min()))
        .fold(0.0_f64, f64::max)
        .max(1e-12);
    // Guard: expand hi until total(hi) ≤ budget (hi at max start-slope
    // already forces everyone to p_min, but keep the loop for safety with
    // degenerate linear utilities).
    let mut expand = 0;
    // Σp(hi), kept from the evaluation that set `hi`.
    let mut total_hi = total_at(hi);
    while total_hi > problem.budget() && expand < 64 {
        hi *= 2.0;
        expand += 1;
        total_hi = total_at(hi);
    }

    let tol = problem.budget() * BUDGET_REL_TOL;
    let mut iterations = 0usize;
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        // At float resolution the bracket cannot shrink: every later step
        // would leave `hi` where it is. A server with a linear utility whose
        // slope is the price makes Σp(λ) jump across the tolerance band,
        // so the residual test alone never stops there.
        if mid == lo || mid == hi {
            break;
        }
        iterations += 1;
        let total_mid = total_at(mid);
        if total_mid > problem.budget() {
            lo = mid;
        } else {
            hi = mid;
            total_hi = total_mid;
        }
        if total_hi >= problem.budget() - tol {
            break;
        }
    }
    // hi is the smallest bracketed price whose allocation fits the budget.
    let lambda = hi;
    let allocation: Allocation = problem
        .utilities()
        .iter()
        .map(|u| u.argmax_minus_price(lambda))
        .collect();
    CentralizedSolution {
        allocation,
        lambda,
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpc_models::throughput::QuadraticUtility;
    use dpc_models::workload::ClusterBuilder;

    fn problem(n: usize, budget: f64, seed: u64) -> PowerBudgetProblem {
        let c = ClusterBuilder::new(n).seed(seed).build();
        PowerBudgetProblem::new(c.utilities(), Watts(budget)).unwrap()
    }

    #[test]
    fn unconstrained_budget_gives_everyone_peak() {
        let p = problem(20, 1e6, 1);
        let s = solve(&p);
        assert_eq!(s.lambda, 0.0);
        for (u, &pw) in p.utilities().iter().zip(s.allocation.powers()) {
            assert_eq!(pw, u.p_max());
        }
    }

    #[test]
    fn solution_is_feasible_and_spends_the_budget() {
        let p = problem(100, 16_000.0, 2);
        let s = solve(&p);
        assert!(p.is_feasible(&s.allocation, Watts(1e-3)));
        // A binding budget is fully spent (no slack at the optimum of a
        // monotone objective).
        let spent = s.allocation.total();
        assert!(
            (p.budget() - spent).abs() < p.budget() * 1e-5,
            "spent {spent} of {}",
            p.budget()
        );
    }

    #[test]
    fn kkt_marginal_utilities_equalize_at_interior_points() {
        let p = problem(50, 8_000.0, 3);
        let s = solve(&p);
        for (u, &pw) in p.utilities().iter().zip(s.allocation.powers()) {
            let interior = pw > u.p_min() + Watts(1e-3) && pw < u.p_max() - Watts(1e-3);
            if interior {
                let slope = u.slope(pw);
                assert!(
                    (slope - s.lambda).abs() < 1e-6,
                    "interior node slope {slope} vs λ {}",
                    s.lambda
                );
            }
        }
    }

    #[test]
    fn beats_every_random_feasible_allocation() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let p = problem(30, 4_800.0, 4);
        let s = solve(&p);
        let best = p.total_utility(&s.allocation);
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..200 {
            // Random feasible point: random box point scaled under budget.
            let raw: Vec<Watts> = p
                .utilities()
                .iter()
                .map(|u| u.p_min() + (u.p_max() - u.p_min()) * rng.gen_range(0.0..1.0))
                .collect();
            let total: Watts = raw.iter().sum();
            let alloc: Allocation = if total > p.budget() {
                let excess = total - p.budget();
                let above_min: Watts = raw
                    .iter()
                    .zip(p.utilities())
                    .map(|(&r, u)| r - u.p_min())
                    .sum();
                let shrink = 1.0 - excess / above_min;
                raw.iter()
                    .zip(p.utilities())
                    .map(|(&r, u)| u.p_min() + (r - u.p_min()) * shrink)
                    .collect()
            } else {
                Allocation::new(raw)
            };
            assert!(p.is_feasible(&alloc, Watts(1e-6)));
            assert!(p.total_utility(&alloc) <= best + best.abs() * 1e-9);
        }
    }

    /// The bisection as it was before it stopped on a bracket that cannot
    /// shrink: 200 steps unless the residual test stops it. Returns λ and
    /// the steps taken. Starts at `hi = 1`, the largest slope at `p_min` of
    /// the problem below.
    fn two_hundred_steps(problem: &PowerBudgetProblem) -> (f64, usize) {
        let total_at = |lambda: f64| -> Watts {
            problem
                .utilities()
                .iter()
                .map(|u| u.argmax_minus_price(lambda))
                .sum()
        };
        let (mut lo, mut hi) = (0.0_f64, 1.0_f64);
        while total_at(hi) > problem.budget() {
            hi *= 2.0;
        }
        let tol = problem.budget() * BUDGET_REL_TOL;
        let mut steps = 0;
        for _ in 0..200 {
            steps += 1;
            let mid = 0.5 * (lo + hi);
            if total_at(mid) > problem.budget() {
                lo = mid;
            } else {
                hi = mid;
            }
            if total_at(hi) >= problem.budget() - tol {
                break;
            }
        }
        (hi, steps)
    }

    #[test]
    fn a_linear_tie_stops_early_with_the_same_bits() {
        // The linear server's slope 0.5 is the price at which the budget
        // binds: Σp(λ) jumps from 350 W to 250 W there, across the 300 W
        // budget, so the residual never gets within tolerance.
        let quadratic = QuadraticUtility::new(0.0, 2.0, -0.005, Watts(100.0), Watts(200.0));
        let linear = QuadraticUtility::new(1.0, 0.5, 0.0, Watts(100.0), Watts(200.0));
        let p = PowerBudgetProblem::new(vec![quadratic.unwrap(), linear.unwrap()], Watts(300.0))
            .unwrap();
        let s = solve(&p);
        let (lambda, steps) = two_hundred_steps(&p);
        assert_eq!(steps, 200);
        assert!(s.iterations < 60, "{} iterations", s.iterations);
        assert_eq!(s.lambda.to_bits(), lambda.to_bits());
        let want: Vec<u64> = p
            .utilities()
            .iter()
            .map(|u| u.argmax_minus_price(lambda).0.to_bits())
            .collect();
        let got: Vec<u64> = s
            .allocation
            .powers()
            .iter()
            .map(|w| w.0.to_bits())
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn tight_budget_pins_everyone_to_minimum() {
        let c = ClusterBuilder::new(10).seed(5).build();
        let min_total = c.min_total_power();
        let p = PowerBudgetProblem::new(c.utilities(), min_total).unwrap();
        let s = solve(&p);
        for (u, &pw) in p.utilities().iter().zip(s.allocation.powers()) {
            assert!((pw - u.p_min()).abs() < Watts(1e-3), "{pw}");
        }
    }
}
