//! Primal-dual decomposition (Algorithm 3).
//!
//! The conventional distributed baseline: a central coordinator iterates the
//! dual price `λ⁺ = [λ − ε(P − Σ pᵢ)]⁺` (Eq. 4.5) while every server solves
//! its local problem `pᵢ = argmax rᵢ(p) − λ·p` (Eq. 4.6) in closed form.
//! Scalable in computation but every iteration funnels `2N` packets through
//! the coordinator — the communication bottleneck Table 4.2 quantifies.

use crate::centralized;
use crate::exec::REDUCE_CHUNK;
use crate::problem::{Allocation, PowerBudgetProblem};
use dpc_models::units::Watts;

/// Tuning knobs for the primal-dual iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrimalDualConfig {
    /// Dual step size ε; `None` picks the Newton-like default
    /// `1 / Σ 1/(2|cᵢ|)` from the problem's curvatures.
    pub step: Option<f64>,
    /// Iteration budget.
    pub max_iterations: usize,
    /// Convergence threshold: stop when the iterate is feasible and its
    /// utility is within this relative gap of the centralized optimum
    /// (the paper uses 1 %, Eq. 4.11).
    pub rel_tol: f64,
}

impl Default for PrimalDualConfig {
    fn default() -> Self {
        PrimalDualConfig {
            step: None,
            max_iterations: 500,
            rel_tol: 0.01,
        }
    }
}

/// One recorded iteration of the dual ascent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrimalDualTrace {
    /// Dual price before the primal response.
    pub lambda: f64,
    /// Total power of the primal response.
    pub total_power: Watts,
    /// Total utility of the primal response.
    pub utility: f64,
}

/// Outcome of the primal-dual solve.
#[derive(Debug, Clone, PartialEq)]
pub struct PrimalDualResult {
    /// Final (feasible) allocation.
    pub allocation: Allocation,
    /// Final dual price.
    pub lambda: f64,
    /// Iterations executed until the convergence test fired (Eq. 4.11).
    pub iterations: usize,
    /// Whether the convergence test fired within the iteration budget.
    pub converged: bool,
    /// Per-iteration trace.
    pub history: Vec<PrimalDualTrace>,
}

fn default_step(problem: &PowerBudgetProblem) -> f64 {
    // Newton scale of the dual: dΣp/dλ = Σ 1/(2cᵢ) over interior nodes.
    let sensitivity: f64 = problem
        .utilities()
        .iter()
        .filter_map(|u| {
            let (_, _, c) = u.coefficients();
            (c < 0.0).then(|| 1.0 / (2.0 * c.abs()))
        })
        .sum();
    if sensitivity > 0.0 {
        1.0 / sensitivity
    } else {
        // All-linear degenerate problem: relate price scale to power scale.
        let slope = problem
            .utilities()
            .iter()
            .map(|u| u.slope(u.p_min()))
            .fold(0.0_f64, f64::max)
            .max(1e-9);
        slope / (problem.budget().0.max(1.0))
    }
}

/// Runs Algorithm 3, computing the convergence reference internally.
///
/// The reported `iterations` is the first iteration whose primal response is
/// feasible and within `rel_tol` of the centralized optimum — the paper's
/// convergence accounting for Table 4.2. The returned allocation is that
/// iterate (or, on non-convergence, the best feasible iterate seen).
pub fn solve(problem: &PowerBudgetProblem, config: &PrimalDualConfig) -> PrimalDualResult {
    let reference = centralized::solve(problem);
    let optimal_utility = problem.total_utility(&reference.allocation);
    solve_with_reference(problem, config, optimal_utility)
}

/// Runs Algorithm 3 against a precomputed optimal utility — the variant to
/// wall-clock when the oracle's cost must not contaminate the measurement.
pub fn solve_with_reference(
    problem: &PowerBudgetProblem,
    config: &PrimalDualConfig,
    optimal_utility: f64,
) -> PrimalDualResult {
    let step = config.step.unwrap_or_else(|| default_step(problem));
    let budget = problem.budget();
    let feas_tol = budget * 1e-9 + Watts(1e-9);

    // The primal responses land in one buffer reused by every iteration.
    let mut powers = vec![0.0; problem.len()];

    let mut lambda = 0.0;
    let mut history = Vec::new();
    let mut best_feasible: Option<(f64, f64)> = None;
    // Bold-driver adaptation: boxes pin part of the cluster, shrinking the
    // dual sensitivity below the all-interior Newton estimate; growing the
    // step while the residual keeps its sign (and halving on a sign flip)
    // recovers the paper's few-iteration convergence without per-problem
    // tuning.
    let mut step = step;
    let mut prev_residual: Option<f64> = None;

    for iter in 1..=config.max_iterations {
        // Primal response at the current price (Eq. 4.6), computed locally
        // by every server.
        let (total, utility) = primal_response(problem, lambda, &mut powers);
        history.push(PrimalDualTrace {
            lambda,
            total_power: total,
            utility,
        });

        let feasible = total <= budget + feas_tol;
        if feasible {
            let gap = (optimal_utility - utility).abs() / optimal_utility.abs().max(1e-12);
            if gap < config.rel_tol {
                return PrimalDualResult {
                    allocation: powers.iter().map(|&p| Watts(p)).collect(),
                    lambda,
                    iterations: iter,
                    converged: true,
                    history,
                };
            }
            match &best_feasible {
                Some((_, u)) if *u >= utility => {}
                _ => best_feasible = Some((lambda, utility)),
            }
        }

        // Dual ascent at the coordinator (Eq. 4.5).
        let residual = (budget - total).0;
        if let Some(prev) = prev_residual {
            if prev.signum() == residual.signum() {
                step *= 1.6;
            } else {
                step *= 0.5;
            }
        }
        prev_residual = Some(residual);
        lambda = (lambda - step * residual).max(0.0);
    }

    let (lambda, allocation) = match best_feasible {
        Some((l, _)) => {
            // The primal response is a pure function of the price, so the
            // best feasible iterate is recovered by re-evaluating it.
            primal_response(problem, l, &mut powers);
            (l, powers.iter().map(|&p| Watts(p)).collect())
        }
        None => {
            // Never feasible within budget: fall back to the oracle
            // solution (recomputed — this path only fires on pathological
            // configurations, never in the timed hot path).
            let reference = centralized::solve(problem);
            (reference.lambda, reference.allocation)
        }
    };
    PrimalDualResult {
        allocation,
        lambda,
        iterations: config.max_iterations,
        converged: false,
        history,
    }
}

/// Evaluates every server's closed-form response to `lambda` (Eq. 4.6) into
/// `powers`, returning the total power and total utility.
///
/// The two totals are folded per [`REDUCE_CHUNK`]-sized chunk, chunks in
/// ascending order — the summation order every recorded primal-dual result
/// (`repro_output.txt`, `reproduced_shapes.rs`) was produced with.
fn primal_response(problem: &PowerBudgetProblem, lambda: f64, powers: &mut [f64]) -> (Watts, f64) {
    let mut total = 0.0;
    let mut utility = 0.0;
    let utilities = problem.utilities().chunks(REDUCE_CHUNK);
    for (utilities, powers) in utilities.zip(powers.chunks_mut(REDUCE_CHUNK)) {
        let mut power_sum = 0.0;
        let mut utility_sum = 0.0;
        for (u, slot) in utilities.iter().zip(powers) {
            let p = u.argmax_minus_price(lambda);
            *slot = p.0;
            power_sum += p.0;
            utility_sum += u.value(p);
        }
        total += power_sum;
        utility += utility_sum;
    }
    (Watts(total), utility)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpc_models::workload::ClusterBuilder;

    fn problem(n: usize, budget: f64, seed: u64) -> PowerBudgetProblem {
        let c = ClusterBuilder::new(n).seed(seed).build();
        PowerBudgetProblem::new(c.utilities(), Watts(budget)).unwrap()
    }

    #[test]
    fn converges_in_a_handful_of_iterations() {
        let p = problem(200, 33_000.0, 1);
        let r = solve(&p, &PrimalDualConfig::default());
        assert!(r.converged, "did not converge: {} iterations", r.iterations);
        assert!(r.iterations <= 25, "too slow: {}", r.iterations);
        assert!(p.is_feasible(&r.allocation, Watts(1e-3)));
    }

    #[test]
    fn final_utility_within_one_percent_of_oracle() {
        for &budget in &[8_200.0, 8_600.0, 9_200.0] {
            let p = problem(50, budget, 2);
            let r = solve(&p, &PrimalDualConfig::default());
            let opt = p.total_utility(&centralized::solve(&p).allocation);
            let got = p.total_utility(&r.allocation);
            assert!(got >= opt * 0.99, "budget {budget}: {got} vs {opt}");
        }
    }

    #[test]
    fn lambda_approaches_oracle_price() {
        let p = problem(100, 16_500.0, 3);
        let r = solve(&p, &PrimalDualConfig::default());
        let oracle = centralized::solve(&p);
        let rel = (r.lambda - oracle.lambda).abs() / oracle.lambda.max(1e-12);
        assert!(rel < 0.2, "λ {} vs oracle {}", r.lambda, oracle.lambda);
    }

    #[test]
    fn loose_budget_converges_immediately() {
        let p = problem(20, 1e6, 4);
        let r = solve(&p, &PrimalDualConfig::default());
        assert!(r.converged);
        assert_eq!(r.iterations, 1);
        for (u, &pw) in p.utilities().iter().zip(r.allocation.powers()) {
            assert_eq!(pw, u.p_max());
        }
    }

    #[test]
    fn history_records_price_trajectory() {
        let p = problem(50, 8_400.0, 5);
        let r = solve(&p, &PrimalDualConfig::default());
        assert_eq!(r.history.len(), r.iterations);
        assert_eq!(r.history[0].lambda, 0.0);
        // Price rises from zero toward the optimum when the budget binds.
        assert!(r.history.last().unwrap().lambda > 0.0);
    }

    #[test]
    fn tiny_step_hits_iteration_budget_without_panicking() {
        let p = problem(30, 4_900.0, 6);
        let cfg = PrimalDualConfig {
            step: Some(1e-15),
            max_iterations: 10,
            rel_tol: 0.01,
        };
        let r = solve(&p, &cfg);
        assert!(!r.converged);
        assert!(p.is_feasible(&r.allocation, Watts(1e-3)));
    }
}
