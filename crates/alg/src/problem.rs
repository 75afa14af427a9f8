//! The power-budget allocation problem (Eqs. 4.1–4.3) and its solutions.
//!
//! ```text
//! max Σ r_i(p_i)   s.t.  Σ p_i ≤ P,   p_i ∈ [p_min_i, p_max_i]
//! ```

use dpc_models::throughput::QuadraticUtility;
use dpc_models::units::Watts;
use std::fmt;

/// Error from the allocation algorithms.
#[derive(Debug, Clone, PartialEq)]
pub enum AlgError {
    /// The budget cannot cover every server's idle power.
    InfeasibleBudget {
        /// Requested total budget.
        budget: Watts,
        /// Sum of lower power bounds.
        min_required: Watts,
    },
    /// The problem has no servers.
    EmptyProblem,
    /// A companion structure (graph, allocation) has the wrong size.
    DimensionMismatch {
        /// Expected element count.
        expected: usize,
        /// Provided element count.
        got: usize,
    },
    /// An iterative solver hit its iteration budget before converging.
    DidNotConverge {
        /// Iterations performed.
        iterations: usize,
    },
    /// A configuration knob holds a value the engines cannot honor (for
    /// example `threads = Fixed(0)`, a non-finite step size, or a negative
    /// fault time). Caught at construction so it cannot surface later as a
    /// panic deep inside a run.
    InvalidConfig {
        /// Human-readable description of the offending knob and value.
        what: String,
    },
    /// An operation addressed a node index the cluster does not have (for
    /// example a scenario event naming server 12 in an 8-server replay).
    UnknownNode {
        /// The offending node index.
        node: usize,
        /// The cluster size it was checked against.
        nodes: usize,
    },
}

impl fmt::Display for AlgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlgError::InfeasibleBudget {
                budget,
                min_required,
            } => write!(
                f,
                "budget {budget} below the minimum enforceable total {min_required}"
            ),
            AlgError::EmptyProblem => f.write_str("problem has no servers"),
            AlgError::DimensionMismatch { expected, got } => {
                write!(f, "dimension mismatch: expected {expected}, got {got}")
            }
            AlgError::DidNotConverge { iterations } => {
                write!(f, "did not converge within {iterations} iterations")
            }
            AlgError::InvalidConfig { what } => {
                write!(f, "invalid configuration: {what}")
            }
            AlgError::UnknownNode { node, nodes } => {
                write!(f, "unknown node {node}: the cluster has {nodes} nodes")
            }
        }
    }
}

impl std::error::Error for AlgError {}

/// Refuses a NaN or infinite budget. Every comparison with NaN is false,
/// so without this a NaN budget passes the feasibility check below.
pub(crate) fn check_budget(budget: Watts) -> Result<(), AlgError> {
    if budget.0.is_finite() {
        Ok(())
    } else {
        Err(AlgError::InvalidConfig {
            what: format!("budget {budget} must be finite"),
        })
    }
}

/// An instance of the cluster power-budgeting problem.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerBudgetProblem {
    utilities: Vec<QuadraticUtility>,
    budget: Watts,
}

impl PowerBudgetProblem {
    /// Builds a problem, checking feasibility (`budget ≥ Σ p_min`).
    ///
    /// # Errors
    ///
    /// [`AlgError::EmptyProblem`] for zero servers,
    /// [`AlgError::InvalidConfig`] for a NaN or infinite budget,
    /// [`AlgError::InfeasibleBudget`] when the budget cannot cover idle
    /// power.
    pub fn new(
        utilities: Vec<QuadraticUtility>,
        budget: Watts,
    ) -> Result<PowerBudgetProblem, AlgError> {
        if utilities.is_empty() {
            return Err(AlgError::EmptyProblem);
        }
        check_budget(budget)?;
        let min_required: Watts = utilities.iter().map(|u| u.p_min()).sum();
        if budget < min_required {
            return Err(AlgError::InfeasibleBudget {
                budget,
                min_required,
            });
        }
        Ok(PowerBudgetProblem { utilities, budget })
    }

    /// Number of servers.
    pub fn len(&self) -> usize {
        self.utilities.len()
    }

    /// `true` when the problem has no servers (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.utilities.is_empty()
    }

    /// The per-server utility functions.
    pub fn utilities(&self) -> &[QuadraticUtility] {
        &self.utilities
    }

    /// The utility of server `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn utility(&self, i: usize) -> &QuadraticUtility {
        &self.utilities[i]
    }

    /// Total power budget `P`.
    pub fn budget(&self) -> Watts {
        self.budget
    }

    /// Returns a copy with a different budget.
    ///
    /// # Errors
    ///
    /// [`AlgError::InvalidConfig`] for a NaN or infinite budget,
    /// [`AlgError::InfeasibleBudget`] when the new budget is infeasible.
    pub fn with_budget(&self, budget: Watts) -> Result<PowerBudgetProblem, AlgError> {
        PowerBudgetProblem::new(self.utilities.clone(), budget)
    }

    /// Sum of lower power bounds.
    pub fn min_total(&self) -> Watts {
        self.utilities.iter().map(|u| u.p_min()).sum()
    }

    /// Sum of upper power bounds.
    pub fn max_total(&self) -> Watts {
        self.utilities.iter().map(|u| u.p_max()).sum()
    }

    /// `true` when the budget exceeds `Σ p_max`, i.e. every server can run
    /// uncapped.
    pub(crate) fn is_unconstrained(&self) -> bool {
        self.budget >= self.max_total()
    }

    /// Total utility of an allocation.
    ///
    /// # Panics
    ///
    /// Panics if the allocation length differs from the problem size.
    pub fn total_utility(&self, allocation: &Allocation) -> f64 {
        assert_eq!(allocation.len(), self.len(), "allocation size mismatch");
        self.utilities
            .iter()
            .zip(allocation.powers())
            .map(|(u, &p)| u.value(p))
            .sum()
    }

    /// Per-server ANPs of an allocation.
    ///
    /// # Panics
    ///
    /// Panics if the allocation length differs from the problem size.
    pub fn anps(&self, allocation: &Allocation) -> Vec<f64> {
        assert_eq!(allocation.len(), self.len(), "allocation size mismatch");
        self.utilities
            .iter()
            .zip(allocation.powers())
            .map(|(u, &p)| u.anp(p))
            .collect()
    }

    /// Checks that an allocation respects every box and the total budget
    /// within `tol` watts.
    pub fn is_feasible(&self, allocation: &Allocation, tol: Watts) -> bool {
        if allocation.len() != self.len() {
            return false;
        }
        let boxes_ok = self
            .utilities
            .iter()
            .zip(allocation.powers())
            .all(|(u, &p)| p >= u.p_min() - tol && p <= u.p_max() + tol);
        boxes_ok && allocation.total() <= self.budget + tol
    }
}

/// A per-server power-cap assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct Allocation {
    powers: Vec<Watts>,
}

impl Allocation {
    /// Wraps a power vector.
    pub fn new(powers: Vec<Watts>) -> Allocation {
        Allocation { powers }
    }

    /// Number of servers.
    pub fn len(&self) -> usize {
        self.powers.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.powers.is_empty()
    }

    /// The power caps in server order.
    pub fn powers(&self) -> &[Watts] {
        &self.powers
    }

    /// Power cap of server `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn power(&self, i: usize) -> Watts {
        self.powers[i]
    }

    /// Total allocated power.
    pub fn total(&self) -> Watts {
        self.powers.iter().sum()
    }

    /// Largest absolute per-server difference to another allocation.
    ///
    /// # Panics
    ///
    /// Panics if sizes differ.
    pub fn max_abs_diff(&self, other: &Allocation) -> Watts {
        assert_eq!(self.len(), other.len(), "allocation size mismatch");
        self.powers
            .iter()
            .zip(other.powers())
            .map(|(&a, &b)| (a - b).abs())
            .fold(Watts::ZERO, Watts::max)
    }
}

impl FromIterator<Watts> for Allocation {
    fn from_iter<I: IntoIterator<Item = Watts>>(iter: I) -> Allocation {
        Allocation::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpc_models::workload::ClusterBuilder;

    fn problem(n: usize, budget: f64) -> PowerBudgetProblem {
        let c = ClusterBuilder::new(n).seed(1).build();
        PowerBudgetProblem::new(c.utilities(), Watts(budget)).unwrap()
    }

    #[test]
    fn rejects_empty_and_infeasible() {
        assert_eq!(
            PowerBudgetProblem::new(vec![], Watts(100.0)),
            Err(AlgError::EmptyProblem)
        );
        let c = ClusterBuilder::new(10).build();
        let err = PowerBudgetProblem::new(c.utilities(), Watts(10.0)).unwrap_err();
        assert!(matches!(err, AlgError::InfeasibleBudget { .. }));
    }

    #[test]
    fn a_non_finite_budget_builds_no_problem() {
        use crate::diba::{DibaConfig, DibaRun};
        use dpc_topology::Graph;

        let p = problem(10, 1700.0);
        let mut run = DibaRun::new(p.clone(), Graph::ring(10), DibaConfig::default()).unwrap();
        run.run(20);
        let mut reference = run.clone();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = PowerBudgetProblem::new(p.utilities().to_vec(), Watts(bad)).unwrap_err();
            assert!(
                matches!(err, AlgError::InvalidConfig { .. }),
                "{bad}: {err}"
            );
            let err = p.with_budget(Watts(bad)).unwrap_err();
            assert!(
                matches!(err, AlgError::InvalidConfig { .. }),
                "{bad}: {err}"
            );
            // `set_budget` goes through `with_budget`, and a refused
            // budget leaves the run exactly as it was.
            let err = run.set_budget(Watts(bad)).unwrap_err();
            assert!(
                matches!(err, AlgError::InvalidConfig { .. }),
                "{bad}: {err}"
            );
        }
        run.run(30);
        reference.run(30);
        assert_eq!(run.problem(), reference.problem());
        assert_eq!(run.iterations(), reference.iterations());
        assert_eq!(run.node_states(), reference.node_states());
    }

    #[test]
    fn totals_and_unconstrained_flag() {
        let p = problem(10, 1700.0);
        assert_eq!(p.len(), 10);
        assert!(p.min_total() < Watts(1700.0));
        assert!(!p.is_unconstrained());
        let loose = p.with_budget(Watts(10_000.0)).unwrap();
        assert!(loose.is_unconstrained());
    }

    #[test]
    fn utility_and_anps_evaluate_elementwise() {
        let p = problem(5, 900.0);
        let alloc: Allocation = p.utilities().iter().map(|u| u.p_max()).collect();
        let total = p.total_utility(&alloc);
        let by_hand: f64 = p.utilities().iter().map(|u| u.peak()).sum();
        assert!((total - by_hand).abs() < 1e-9);
        assert!(p.anps(&alloc).iter().all(|&a| (a - 1.0).abs() < 1e-12));
    }

    #[test]
    fn feasibility_checks_boxes_and_budget() {
        let p = problem(4, 700.0);
        let at_min: Allocation = p.utilities().iter().map(|u| u.p_min()).collect();
        assert!(p.is_feasible(&at_min, Watts(1e-9)));

        let over: Allocation = p
            .utilities()
            .iter()
            .map(|u| u.p_max() + Watts(1.0))
            .collect();
        assert!(!p.is_feasible(&over, Watts(1e-9)));

        let too_much: Allocation = p.utilities().iter().map(|u| u.p_max()).collect();
        assert!(!p.is_feasible(&too_much, Watts(1e-9))); // 4·200 > 700

        let wrong_size = Allocation::new(vec![Watts(150.0)]);
        assert!(!p.is_feasible(&wrong_size, Watts(1e-9)));
    }

    #[test]
    fn allocation_helpers() {
        let a = Allocation::new(vec![Watts(1.0), Watts(2.0)]);
        let b = Allocation::new(vec![Watts(1.5), Watts(1.0)]);
        assert_eq!(a.total(), Watts(3.0));
        assert_eq!(a.max_abs_diff(&b), Watts(1.0));
        assert_eq!(a.power(1), Watts(2.0));
    }
}
