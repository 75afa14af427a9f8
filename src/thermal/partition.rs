//! Self-consistent total power budgeting (Chapter 3, Algorithm 1).
//!
//! Splits a total budget `B` into computing power `B_s` and cooling power
//! `B_CRAC` such that the cooling exactly suffices to extract the heat of
//! the computing allocation: iterate `B_s ← B − B_CRAC`, re-allocate the
//! computing power spatially, recompute the minimum cooling at the highest
//! redline-safe supply temperature, until the two sum back to `B`. The
//! dissertation proves contraction empirically (Fig. 3.4); with the
//! CoP model the cooling response is sub-proportional, so the iteration
//! converges geometrically.

use super::model::{ThermalError, ThermalModel};
use crate::models::units::{Celsius, Watts};

/// One iteration of the self-consistent loop, for Fig. 3.11-style traces.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionStep {
    /// Computing budget used this iteration.
    pub computing: Watts,
    /// Minimum cooling computed for it.
    pub cooling: Watts,
    /// Supply temperature achieving that cooling.
    pub t_sup: Celsius,
}

/// The converged split.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionResult {
    /// Computing budget `B_s`.
    pub computing: Watts,
    /// Cooling budget `B_CRAC`.
    pub cooling: Watts,
    /// CRAC supply temperature at the fixed point.
    pub t_sup: Celsius,
    /// Iterations used.
    pub iterations: usize,
    /// Full iteration trace (Fig. 3.11).
    pub trace: Vec<PartitionStep>,
}

impl PartitionResult {
    /// Fraction of the total going to cooling.
    pub fn cooling_fraction(&self) -> f64 {
        self.cooling / (self.cooling + self.computing)
    }
}

/// Distributes a computing budget uniformly over `racks` racks — the
/// default spatial power map when no budgeter is plugged in.
pub fn uniform_rack_map(racks: usize) -> impl Fn(Watts) -> Vec<Watts> {
    move |budget: Watts| vec![budget / racks as f64; racks]
}

/// Runs Algorithm 1.
///
/// `power_map` turns a computing budget into the spatial rack power
/// distribution (in the paper this is the knapsack budgeter; any allocator
/// can be plugged in). Converges when `|B_s + B_CRAC − B| ≤ tol`.
///
/// # Errors
///
/// [`ThermalError::NotConverged`] after `max_iterations`, or any model
/// error from the thermal evaluation.
pub fn self_consistent_partition(
    total: Watts,
    model: &ThermalModel,
    power_map: &dyn Fn(Watts) -> Vec<Watts>,
    tol: Watts,
    max_iterations: usize,
) -> Result<PartitionResult, ThermalError> {
    // Initialize with the cooling required by the *full* budget spent on
    // computing (the "initial CFD simulation" step of Algorithm 1).
    let mut computing = total;
    let mut trace = Vec::new();
    for iteration in 1..=max_iterations {
        let powers = power_map(computing);
        let (cooling, t_sup) = model.min_cooling_power(&powers)?;
        trace.push(PartitionStep {
            computing,
            cooling,
            t_sup,
        });
        let gap = (computing + cooling - total).abs();
        if gap <= tol {
            return Ok(PartitionResult {
                computing,
                cooling,
                t_sup,
                iterations: iteration,
                trace,
            });
        }
        computing = total - cooling;
    }
    Err(ThermalError::NotConverged {
        iterations: max_iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn partition(total_mw: f64) -> PartitionResult {
        let model = ThermalModel::paper_cluster();
        let map = uniform_rack_map(model.racks());
        self_consistent_partition(
            Watts::from_megawatts(total_mw),
            &model,
            &map,
            Watts(50.0),
            300,
        )
        .unwrap()
    }

    #[test]
    fn partition_sums_to_the_total() {
        let r = partition(0.72);
        let total = r.computing + r.cooling;
        assert!((total - Watts::from_megawatts(0.72)).abs() <= Watts(50.0));
    }

    #[test]
    fn cooling_fraction_in_the_papers_band() {
        // Fig. 3.10: cooling is 30–38 % of the total across 0.60–0.72 MW.
        for &mw in &[0.60, 0.63, 0.66, 0.69, 0.72] {
            let r = partition(mw);
            let f = r.cooling_fraction();
            assert!((0.25..0.45).contains(&f), "{mw} MW: fraction {f}");
        }
    }

    #[test]
    fn cooling_fraction_grows_with_the_total_budget() {
        // Fig. 3.10's second observation.
        let low = partition(0.60).cooling_fraction();
        let high = partition(0.72).cooling_fraction();
        assert!(high > low, "low {low} vs high {high}");
    }

    #[test]
    fn converges_quickly_and_monotonically_tightens() {
        let r = partition(0.72);
        assert!(r.iterations < 150, "took {} iterations", r.iterations);
        // The self-consistency gap |B_s + B_CRAC − B| contracts along the
        // trace (Fig. 3.4): the final gap is orders of magnitude below the
        // post-transient one, even though individual steps may oscillate
        // around the fixed point.
        let total = Watts::from_megawatts(0.72);
        let gap = |s: &PartitionStep| (s.computing + s.cooling - total).abs().0;
        let early = gap(&r.trace[1]);
        let late = gap(r.trace.last().unwrap());
        assert!(
            late < early / 10.0,
            "gap did not contract: {early} -> {late}"
        );
    }

    #[test]
    fn supply_temperature_is_physical() {
        let r = partition(0.66);
        assert!(r.t_sup.0 > 8.0 && r.t_sup.0 < 24.0, "t_sup {}", r.t_sup);
    }

    #[test]
    fn non_convergence_is_reported() {
        let model = ThermalModel::paper_cluster();
        let map = uniform_rack_map(model.racks());
        let err = self_consistent_partition(
            Watts::from_megawatts(0.72),
            &model,
            &map,
            Watts(1e-12), // unattainably tight
            2,
        )
        .unwrap_err();
        assert!(matches!(err, ThermalError::NotConverged { iterations: 2 }));
    }
}
