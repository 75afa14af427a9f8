//! Algorithm-level communication totals.
//!
//! Composes per-round costs from [`crate::timing`] into the total
//! communication time of each power-budgeting scheme, which is what
//! Table 4.2 reports. The two-tier star physical network of the paper
//! (top-of-rack switches under a core switch) is abstracted into the
//! coordinator drain: its bottleneck is the coordinator's serial packet
//! processing either way.

use crate::timing::{coordinator_round_sim, neighbor_round, LinkTiming};
use dpc_models::units::Seconds;
use rand::Rng;

/// The three schemes compared in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// All utilities shipped to one solver, caps shipped back: one
    /// coordinator round.
    Centralized,
    /// Dual-price iterations through a coordinator: one coordinator round
    /// per iteration.
    PrimalDual,
    /// Fully decentralized neighbor gossip: one parallel neighbor round per
    /// iteration.
    Diba,
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Scheme::Centralized => "centralized",
            Scheme::PrimalDual => "primal-dual",
            Scheme::Diba => "DiBA",
        };
        f.write_str(s)
    }
}

/// Communication-time model for a cluster of `n` nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommModel {
    timing: LinkTiming,
}

impl CommModel {
    /// Model with the paper's measured socket timings.
    pub fn paper() -> CommModel {
        CommModel {
            timing: LinkTiming::measured_10gbe(),
        }
    }

    /// Total communication time of the centralized scheme: a single gather
    /// plus scatter through the coordinator (queue-simulated).
    pub fn centralized_total<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Seconds {
        coordinator_round_sim(n, self.timing, rng)
    }

    /// Total communication time of primal-dual: `iterations` coordinator
    /// rounds (queue-simulated independently per round).
    pub fn primal_dual_total<R: Rng + ?Sized>(
        &self,
        n: usize,
        iterations: usize,
        rng: &mut R,
    ) -> Seconds {
        let mut total = Seconds::ZERO;
        for _ in 0..iterations {
            total += coordinator_round_sim(n, self.timing, rng);
        }
        total
    }

    /// Total communication time of DiBA: `iterations` parallel neighbor
    /// rounds on a graph of the given maximum degree. Deterministic — no
    /// queueing, the exchanges are point-to-point and parallel.
    pub fn diba_total(&self, max_degree: usize, iterations: usize) -> Seconds {
        neighbor_round(max_degree, self.timing) * iterations as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn table_4_2_shape_holds() {
        // The headline scalability claim: PD communication grows linearly
        // with N while DiBA stays flat, crossing over immediately.
        let m = CommModel::paper();
        let mut rng = StdRng::seed_from_u64(3);
        let pd_iters = 6;
        let diba_iters = 70;
        let mut last_pd = Seconds::ZERO;
        for &n in &[400usize, 800, 1600, 3200, 6400] {
            let pd = m.primal_dual_total(n, pd_iters, &mut rng);
            let diba = m.diba_total(2, diba_iters);
            assert!(pd > last_pd, "PD comm must grow with N");
            assert!(diba.millis() < 40.0, "DiBA comm must stay tens of ms");
            assert!(pd > diba * 10.0, "PD should dwarf DiBA at N={n}");
            last_pd = pd;
        }
    }

    #[test]
    fn centralized_is_one_pd_round() {
        let m = CommModel::paper();
        let mut rng = StdRng::seed_from_u64(9);
        let c = m.centralized_total(800, &mut rng);
        let pd1 = m.primal_dual_total(800, 1, &mut rng);
        let rel = (c.0 - pd1.0).abs() / c.0;
        assert!(
            rel < 0.1,
            "one PD iteration ≈ one centralized round ({rel})"
        );
    }

    #[test]
    fn diba_total_scales_with_degree_and_iterations() {
        let m = CommModel::paper();
        assert_eq!(m.diba_total(2, 0), Seconds::ZERO);
        let ring = m.diba_total(2, 50);
        let dense = m.diba_total(8, 50);
        assert!((dense / ring - 4.0).abs() < 1e-9);
        assert!((m.diba_total(2, 100) / ring - 2.0).abs() < 1e-9);
    }

    #[test]
    fn scheme_display_names() {
        assert_eq!(Scheme::Centralized.to_string(), "centralized");
        assert_eq!(Scheme::PrimalDual.to_string(), "primal-dual");
        assert_eq!(Scheme::Diba.to_string(), "DiBA");
    }
}
