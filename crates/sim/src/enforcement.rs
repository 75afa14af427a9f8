//! Cap enforcement: closing the loop between the *allocator* (which decides
//! caps) and the *actuator* (the per-server DVFS feedback controller of
//! Fig. 2.1 that realizes them).
//!
//! The allocation algorithms treat power as continuous; real servers
//! enforce caps by walking a discrete p-state ladder, settle with
//! first-order dynamics, and read noisy meters. This module quantifies the
//! enforcement gap: measured power is always at or below the cap after
//! settling (safety), but the p-state quantization leaves some allocated
//! power unused (a throughput cost the paper's controller design accepts).

use dpc_alg::problem::Allocation;
use dpc_models::capping::CappedServer;
use dpc_models::power::ServerSpec;
use dpc_models::units::Watts;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A cluster of DVFS actuators enforcing per-server caps.
#[derive(Debug, Clone)]
pub struct EnforcedCluster {
    servers: Vec<CappedServer>,
    noise: Watts,
    rng: StdRng,
}

impl EnforcedCluster {
    /// Builds the actuator bank with the given caps applied; meters carry
    /// uniform noise of amplitude `noise`.
    ///
    /// # Panics
    ///
    /// Panics if `caps` is empty or `noise` negative.
    pub fn new(spec: &ServerSpec, caps: &Allocation, noise: Watts, seed: u64) -> EnforcedCluster {
        assert!(!caps.is_empty(), "need at least one server");
        assert!(noise >= Watts::ZERO, "noise must be non-negative");
        let servers = caps
            .powers()
            .iter()
            .map(|&cap| CappedServer::new(spec.clone(), cap))
            .collect();
        EnforcedCluster {
            servers,
            noise,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Re-applies a new cap vector (a budgeter re-allocation).
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn apply(&mut self, caps: &Allocation) {
        assert_eq!(caps.len(), self.servers.len(), "cap vector length mismatch");
        for (server, &cap) in self.servers.iter_mut().zip(caps.powers()) {
            server.set_cap(cap);
        }
    }

    /// Advances every controller one period; returns total measured power.
    pub(crate) fn tick(&mut self) -> Watts {
        let mut total = Watts::ZERO;
        for server in &mut self.servers {
            let n = if self.noise > Watts::ZERO {
                Watts(self.rng.gen_range(-self.noise.0..=self.noise.0))
            } else {
                Watts::ZERO
            };
            total += server.tick(n);
        }
        total
    }

    /// Runs `ticks` periods and returns the final total measured power.
    pub fn run(&mut self, ticks: usize) -> Watts {
        let mut last = self.measured_total();
        for _ in 0..ticks {
            last = self.tick();
        }
        last
    }

    /// Current total measured power.
    pub fn measured_total(&self) -> Watts {
        self.servers.iter().map(|s| s.measured_power()).sum()
    }

    /// Fraction of servers currently measuring at or below their caps.
    pub fn compliance(&self) -> f64 {
        self.compliance_within(Watts::ZERO)
    }

    /// Fraction of servers measuring at or below cap + `tol` — use a
    /// tolerance of about twice the meter-noise amplitude for a fair
    /// instantaneous reading (noise feeds the first-order filter with
    /// gain 2).
    pub fn compliance_within(&self, tol: Watts) -> f64 {
        let ok = self
            .servers
            .iter()
            .filter(|s| s.measured_power() <= s.cap() + tol)
            .count();
        ok as f64 / self.servers.len() as f64
    }

    /// Ticks until total measured power first reaches `target` or below;
    /// `None` if not within `max_ticks`.
    pub fn ticks_to_total(&mut self, target: Watts, max_ticks: usize) -> Option<usize> {
        for t in 0..max_ticks {
            if self.tick() <= target {
                return Some(t + 1);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpc_alg::problem::PowerBudgetProblem;
    use dpc_alg::{baselines, centralized};
    use dpc_models::workload::ClusterBuilder;

    fn setup(n: usize, per_server: f64) -> (PowerBudgetProblem, ServerSpec, Allocation) {
        let c = ClusterBuilder::new(n).seed(4).build();
        let p = PowerBudgetProblem::new(c.utilities(), Watts(per_server * n as f64)).unwrap();
        let alloc = centralized::solve(&p).allocation;
        (p, c.server().clone(), alloc)
    }

    #[test]
    fn settled_cluster_complies_with_every_cap() {
        let (_, spec, alloc) = setup(30, 168.0);
        let mut e = EnforcedCluster::new(&spec, &alloc, Watts::ZERO, 1);
        e.run(60);
        assert_eq!(e.compliance(), 1.0);
        // Quantization: measured sits below the continuous caps.
        assert!(e.measured_total() < alloc.total());
    }

    #[test]
    fn enforcement_gap_is_bounded_by_one_pstate_step() {
        let (_, spec, alloc) = setup(30, 168.0);
        let mut e = EnforcedCluster::new(&spec, &alloc, Watts::ZERO, 2);
        e.run(80);
        // Largest power gap between adjacent enforceable levels.
        let levels = spec.cap_levels();
        let max_step = levels
            .windows(2)
            .map(|w| w[1] - w[0])
            .fold(Watts::ZERO, Watts::max);
        let gaps = e.servers.iter().map(|s| s.cap() - s.measured_power());
        for (gap, &cap) in gaps.zip(alloc.powers()) {
            // Caps below the lowest level cannot be met; skip those.
            if cap >= spec.min_full_power() {
                assert!(gap <= max_step + Watts(1e-6), "gap {gap} at cap {cap}");
                assert!(gap >= -Watts(1e-6));
            }
        }
    }

    #[test]
    fn budget_cut_reaches_the_meter_within_controller_periods() {
        let (p, spec, alloc) = setup(40, 180.0);
        let mut e = EnforcedCluster::new(&spec, &alloc, Watts::ZERO, 3);
        e.run(60);
        // Re-allocate to a tighter budget and re-apply.
        let tight = p.with_budget(p.budget() * 0.92).unwrap();
        let new_alloc = centralized::solve(&tight).allocation;
        e.apply(&new_alloc);
        let ticks = e
            .ticks_to_total(tight.budget(), 100)
            .expect("actuators must realize the cut");
        assert!(ticks < 30, "cut took {ticks} controller periods");
    }

    #[test]
    fn meter_noise_does_not_break_compliance_materially() {
        let (_, spec, alloc) = setup(30, 168.0);
        let noise = Watts(1.5);
        let mut e = EnforcedCluster::new(&spec, &alloc, noise, 4);
        e.run(120);
        // Any instantaneous reading stays within the accumulated meter
        // noise of its cap: per-tick noise feeds the first-order filter
        // with gain 1/(1−smoothing) = 2, so the stationary excursion is
        // bounded by twice the amplitude.
        for (s, &cap) in e.servers.iter().zip(alloc.powers()) {
            let m = s.measured_power();
            assert!(
                m <= cap + noise * 2.0 + Watts(1e-6),
                "measured {m} cap {cap}"
            );
        }
        assert!(e.compliance() > 0.6, "compliance {}", e.compliance());
    }

    #[test]
    fn uniform_caps_enforce_uniformly() {
        let (p, spec, _) = setup(20, 170.0);
        let alloc = baselines::uniform(&p);
        let mut e = EnforcedCluster::new(&spec, &alloc, Watts::ZERO, 5);
        e.run(60);
        let first = e.servers[0].measured_power();
        assert!(e
            .servers
            .iter()
            .all(|s| (s.measured_power() - first).abs() < Watts(1e-6)));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn apply_rejects_wrong_length() {
        let (_, spec, alloc) = setup(5, 170.0);
        let mut e = EnforcedCluster::new(&spec, &alloc, Watts::ZERO, 6);
        e.apply(&Allocation::new(vec![Watts(150.0)]));
    }
}
