//! Execution phases: workloads whose power→throughput behaviour changes
//! mid-run.
//!
//! The paper re-solves the budget every few seconds precisely "because
//! workloads change their characteristics during runtime" (Section 3.3,
//! Exp. 4) and DiBA "dynamically re-computes the power usage of each server
//! as the workloads change" (Section 4.4.2). A [`PhasedWorkload`] models
//! that: a benchmark alternates between a handful of phases — e.g. a
//! compute-heavy solve phase and a memory-bound data-movement phase — each
//! with its own throughput curve, cycling with exponential dwell times.

use crate::benchmark::WorkloadSpec;
use crate::throughput::{CurveParams, QuadraticUtility};
use crate::units::Watts;
use rand::Rng;

/// A workload cycling through execution phases.
#[derive(Debug, Clone, PartialEq)]
pub struct PhasedWorkload {
    /// `(dwell_seconds, curve)` per phase.
    phases: Vec<(f64, QuadraticUtility)>,
    index: usize,
    remaining: f64,
}

impl PhasedWorkload {
    /// Builds from explicit phases.
    ///
    /// # Panics
    ///
    /// Panics if `phases` is empty or any dwell is non-positive.
    pub(crate) fn new(phases: Vec<(f64, QuadraticUtility)>) -> PhasedWorkload {
        assert!(!phases.is_empty(), "need at least one phase");
        assert!(
            phases.iter().all(|p| p.0 > 0.0),
            "dwell times must be positive"
        );
        let remaining = phases[0].0;
        PhasedWorkload {
            phases,
            index: 0,
            remaining,
        }
    }

    /// Generates a phased workload for a benchmark: 2–4 phases whose
    /// memory-boundedness swings around the benchmark's own (one phase
    /// markedly more compute-bound, one markedly more memory-bound), with
    /// exponential dwell times of the given mean.
    ///
    /// # Panics
    ///
    /// Panics if `mean_dwell_secs` is not positive or the power box is
    /// empty.
    pub fn generate<R: Rng + ?Sized>(
        spec: &WorkloadSpec,
        p_min: Watts,
        p_max: Watts,
        mean_dwell_secs: f64,
        rng: &mut R,
    ) -> PhasedWorkload {
        assert!(mean_dwell_secs > 0.0, "mean dwell must be positive");
        let base_mb = spec.memory_boundedness();
        let count = rng.gen_range(2..=4usize);
        let phases = (0..count)
            .map(|k| {
                // Swing alternates around the base characteristic.
                let swing = match k % 2 {
                    0 => -0.25,
                    _ => 0.25,
                } * rng.gen_range(0.5..1.5);
                let mb = (base_mb + swing).clamp(0.0, 1.0);
                let curve = CurveParams::for_memory_boundedness(mb)
                    .jittered(0.05, rng)
                    .utility(p_min, p_max);
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                let dwell = -mean_dwell_secs * u.ln();
                (dwell.max(1e-3), curve)
            })
            .collect();
        PhasedWorkload::new(phases)
    }

    /// The current phase's throughput curve.
    pub fn current(&self) -> &QuadraticUtility {
        &self.phases[self.index].1
    }

    /// Advances `dt` seconds; returns `true` when the current curve changed
    /// (one or more phase boundaries were crossed). The cycle wraps.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is negative.
    pub fn advance(&mut self, dt: f64) -> bool {
        assert!(dt >= 0.0, "time cannot run backwards");
        let before = self.index;
        let mut left = dt;
        while left >= self.remaining {
            left -= self.remaining;
            self.index = (self.index + 1) % self.phases.len();
            self.remaining = self.phases[self.index].0;
        }
        self.remaining -= left;
        // A full wrap back to the same phase still means intermediate
        // changes happened — but for a budgeter only the *current* curve
        // matters, so report change on differing index or a completed lap.
        before != self.index || dt >= self.cycle_length()
    }

    /// Total seconds of one full cycle.
    pub(crate) fn cycle_length(&self) -> f64 {
        self.phases.iter().map(|p| p.0).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmark::Benchmark;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn curve(mb: f64) -> QuadraticUtility {
        CurveParams::for_memory_boundedness(mb).utility(Watts(120.0), Watts(200.0))
    }

    #[test]
    fn advance_crosses_boundaries_and_wraps() {
        let mut w = PhasedWorkload::new(vec![(2.0, curve(0.1)), (3.0, curve(0.8))]);
        assert_eq!(w.index, 0);
        assert!(!w.advance(1.0)); // still phase 0
        assert!(w.advance(1.5)); // into phase 1
        assert_eq!(w.index, 1);
        assert!(w.advance(2.6)); // wraps to phase 0
        assert_eq!(w.index, 0);
    }

    #[test]
    fn multi_boundary_jump_in_one_call() {
        let mut w = PhasedWorkload::new(vec![(1.0, curve(0.1)), (1.0, curve(0.5))]);
        // 2.0 s = exactly one full cycle: same index, but changes happened.
        assert!(w.advance(2.0));
        assert_eq!(w.index, 0);
        // 3.0 s = cycle and a half.
        assert!(w.advance(3.0));
        assert_eq!(w.index, 1);
    }

    #[test]
    fn generated_phases_differ_in_shape() {
        let mut rng = StdRng::seed_from_u64(6);
        let w = PhasedWorkload::generate(
            Benchmark::Bt.spec(),
            Watts(120.0),
            Watts(200.0),
            30.0,
            &mut rng,
        );
        assert!(w.phases.len() >= 2);
        // Adjacent phases alternate compute/memory: their mid-box slopes
        // differ materially.
        let p = Watts(160.0);
        let s0 = w.phases[0].1.slope(p);
        let s1 = w.phases[1].1.slope(p);
        assert!(
            (s0 - s1).abs() > 0.1 * s0.abs().max(s1.abs()),
            "phases too similar: {s0} vs {s1}"
        );
    }

    #[test]
    fn generation_is_seed_deterministic() {
        let spec = Benchmark::Cg.spec();
        let a = PhasedWorkload::generate(
            spec,
            Watts(120.0),
            Watts(200.0),
            30.0,
            &mut StdRng::seed_from_u64(9),
        );
        let b = PhasedWorkload::generate(
            spec,
            Watts(120.0),
            Watts(200.0),
            30.0,
            &mut StdRng::seed_from_u64(9),
        );
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn rejects_empty() {
        let _ = PhasedWorkload::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "time cannot run backwards")]
    fn rejects_negative_dt() {
        let mut w = PhasedWorkload::new(vec![(1.0, curve(0.5))]);
        let _ = w.advance(-0.1);
    }
}
