//! Workload characterization: the synthetic stand-in for running a
//! benchmark on an instrumented server.
//!
//! The paper's methodology (Section 4.4.1) is: run each workload at every
//! DVFS level, record `(power, throughput)` pairs and performance counters,
//! then interpolate a quadratic throughput function. This module reproduces
//! exactly that pipeline against the synthetic ground-truth curves, so the
//! learned utilities differ from the ground truth by realistic measurement
//! noise — which is what the predictor-accuracy experiments quantify.

use crate::benchmark::WorkloadSpec;
use crate::fitting::{fit_polynomial, FitError};
use crate::pmc::PmcSignature;
use crate::power::ServerSpec;
use crate::throughput::{CurveParams, QuadraticUtility};
use crate::units::Watts;
use rand::Rng;

/// One measured operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Sample {
    /// P-state index the sample was taken at.
    pub pstate: usize,
    /// Measured wall power.
    pub power: Watts,
    /// Measured throughput (arbitrary units).
    pub throughput: f64,
    /// Sampled performance counters.
    pub pmc: PmcSignature,
}

/// A DVFS sweep of one workload on one server.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Characterization {
    samples: Vec<Sample>,
    p_min: Watts,
    p_max: Watts,
}

impl Characterization {
    /// Runs the synthetic DVFS sweep.
    ///
    /// `truth` is the ground-truth curve (normally synthesized from the
    /// workload spec); throughput and power readings carry multiplicative
    /// noise of relative magnitude `noise`.
    ///
    /// # Panics
    ///
    /// Panics if `noise` is not in `[0, 0.2]`.
    pub(crate) fn sweep<R: Rng + ?Sized>(
        spec: &WorkloadSpec,
        server: &ServerSpec,
        truth: &QuadraticUtility,
        noise: f64,
        rng: &mut R,
    ) -> Characterization {
        assert!(
            (0.0..=0.2).contains(&noise),
            "noise {noise} not in [0, 0.2]"
        );
        let signature = PmcSignature::for_spec(spec);
        let samples = server
            .ladder
            .iter()
            .map(|(i, _)| {
                let true_power = server.power_full(i);
                let jitter = |rng: &mut R| {
                    if noise == 0.0 {
                        1.0
                    } else {
                        1.0 + rng.gen_range(-noise..=noise)
                    }
                };
                let power = true_power * jitter(rng);
                let throughput = truth.value(true_power) * jitter(rng);
                Sample {
                    pstate: i,
                    power,
                    throughput,
                    pmc: signature.sample((noise / 2.0).min(0.4), rng),
                }
            })
            .collect();
        Characterization {
            samples,
            p_min: truth.p_min(),
            p_max: truth.p_max(),
        }
    }

    /// `(power, throughput)` pairs for fitting.
    pub(crate) fn power_throughput(&self) -> Vec<(f64, f64)> {
        self.samples
            .iter()
            .map(|s| (s.power.0, s.throughput))
            .collect()
    }

    /// Fits the quadratic utility the allocation algorithms consume,
    /// projecting the raw least-squares result onto the valid (concave,
    /// nondecreasing, positive) set:
    ///
    /// 1. quadratic fit; if convex or decreasing at `p_max`, fall back to
    /// 2. linear fit; if still decreasing, fall back to
    /// 3. the constant mean throughput with an epsilon slope.
    ///
    /// # Errors
    ///
    /// Propagates [`FitError`] only when even a constant cannot be fitted
    /// (no samples).
    pub(crate) fn fit_utility(&self) -> Result<QuadraticUtility, FitError> {
        fit_utility_from_points(&self.power_throughput(), self.p_min, self.p_max)
    }
}

/// Fits a valid [`QuadraticUtility`] to raw `(power_w, throughput)` points
/// by projecting the least-squares result onto the concave, nondecreasing,
/// positive set (quadratic → linear → constant fallback). The shared
/// learning core behind [`Characterization::fit_utility`] and external
/// trace import ([`crate::traces`]).
///
/// # Errors
///
/// [`FitError::TooFewSamples`] when `points` is empty.
pub(crate) fn fit_utility_from_points(
    points: &[(f64, f64)],
    p_min: Watts,
    p_max: Watts,
) -> Result<QuadraticUtility, FitError> {
    if points.is_empty() {
        return Err(FitError::TooFewSamples { have: 0, need: 1 });
    }
    if let Ok(q) = fit_polynomial(points, 2) {
        let c = q.coefficients();
        if let Ok(u) = QuadraticUtility::new(c[0], c[1], c[2], p_min, p_max) {
            return Ok(u);
        }
    }
    if let Ok(l) = fit_polynomial(points, 1) {
        let c = l.coefficients();
        if let Ok(u) = QuadraticUtility::new(c[0], c[1].max(0.0), 0.0, p_min, p_max) {
            return Ok(u);
        }
    }
    // Constant fallback: tiny positive slope keeps the solvers' closed
    // forms well-defined.
    let mean = points.iter().map(|p| p.1).sum::<f64>() / points.len() as f64;
    let eps = (mean.abs().max(1e-6)) * 1e-9;
    Ok(
        QuadraticUtility::new(mean.max(1e-9), eps, 0.0, p_min, p_max)
            .expect("constant fallback is always valid"),
    )
}

/// Convenience: synthesize the ground truth for a workload on a server and
/// learn the utility exactly as the on-line controller would.
///
/// Returns `(truth, learned)` so callers can quantify learning error.
pub fn learn_utility<R: Rng + ?Sized>(
    spec: &WorkloadSpec,
    server: &ServerSpec,
    curve_jitter: f64,
    measurement_noise: f64,
    rng: &mut R,
) -> (QuadraticUtility, QuadraticUtility) {
    let params = if curve_jitter > 0.0 {
        CurveParams::for_spec(spec).jittered(curve_jitter, rng)
    } else {
        CurveParams::for_spec(spec)
    };
    let truth = params.utility(server.min_full_power(), server.peak);
    let sweep = Characterization::sweep(spec, server, &truth, measurement_noise, rng);
    let learned = sweep.fit_utility().expect("sweep always has samples");
    (truth, learned)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmark::Benchmark;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn server() -> ServerSpec {
        ServerSpec::dell_c1100()
    }

    #[test]
    fn noiseless_sweep_recovers_truth_exactly() {
        let mut rng = StdRng::seed_from_u64(1);
        let (truth, learned) = learn_utility(Benchmark::Bt.spec(), &server(), 0.0, 0.0, &mut rng);
        let mut p = truth.p_min();
        while p <= truth.p_max() {
            let rel = (learned.value(p) - truth.value(p)).abs() / truth.value(p);
            assert!(rel < 1e-9, "at {p}: rel {rel}");
            p += Watts(5.0);
        }
    }

    #[test]
    fn noisy_sweep_recovers_truth_approximately() {
        let mut rng = StdRng::seed_from_u64(2);
        for b in Benchmark::ALL {
            let (truth, learned) = learn_utility(b.spec(), &server(), 0.0, 0.02, &mut rng);
            let mid = Watts(160.0);
            let rel = (learned.value(mid) - truth.value(mid)).abs() / truth.value(mid);
            assert!(rel < 0.1, "{b}: rel {rel}");
            // The learned curve must be a valid utility (invariants hold by
            // construction of fit_utility).
            assert!(learned.slope(learned.p_max()) >= 0.0);
        }
    }

    #[test]
    fn sweep_covers_every_pstate() {
        let mut rng = StdRng::seed_from_u64(3);
        let srv = server();
        let truth =
            CurveParams::for_spec(Benchmark::Cg.spec()).utility(srv.min_full_power(), srv.peak);
        let sweep = Characterization::sweep(Benchmark::Cg.spec(), &srv, &truth, 0.01, &mut rng);
        assert_eq!(sweep.samples.len(), srv.ladder.iter().count());
        let pstates: Vec<_> = sweep.samples.iter().map(|s| s.pstate).collect();
        assert_eq!(pstates, (0..srv.ladder.iter().count()).collect::<Vec<_>>());
    }

    #[test]
    fn fit_utility_projects_pathological_data() {
        // Decreasing throughput with power: raw quadratic/linear fits are
        // invalid; the constant fallback must kick in.
        let samples: Vec<Sample> = (0..5)
            .map(|i| Sample {
                pstate: i,
                power: Watts(130.0 + 10.0 * i as f64),
                throughput: 10.0 - i as f64,
                pmc: PmcSignature::for_memory_boundedness(0.5),
            })
            .collect();
        let ch = Characterization {
            samples,
            p_min: Watts(130.0),
            p_max: Watts(170.0),
        };
        let u = ch.fit_utility().unwrap();
        assert!(u.slope(u.p_max()) >= 0.0);
        assert!(u.value(u.p_min()) > 0.0);
    }

    #[test]
    fn empty_characterization_errors() {
        let ch = Characterization {
            samples: vec![],
            p_min: Watts(1.0),
            p_max: Watts(2.0),
        };
        assert!(matches!(
            ch.fit_utility(),
            Err(FitError::TooFewSamples { .. })
        ));
    }

    #[test]
    fn curve_jitter_differentiates_instances() {
        let mut rng = StdRng::seed_from_u64(5);
        let (t1, _) = learn_utility(Benchmark::Lu.spec(), &server(), 0.08, 0.0, &mut rng);
        let (t2, _) = learn_utility(Benchmark::Lu.spec(), &server(), 0.08, 0.0, &mut rng);
        assert!(t1 != t2, "jittered instances should differ");
    }
}
