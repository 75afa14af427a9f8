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
use crate::fitting::{least_squares, FitError};
use crate::pmc::PmcSignature;
use crate::throughput::{CurveParams, QuadraticUtility};
use crate::units::Watts;
use rand::Rng;

/// The most p-states a sweep holds (the Xeon L5520 ladder has 8).
const MAX_PSTATES: usize = 16;

/// Fits a valid [`QuadraticUtility`] to raw `(power_w, throughput)` points
/// by projecting the least-squares result onto the concave, nondecreasing,
/// positive set:
///
/// 1. quadratic fit; if convex or decreasing at `p_max`, fall back to
/// 2. linear fit; if still decreasing, fall back to
/// 3. the constant mean throughput with an epsilon slope.
///
/// The shared learning core behind the characterization sweep
/// ([`learn_utility`]) and external trace import ([`crate::traces`]).
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
    if let Ok([a, b, c]) = least_squares::<3>(points) {
        if let Ok(u) = QuadraticUtility::new(a, b, c, p_min, p_max) {
            return Ok(u);
        }
    }
    if let Ok([a, b]) = least_squares::<2>(points) {
        if let Ok(u) = QuadraticUtility::new(a, b.max(0.0), 0.0, p_min, p_max) {
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

/// Synthesizes the ground truth for a workload on a server and learns the
/// utility exactly as the on-line controller would. Returns
/// `(truth, learned)` so callers can quantify learning error.
///
/// `levels` is the server's fully-utilized power at each p-state
/// ([`ServerSpec::cap_levels`](crate::power::ServerSpec::cap_levels)) and
/// `peak` its peak power, so a cluster computes them once for all its
/// servers. The synthetic DVFS sweep runs at every level: wall power and
/// throughput readings carry multiplicative noise of relative magnitude
/// `noise`, and a noisy performance-counter reading is drawn with each
/// point as the instrumented server would take it, though the fit does not
/// use it. The points live on the stack and the fit allocates nothing.
///
/// # Panics
///
/// Panics if `noise` is not in `[0, 0.2]` or `levels` is empty or holds
/// more than 16 p-states.
pub fn learn_utility<R: Rng + ?Sized>(
    spec: &WorkloadSpec,
    levels: &[Watts],
    peak: Watts,
    curve_jitter: f64,
    noise: f64,
    rng: &mut R,
) -> (QuadraticUtility, QuadraticUtility) {
    assert!(
        (0.0..=0.2).contains(&noise),
        "noise {noise} not in [0, 0.2]"
    );
    assert!(
        levels.len() <= MAX_PSTATES,
        "a sweep holds at most {MAX_PSTATES} p-states"
    );
    let params = if curve_jitter > 0.0 {
        CurveParams::for_spec(spec).jittered(curve_jitter, rng)
    } else {
        CurveParams::for_spec(spec)
    };
    let truth = params.utility(levels[0], peak);
    let signature = PmcSignature::for_spec(spec);
    let jitter = |rng: &mut R| {
        if noise == 0.0 {
            1.0
        } else {
            1.0 + rng.gen_range(-noise..=noise)
        }
    };
    let mut points = [(0.0, 0.0); MAX_PSTATES];
    for (point, &true_power) in points.iter_mut().zip(levels) {
        let power = true_power * jitter(rng);
        let throughput = truth.value(true_power) * jitter(rng);
        // Drawn for its place in the RNG stream; the fit reads no counter.
        signature.sample((noise / 2.0).min(0.4), rng);
        *point = (power.0, throughput);
    }
    let learned = fit_utility_from_points(&points[..levels.len()], truth.p_min(), truth.p_max())
        .expect("a sweep has at least one point");
    (truth, learned)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmark::Benchmark;
    use crate::power::ServerSpec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// [`learn_utility`] on the paper's server class.
    fn learn(
        spec: &WorkloadSpec,
        curve_jitter: f64,
        noise: f64,
        rng: &mut StdRng,
    ) -> (QuadraticUtility, QuadraticUtility) {
        let server = ServerSpec::dell_c1100();
        learn_utility(
            spec,
            &server.cap_levels(),
            server.peak,
            curve_jitter,
            noise,
            rng,
        )
    }

    #[test]
    fn noiseless_sweep_recovers_truth_exactly() {
        let mut rng = StdRng::seed_from_u64(1);
        let (truth, learned) = learn(Benchmark::Bt.spec(), 0.0, 0.0, &mut rng);
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
            let (truth, learned) = learn(b.spec(), 0.0, 0.02, &mut rng);
            let mid = Watts(160.0);
            let rel = (learned.value(mid) - truth.value(mid)).abs() / truth.value(mid);
            assert!(rel < 0.1, "{b}: rel {rel}");
            // The learned curve must be a valid utility (invariants hold by
            // construction of fit_utility).
            assert!(learned.slope(learned.p_max()) >= 0.0);
        }
    }

    #[test]
    fn fit_utility_projects_pathological_data() {
        // Decreasing throughput with power: raw quadratic/linear fits are
        // invalid; the constant fallback must kick in.
        let points: Vec<_> = (0..5)
            .map(|i| (130.0 + 10.0 * i as f64, 10.0 - i as f64))
            .collect();
        let u = fit_utility_from_points(&points, Watts(130.0), Watts(170.0)).unwrap();
        assert!(u.slope(u.p_max()) >= 0.0);
        assert!(u.value(u.p_min()) > 0.0);
    }

    #[test]
    fn empty_points_error() {
        assert!(matches!(
            fit_utility_from_points(&[], Watts(1.0), Watts(2.0)),
            Err(FitError::TooFewSamples { .. })
        ));
    }

    #[test]
    fn curve_jitter_differentiates_instances() {
        let mut rng = StdRng::seed_from_u64(5);
        let (t1, _) = learn(Benchmark::Lu.spec(), 0.08, 0.0, &mut rng);
        let (t2, _) = learn(Benchmark::Lu.spec(), 0.08, 0.0, &mut rng);
        assert!(t1 != t2, "jittered instances should differ");
    }
}
