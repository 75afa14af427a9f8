//! Power→throughput utility functions.
//!
//! The paper models each server's throughput as a concave function
//! `r_i(p_i)` of its power cap, learned on-line by sampling DVFS levels and
//! fitting a quadratic (Section 4.4.1, "Throughput Estimation"; Eq. 3.7 uses
//! the same form). All solvers in `dpc-alg` consume [`QuadraticUtility`],
//! whose closed forms (derivative, λ-argmax) they rely on.

use crate::benchmark::WorkloadSpec;
use crate::units::Watts;
use rand::Rng;
use std::fmt;

/// Error building an invalid utility function.
#[derive(Debug, Clone, PartialEq)]
pub enum UtilityError {
    /// `p_min >= p_max`.
    EmptyPowerRange {
        /// Lower bound supplied.
        p_min: Watts,
        /// Upper bound supplied.
        p_max: Watts,
    },
    /// The quadratic is convex (`c > 0`) on the operating range.
    NotConcave {
        /// Offending quadratic coefficient.
        c: f64,
    },
    /// Throughput would decrease somewhere on the operating range.
    NotMonotone {
        /// Slope at the upper power bound.
        end_slope: f64,
    },
    /// Throughput is non-positive at the lower power bound.
    NonPositive {
        /// Value at the lower power bound.
        at_p_min: f64,
    },
}

impl fmt::Display for UtilityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UtilityError::EmptyPowerRange { p_min, p_max } => {
                write!(f, "empty power range: p_min {p_min} >= p_max {p_max}")
            }
            UtilityError::NotConcave { c } => {
                write!(f, "utility is not concave: quadratic coefficient {c} > 0")
            }
            UtilityError::NotMonotone { end_slope } => {
                write!(f, "utility decreases on range: end slope {end_slope} < 0")
            }
            UtilityError::NonPositive { at_p_min } => {
                write!(f, "utility is non-positive at p_min: {at_p_min}")
            }
        }
    }
}

impl std::error::Error for UtilityError {}

/// Concave, nondecreasing quadratic throughput function
/// `r(p) = a + b·p + c·p²` on the power box `[p_min, p_max]`.
///
/// Invariants (enforced by [`QuadraticUtility::new`]):
/// `p_min < p_max`, `c ≤ 0`, `r′(p_max) ≥ 0` (monotone on the box) and
/// `r(p_min) > 0`.
///
/// # Examples
///
/// ```
/// use dpc_models::throughput::QuadraticUtility;
/// use dpc_models::units::Watts;
///
/// # fn main() -> Result<(), dpc_models::throughput::UtilityError> {
/// // Linear-ish utility on [100 W, 200 W].
/// let u = QuadraticUtility::new(0.0, 0.01, -1e-5, Watts(100.0), Watts(200.0))?;
/// assert!(u.value(Watts(200.0)) > u.value(Watts(100.0)));
/// assert!((u.anp(u.p_max()) - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuadraticUtility {
    a: f64,
    b: f64,
    c: f64,
    p_min: Watts,
    p_max: Watts,
}

impl QuadraticUtility {
    /// Builds a utility function, validating the invariants listed on the
    /// type.
    ///
    /// # Errors
    ///
    /// Returns a [`UtilityError`] describing the violated invariant.
    pub fn new(a: f64, b: f64, c: f64, p_min: Watts, p_max: Watts) -> Result<Self, UtilityError> {
        if p_min >= p_max {
            return Err(UtilityError::EmptyPowerRange { p_min, p_max });
        }
        if c > 0.0 {
            return Err(UtilityError::NotConcave { c });
        }
        let u = QuadraticUtility {
            a,
            b,
            c,
            p_min,
            p_max,
        };
        let end_slope = u.slope(p_max);
        if end_slope < 0.0 {
            return Err(UtilityError::NotMonotone { end_slope });
        }
        let at_p_min = u.value(p_min);
        if at_p_min <= 0.0 {
            return Err(UtilityError::NonPositive { at_p_min });
        }
        Ok(u)
    }

    /// Quadratic coefficients `(a, b, c)`.
    pub fn coefficients(&self) -> (f64, f64, f64) {
        (self.a, self.b, self.c)
    }

    /// Lower bound of the power box (idle power).
    pub fn p_min(&self) -> Watts {
        self.p_min
    }

    /// Upper bound of the power box (peak power).
    pub fn p_max(&self) -> Watts {
        self.p_max
    }

    /// Throughput at power `p` (arbitrary throughput units).
    pub fn value(&self, p: Watts) -> f64 {
        self.a + self.b * p.0 + self.c * p.0 * p.0
    }

    /// Derivative `dr/dp` at power `p`, in throughput units per watt.
    pub fn slope(&self, p: Watts) -> f64 {
        self.b + 2.0 * self.c * p.0
    }

    /// Peak throughput `r(p_max)`.
    pub fn peak(&self) -> f64 {
        self.value(self.p_max)
    }

    /// Application normalized performance at power `p`:
    /// `ANP(p) = r(p) / r(p_max)` (Section 4.4.1).
    pub fn anp(&self, p: Watts) -> f64 {
        self.value(p) / self.peak()
    }

    /// Clamps `p` into the power box.
    pub fn clamp(&self, p: Watts) -> Watts {
        p.clamp(self.p_min, self.p_max)
    }

    /// Box-constrained maximizer of `r(p) − λ·p`, the primal-dual local step
    /// (Eq. 4.6). Closed form for quadratics: the unconstrained stationary
    /// point `(λ − b) / (2c)` clamped into `[p_min, p_max]`.
    ///
    /// For the degenerate linear case (`c = 0`) the maximizer is an endpoint
    /// chosen by the sign of `b − λ`.
    pub fn argmax_minus_price(&self, lambda: f64) -> Watts {
        if self.c == 0.0 {
            return if self.b >= lambda {
                self.p_max
            } else {
                self.p_min
            };
        }
        self.clamp(Watts((lambda - self.b) / (2.0 * self.c)))
    }

    /// Returns a copy scaled by `factor > 0` in throughput units.
    ///
    /// Scaling does not change ANP or the argmax structure; it models
    /// faster/slower absolute throughput for the same shape.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not strictly positive and finite.
    pub(crate) fn scaled(&self, factor: f64) -> QuadraticUtility {
        assert!(
            factor > 0.0 && factor.is_finite(),
            "scale factor must be positive and finite, got {factor}"
        );
        QuadraticUtility {
            a: self.a * factor,
            b: self.b * factor,
            c: self.c * factor,
            ..*self
        }
    }
}

/// Shape parameters from which a [`QuadraticUtility`] is synthesized.
///
/// `gain` is the relative throughput improvement from `p_min` to `p_max`
/// (`(r_max − r_min) / r_max`), and `end_slope_ratio` is
/// `r′(p_max) / r′(p_min)` — near 1 for CPU-bound workloads whose throughput
/// tracks power linearly, near 0 for memory-bound workloads that saturate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurveParams {
    /// Relative gain over the box, in `(0, 1)`.
    pub gain: f64,
    /// Ratio of end slope to start slope, in `[0, 1]`.
    pub end_slope_ratio: f64,
    /// Peak throughput in absolute units (1.0 ⇒ normalized curve).
    pub scale: f64,
}

impl CurveParams {
    /// Derives shape parameters from a workload's memory-boundedness.
    pub fn for_spec(spec: &WorkloadSpec) -> CurveParams {
        Self::for_memory_boundedness(spec.memory_boundedness())
    }

    /// Derives shape parameters from a raw memory-boundedness in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `mb` is outside `[0, 1]`.
    pub fn for_memory_boundedness(mb: f64) -> CurveParams {
        assert!(
            (0.0..=1.0).contains(&mb),
            "memory-boundedness {mb} not in [0,1]"
        );
        CurveParams {
            gain: 0.80 * (1.0 - mb) + 0.03,
            end_slope_ratio: 0.85 * (1.0 - mb).powf(1.5) + 0.02,
            scale: 1.0,
        }
    }

    /// Applies bounded multiplicative jitter (±`amount` relative) so that
    /// multiple instances of the same benchmark get distinguishable curves.
    ///
    /// # Panics
    ///
    /// Panics if `amount` is not in `[0, 0.5)`.
    pub fn jittered<R: Rng + ?Sized>(mut self, amount: f64, rng: &mut R) -> CurveParams {
        assert!(
            (0.0..0.5).contains(&amount),
            "jitter amount {amount} not in [0, 0.5)"
        );
        let j = |rng: &mut R| 1.0 + rng.gen_range(-amount..=amount);
        self.gain = (self.gain * j(rng)).clamp(0.02, 0.95);
        self.end_slope_ratio = (self.end_slope_ratio * j(rng)).clamp(0.0, 1.0);
        self.scale *= j(rng);
        self
    }

    /// Synthesizes the concave quadratic with these shape parameters on the
    /// power box `[p_idle, p_peak]`, normalized so `r(p_peak) = scale`.
    ///
    /// # Panics
    ///
    /// Panics if `p_idle >= p_peak` (programmer error; catalog power boxes
    /// are validated upstream).
    pub fn utility(&self, p_idle: Watts, p_peak: Watts) -> QuadraticUtility {
        assert!(p_idle < p_peak, "power box empty: {p_idle} >= {p_peak}");
        let delta = p_peak.0 - p_idle.0;
        let rho = self.end_slope_ratio.clamp(0.0, 1.0);
        let gain = self.gain.clamp(0.01, 0.99);
        // Average slope over the box is gain/delta (peak normalized to 1);
        // a quadratic's slope is linear, so start/end slopes follow from the
        // requested ratio.
        let m0 = 2.0 * gain / (delta * (1.0 + rho));
        let m1 = rho * m0;
        let c = (m1 - m0) / (2.0 * delta);
        let b = m0 - 2.0 * c * p_idle.0;
        let a = 1.0 - b * p_peak.0 - c * p_peak.0 * p_peak.0;
        QuadraticUtility::new(
            a * self.scale,
            b * self.scale,
            c * self.scale,
            p_idle,
            p_peak,
        )
        .expect("synthesized curve violates utility invariants")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmark::Benchmark;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const P_IDLE: Watts = Watts(120.0);
    const P_PEAK: Watts = Watts(200.0);

    fn curve(b: Benchmark) -> QuadraticUtility {
        CurveParams::for_spec(b.spec()).utility(P_IDLE, P_PEAK)
    }

    #[test]
    fn new_rejects_invalid_shapes() {
        assert!(matches!(
            QuadraticUtility::new(0.0, 1.0, 0.0, Watts(2.0), Watts(1.0)),
            Err(UtilityError::EmptyPowerRange { .. })
        ));
        assert!(matches!(
            QuadraticUtility::new(0.0, 1.0, 1e-3, Watts(1.0), Watts(2.0)),
            Err(UtilityError::NotConcave { .. })
        ));
        // Steeply saturating: slope negative at p_max.
        assert!(matches!(
            QuadraticUtility::new(0.0, 1.0, -0.5, Watts(1.0), Watts(10.0)),
            Err(UtilityError::NotMonotone { .. })
        ));
        assert!(matches!(
            QuadraticUtility::new(-100.0, 0.1, -1e-6, Watts(1.0), Watts(10.0)),
            Err(UtilityError::NonPositive { .. })
        ));
    }

    #[test]
    fn synthesized_curves_hit_shape_targets() {
        let params = CurveParams {
            gain: 0.4,
            end_slope_ratio: 0.25,
            scale: 1.0,
        };
        let u = params.utility(P_IDLE, P_PEAK);
        assert!((u.peak() - 1.0).abs() < 1e-12);
        let gain = (u.peak() - u.value(P_IDLE)) / u.peak();
        assert!((gain - 0.4).abs() < 1e-9, "gain {gain}");
        let ratio = u.slope(P_PEAK) / u.slope(P_IDLE);
        assert!((ratio - 0.25).abs() < 1e-9, "ratio {ratio}");
    }

    #[test]
    fn memory_bound_curves_are_flatter_than_cpu_bound() {
        let ep = curve(Benchmark::Ep); // cpu-bound
        let ra = curve(Benchmark::Ra); // memory-bound
        let gain = |u: &QuadraticUtility| (u.peak() - u.value(P_IDLE)) / u.peak();
        assert!(
            gain(&ep) > 2.0 * gain(&ra),
            "ep {} ra {}",
            gain(&ep),
            gain(&ra)
        );
        // Memory-bound saturates: end slope much smaller relative to start.
        assert!(ra.slope(P_PEAK) / ra.slope(P_IDLE) < ep.slope(P_PEAK) / ep.slope(P_IDLE));
    }

    #[test]
    fn anp_is_one_at_peak_and_below_one_inside() {
        for b in Benchmark::ALL {
            let u = curve(b);
            assert!((u.anp(P_PEAK) - 1.0).abs() < 1e-12);
            let mid = Watts(160.0);
            let anp = u.anp(mid);
            assert!(anp > 0.0 && anp < 1.0, "{b}: anp {anp}");
        }
    }

    #[test]
    fn all_catalog_curves_are_concave_increasing() {
        for b in Benchmark::ALL {
            let u = curve(b);
            let (_, _, c) = u.coefficients();
            assert!(c <= 0.0);
            assert!(u.slope(P_PEAK) >= 0.0);
            assert!(u.slope(P_IDLE) > u.slope(P_PEAK));
            assert!(u.value(P_IDLE) > 0.0);
        }
    }

    #[test]
    fn argmax_minus_price_matches_numeric_maximum() {
        let u = curve(Benchmark::Bt);
        for &lambda in &[0.0, 1e-4, 2e-3, 5e-3, 1e-1] {
            let p_star = u.argmax_minus_price(lambda);
            let obj = |p: Watts| u.value(p) - lambda * p.0;
            let best = obj(p_star);
            let mut p = P_IDLE;
            while p <= P_PEAK {
                assert!(obj(p) <= best + 1e-9, "λ={lambda} beaten at {p}");
                p += Watts(0.5);
            }
        }
    }

    #[test]
    fn argmax_handles_linear_degenerate_case() {
        let u = QuadraticUtility::new(0.1, 0.01, 0.0, P_IDLE, P_PEAK).unwrap();
        assert_eq!(u.argmax_minus_price(0.005), P_PEAK); // slope > price
        assert_eq!(u.argmax_minus_price(0.02), P_IDLE); // slope < price
    }

    #[test]
    fn scaled_preserves_anp() {
        let u = curve(Benchmark::Mg);
        let s = u.scaled(7.3);
        let p = Watts(150.0);
        assert!((u.anp(p) - s.anp(p)).abs() < 1e-12);
        assert!((s.value(p) / u.value(p) - 7.3).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "scale factor must be positive")]
    fn scaled_rejects_nonpositive_factor() {
        let _ = curve(Benchmark::Mg).scaled(0.0);
    }

    #[test]
    fn jitter_stays_within_bounds_and_varies() {
        let mut rng = StdRng::seed_from_u64(7);
        let base = CurveParams::for_spec(Benchmark::Cg.spec());
        let mut distinct = 0;
        for _ in 0..50 {
            let j = base.jittered(0.1, &mut rng);
            assert!((0.02..=0.95).contains(&j.gain));
            assert!((0.0..=1.0).contains(&j.end_slope_ratio));
            // The jittered params must still synthesize a valid curve.
            let _ = j.utility(P_IDLE, P_PEAK);
            if (j.gain - base.gain).abs() > 1e-6 {
                distinct += 1;
            }
        }
        assert!(distinct > 40, "jitter produced almost no variation");
    }
}
