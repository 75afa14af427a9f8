//! Least-squares polynomial fitting.
//!
//! The paper learns throughput functions by measuring a workload at a few
//! DVFS levels and interpolating a quadratic (Section 4.4.1); Chapter 3
//! compares quadratic, linear and cubic models (Table 3.2). This module
//! provides the shared fitting machinery: ordinary least squares on the
//! monomial basis via normal equations, solved with partially pivoted
//! Gaussian elimination.

use std::fmt;

/// Error fitting a polynomial.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FitError {
    /// Fewer samples than coefficients.
    TooFewSamples {
        /// Samples provided.
        have: usize,
        /// Minimum required (`degree + 1`).
        need: usize,
    },
    /// The normal-equation system is singular (e.g. duplicated x values).
    Singular,
}

impl fmt::Display for FitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FitError::TooFewSamples { have, need } => {
                write!(f, "too few samples for fit: have {have}, need {need}")
            }
            FitError::Singular => f.write_str("normal equations are singular"),
        }
    }
}

impl std::error::Error for FitError {}

/// A fitted polynomial `y = Σ coeffs[k] · x^k`.
#[derive(Debug, Clone, PartialEq)]
pub struct Polynomial {
    coeffs: Vec<f64>,
}

impl Polynomial {
    /// Builds a polynomial from low-to-high-order coefficients.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs` is empty.
    pub(crate) fn new(coeffs: Vec<f64>) -> Polynomial {
        assert!(
            !coeffs.is_empty(),
            "polynomial needs at least one coefficient"
        );
        Polynomial { coeffs }
    }

    /// Evaluates the polynomial at `x` (Horner's rule).
    pub fn eval(&self, x: f64) -> f64 {
        self.coeffs.iter().rev().fold(0.0, |acc, &c| acc * x + c)
    }
}

/// Solves the dense linear system `A·x = b` with partially pivoted Gaussian
/// elimination. `a` is row-major `n × n`.
///
/// # Errors
///
/// Returns [`FitError::Singular`] when a pivot underflows.
///
/// # Panics
///
/// Panics if the system has more than 4 unknowns.
pub fn solve_linear(a: Vec<Vec<f64>>, b: Vec<f64>) -> Result<Vec<f64>, FitError> {
    fn fixed<const N: usize>(a: &[Vec<f64>], b: &[f64]) -> Result<Vec<f64>, FitError> {
        let rows: [[f64; N]; N] = std::array::from_fn(|r| a[r][..].try_into().expect("a is n × n"));
        eliminate(rows, b.try_into().expect("b has n entries")).map(Vec::from)
    }
    match b.len() {
        0 => Ok(Vec::new()),
        1 => fixed::<1>(&a, &b),
        2 => fixed::<2>(&a, &b),
        3 => fixed::<3>(&a, &b),
        4 => fixed::<4>(&a, &b),
        n => panic!("solve_linear takes at most 4 unknowns, got {n}"),
    }
}

/// Partially pivoted Gaussian elimination on a stack-held `N × N` system.
#[allow(clippy::needless_range_loop)] // simultaneous two-row access
fn eliminate<const N: usize>(mut a: [[f64; N]; N], mut b: [f64; N]) -> Result<[f64; N], FitError> {
    for col in 0..N {
        // Partial pivot.
        let pivot_row = (col..N)
            .max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))
            .expect("non-empty pivot range");
        if a[pivot_row][col].abs() < 1e-300 {
            return Err(FitError::Singular);
        }
        a.swap(col, pivot_row);
        b.swap(col, pivot_row);
        for row in col + 1..N {
            let f = a[row][col] / a[col][col];
            if f == 0.0 {
                continue;
            }
            for k in col..N {
                a[row][k] -= f * a[col][k];
            }
            b[row] -= f * b[col];
        }
    }
    // Back substitution.
    let mut x = [0.0; N];
    for row in (0..N).rev() {
        let mut acc = b[row];
        for k in row + 1..N {
            acc -= a[row][k] * x[k];
        }
        x[row] = acc / a[row][row];
    }
    Ok(x)
}

/// Fits a polynomial of the given degree to `(x, y)` samples by ordinary
/// least squares.
///
/// For numerical stability the x values are centred and scaled internally;
/// the returned coefficients are in the *original* x units.
///
/// # Errors
///
/// [`FitError::TooFewSamples`] when fewer than `degree + 1` samples are
/// given, [`FitError::Singular`] when the design matrix is rank deficient
/// (e.g. all x identical).
///
/// # Panics
///
/// Panics if `degree` is above 3.
pub fn fit_polynomial(samples: &[(f64, f64)], degree: usize) -> Result<Polynomial, FitError> {
    let coeffs = match degree {
        0 => least_squares::<1>(samples).map(Vec::from),
        1 => least_squares::<2>(samples).map(Vec::from),
        2 => least_squares::<3>(samples).map(Vec::from),
        3 => least_squares::<4>(samples).map(Vec::from),
        d => panic!("fit_polynomial fits degree at most 3, got {d}"),
    };
    coeffs.map(Polynomial::new)
}

/// The least-squares core: the `M` coefficients, constant term first, of
/// the degree-`M − 1` polynomial that best fits `(x, y)` samples. Normal
/// equations and elimination live on the stack, so a fit allocates nothing.
///
/// For numerical stability the x values are centred and scaled internally;
/// the returned coefficients are in the *original* x units.
///
/// # Errors
///
/// [`FitError::TooFewSamples`] when fewer than `M` samples are given,
/// [`FitError::Singular`] when the design matrix is rank deficient.
#[allow(clippy::needless_range_loop)] // binomial recurrence indexes two arrays
pub(crate) fn least_squares<const M: usize>(samples: &[(f64, f64)]) -> Result<[f64; M], FitError> {
    if samples.len() < M {
        return Err(FitError::TooFewSamples {
            have: samples.len(),
            need: M,
        });
    }
    // Centre/scale x for conditioning.
    let n = samples.len() as f64;
    let mean = samples.iter().map(|s| s.0).sum::<f64>() / n;
    let spread = samples
        .iter()
        .map(|s| (s.0 - mean).abs())
        .fold(0.0_f64, f64::max)
        .max(1e-12);

    // Normal equations on the scaled basis.
    let mut ata = [[0.0; M]; M];
    let mut atb = [0.0; M];
    for &(x, y) in samples {
        let t = (x - mean) / spread;
        let mut powers = [1.0; M];
        for k in 1..M {
            powers[k] = powers[k - 1] * t;
        }
        for i in 0..M {
            atb[i] += powers[i] * y;
            for j in 0..M {
                ata[i][j] += powers[i] * powers[j];
            }
        }
    }
    let scaled = eliminate(ata, atb)?;

    // Expand Σ s_k ((x-mean)/spread)^k back to the monomial basis in x.
    let mut coeffs = [0.0; M];
    for (k, &sk) in scaled.iter().enumerate() {
        // ((x - mean)/spread)^k = Σ_j C(k,j) x^j (-mean)^{k-j} / spread^k
        let mut binom = 1.0_f64;
        for j in 0..=k {
            if j > 0 {
                binom = binom * (k - j + 1) as f64 / j as f64;
            }
            coeffs[j] += sk * binom * (-mean).powi((k - j) as i32) / spread.powi(k as i32);
        }
    }
    Ok(coeffs)
}

/// Coefficient of determination R² of a fitted model on samples.
///
/// Returns 1.0 for a perfect fit; can be negative for a fit worse than the
/// mean predictor. Returns 1.0 when the outputs are constant and matched.
pub fn r_squared(poly: &Polynomial, samples: &[(f64, f64)]) -> f64 {
    if samples.is_empty() {
        return 1.0;
    }
    let mean = samples.iter().map(|s| s.1).sum::<f64>() / samples.len() as f64;
    let ss_tot: f64 = samples.iter().map(|s| (s.1 - mean).powi(2)).sum();
    let ss_res: f64 = samples.iter().map(|s| (s.1 - poly.eval(s.0)).powi(2)).sum();
    if ss_tot == 0.0 {
        return if ss_res == 0.0 {
            1.0
        } else {
            f64::NEG_INFINITY
        };
    }
    1.0 - ss_res / ss_tot
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_exact_quadratic() {
        let truth = |x: f64| 2.0 - 0.3 * x + 0.01 * x * x;
        let samples: Vec<_> = (0..8)
            .map(|i| {
                let x = 100.0 + 10.0 * i as f64;
                (x, truth(x))
            })
            .collect();
        let [a, b, c] = least_squares::<3>(&samples).unwrap();
        assert!((a - 2.0).abs() < 1e-6, "{a}");
        assert!((b + 0.3).abs() < 1e-8);
        assert!((c - 0.01).abs() < 1e-10);
        let p = fit_polynomial(&samples, 2).unwrap();
        assert_eq!(p, Polynomial::new(vec![a, b, c]));
        assert!(r_squared(&p, &samples) > 1.0 - 1e-12);
    }

    #[test]
    fn recovers_cubic_and_linear() {
        let truth = |x: f64| 1.0 + 0.5 * x - 0.02 * x * x + 1e-4 * x * x * x;
        let samples: Vec<_> = (0..12)
            .map(|i| {
                let x = i as f64 * 5.0;
                (x, truth(x))
            })
            .collect();
        let cubic = least_squares::<4>(&samples).unwrap();
        for (got, want) in cubic.iter().zip([1.0, 0.5, -0.02, 1e-4]) {
            assert!((got - want).abs() < 1e-6, "{got} vs {want}");
        }
        let line = fit_polynomial(&[(0.0, 1.0), (2.0, 5.0)], 1).unwrap();
        assert!((line.eval(1.0) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_underdetermined_and_singular() {
        assert_eq!(
            fit_polynomial(&[(0.0, 1.0)], 2),
            Err(FitError::TooFewSamples { have: 1, need: 3 })
        );
        // All x equal: rank deficient.
        let same = vec![(5.0, 1.0), (5.0, 2.0), (5.0, 3.0)];
        assert_eq!(fit_polynomial(&same, 2), Err(FitError::Singular));
    }

    #[test]
    #[should_panic(expected = "degree at most 3")]
    fn fit_polynomial_rejects_degree_four() {
        let samples: Vec<_> = (0..6).map(|i| (i as f64, 1.0)).collect();
        let _ = fit_polynomial(&samples, 4);
    }

    #[test]
    fn noisy_fit_is_close_and_r2_high() {
        // Deterministic pseudo-noise to keep the test stable.
        let truth = |x: f64| 10.0 + 0.2 * x - 5e-4 * x * x;
        let samples: Vec<_> = (0..20)
            .map(|i| {
                let x = 100.0 + 5.0 * i as f64;
                let noise = 0.01 * ((i * 2654435761_usize) % 1000) as f64 / 1000.0 - 0.005;
                (x, truth(x) * (1.0 + noise))
            })
            .collect();
        let p = fit_polynomial(&samples, 2).unwrap();
        assert!(r_squared(&p, &samples) > 0.99);
        for &(x, _) in &samples {
            let rel = ((p.eval(x) - truth(x)) / truth(x)).abs();
            assert!(rel < 0.02, "x={x} rel={rel}");
        }
    }

    #[test]
    fn polynomial_eval() {
        let p = Polynomial::new(vec![1.0, 2.0, 3.0]); // 1 + 2x + 3x²
        assert_eq!(p.eval(2.0), 17.0);
    }

    #[test]
    #[should_panic(expected = "at least one coefficient")]
    fn polynomial_rejects_empty() {
        let _ = Polynomial::new(vec![]);
    }

    #[test]
    fn solve_linear_3x3() {
        let a = vec![
            vec![2.0, 1.0, -1.0],
            vec![-3.0, -1.0, 2.0],
            vec![-2.0, 1.0, 2.0],
        ];
        let b = vec![8.0, -11.0, -3.0];
        let x = solve_linear(a, b).unwrap();
        for (got, want) in x.iter().zip([2.0, 3.0, -1.0]) {
            assert!((got - want).abs() < 1e-9);
        }
    }
}
