//! Throughput predictors (Chapter 3, Eqs. 3.7–3.8 and Table 3.2).
//!
//! During runtime the budgeter only sees each server's *current* operating
//! point — power cap `p̂`, throughput `τ(p̂)`, and performance counters —
//! and must predict the throughput at every other cap. The paper's
//! predictor models each coefficient of a quadratic `τ(p) = a₁ + a₂p + a₃p²`
//! as a function of two features: the current throughput-per-watt
//! `τ(p̂)/p̂` (Fig. 3.8, linear) and the LLC miss rate (Fig. 3.7,
//! exponential):
//!
//! ```text
//! a_j = β_{j,1} + β_{j,2}·τ(p̂)/p̂ + β_{j,3}·exp(β_{j,4}·LLC)
//! ```
//!
//! Five ablations/prior models are implemented for the Table 3.2
//! comparison. All models are *anchored*: the predicted curve is rescaled
//! to pass through the observed `(p̂, τ(p̂))`, as a runtime predictor must.

use crate::problem::AlgError;
use dpc_models::fitting::solve_linear;
use dpc_models::throughput::QuadraticUtility;
use dpc_models::units::Watts;
use std::fmt;

/// One training/evaluation record: a workload observed at its current cap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observation {
    /// Current power cap `p̂`.
    pub cap: Watts,
    /// Measured throughput at the current cap.
    pub throughput: f64,
    /// LLC misses per cycle.
    pub llc: f64,
}

impl Observation {
    /// The throughput-per-watt feature `τ(p̂)/p̂`.
    pub(crate) fn tp(&self) -> f64 {
        self.throughput / self.cap.0.max(1e-12)
    }
}

/// A labeled training record: the observation plus the workload's true
/// throughput curve (known offline from characterization sweeps).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainingRecord {
    /// The runtime-visible observation.
    pub observation: Observation,
    /// Ground-truth curve the label coefficients come from.
    pub truth: QuadraticUtility,
}

/// The predictor families compared in Table 3.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PredictorKind {
    /// The paper's model: quadratic τ(p), coefficients from TP + exp(LLC).
    QuadraticLlcTp,
    /// Linear τ(p) with coefficients from TP + LLC (Rountree-style).
    LinearLlcTp,
    /// Linear τ(p) from the TP feature only.
    LinearTp,
    /// Quadratic τ(p) from the exp(LLC) feature only.
    ExponentialLlc,
    /// Prior work: one global cubic shape for all workloads.
    PreviousCubic,
    /// Prior work: one global linear shape for all workloads.
    PreviousLinear,
}

impl PredictorKind {
    /// All kinds in Table 3.2 order.
    pub const ALL: [PredictorKind; 6] = [
        PredictorKind::QuadraticLlcTp,
        PredictorKind::LinearLlcTp,
        PredictorKind::LinearTp,
        PredictorKind::ExponentialLlc,
        PredictorKind::PreviousCubic,
        PredictorKind::PreviousLinear,
    ];
}

impl fmt::Display for PredictorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PredictorKind::QuadraticLlcTp => "quadratic-LLC+TP",
            PredictorKind::LinearLlcTp => "linear-LLC+TP",
            PredictorKind::LinearTp => "linear-TP",
            PredictorKind::ExponentialLlc => "exponential-LLC",
            PredictorKind::PreviousCubic => "previous-cubic",
            PredictorKind::PreviousLinear => "previous-linear",
        };
        f.write_str(s)
    }
}

/// Degree of the predicted polynomial per kind.
fn shape_degree(kind: PredictorKind) -> usize {
    match kind {
        PredictorKind::QuadraticLlcTp | PredictorKind::ExponentialLlc => 2,
        PredictorKind::LinearLlcTp | PredictorKind::LinearTp => 1,
        PredictorKind::PreviousCubic => 3,
        PredictorKind::PreviousLinear => 1,
    }
}

/// Feature vector for coefficient regression (empty ⇒ global shape model).
fn features(kind: PredictorKind, obs: &Observation, beta4: f64) -> Vec<f64> {
    match kind {
        PredictorKind::QuadraticLlcTp => vec![1.0, obs.tp(), (beta4 * obs.llc).exp()],
        PredictorKind::LinearLlcTp => vec![1.0, obs.tp(), obs.llc],
        PredictorKind::LinearTp => vec![1.0, obs.tp()],
        PredictorKind::ExponentialLlc => vec![1.0, (beta4 * obs.llc).exp()],
        PredictorKind::PreviousCubic | PredictorKind::PreviousLinear => vec![1.0],
    }
}

/// A trained throughput predictor.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputPredictor {
    kind: PredictorKind,
    /// Per-coefficient regression weights: `betas[j]` maps the feature
    /// vector to curve coefficient `a_{j}`.
    betas: Vec<Vec<f64>>,
    /// Exponential LLC rate β₄ (0 for kinds that do not use it).
    beta4: f64,
}

impl ThroughputPredictor {
    /// Fits a predictor of the given kind on labeled records.
    ///
    /// For the exponential-LLC kinds, β₄ is selected by grid search over
    /// `[-60, 0]` to minimize training SSE of the coefficient regressions —
    /// the offline training of Section 3.2.2.
    ///
    /// # Errors
    ///
    /// [`AlgError::DidNotConverge`] when the training set is too small or
    /// degenerate for the regression.
    pub fn train(
        kind: PredictorKind,
        records: &[TrainingRecord],
    ) -> Result<ThroughputPredictor, AlgError> {
        let probe = Observation {
            cap: Watts(1.0),
            throughput: 1.0,
            llc: 0.0,
        };
        let width = features(kind, &probe, -1.0).len();
        if records.len() < width + 1 {
            return Err(AlgError::DidNotConverge {
                iterations: records.len(),
            });
        }
        let uses_beta4 = matches!(
            kind,
            PredictorKind::QuadraticLlcTp | PredictorKind::ExponentialLlc
        );
        let degree = shape_degree(kind);

        let mut best: Option<(f64, Vec<Vec<f64>>, f64)> = None;
        let grid: Vec<f64> = if uses_beta4 {
            (1..=30).map(|k| -2.0 * k as f64).collect()
        } else {
            vec![0.0]
        };
        for &beta4 in &grid {
            match fit_betas(kind, records, beta4, degree, width) {
                Some((sse, betas)) => match &best {
                    Some((best_sse, _, _)) if *best_sse <= sse => {}
                    _ => best = Some((sse, betas, beta4)),
                },
                None => continue,
            }
        }
        let (_, betas, beta4) = best.ok_or(AlgError::DidNotConverge {
            iterations: records.len(),
        })?;
        Ok(ThroughputPredictor { kind, betas, beta4 })
    }

    /// Predicts throughput at power `p` from a runtime observation,
    /// anchored through the observed point.
    pub fn predict(&self, obs: &Observation, p: Watts) -> f64 {
        let x = features(self.kind, obs, self.beta4);
        let coeff = |j: usize| -> f64 { self.betas[j].iter().zip(&x).map(|(b, f)| b * f).sum() };
        let shape = |pw: f64| -> f64 {
            (0..self.betas.len())
                .map(|j| coeff(j) * pw.powi(j as i32))
                .sum()
        };
        let at_anchor = shape(obs.cap.0);
        if at_anchor.abs() < 1e-12 {
            return obs.throughput;
        }
        obs.throughput * shape(p.0) / at_anchor
    }

    /// Mean absolute relative prediction error over labeled records,
    /// evaluated at every probe cap (the Table 3.2 metric).
    pub fn evaluate(&self, records: &[TrainingRecord], probes: &[Watts]) -> f64 {
        let mut total = 0.0;
        let mut count = 0usize;
        for r in records {
            for &p in probes {
                let truth = r.truth.value(p);
                if truth.abs() < 1e-12 {
                    continue;
                }
                let predicted = self.predict(&r.observation, p);
                total += ((predicted - truth) / truth).abs();
                count += 1;
            }
        }
        if count == 0 {
            0.0
        } else {
            total / count as f64
        }
    }
}

/// Fits the per-coefficient OLS regressions for a fixed β₄; returns the
/// total SSE over coefficients and the weight matrix.
fn fit_betas(
    kind: PredictorKind,
    records: &[TrainingRecord],
    beta4: f64,
    degree: usize,
    width: usize,
) -> Option<(f64, Vec<Vec<f64>>)> {
    // Labels: the true curve's polynomial coefficients, truncated/refit to
    // the model degree when it differs from 2.
    let labels: Vec<Vec<f64>> = records
        .iter()
        .map(|r| {
            let (a, b, c) = r.truth.coefficients();
            match degree {
                1 => {
                    // Best linear approximation over the box: secant.
                    let (lo, hi) = (r.truth.p_min(), r.truth.p_max());
                    let slope = (r.truth.value(hi) - r.truth.value(lo)) / (hi - lo).0;
                    vec![r.truth.value(lo) - slope * lo.0, slope]
                }
                2 => vec![a, b, c],
                _ => vec![a, b, c, 0.0],
            }
        })
        .collect();

    let mut sse_total = 0.0;
    let mut betas = Vec::with_capacity(degree + 1);
    for j in 0..=degree {
        // Normal equations for coefficient j.
        let mut ata = vec![vec![0.0; width]; width];
        let mut atb = vec![0.0; width];
        for (r, label) in records.iter().zip(&labels) {
            let x = features(kind, &r.observation, beta4);
            let y = label[j];
            for a in 0..width {
                atb[a] += x[a] * y;
                for b in 0..width {
                    ata[a][b] += x[a] * x[b];
                }
            }
        }
        // Ridge for conditioning.
        for (a, row) in ata.iter_mut().enumerate() {
            row[a] += 1e-9;
        }
        let w = solve_linear(ata, atb).ok()?;
        for (r, label) in records.iter().zip(&labels) {
            let x = features(kind, &r.observation, beta4);
            let pred: f64 = w.iter().zip(&x).map(|(wi, xi)| wi * xi).sum();
            sse_total += (pred - label[j]).powi(2);
        }
        betas.push(w);
    }
    Some((sse_total, betas))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpc_models::benchmark::{PARSEC, SPEC_CPU2006};
    use dpc_models::characterization::learn_utility;
    use dpc_models::pmc::PmcSignature;
    use dpc_models::power::ServerSpec;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Builds the Chapter 3 characterization database: SPEC+PARSEC
    /// workloads, several jittered instances each, observed at a random cap.
    fn records(seed: u64, instances: usize) -> Vec<TrainingRecord> {
        let mut rng = StdRng::seed_from_u64(seed);
        let server = ServerSpec::dell_c1100();
        let levels = server.cap_levels();
        let mut out = Vec::new();
        for spec in SPEC_CPU2006.iter().chain(&PARSEC) {
            for _ in 0..instances {
                let (truth, _) = learn_utility(spec, &levels, server.peak, 0.08, 0.0, &mut rng);
                let cap = Watts(rng.gen_range(156.0..196.0));
                let pmc = PmcSignature::for_spec(spec).sample(0.03, &mut rng);
                let observation = Observation {
                    cap,
                    throughput: truth.value(cap),
                    llc: pmc.llc_misses_per_cycle(),
                };
                out.push(TrainingRecord { observation, truth });
            }
        }
        out
    }

    fn probes() -> Vec<Watts> {
        (0..8).map(|j| Watts(158.0 + 6.0 * j as f64)).collect()
    }

    #[test]
    fn all_kinds_train_and_predict_finite_values() {
        let train = records(1, 3);
        for kind in PredictorKind::ALL {
            let p = ThroughputPredictor::train(kind, &train).unwrap();
            let err = p.evaluate(&train, &probes());
            assert!(err.is_finite() && err >= 0.0, "{kind}: {err}");
            assert!(err < 0.25, "{kind}: error {err} implausibly large");
        }
    }

    #[test]
    fn papers_model_beats_prior_models_out_of_sample() {
        let train = records(2, 4);
        let test = records(77, 2);
        let err = |kind| {
            ThroughputPredictor::train(kind, &train)
                .unwrap()
                .evaluate(&test, &probes())
        };
        let quad = err(PredictorKind::QuadraticLlcTp);
        let prev_lin = err(PredictorKind::PreviousLinear);
        let prev_cub = err(PredictorKind::PreviousCubic);
        assert!(quad < prev_lin, "quad {quad} vs previous-linear {prev_lin}");
        assert!(quad < prev_cub, "quad {quad} vs previous-cubic {prev_cub}");
    }

    #[test]
    fn anchoring_makes_prediction_exact_at_the_observed_cap() {
        let train = records(3, 3);
        let p = ThroughputPredictor::train(PredictorKind::QuadraticLlcTp, &train).unwrap();
        for r in train.iter().take(10) {
            let at_cap = p.predict(&r.observation, r.observation.cap);
            assert!((at_cap - r.observation.throughput).abs() < 1e-9);
        }
    }

    #[test]
    fn too_few_records_error() {
        let train = records(4, 3);
        let few = &train[..2];
        assert!(matches!(
            ThroughputPredictor::train(PredictorKind::QuadraticLlcTp, few),
            Err(AlgError::DidNotConverge { .. })
        ));
    }

    #[test]
    fn observation_tp_feature() {
        let o = Observation {
            cap: Watts(160.0),
            throughput: 0.8,
            llc: 0.01,
        };
        assert!((o.tp() - 0.005).abs() < 1e-12);
    }

    #[test]
    fn kind_display_matches_table_3_2_names() {
        assert_eq!(
            PredictorKind::QuadraticLlcTp.to_string(),
            "quadratic-LLC+TP"
        );
        assert_eq!(PredictorKind::PreviousLinear.to_string(), "previous-linear");
        assert_eq!(PredictorKind::ALL.len(), 6);
    }
}
