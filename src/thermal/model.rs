//! Inlet-temperature model and minimum-cooling computation.
//!
//! `T_in = T_sup + D·p` (Eq. 2.2): the minimum sufficient cooling power for
//! a power distribution is found by raising the CRAC supply temperature to
//! the highest value that keeps every inlet below the redline (Section
//! 3.2.1).

use super::cooling::CopModel;
use super::matrix::Matrix;
use crate::models::units::{Celsius, Watts};
use std::fmt;

/// Error from the thermal model.
#[derive(Debug, Clone, PartialEq)]
pub enum ThermalError {
    /// The heat matrix is not square or sizes disagree.
    ShapeMismatch {
        /// Expected rack count.
        expected: usize,
        /// Provided count.
        got: usize,
    },
    /// The self-consistent partition did not converge.
    NotConverged {
        /// Iterations performed.
        iterations: usize,
    },
}

impl fmt::Display for ThermalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ThermalError::ShapeMismatch { expected, got } => {
                write!(f, "shape mismatch: expected {expected}, got {got}")
            }
            ThermalError::NotConverged { iterations } => {
                write!(f, "partition did not converge in {iterations} iterations")
            }
        }
    }
}

impl std::error::Error for ThermalError {}

/// The room's thermal model: heat matrix, CRAC efficiency and redline.
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalModel {
    d: Matrix,
    cop: CopModel,
    t_red: Celsius,
}

impl ThermalModel {
    /// Builds a model.
    ///
    /// # Errors
    ///
    /// [`ThermalError::ShapeMismatch`] when `d` is not square.
    pub(crate) fn new(
        d: Matrix,
        cop: CopModel,
        t_red: Celsius,
    ) -> Result<ThermalModel, ThermalError> {
        if d.rows() != d.cols() {
            return Err(ThermalError::ShapeMismatch {
                expected: d.rows(),
                got: d.cols(),
            });
        }
        Ok(ThermalModel { d, cop, t_red })
    }

    /// The paper's experimental setup: 80-rack room, HP CRAC model, 24 °C
    /// redline.
    pub fn paper_cluster() -> ThermalModel {
        let d = super::layout::RoomLayout::paper_cluster().heat_matrix();
        ThermalModel::new(d, CopModel::hp_utility(), Celsius(24.0))
            .expect("layout matrix is square")
    }

    /// Number of racks.
    pub fn racks(&self) -> usize {
        self.d.rows()
    }

    /// Inlet temperature rises `D·p` (°C) for rack powers in watts.
    ///
    /// # Errors
    ///
    /// [`ThermalError::ShapeMismatch`] when `powers` has the wrong length.
    pub(crate) fn inlet_rises(&self, powers: &[Watts]) -> Result<Vec<f64>, ThermalError> {
        if powers.len() != self.racks() {
            return Err(ThermalError::ShapeMismatch {
                expected: self.racks(),
                got: powers.len(),
            });
        }
        let raw: Vec<f64> = powers.iter().map(|w| w.0).collect();
        Ok(self.d.mul_vec(&raw))
    }

    /// The maximum supply temperature keeping every inlet at or below the
    /// redline: `t_red − max_i (D·p)_i`.
    ///
    /// # Errors
    ///
    /// See [`ThermalModel::inlet_rises`].
    pub(crate) fn max_supply_temperature(&self, powers: &[Watts]) -> Result<Celsius, ThermalError> {
        let peak = self
            .inlet_rises(powers)?
            .into_iter()
            .fold(0.0_f64, f64::max);
        Ok(self.t_red - Celsius(peak))
    }

    /// Minimum sufficient cooling power for a power distribution and the
    /// supply temperature achieving it.
    ///
    /// # Errors
    ///
    /// See [`ThermalModel::inlet_rises`].
    pub(crate) fn min_cooling_power(
        &self,
        powers: &[Watts],
    ) -> Result<(Watts, Celsius), ThermalError> {
        let t_sup = self.max_supply_temperature(powers)?;
        let heat: Watts = powers.iter().sum();
        Ok((self.cop.cooling_power(heat, t_sup), t_sup))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_powers(model: &ThermalModel, per_rack: f64) -> Vec<Watts> {
        vec![Watts(per_rack); model.racks()]
    }

    #[test]
    fn paper_cluster_has_80_racks_and_24c_redline() {
        let m = ThermalModel::paper_cluster();
        assert_eq!(m.racks(), 80);
        assert_eq!(m.t_red, Celsius(24.0));
    }

    #[test]
    fn supply_temperature_drops_as_load_grows() {
        let m = ThermalModel::paper_cluster();
        let light = m
            .max_supply_temperature(&uniform_powers(&m, 4_000.0))
            .unwrap();
        let heavy = m
            .max_supply_temperature(&uniform_powers(&m, 6_800.0))
            .unwrap();
        assert!(heavy < light);
        // At max supply temperature, no inlet exceeds the redline.
        let rises = m.inlet_rises(&uniform_powers(&m, 6_800.0)).unwrap();
        for r in rises {
            assert!(heavy + Celsius(r) <= m.t_red + Celsius(1e-9));
        }
    }

    #[test]
    fn min_cooling_is_a_plausible_fraction_of_computing() {
        let m = ThermalModel::paper_cluster();
        let powers = uniform_powers(&m, 5_900.0); // ≈0.47 MW computing
        let heat: Watts = powers.iter().sum();
        let (cooling, t_sup) = m.min_cooling_power(&powers).unwrap();
        let frac = cooling / heat;
        assert!(
            (0.3..0.7).contains(&frac),
            "cooling fraction {frac} at t_sup {t_sup}"
        );
        assert!(t_sup.0 > 10.0 && t_sup.0 < 22.0, "t_sup {t_sup}");
    }

    #[test]
    fn wrong_length_is_rejected() {
        let m = ThermalModel::paper_cluster();
        assert!(matches!(
            m.inlet_rises(&[Watts(1.0)]),
            Err(ThermalError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn non_square_matrix_rejected() {
        let err =
            ThermalModel::new(Matrix::zeros(2, 3), CopModel::default(), Celsius(24.0)).unwrap_err();
        assert!(matches!(err, ThermalError::ShapeMismatch { .. }));
    }
}
