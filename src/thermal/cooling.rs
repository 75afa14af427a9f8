//! CRAC efficiency and cooling power (Section 2.3 / Eq. 3.1–3.2).

use crate::models::units::{Celsius, Watts};

/// Coefficient of performance of a CRAC unit as a function of its supply
/// temperature. The default is the HP Utility-cluster empirical model used
/// throughout the paper: `CoP(t) = 0.0068·t² + 0.0008·t + 0.458`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct CopModel {
    /// Quadratic coefficient.
    pub a2: f64,
    /// Linear coefficient.
    pub a1: f64,
    /// Constant term.
    pub a0: f64,
}

impl CopModel {
    /// The HP chilled-water CRAC model (Moore et al.).
    pub(crate) fn hp_utility() -> CopModel {
        CopModel {
            a2: 0.0068,
            a1: 0.0008,
            a0: 0.458,
        }
    }

    /// CoP at supply temperature `t` (°C).
    ///
    /// # Panics
    ///
    /// Panics if the model evaluates non-positive (supply temperature far
    /// outside the physical range).
    pub(crate) fn cop(&self, t: Celsius) -> f64 {
        let v = self.a2 * t.0 * t.0 + self.a1 * t.0 + self.a0;
        assert!(v > 0.0, "CoP non-positive at {t}");
        v
    }

    /// Cooling power needed to remove `heat` at supply temperature `t`
    /// (Eq. 3.1: `p_crac = Σp / CoP(t_sup)`).
    pub(crate) fn cooling_power(&self, heat: Watts, t: Celsius) -> Watts {
        heat / self.cop(t)
    }
}

impl Default for CopModel {
    fn default() -> Self {
        CopModel::hp_utility()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hp_model_matches_published_values() {
        let m = CopModel::hp_utility();
        // CoP(15) = 0.0068·225 + 0.0008·15 + 0.458 = 2.0.
        assert!((m.cop(Celsius(15.0)) - 2.0).abs() < 1e-9);
        // CoP(25) = 0.0068·625 + 0.02 + 0.458 = 4.728.
        assert!((m.cop(Celsius(25.0)) - 4.728).abs() < 1e-9);
    }

    #[test]
    fn cop_increases_with_supply_temperature() {
        let m = CopModel::default();
        let mut last = m.cop(Celsius(5.0));
        for t in 6..=30 {
            let c = m.cop(Celsius(t as f64));
            assert!(c > last);
            last = c;
        }
    }

    #[test]
    fn cooling_power_decreases_with_supply_temperature() {
        let m = CopModel::default();
        let heat = Watts::from_kilowatts(450.0);
        let cold = m.cooling_power(heat, Celsius(12.0));
        let warm = m.cooling_power(heat, Celsius(20.0));
        assert!(warm < cold);
        // Plausible band: 30–40 % of computing power at ~14–16 °C supply.
        let mid = m.cooling_power(heat, Celsius(15.0));
        let frac = mid / heat;
        assert!(frac > 0.3 && frac < 0.7, "fraction {frac}");
    }

    #[test]
    #[should_panic(expected = "CoP non-positive")]
    fn absurd_temperature_panics() {
        let m = CopModel {
            a2: 0.0,
            a1: 1.0,
            a0: 0.0,
        };
        let _ = m.cop(Celsius(-5.0));
    }
}
