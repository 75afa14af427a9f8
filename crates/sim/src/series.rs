//! Time-series records produced by the simulators.

use dpc_models::units::{Seconds, Watts};

/// One sampled instant of a cluster run.
#[derive(Debug, Clone, PartialEq)]
pub struct TimePoint {
    /// Simulation time.
    pub t: Seconds,
    /// Budget in force.
    pub budget: Watts,
    /// Total power drawn by the allocation.
    pub total_power: Watts,
    /// System normalized performance (arithmetic mean of ANPs).
    pub snp: f64,
    /// SNP of the centralized-oracle allocation at the same instant.
    pub optimal_snp: f64,
}

/// An ordered collection of [`TimePoint`]s.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimeSeries {
    points: Vec<TimePoint>,
}

impl TimeSeries {
    /// Empty series.
    pub fn new() -> TimeSeries {
        TimeSeries::default()
    }

    /// Appends a point.
    ///
    /// # Panics
    ///
    /// Panics if time does not advance monotonically.
    pub fn push(&mut self, point: TimePoint) {
        if let Some(last) = self.points.last() {
            assert!(
                point.t >= last.t,
                "time went backwards: {} after {}",
                point.t,
                last.t
            );
        }
        self.points.push(point);
    }

    /// The recorded points.
    pub fn points(&self) -> &[TimePoint] {
        &self.points
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// `true` when total power stayed at or below the in-force budget at
    /// every sample (within `tol`).
    pub fn budget_respected(&self, tol: Watts) -> bool {
        self.points.iter().all(|p| p.total_power <= p.budget + tol)
    }

    /// Mean SNP over the run.
    pub fn mean_snp(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().map(|p| p.snp).sum::<f64>() / self.points.len() as f64
    }

    /// Mean ratio of achieved SNP to the oracle SNP.
    pub fn mean_optimality(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points
            .iter()
            .map(|p| p.snp / p.optimal_snp.max(1e-12))
            .sum::<f64>()
            / self.points.len() as f64
    }

    /// Renders `t, budget, power, snp, optimal_snp` rows as CSV (header
    /// included) for offline plotting.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("t_s,budget_w,power_w,snp,optimal_snp\n");
        for p in &self.points {
            out.push_str(&format!(
                "{:.3},{:.1},{:.1},{:.5},{:.5}\n",
                p.t.0, p.budget.0, p.total_power.0, p.snp, p.optimal_snp
            ));
        }
        out
    }
}

impl FromIterator<TimePoint> for TimeSeries {
    fn from_iter<I: IntoIterator<Item = TimePoint>>(iter: I) -> TimeSeries {
        let mut s = TimeSeries::new();
        for p in iter {
            s.push(p);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(t: f64, budget: f64, power: f64, snp: f64) -> TimePoint {
        TimePoint {
            t: Seconds(t),
            budget: Watts(budget),
            total_power: Watts(power),
            snp,
            optimal_snp: snp + 0.01,
        }
    }

    #[test]
    fn push_and_aggregate() {
        let s: TimeSeries = vec![pt(0.0, 100.0, 90.0, 0.8), pt(1.0, 100.0, 95.0, 0.9)]
            .into_iter()
            .collect();
        assert_eq!(s.len(), 2);
        assert!(s.budget_respected(Watts::ZERO));
        assert!((s.mean_snp() - 0.85).abs() < 1e-12);
        assert!(s.mean_optimality() < 1.0);
    }

    #[test]
    fn budget_violation_detected() {
        let s: TimeSeries = vec![pt(0.0, 100.0, 101.0, 0.8)].into_iter().collect();
        assert!(!s.budget_respected(Watts(0.5)));
        assert!(s.budget_respected(Watts(2.0)));
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn rejects_time_reversal() {
        let mut s = TimeSeries::new();
        s.push(pt(1.0, 1.0, 1.0, 0.5));
        s.push(pt(0.5, 1.0, 1.0, 0.5));
    }

    #[test]
    fn csv_has_header_and_rows() {
        let s: TimeSeries = vec![pt(0.0, 100.0, 90.0, 0.8)].into_iter().collect();
        let csv = s.to_csv();
        assert!(csv.starts_with("t_s,budget_w"));
        assert_eq!(csv.lines().count(), 2);
    }

    #[test]
    fn empty_series_aggregates_to_zero() {
        let s = TimeSeries::new();
        assert!(s.is_empty());
        assert_eq!(s.mean_snp(), 0.0);
        assert_eq!(s.mean_optimality(), 0.0);
        assert!(s.budget_respected(Watts::ZERO));
    }
}
