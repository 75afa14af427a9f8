//! Piecewise-constant budget schedules.
//!
//! [`simulate`](crate::engine::simulate) drives the cluster with a budget
//! that changes at known instants: every minute for Fig. 4.4
//! (demand-response style).

use dpc_models::units::{Seconds, Watts};

/// A piecewise-constant function of time.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetSchedule {
    /// `(start_time, budget)` segments, ascending by start time; the first
    /// segment must start at 0.
    segments: Vec<(Seconds, Watts)>,
}

impl BudgetSchedule {
    /// A constant budget.
    pub fn constant(budget: Watts) -> BudgetSchedule {
        BudgetSchedule {
            segments: vec![(Seconds::ZERO, budget)],
        }
    }

    /// Builds from `(start, budget)` segments.
    ///
    /// # Panics
    ///
    /// Panics if `segments` is empty, does not start at `t = 0`, or is not
    /// strictly ascending in time.
    pub fn steps(segments: Vec<(Seconds, Watts)>) -> BudgetSchedule {
        assert!(
            !segments.is_empty(),
            "schedule must have at least one segment"
        );
        assert_eq!(
            segments[0].0,
            Seconds::ZERO,
            "first segment must start at t = 0"
        );
        for w in segments.windows(2) {
            assert!(w[0].0 < w[1].0, "segment starts must ascend");
        }
        BudgetSchedule { segments }
    }

    /// A single step: `before` until `at`, then `after`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is not strictly positive.
    pub fn step(before: Watts, after: Watts, at: Seconds) -> BudgetSchedule {
        assert!(at > Seconds::ZERO, "step time must be positive");
        BudgetSchedule::steps(vec![(Seconds::ZERO, before), (at, after)])
    }

    /// The budget in force at time `t` (clamped to the first segment for
    /// negative times).
    pub fn budget_at(&self, t: Seconds) -> Watts {
        let mut current = self.segments[0].1;
        for &(start, b) in &self.segments {
            if t >= start {
                current = b;
            } else {
                break;
            }
        }
        current
    }

    /// Whether the budget changes in the half-open interval `(from, to]` —
    /// the engine's re-allocation trigger.
    pub fn changes_within(&self, from: Seconds, to: Seconds) -> bool {
        self.budget_at(from) != self.budget_at(to)
            || self
                .segments
                .iter()
                .any(|&(start, _)| start > from && start <= to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_is_constant() {
        let s = BudgetSchedule::constant(Watts(100.0));
        assert_eq!(s.budget_at(Seconds(0.0)), Watts(100.0));
        assert_eq!(s.budget_at(Seconds(1e6)), Watts(100.0));
        assert!(!s.changes_within(Seconds(0.0), Seconds(1e6)));
    }

    #[test]
    fn steps_select_the_right_segment() {
        let s = BudgetSchedule::steps(vec![
            (Seconds(0.0), Watts(190.0)),
            (Seconds(60.0), Watts(170.0)),
            (Seconds(120.0), Watts(185.0)),
        ]);
        assert_eq!(s.budget_at(Seconds(59.9)), Watts(190.0));
        assert_eq!(s.budget_at(Seconds(60.0)), Watts(170.0));
        assert_eq!(s.budget_at(Seconds(300.0)), Watts(185.0));
        assert!(s.changes_within(Seconds(59.0), Seconds(60.0)));
        assert!(!s.changes_within(Seconds(60.0), Seconds(119.0)));
    }

    #[test]
    fn single_step_constructor() {
        let s = BudgetSchedule::step(Watts(190.0), Watts(170.0), Seconds(10.0));
        assert_eq!(s.budget_at(Seconds(9.999)), Watts(190.0));
        assert_eq!(s.budget_at(Seconds(10.0)), Watts(170.0));
    }

    #[test]
    #[should_panic(expected = "must start at t = 0")]
    fn rejects_late_start() {
        let _ = BudgetSchedule::steps(vec![(Seconds(5.0), Watts(1.0))]);
    }

    #[test]
    #[should_panic(expected = "starts must ascend")]
    fn rejects_unsorted() {
        let _ = BudgetSchedule::steps(vec![
            (Seconds(0.0), Watts(1.0)),
            (Seconds(5.0), Watts(2.0)),
            (Seconds(5.0), Watts(3.0)),
        ]);
    }
}
