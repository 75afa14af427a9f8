//! Power-cap enforcement: the DVFS feedback controller of Fig. 2.1.
//!
//! Each server runs a local feedback loop that compares measured power with
//! the allocated cap and walks the DVFS ladder: positive error (over cap) ⇒
//! step the p-state down; negative error with headroom ⇒ step up. The
//! allocation algorithms in `dpc-alg` produce the caps; this module is the
//! actuator that realizes them, including first-order thermal/electrical
//! settling of the measured power.

use crate::power::ServerSpec;
use crate::units::Watts;

/// Decision of one controller evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CapAction {
    /// Move to a slower p-state (over the cap).
    StepDown,
    /// Move to a faster p-state (headroom available).
    StepUp,
    /// Stay at the current p-state.
    Hold,
}

/// The feedback law of Fig. 2.1.
///
/// Stateless apart from its setpoint: given measured power, it returns the
/// p-state adjustment. To avoid limit cycles the controller only steps up
/// when the *predicted* power at the faster p-state still fits under the cap
/// minus a deadband.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PowerCapController {
    cap: Watts,
    deadband: Watts,
}

impl PowerCapController {
    /// Builds a controller with the given setpoint and deadband.
    ///
    /// # Panics
    ///
    /// Panics if `deadband` is negative.
    pub(crate) fn new(cap: Watts, deadband: Watts) -> Self {
        assert!(deadband >= Watts::ZERO, "deadband must be non-negative");
        PowerCapController { cap, deadband }
    }

    /// Current power cap.
    pub(crate) fn cap(&self) -> Watts {
        self.cap
    }

    /// Updates the setpoint (budget re-allocation).
    pub(crate) fn set_cap(&mut self, cap: Watts) {
        self.cap = cap;
    }

    /// Evaluates the feedback law.
    ///
    /// `predicted_up` is the power the server would draw at the next-faster
    /// p-state (used to gate step-ups); pass `None` when already at the top.
    pub(crate) fn decide(&self, measured: Watts, predicted_up: Option<Watts>) -> CapAction {
        if measured > self.cap {
            return CapAction::StepDown;
        }
        match predicted_up {
            Some(p) if p <= self.cap - self.deadband => CapAction::StepUp,
            _ => CapAction::Hold,
        }
    }
}

/// A server with a cap controller in the loop and first-order measured-power
/// dynamics — the unit the cluster simulator steps.
#[derive(Debug, Clone)]
pub struct CappedServer {
    spec: ServerSpec,
    controller: PowerCapController,
    pstate: usize,
    measured: Watts,
    utilization: f64,
    /// Fraction of the gap to the electrical target closed per tick.
    smoothing: f64,
}

impl CappedServer {
    /// Creates a fully-utilized server starting at the top p-state with the
    /// given cap; a 2 % deadband of the idle-to-peak range is used (smaller
    /// than the power spacing between adjacent p-states, so the controller
    /// can always reach the highest feasible p-state).
    pub fn new(spec: ServerSpec, cap: Watts) -> CappedServer {
        let deadband = (spec.peak - spec.idle) * 0.02;
        let pstate = spec.ladder.top();
        let measured = spec.power(pstate, 1.0);
        CappedServer {
            controller: PowerCapController::new(cap, deadband),
            spec,
            pstate,
            measured,
            utilization: 1.0,
            smoothing: 0.5,
        }
    }

    /// Current p-state index.
    pub fn pstate(&self) -> usize {
        self.pstate
    }

    /// Most recent measured power.
    pub fn measured_power(&self) -> Watts {
        self.measured
    }

    /// Current cap.
    pub fn cap(&self) -> Watts {
        self.controller.cap()
    }

    /// Re-allocates the cap (called when the budgeting algorithm re-solves).
    pub fn set_cap(&mut self, cap: Watts) {
        self.controller.set_cap(cap);
    }

    /// Advances one controller period: power settles toward the electrical
    /// target (plus measurement noise `noise`, in watts), then the feedback
    /// law adjusts the p-state. Returns the new measured power.
    pub fn tick(&mut self, noise: Watts) -> Watts {
        let target = self.spec.power(self.pstate, self.utilization);
        self.measured += (target - self.measured) * self.smoothing + noise;
        let predicted_up = if self.pstate < self.spec.ladder.top() {
            Some(
                self.spec
                    .power(self.spec.ladder.step_up(self.pstate), self.utilization),
            )
        } else {
            None
        };
        match self.controller.decide(self.measured, predicted_up) {
            CapAction::StepDown => self.pstate = self.spec.ladder.step_down(self.pstate),
            CapAction::StepUp => self.pstate = self.spec.ladder.step_up(self.pstate),
            CapAction::Hold => {}
        }
        self.measured
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server(cap: f64) -> CappedServer {
        CappedServer::new(ServerSpec::dell_c1100(), Watts(cap))
    }

    /// Runs ticks until measured power stays within the cap for
    /// `stable_ticks` consecutive periods; returns the number of ticks taken
    /// or `None` if it does not settle within `max_ticks`.
    fn run_until_settled(
        s: &mut CappedServer,
        max_ticks: usize,
        stable_ticks: usize,
    ) -> Option<usize> {
        let mut stable = 0usize;
        for t in 0..max_ticks {
            if s.tick(Watts::ZERO) <= s.cap() {
                stable += 1;
                if stable >= stable_ticks {
                    return Some(t + 1);
                }
            } else {
                stable = 0;
            }
        }
        None
    }

    #[test]
    fn controller_steps_down_when_over_cap() {
        let c = PowerCapController::new(Watts(150.0), Watts(4.0));
        assert_eq!(
            c.decide(Watts(160.0), Some(Watts(170.0))),
            CapAction::StepDown
        );
    }

    #[test]
    fn controller_steps_up_only_with_headroom() {
        let c = PowerCapController::new(Watts(150.0), Watts(4.0));
        assert_eq!(
            c.decide(Watts(130.0), Some(Watts(140.0))),
            CapAction::StepUp
        );
        // Predicted power inside the deadband: hold.
        assert_eq!(c.decide(Watts(130.0), Some(Watts(148.0))), CapAction::Hold);
        // At top p-state: hold.
        assert_eq!(c.decide(Watts(130.0), None), CapAction::Hold);
    }

    #[test]
    fn capped_server_settles_under_cap() {
        let mut s = server(165.0);
        let ticks = run_until_settled(&mut s, 200, 5).expect("must settle");
        assert!(ticks < 100, "settled too slowly: {ticks}");
        assert!(s.measured_power() <= Watts(165.0));
        // The chosen p-state is the highest feasible one.
        let levels = s.spec.cap_levels();
        assert_eq!(
            Some(s.pstate()),
            levels.iter().rposition(|&p| p <= Watts(165.0))
        );
    }

    #[test]
    fn raising_the_cap_raises_the_pstate() {
        let mut s = server(160.0);
        run_until_settled(&mut s, 200, 5).unwrap();
        let low_pstate = s.pstate();
        // Headroom above peak power: the deadband requires predicted power
        // to sit strictly below the cap before stepping up.
        s.set_cap(Watts(226.0));
        run_until_settled(&mut s, 200, 5).unwrap();
        assert!(s.pstate() > low_pstate);
        assert_eq!(s.pstate(), s.spec.ladder.top());
    }

    #[test]
    fn infeasible_cap_never_settles_but_reaches_bottom() {
        let mut s = server(100.0); // below slowest p-state full power
        assert_eq!(run_until_settled(&mut s, 100, 5), None);
        assert_eq!(s.pstate(), 0);
    }

    #[test]
    fn lower_utilization_lowers_power() {
        let mut busy = server(1000.0);
        let mut idle = server(1000.0);
        idle.utilization = 0.2;
        for _ in 0..50 {
            busy.tick(Watts::ZERO);
            idle.tick(Watts::ZERO);
        }
        assert!(idle.measured_power() < busy.measured_power());
    }

    #[test]
    fn noise_does_not_break_settling_badly() {
        let mut s = server(170.0);
        // Deterministic alternating noise.
        for i in 0..300 {
            let n = if i % 2 == 0 { Watts(1.0) } else { Watts(-1.0) };
            s.tick(n);
        }
        assert!(s.measured_power() <= Watts(175.0));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn controller_rejects_negative_deadband() {
        let _ = PowerCapController::new(Watts(100.0), Watts(-1.0));
    }
}
