//! Server power model.
//!
//! Maps an operating point — p-state and utilization — to electrical power.
//! The model is the standard decomposition into an idle floor plus dynamic
//! power that scales with utilization and super-linearly with frequency
//! (voltage rides frequency, so dynamic power ≈ `u · f^γ` with γ between 2
//! and 3).

use crate::dvfs::DvfsLadder;
use crate::units::Watts;

/// Static power characteristics of a server class.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerSpec {
    /// Power when idle at any p-state (fan + leakage + uncore floor).
    pub idle: Watts,
    /// Power when fully utilized at the fastest p-state.
    pub peak: Watts,
    /// Frequency ladder the capping controller walks.
    pub ladder: DvfsLadder,
    /// Frequency exponent γ of dynamic power (`f^γ`).
    pub frequency_exponent: f64,
}

impl ServerSpec {
    /// Builds a spec, validating `idle < peak` and `γ ≥ 1`.
    ///
    /// # Panics
    ///
    /// Panics if `idle >= peak` or `frequency_exponent < 1.0`.
    pub(crate) fn new(
        idle: Watts,
        peak: Watts,
        ladder: DvfsLadder,
        frequency_exponent: f64,
    ) -> Self {
        assert!(idle < peak, "idle power {idle} must be below peak {peak}");
        assert!(idle > Watts::ZERO, "idle power must be positive");
        assert!(
            frequency_exponent >= 1.0,
            "frequency exponent {frequency_exponent} must be ≥ 1"
        );
        ServerSpec {
            idle,
            peak,
            ladder,
            frequency_exponent,
        }
    }

    /// The dual-socket Xeon L5520 node of the paper's experimental cluster
    /// (Dell PowerEdge C1100): ~90 W idle, ~210 W fully loaded at top
    /// frequency, enforceable down to ~112 W at the deepest throttle level.
    pub fn dell_c1100() -> ServerSpec {
        ServerSpec::new(Watts(90.0), Watts(210.0), DvfsLadder::xeon_l5520(), 2.2)
    }

    /// Electrical power at the given p-state and utilization `u ∈ [0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `utilization` is outside `[0, 1]` or `pstate` is out of
    /// range.
    pub(crate) fn power(&self, pstate: usize, utilization: f64) -> Watts {
        assert!(
            (0.0..=1.0).contains(&utilization),
            "utilization {utilization} not in [0,1]"
        );
        let rel_f = self.ladder.relative_frequency(pstate);
        let dynamic = (self.peak - self.idle) * utilization * rel_f.powf(self.frequency_exponent);
        self.idle + dynamic
    }

    /// Power when fully utilized at p-state `pstate`.
    pub(crate) fn power_full(&self, pstate: usize) -> Watts {
        self.power(pstate, 1.0)
    }

    /// Lowest enforceable power at full utilization (slowest p-state).
    pub fn min_full_power(&self) -> Watts {
        self.power_full(0)
    }

    /// The discrete set of fully-utilized power levels, one per p-state,
    /// ascending. These are the enforceable power caps of the server.
    pub fn cap_levels(&self) -> Vec<Watts> {
        self.ladder
            .iter()
            .map(|(i, _)| self.power_full(i))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn c1100_spans_the_paper_power_range() {
        let s = ServerSpec::dell_c1100();
        assert_eq!(s.power(0, 0.0), Watts(90.0));
        assert_eq!(s.power_full(s.ladder.top()), Watts(210.0));
        // At the deepest throttle level, full power sits far below peak —
        // the wide enforceable range the paper's curves span.
        assert!(s.min_full_power() < Watts(125.0));
        assert!(s.min_full_power() > s.idle);
    }

    #[test]
    fn power_is_monotone_in_pstate_and_utilization() {
        let s = ServerSpec::dell_c1100();
        for i in 0..s.ladder.top() {
            assert!(s.power_full(i) < s.power_full(i + 1));
        }
        assert!(s.power(3, 0.2) < s.power(3, 0.9));
    }

    #[test]
    fn cap_levels_are_ascending_and_match_power_full() {
        let s = ServerSpec::dell_c1100();
        let levels = s.cap_levels();
        assert_eq!(levels.len(), s.ladder.iter().count());
        for w in levels.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert_eq!(levels[0], s.min_full_power());
    }

    #[test]
    #[should_panic(expected = "not in [0,1]")]
    fn rejects_bad_utilization() {
        let _ = ServerSpec::dell_c1100().power(0, 1.5);
    }

    #[test]
    #[should_panic(expected = "must be below peak")]
    fn rejects_idle_above_peak() {
        let _ = ServerSpec::new(Watts(300.0), Watts(200.0), DvfsLadder::xeon_l5520(), 2.0);
    }
}
