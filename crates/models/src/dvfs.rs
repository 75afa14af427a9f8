//! DVFS (dynamic voltage and frequency scaling) ladder.
//!
//! Power caps are *enforced* through p-states: the capping controller walks
//! a discrete frequency ladder up or down (Fig. 2.1). The evaluation
//! cluster's Xeon L5520 scales 1.60–2.27 GHz (Section 4.4.1), which is the
//! default ladder here.

use std::fmt;

/// An ordered set of processor operating frequencies (p-states).
///
/// Index 0 is the *slowest* p-state; the last index is the fastest.
#[derive(Debug, Clone, PartialEq)]
pub struct DvfsLadder {
    frequencies_ghz: Vec<f64>,
}

impl DvfsLadder {
    /// Builds a ladder from strictly increasing, positive frequencies (GHz).
    ///
    /// # Panics
    ///
    /// Panics if `frequencies_ghz` is empty, non-positive anywhere, or not
    /// strictly increasing.
    pub(crate) fn new(frequencies_ghz: Vec<f64>) -> DvfsLadder {
        assert!(!frequencies_ghz.is_empty(), "DVFS ladder must not be empty");
        for w in frequencies_ghz.windows(2) {
            assert!(
                w[0] < w[1],
                "DVFS ladder must be strictly increasing: {w:?}"
            );
        }
        assert!(frequencies_ghz[0] > 0.0, "frequencies must be positive");
        DvfsLadder { frequencies_ghz }
    }

    /// The Xeon L5520 ladder of the paper's cluster: DVFS points
    /// 1.60–2.27 GHz plus the two clock-modulation (T-state) throttle
    /// levels the capping controller can fall back to below the lowest
    /// P-state, giving the wide enforceable power range the paper's
    /// throughput curves span.
    pub(crate) fn xeon_l5520() -> DvfsLadder {
        DvfsLadder::new(vec![1.06, 1.33, 1.60, 1.73, 1.86, 2.00, 2.13, 2.27])
    }

    /// Index of the fastest p-state.
    pub(crate) fn top(&self) -> usize {
        self.frequencies_ghz.len() - 1
    }

    /// Frequency of p-state `index` relative to the fastest, in `(0, 1]`.
    pub(crate) fn relative_frequency(&self, index: usize) -> f64 {
        self.frequencies_ghz[index] / self.frequencies_ghz[self.top()]
    }

    /// One p-state faster, saturating at the top.
    pub(crate) fn step_up(&self, index: usize) -> usize {
        (index + 1).min(self.top())
    }

    /// One p-state slower, saturating at the bottom.
    pub(crate) fn step_down(&self, index: usize) -> usize {
        index.saturating_sub(1)
    }

    /// Iterates over `(index, frequency_ghz)` pairs.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.frequencies_ghz.iter().copied().enumerate()
    }
}

impl fmt::Display for DvfsLadder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DVFS[")?;
        for (i, freq) in self.iter() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{freq:.2} GHz")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xeon_ladder_matches_paper_range() {
        let l = DvfsLadder::xeon_l5520();
        assert_eq!(l.frequencies_ghz.len(), 8);
        assert_eq!(l.frequencies_ghz[0], 1.06);
        assert_eq!(l.frequencies_ghz[l.top()], 2.27);
        assert!((l.relative_frequency(l.top()) - 1.0).abs() < 1e-12);
        assert!(l.relative_frequency(0) < 1.0);
    }

    #[test]
    fn stepping_saturates() {
        let l = DvfsLadder::xeon_l5520();
        assert_eq!(l.step_down(0), 0);
        assert_eq!(l.step_up(l.top()), l.top());
        assert_eq!(l.step_up(0), 1);
        assert_eq!(l.step_down(3), 2);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_unsorted() {
        let _ = DvfsLadder::new(vec![2.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn rejects_empty() {
        let _ = DvfsLadder::new(vec![]);
    }

    #[test]
    fn display_lists_frequencies() {
        let s = format!("{}", DvfsLadder::new(vec![1.0, 2.0]));
        assert_eq!(s, "DVFS[1.00 GHz, 2.00 GHz]");
    }
}
