//! Host-speed calibration.
//!
//! The sizing host is a shared two-vCPU guest whose speed drifts by tens
//! of percent over seconds to tens of minutes: the same solve of the same
//! instance measured 117–230 µs/round across 20-second windows, and two
//! back-to-back sets of runs of one commit differed by 40 %. No statistic
//! of a 20-second run averages that out. What does cancel most of it is a
//! fixed piece of the harness's own arithmetic, timed right before and
//! after every timed region: over the same windows the ratio of the
//! product's round time to this kernel's round time stayed within ±4 %.
//!
//! The kernel is a frozen imitation of a DiBA round on a ring of the
//! workload's own size — the same mix of divisions, min/max clamps and
//! neighbour reads, in the same cache level — so it slows down with the
//! host the way the product does. It never calls the product and never
//! changes with it. A latency-bound spin loop, a streaming loop, and this
//! kernel at a size other than the workload's tracked the product's
//! slowdowns poorly and were rejected.
//!
//! Timings are reported at *nominal host speed*: raw seconds divided by
//! the slowdown measured around them, where slowdown 1.0 means the kernel
//! ran at [`NOMINAL_NS_PER_ELEMENT`]. Eight repeats of one seed, spread
//! over a quarter of an hour of a noisy host, as measured → corrected
//! (interquartile range over median of `time_to_cap_ms`):
//! `solve_cold_10k` 33 % → 4 %, `replay_events_1k` 19 % → 9 %,
//! `solve_scale_100k` 23 % → 8 %. On `cluster_torus_1k`, whose round is
//! wire and event loop rather than solver arithmetic, it was 15 % → 12 %
//! with `round_us` made worse, so that workload runs with the calibrator
//! off and its timings are as measured.
//!
//! The nominal cost is the kernel's on the quiet sizing host while its
//! working set fits L2. At 100 000 elements it does not (nor does the
//! product's), the kernel costs about 10 ns per element even when the
//! host is quiet, and `solve_scale_100k`'s corrected times read about
//! 0.6 of wall-clock: compare them with each other, and read the
//! as-measured medians each run prints beside them.

use std::hint::black_box;
use std::time::Instant;

/// The kernel's cost per element and round on the sizing host when quiet.
pub const NOMINAL_NS_PER_ELEMENT: f64 = 6.0;

/// Element-rounds per burst: about a third of a millisecond.
const BURST_WORK: usize = 50_000;

#[derive(Debug)]
pub struct Calibrator {
    /// Rounds per burst; 0 switches the calibrator off.
    rounds: usize,
    slope: Vec<f64>,
    curvature: Vec<f64>,
    p: Vec<f64>,
    e: Vec<f64>,
    dp: Vec<f64>,
    sent: Vec<f64>,
}

impl Calibrator {
    /// A calibrator whose ring has `elements` nodes — the workload's own
    /// size, so the kernel sits in the same cache level as the product's
    /// round.
    pub fn new(elements: usize) -> Calibrator {
        let n = elements;
        Calibrator {
            rounds: (BURST_WORK / n).max(1),
            slope: (0..n).map(|i| 0.02 + (i % 13) as f64 * 1e-3).collect(),
            curvature: (0..n).map(|i| -5e-5 - (i % 7) as f64 * 1e-6).collect(),
            p: vec![170.0; n],
            e: (0..n).map(|i| -1.0 - (i % 5) as f64 * 0.1).collect(),
            dp: vec![0.0; n],
            sent: vec![0.0; n],
        }
    }

    /// A calibrator that measures nothing: every slowdown is 1.0 and
    /// timings stay as measured.
    pub fn off() -> Calibrator {
        Calibrator {
            rounds: 0,
            ..Calibrator::new(1)
        }
    }

    /// One burst of the kernel. Returns
    /// the host's slowdown against nominal speed. Every operation is
    /// branch-free and every value stays in a fixed range, so a burst is
    /// the same work every time.
    pub fn slowdown(&mut self) -> f64 {
        if self.rounds == 0 {
            return 1.0;
        }
        let n = self.p.len();
        let t = Instant::now();
        for _ in 0..self.rounds {
            for i in 0..n {
                let (p, e) = (self.p[i], self.e[i]);
                let inv = 1.0 / e.min(-1e-3);
                let grad = self.slope[i] + 2.0 * self.curvature[i] * p + 0.01 * inv;
                let precond = 2.0 * self.curvature[i].abs() + 0.01 * inv * inv;
                self.dp[i] = (p + 0.7 * grad / precond.max(1e-12)).clamp(120.0, 210.0) - p;
                let left = self.e[(i + n - 1) % n];
                let right = self.e[(i + 1) % n];
                self.sent[i] = (0.3 * (e - left)).min(0.0) + (0.3 * (e - right)).min(0.0);
            }
            for i in 0..n {
                self.p[i] += self.dp[i] * 1e-3;
                self.e[i] = (self.e[i] + (self.dp[i] - self.sent[i]) * 1e-3).clamp(-5.0, -0.5);
            }
        }
        black_box(&self.p);
        let ns_per_element = t.elapsed().as_secs_f64() * 1e9 / (self.rounds * n) as f64;
        ns_per_element / NOMINAL_NS_PER_ELEMENT
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bursts_keep_their_state_finite_and_in_range() {
        assert_eq!(Calibrator::off().slowdown(), 1.0);
        let mut c = Calibrator::new(1_000);
        for _ in 0..50 {
            let s = c.slowdown();
            assert!(s.is_finite() && s > 0.0);
        }
        assert!(c.p.iter().all(|p| (100.0..=250.0).contains(p)));
        assert!(c.e.iter().all(|e| (-5.0..=-0.5).contains(e)));
    }
}
