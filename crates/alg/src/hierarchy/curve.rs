//! Exact aggregate demand curves.
//!
//! At dual price λ a server's optimal power is
//! `clamp((λ − b)/(2c), p_min, p_max)` — piecewise linear and nonincreasing
//! in λ. Sums, caps (`min(D(λ), C)`), and tenant price offsets all preserve
//! that form, so a whole subtree's demand `D(λ)` can be represented
//! *exactly* as a breakpoint list and inverted in closed form per segment.
//! This is what lets every internal node of a [`super::BudgetTree`] run
//! water-filling over its children without nested bisection: composing
//! curves bottom-up and inverting top-down reproduces the flat oracle's
//! single price to floating-point accuracy.

use dpc_models::throughput::QuadraticUtility;

/// The exact aggregate demand curve `D(λ)` of a set of concave members,
/// optionally clamped by a domain cap.
///
/// Stored as segment boundaries `bps` (ascending) with per-segment linear
/// demand `D(λ) = consts[k] + slopes[k]·λ` on `[bps[k], bps[k+1])`; for
/// `λ < bps[0]` the demand is the constant `ceil`. The curve is
/// nonincreasing and right-continuous (degenerate linear members introduce
/// jumps).
#[derive(Debug, Clone)]
pub(crate) struct AggregateCurve {
    bps: Vec<f64>,
    slopes: Vec<f64>,
    consts: Vec<f64>,
    floor: f64,
    ceil: f64,
}

impl AggregateCurve {
    /// Builds the exact demand curve of `members`, each with an additive
    /// price offset (a tenant multiplier μ: the member responds to
    /// `λ + μ`, equivalent to shifting its linear coefficient to `b − μ`).
    pub(crate) fn from_members<'a, I>(members: I) -> AggregateCurve
    where
        I: IntoIterator<Item = (&'a QuadraticUtility, f64)>,
    {
        // Delta events at each member's kink prices: entering its linear
        // region at λ = slope(p_max) − μ, pinning to p_min at
        // λ = slope(p_min) − μ.
        let mut events: Vec<(f64, f64, f64)> = Vec::new();
        let mut ceil = 0.0;
        let mut floor = 0.0;
        for (u, mu) in members {
            let (_, b, c) = u.coefficients();
            let (p_min, p_max) = (u.p_min().0, u.p_max().0);
            floor += p_min;
            ceil += p_max;
            let b_eff = b - mu;
            if c == 0.0 {
                // Degenerate linear member: a jump from p_max to p_min at
                // λ = b_eff.
                events.push((b_eff, 0.0, p_min - p_max));
            } else {
                let inv = 1.0 / (2.0 * c);
                let lambda_hi = b_eff + 2.0 * c * p_max; // < lambda_lo (c < 0)
                let lambda_lo = b_eff + 2.0 * c * p_min;
                events.push((lambda_hi, inv, -b_eff * inv - p_max));
                events.push((lambda_lo, -inv, b_eff * inv + p_min));
            }
        }
        Self::from_events(events, floor, ceil)
    }

    /// Sums several curves into the exact aggregate (floor/ceil add; the
    /// breakpoint set is the union).
    pub(crate) fn sum(curves: &[&AggregateCurve]) -> AggregateCurve {
        let mut events: Vec<(f64, f64, f64)> = Vec::new();
        let mut floor = 0.0;
        let mut ceil = 0.0;
        for c in curves {
            floor += c.floor;
            ceil += c.ceil;
            let mut prev = (0.0, c.ceil);
            for ((&bp, &s), &k) in c.bps.iter().zip(&c.slopes).zip(&c.consts) {
                events.push((bp, s - prev.0, k - prev.1));
                prev = (s, k);
            }
        }
        Self::from_events(events, floor, ceil)
    }

    fn from_events(mut events: Vec<(f64, f64, f64)>, floor: f64, ceil: f64) -> AggregateCurve {
        events.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut bps = Vec::with_capacity(events.len());
        let mut slopes = Vec::with_capacity(events.len());
        let mut consts = Vec::with_capacity(events.len());
        let (mut s, mut k) = (0.0_f64, ceil);
        let mut i = 0;
        while i < events.len() {
            let lambda = events[i].0;
            while i < events.len() && events[i].0 == lambda {
                s += events[i].1;
                k += events[i].2;
                i += 1;
            }
            bps.push(lambda);
            slopes.push(s);
            consts.push(k);
        }
        AggregateCurve {
            bps,
            slopes,
            consts,
            floor,
            ceil,
        }
    }

    /// Exact demand at price `lambda`.
    pub(crate) fn demand(&self, lambda: f64) -> f64 {
        match self.bps.partition_point(|&b| b <= lambda) {
            0 => self.ceil,
            k => self.consts[k - 1] + self.slopes[k - 1] * lambda,
        }
    }

    /// The left limit `D(λ⁻)` — equals [`AggregateCurve::demand`] except at
    /// the jump points contributed by degenerate linear members, where it
    /// returns the value just *before* the drop. The gap
    /// `demand_left(λ) − demand(λ)` is exactly the marginal power a
    /// water-filler may allocate fractionally at price λ.
    pub(crate) fn demand_left(&self, lambda: f64) -> f64 {
        match self.bps.partition_point(|&b| b < lambda) {
            0 => self.ceil,
            k => self.consts[k - 1] + self.slopes[k - 1] * lambda,
        }
    }

    /// The curve clamped by a domain cap: `min(D(λ), cap)`. A cap at or
    /// above the ceiling is a no-op; a cap below the floor clamps to the
    /// floor (the caller validates cap feasibility separately).
    pub(crate) fn with_cap(&self, cap: f64) -> AggregateCurve {
        if cap >= self.ceil {
            return self.clone();
        }
        let cap = cap.max(self.floor);
        let lambda_c = self.price_for_budget(cap);
        // Keep the original segments from λ_c on; below λ_c the demand is
        // the constant cap, which the ceil field encodes.
        let k = self.bps.partition_point(|&b| b <= lambda_c);
        let mut bps = Vec::with_capacity(self.bps.len() - k + 1);
        let mut slopes = Vec::with_capacity(bps.capacity());
        let mut consts = Vec::with_capacity(bps.capacity());
        if k > 0 && self.consts[k - 1] + self.slopes[k - 1] * lambda_c <= cap {
            // λ_c lands inside segment k−1 (or exactly on its value): keep
            // the partial segment starting at λ_c.
            bps.push(lambda_c);
            slopes.push(self.slopes[k - 1]);
            consts.push(self.consts[k - 1]);
        }
        bps.extend_from_slice(&self.bps[k..]);
        slopes.extend_from_slice(&self.slopes[k..]);
        consts.extend_from_slice(&self.consts[k..]);
        AggregateCurve {
            bps,
            slopes,
            consts,
            floor: self.floor,
            ceil: cap,
        }
    }

    /// The smallest `λ ≥ 0` with `D(λ) ≤ budget` — the exact water-filling
    /// price. Returns 0 when the budget is slack at zero price, and the
    /// last breakpoint (everyone pinned to floor) when `budget < floor`.
    pub(crate) fn price_for_budget(&self, budget: f64) -> f64 {
        if budget >= self.demand(0.0) {
            return 0.0;
        }
        if budget < self.floor {
            return self.bps.last().copied().unwrap_or(0.0).max(0.0);
        }
        // Segment-start demands are nonincreasing; find the first segment
        // whose start value already fits the budget.
        let k = self
            .bps
            .iter()
            .enumerate()
            .map(|(i, &bp)| self.consts[i] + self.slopes[i] * bp)
            .collect::<Vec<f64>>()
            .partition_point(|&v| v > budget);
        if k == 0 {
            // The pre-curve constant region (D = ceil) sits above the
            // budget and the first segment already fits: the crossing is
            // the first breakpoint.
            return self.bps[0].max(0.0);
        }
        if k == self.bps.len() {
            // Every segment start is above the budget: the crossing is in
            // the last segment (its slope must be negative since
            // budget ≥ floor).
            let s = self.slopes[k - 1];
            let lambda = (budget - self.consts[k - 1]) / s;
            return lambda.max(self.bps[k - 1]).max(0.0);
        }
        // Crossing between segment k−1 (start value > budget) and the start
        // of segment k (≤ budget): inside segment k−1 if its linear part
        // reaches the budget before bps[k], at the jump otherwise.
        let s = self.slopes[k - 1];
        if s < 0.0 {
            let lambda = (budget - self.consts[k - 1]) / s;
            if lambda <= self.bps[k] {
                return lambda.clamp(self.bps[k - 1], self.bps[k]).max(0.0);
            }
        }
        self.bps[k].max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::centralized;
    use crate::problem::PowerBudgetProblem;
    use dpc_models::units::Watts;
    use dpc_models::workload::ClusterBuilder;

    fn cluster(n: usize, seed: u64) -> Vec<QuadraticUtility> {
        ClusterBuilder::new(n).seed(seed).build().utilities()
    }

    fn direct_demand(utilities: &[QuadraticUtility], lambda: f64) -> f64 {
        utilities
            .iter()
            .map(|u| u.argmax_minus_price(lambda).0)
            .sum()
    }

    #[test]
    fn demand_matches_direct_argmax_sum() {
        let u = cluster(40, 7);
        let curve = AggregateCurve::from_members(u.iter().map(|x| (x, 0.0)));
        for i in 0..400 {
            let lambda = i as f64 * 5e-5;
            let direct = direct_demand(&u, lambda);
            assert!(
                (curve.demand(lambda) - direct).abs() < 1e-9 * direct.max(1.0),
                "λ={lambda}: curve {} vs direct {direct}",
                curve.demand(lambda)
            );
        }
        assert!((curve.ceil - direct_demand(&u, 0.0)).abs() < 1e-9);
        assert!((curve.floor - direct_demand(&u, 1e9)).abs() < 1e-9);
    }

    #[test]
    fn price_inversion_matches_the_oracle() {
        let u = cluster(64, 11);
        let curve = AggregateCurve::from_members(u.iter().map(|x| (x, 0.0)));
        for frac in [0.55, 0.7, 0.85, 0.95] {
            let budget = curve.floor + frac * (curve.ceil - curve.floor);
            let lambda = curve.price_for_budget(budget);
            // Exact inversion: demand at the returned price meets the
            // budget to floating-point accuracy.
            assert!(curve.demand(lambda) <= budget + 1e-6);
            let problem = PowerBudgetProblem::new(u.clone(), Watts(budget)).unwrap();
            let oracle = centralized::solve(&problem);
            assert!(
                (lambda - oracle.lambda).abs() < 1e-6 * oracle.lambda.max(1e-9),
                "curve λ {lambda} vs oracle λ {}",
                oracle.lambda
            );
        }
    }

    #[test]
    fn slack_budget_prices_at_zero_and_starved_budget_prices_at_max() {
        let u = cluster(8, 3);
        let curve = AggregateCurve::from_members(u.iter().map(|x| (x, 0.0)));
        assert_eq!(curve.price_for_budget(curve.ceil + 10.0), 0.0);
        let lambda_max = curve.price_for_budget(curve.floor - 5.0);
        assert!((curve.demand(lambda_max) - curve.floor).abs() < 1e-9);
    }

    #[test]
    fn sum_equals_union_of_members() {
        let a = cluster(12, 1);
        let b = cluster(20, 2);
        let ca = AggregateCurve::from_members(a.iter().map(|x| (x, 0.0)));
        let cb = AggregateCurve::from_members(b.iter().map(|x| (x, 0.0)));
        let summed = AggregateCurve::sum(&[&ca, &cb]);
        let union: Vec<QuadraticUtility> = a.iter().chain(&b).copied().collect();
        let direct = AggregateCurve::from_members(union.iter().map(|x| (x, 0.0)));
        for i in 0..300 {
            let lambda = i as f64 * 6e-5;
            assert!(
                (summed.demand(lambda) - direct.demand(lambda)).abs() < 1e-9,
                "λ={lambda}"
            );
        }
    }

    #[test]
    fn cap_clamps_demand_pointwise() {
        let u = cluster(24, 9);
        let curve = AggregateCurve::from_members(u.iter().map(|x| (x, 0.0)));
        let cap = curve.floor + 0.4 * (curve.ceil - curve.floor);
        let capped = curve.with_cap(cap);
        assert!((capped.ceil - cap).abs() < 1e-12);
        for i in 0..300 {
            let lambda = i as f64 * 6e-5;
            let want = curve.demand(lambda).min(cap);
            assert!(
                (capped.demand(lambda) - want).abs() < 1e-9,
                "λ={lambda}: {} vs {want}",
                capped.demand(lambda)
            );
        }
        // Inversion of a capped curve never prices below the cap's kink.
        assert_eq!(capped.price_for_budget(cap + 1.0), 0.0);
    }

    #[test]
    fn tenant_offset_shifts_the_member_response() {
        let u = cluster(10, 5);
        let mu = 2e-3;
        let shifted = AggregateCurve::from_members(u.iter().map(|x| (x, mu)));
        let base = AggregateCurve::from_members(u.iter().map(|x| (x, 0.0)));
        for i in 0..200 {
            let lambda = i as f64 * 5e-5;
            assert!(
                (shifted.demand(lambda) - base.demand(lambda + mu)).abs() < 1e-9,
                "λ={lambda}"
            );
        }
    }

    #[test]
    fn degenerate_linear_members_jump_cleanly() {
        let lin = QuadraticUtility::new(0.1, 0.01, 0.0, Watts(50.0), Watts(100.0)).unwrap();
        let curve = AggregateCurve::from_members([(&lin, 0.0)]);
        assert_eq!(curve.demand(0.009), 100.0);
        assert_eq!(curve.demand(0.01), 50.0); // right-continuous at the jump
                                              // A budget strictly between floor and ceil prices at the jump.
        assert!((curve.price_for_budget(75.0) - 0.01).abs() < 1e-12);
    }
}
