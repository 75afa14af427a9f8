//! Hierarchical decentralized budgeting — rack → row → datacenter budget
//! domains plus per-tenant caps that cut across the physical tree.
//!
//! [`BudgetTree`] is the hierarchy: each internal node allocates its
//! budget over its children's *aggregate* demand curves (exact
//! piecewise-linear composition, no nested bisection), leaves run the
//! per-server solver (water-filling oracle or a DiBA ring), and nested
//! constraints `Σ p_i ≤ P_rack ≤ P_row ≤ P_dc` hold at every level.
//! [`TenantCap`]s add cross-cutting budgets `Σ_{i∈t} p_i ≤ C_t` solved by
//! projected dual ascent on one multiplier per tenant.
//!
//! A two-level tree of 1k-server domains reaches 100k+ servers without any
//! single communication ring growing past the domain size.

mod curve;
mod tenant;
mod tree;

pub use tenant::{TenantCap, TenantReport};
pub use tree::{BudgetTree, DomainChildren, DomainReport, DomainSpec, LeafSolver, TreeSolution};

/// Moves `target − Σ values` into the boxed `values`, proportionally to
/// each recipient's remaining room, iterating until the residue is
/// exhausted or every box is saturated. On return `Σ values` equals
/// `target` clamped into `[Σ lo, Σ hi]` (up to floating-point roundoff of
/// the final pass), and every value sits inside its `[lo, hi]` box.
///
/// This is the feasibility-preserving redistribution of the tree's
/// top-down propagation: price-driven *desired* budgets are clamped into
/// their boxes first, then the clamped residue is spread so the parent's
/// total is conserved exactly.
pub(crate) fn spread_residue(values: &mut [f64], lo: &[f64], hi: &[f64], target: f64) {
    debug_assert_eq!(values.len(), lo.len());
    debug_assert_eq!(values.len(), hi.len());
    for ((v, &l), &h) in values.iter_mut().zip(lo).zip(hi) {
        *v = v.clamp(l, h);
    }
    let lo_sum: f64 = lo.iter().sum();
    let hi_sum: f64 = hi.iter().sum();
    let target = target.clamp(lo_sum, hi_sum);
    let tol = 1e-9 * target.abs().max(1.0);
    // Each pass either lands exactly (proportional moves sum to the
    // residue) or saturates at least one box, so ≤ n+1 passes suffice.
    for _ in 0..=values.len() {
        let residue = target - values.iter().sum::<f64>();
        if residue.abs() <= tol {
            break;
        }
        if residue > 0.0 {
            let room: f64 = values.iter().zip(hi).map(|(v, &h)| h - *v).sum();
            if room <= 0.0 {
                break;
            }
            let f = (residue / room).min(1.0);
            for (v, &h) in values.iter_mut().zip(hi) {
                *v += (h - *v) * f;
            }
        } else {
            let room: f64 = values.iter().zip(lo).map(|(v, &l)| *v - l).sum();
            if room <= 0.0 {
                break;
            }
            let f = ((-residue) / room).min(1.0);
            for (v, &l) in values.iter_mut().zip(lo) {
                *v -= (*v - l) * f;
            }
        }
    }
}

#[cfg(test)]
mod residue_tests {
    use super::spread_residue;

    #[test]
    fn exact_conservation_inside_boxes() {
        let mut v = [10.0, 20.0, 30.0];
        let lo = [0.0, 0.0, 0.0];
        let hi = [100.0, 100.0, 100.0];
        spread_residue(&mut v, &lo, &hi, 90.0);
        assert!((v.iter().sum::<f64>() - 90.0).abs() < 1e-9);
        for ((x, &l), &h) in v.iter().zip(&lo).zip(&hi) {
            assert!(*x >= l && *x <= h);
        }
    }

    #[test]
    fn saturating_boxes_still_conserves_when_possible() {
        // First box saturates; the rest absorb the remainder.
        let mut v = [9.0, 1.0, 1.0];
        let lo = [0.0, 0.0, 0.0];
        let hi = [10.0, 50.0, 50.0];
        spread_residue(&mut v, &lo, &hi, 60.0);
        assert!((v.iter().sum::<f64>() - 60.0).abs() < 1e-9);
        assert!(v[0] <= 10.0 + 1e-12);
    }

    #[test]
    fn unreachable_target_clamps_to_box_sum() {
        let mut v = [1.0, 1.0];
        let lo = [0.0, 0.0];
        let hi = [2.0, 2.0];
        spread_residue(&mut v, &lo, &hi, 100.0);
        assert!((v.iter().sum::<f64>() - 4.0).abs() < 1e-9);
        let mut w = [1.5, 1.5];
        let lo2 = [1.0, 1.0];
        spread_residue(&mut w, &lo2, &hi, 0.0);
        assert!((w.iter().sum::<f64>() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn shrinking_respects_floors() {
        let mut v = [40.0, 40.0, 40.0];
        let lo = [35.0, 10.0, 10.0];
        let hi = [50.0, 50.0, 50.0];
        spread_residue(&mut v, &lo, &hi, 70.0);
        assert!((v.iter().sum::<f64>() - 70.0).abs() < 1e-9);
        assert!(v[0] >= 35.0 - 1e-12);
    }
}
