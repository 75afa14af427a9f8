//! Fine-grained step-response traces (Figs. 4.5 and 4.6).
//!
//! Records DiBA's total power and utility at every algorithm round around a
//! budget step, on the round time base (one ring round ≈ 420 µs on the
//! paper's network), showing the sharp shed on a cut and the gradual fill
//! on a raise.

use crate::replay::{drive, Settle};
use dpc_alg::diba::{DibaConfig, DibaRun};
use dpc_alg::problem::{AlgError, PowerBudgetProblem};
use dpc_models::metrics::snp_arithmetic;
use dpc_models::throughput::QuadraticUtility;
use dpc_models::units::{Seconds, Watts};
use dpc_topology::Graph;

/// One recorded round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundPoint {
    /// Round index; the budget steps at round 0.
    pub round: isize,
    /// Wall-clock offset from the step (`round · round_time`).
    pub time: Seconds,
    /// Budget in force.
    pub budget: Watts,
    /// Total power after the round.
    pub total_power: Watts,
    /// SNP after the round.
    pub snp: f64,
}

/// Result of a step-response experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct StepResponse {
    /// Per-round trace: `warmup_tail` rounds before the step, then the
    /// response.
    pub trace: Vec<RoundPoint>,
    /// Rounds after the step until total power first met the new budget
    /// (0 when never violated; `None` when it never recovered).
    pub rounds_to_feasible: Option<usize>,
}

/// Runs DiBA to rest at `before`, steps the budget to `after`, and records
/// every round: ten rounds of pre-step tail (rounds −10…−1), then
/// `rounds_after` rounds from the step (rounds 0…). Each round is one tick
/// of [`mod@crate::replay`]'s loop.
///
/// # Errors
///
/// Propagates problem-construction and DiBA errors;
/// [`AlgError::DidNotConverge`] when the run is not at rest at `before`
/// within 50 000 rounds.
pub fn step_response(
    utilities: Vec<QuadraticUtility>,
    graph: Graph,
    before: Watts,
    after: Watts,
    rounds_after: usize,
    round_time: Seconds,
) -> Result<StepResponse, AlgError> {
    let problem = PowerBudgetProblem::new(utilities, before)?;
    let mut run = DibaRun::new(problem, graph, DibaConfig::default())?;
    run.run_to_rest(1e-2, 10, 50_000)
        .ok_or(AlgError::DidNotConverge { iterations: 50_000 })?;

    // The budget steps before round 0, even when no round follows it.
    let last = rounds_after as isize;
    let mut rounds = -10..=last;
    let next = |run: &mut DibaRun| {
        let Some(round) = rounds.next() else {
            return Ok(None);
        };
        if round == 0 {
            run.set_budget(after)?;
        }
        Ok((round < last).then_some((Settle::Rounds(1), round)))
    };

    let mut trace = Vec::with_capacity(rounds_after + 16);
    let mut rounds_to_feasible = None;
    drive(&mut run, next, |run, round, _| {
        let problem = run.problem();
        let allocation = run.allocation();
        trace.push(RoundPoint {
            round,
            time: round_time * round as f64,
            budget: problem.budget(),
            total_power: allocation.total(),
            snp: snp_arithmetic(&problem.anps(&allocation)),
        });
        if round >= 0 && rounds_to_feasible.is_none() && run.total_power() <= after + Watts(1e-6) {
            rounds_to_feasible = Some(round as usize);
        }
        Ok(())
    })?;
    Ok(StepResponse {
        trace,
        rounds_to_feasible,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpc_models::workload::ClusterBuilder;

    fn utilities(n: usize, seed: u64) -> Vec<QuadraticUtility> {
        ClusterBuilder::new(n).seed(seed).build().utilities()
    }

    const ROUND: Seconds = Seconds(420e-6);

    #[test]
    fn budget_drop_sheds_power_fast() {
        // Fig. 4.5: 190 W/server → 170 W/server on 50 nodes.
        let r = step_response(
            utilities(50, 1),
            Graph::ring(50),
            Watts(9_500.0),
            Watts(8_500.0),
            800,
            ROUND,
        )
        .unwrap();
        let rounds = r.rounds_to_feasible.expect("must recover");
        assert!(rounds < 300, "took {rounds} rounds to meet the cut");
        // Power at the end sits just under the new budget.
        let last = r.trace.last().unwrap();
        assert!(last.total_power <= Watts(8_500.0));
        assert!(
            last.total_power > Watts(8_200.0),
            "left too much slack: {}",
            last.total_power
        );
    }

    #[test]
    fn budget_raise_fills_gradually() {
        // Fig. 4.6: 170 → 190 W/server.
        let r = step_response(
            utilities(50, 2),
            Graph::ring(50),
            Watts(8_500.0),
            Watts(9_500.0),
            1_500,
            ROUND,
        )
        .unwrap();
        // Never infeasible on a raise.
        assert_eq!(r.rounds_to_feasible, Some(0));
        // Compare against the pre-step level (round −1): round 0 may
        // already capture a large part of the jump.
        let before = r.trace.iter().find(|p| p.round == -1).unwrap();
        let last = r.trace.last().unwrap();
        assert!(last.total_power > before.total_power + Watts(500.0));
        assert!(last.snp > before.snp);
    }

    #[test]
    fn trace_time_base_is_rounds_times_round_time() {
        let r = step_response(
            utilities(10, 3),
            Graph::ring(10),
            Watts(1_800.0),
            Watts(1_700.0),
            50,
            ROUND,
        )
        .unwrap();
        let p5 = r.trace.iter().find(|p| p.round == 5).unwrap();
        assert!((p5.time.0 - 5.0 * ROUND.0).abs() < 1e-12);
        // Pre-step rounds carry the old budget, post-step the new one.
        assert!(r
            .trace
            .iter()
            .filter(|p| p.round < 0)
            .all(|p| p.budget == Watts(1_800.0)));
        assert!(r
            .trace
            .iter()
            .filter(|p| p.round >= 0)
            .all(|p| p.budget == Watts(1_700.0)));
    }
}
