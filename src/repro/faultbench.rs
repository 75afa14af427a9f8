//! Fault-resilience sweep (`dpc faults`).
//!
//! Runs the deployed agents on the lockstep executor ([`Lockstep`]) under
//! a grid of late-delivery rates × churn scenarios (no churn / one crash /
//! crash + restart / one graceful departure), every node sitting one round
//! in five out, and records, per cell, whether the cluster re-attains a
//! feasible allocation (`Σp ≤ P`), how much conservation drift the fault
//! ledger accumulated (must be ~0), whether the survivors booked every
//! share of the dead node, and how far they land from the survivor-optimal
//! allocation.
//!
//! Every fault draw comes from the vendored seeded RNG, and the report
//! carries no wall-clock fields, so the JSON written by the CLI
//! (`BENCH_fault_resilience.json`) is byte-identical across reruns with the
//! same flags — the reproducibility contract checked by the CLI tests.

use crate::alg::centralized;
use crate::alg::diba::DibaConfig;
use crate::alg::faults::{FaultPlan, LinkFaults, NodeFaultKind, NodeHealth};
use crate::alg::problem::PowerBudgetProblem;
use crate::alg::telemetry::{Telemetry, TelemetryConfig};
use crate::models::units::Watts;
use crate::models::workload::ClusterBuilder;
use crate::runtime::lockstep::Lockstep;
use crate::runtime::RuntimeConfig;
use crate::topology::Graph;

/// Default late-delivery rates swept by `dpc faults`.
pub(crate) const DEFAULT_LATE: [f64; 4] = [0.0, 0.05, 0.10, 0.20];

/// Churn scenario for one sweep column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Churn {
    /// No node-level faults; late delivery and stalls only.
    None,
    /// One node crashes silently mid-run.
    Crash,
    /// One node crashes, then restarts after the cluster re-converges.
    CrashRestart,
    /// One node leaves for good, announced: its neighbours book their
    /// shares of it at once.
    Depart,
}

impl Churn {
    /// All churn scenarios, in sweep order.
    pub(crate) const ALL: [Churn; 4] = [
        Churn::None,
        Churn::Crash,
        Churn::CrashRestart,
        Churn::Depart,
    ];

    /// Stable identifier used in the JSON report.
    pub(crate) fn key(self) -> &'static str {
        match self {
            Churn::None => "none",
            Churn::Crash => "crash",
            Churn::CrashRestart => "crash_restart",
            Churn::Depart => "depart",
        }
    }
}

/// One sweep cell's outcome. All fields are deterministic functions of
/// `(servers, rounds, seed, late, churn)`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CellResult {
    /// Probability an entry is late in this cell.
    pub(crate) late: f64,
    /// Churn scenario for this cell.
    pub(crate) churn: Churn,
    /// Live nodes at the end of the run.
    pub(crate) live: usize,
    /// `Σp ≤ P` at the end of the run (within 1 µW).
    pub(crate) feasible: bool,
    /// Final conservation-ledger drift
    /// `|Σe + Σpending + Σin-flight + stranded − (Σp − P)|` (watts).
    pub(crate) drift: f64,
    /// Shares of dead nodes the survivors have not booked at the end
    /// (watts).
    pub(crate) pending: f64,
    /// Relative gap of the survivors' utility to the survivor-optimal
    /// oracle: `1 − U/U*`.
    pub(crate) oracle_gap: f64,
    /// Whether churn disconnected the live subgraph.
    pub(crate) partitioned: bool,
}

impl CellResult {
    /// Every share of the dead node booked.
    fn booked(&self) -> bool {
        self.pending.abs() < 1e-9
    }

    /// Every acceptance condition this cell fails, with the value that
    /// fails it: `Σp ≤ P`, a clean conservation ledger, and [`Self::booked`].
    fn failures(&self) -> Vec<String> {
        let mut out = Vec::new();
        if !self.feasible {
            out.push("Σp above the budget".to_string());
        }
        if self.drift.is_nan() || self.drift >= 1e-6 {
            out.push(format!("ledger drift {:.3e} W", self.drift));
        }
        if !self.booked() {
            let w = self.pending;
            out.push(format!("{w:.3e} W of the dead node's shares unbooked"));
        }
        out
    }
}

/// The full `dpc faults` report.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FaultBenchReport {
    /// Cluster size.
    pub(crate) servers: usize,
    /// Rounds simulated per cell.
    pub(crate) rounds: usize,
    /// Fault RNG seed.
    pub(crate) seed: u64,
    /// Per-cell outcomes, late-rate-major then churn order.
    pub(crate) cells: Vec<CellResult>,
}

impl FaultBenchReport {
    /// `true` when no cell has a [`CellResult::failures`] — the sweep's
    /// acceptance condition.
    pub(crate) fn all_recovered(&self) -> bool {
        self.cells.iter().all(|c| c.failures().is_empty())
    }

    /// Why the sweep is refused: the table, then each failing cell with the
    /// conditions it fails. A dead node's shares are booked only after its
    /// neighbours hear nothing for `detect_after` rounds, so when unbooked
    /// shares are the only failure the sweep was too short to see them
    /// booked, and the cause names `--rounds` instead of the code.
    pub(crate) fn refusal(&self) -> String {
        let mut lines = Vec::new();
        let mut unbooked_only = true;
        for c in &self.cells {
            let failures = c.failures();
            if !failures.is_empty() {
                unbooked_only &= failures.len() == 1 && !c.booked();
                let (late, churn) = (c.late * 100.0, c.churn.key());
                lines.push(format!(
                    "  late {late:.0}%, {churn}: {}",
                    failures.join("; ")
                ));
            }
        }
        let cause = if unbooked_only {
            format!(
                "the sweep ended inside the detection window: the node fault lands at \
                 round {} of {}, and neighbours book a dead node's shares only after \
                 {} silent rounds; raise --rounds",
                fault_round(self.rounds),
                self.rounds,
                RuntimeConfig::default().detect_after
            )
        } else {
            "fault-handling bug".to_string()
        };
        format!(
            "a sweep cell failed to recover — {cause}:\n{}\n{}",
            self.to_table(),
            lines.join("\n")
        )
    }

    /// Renders the report as pretty-printed JSON (hand-rolled — the
    /// workspace carries no serialization dependency). Deterministic:
    /// no timestamps or wall-clock fields.
    pub(crate) fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"bench\": \"fault_resilience\",\n");
        out.push_str(&format!("  \"servers\": {},\n", self.servers));
        out.push_str(&format!("  \"rounds\": {},\n", self.rounds));
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!("  \"all_recovered\": {},\n", self.all_recovered()));
        out.push_str("  \"cells\": [\n");
        for (k, c) in self.cells.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"late\": {:.3}, \"churn\": \"{}\", \"live\": {}, \
                 \"feasible\": {}, \"drift_w\": {:.3e}, \"pending_w\": {:.3e}, \
                 \"oracle_gap\": {:.5}, \"partitioned\": {}}}{}\n",
                c.late,
                c.churn.key(),
                c.live,
                c.feasible,
                c.drift,
                c.pending,
                c.oracle_gap,
                c.partitioned,
                if k + 1 < self.cells.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Renders a human-readable table.
    pub(crate) fn to_table(&self) -> String {
        let mut out = format!(
            "fault resilience: {} servers, {} rounds per cell, seed {}\n\n\
             {:>6}  {:>14}  {:>5}  {:>8}  {:>10}  {:>10}  part\n",
            self.servers,
            self.rounds,
            self.seed,
            "late",
            "churn",
            "live",
            "feasible",
            "drift (W)",
            "gap",
        );
        for c in &self.cells {
            out.push_str(&format!(
                "{:>5.0}%  {:>14}  {:>5}  {:>8}  {:>10.1e}  {:>9.2}%  {}\n",
                c.late * 100.0,
                c.churn.key(),
                c.live,
                if c.feasible { "ok" } else { "OVER" },
                c.drift,
                c.oracle_gap * 100.0,
                if c.partitioned { "SPLIT" } else { "-" },
            ));
        }
        out
    }
}

/// The network and scheduler of every sweep cell at late-delivery rate
/// `late`: that share of the entries late, and every node sitting one round
/// in five out.
pub(crate) fn late_plan(seed: u64, late: f64) -> FaultPlan {
    let link = LinkFaults {
        reorder: late,
        ..LinkFaults::none()
    };
    FaultPlan {
        activation: 0.8,
        ..FaultPlan::with_link(seed, link)
    }
}

/// The churn victim: deterministic in the seed, never node 0 (keeps ring
/// chord anchors intact and the sweep comparable across cells).
pub(crate) fn victim(seed: u64, servers: usize) -> usize {
    1 + (seed as usize % (servers - 1))
}

/// The round a sweep cell's node fault lands in: a third of the way in,
/// so the cluster has converged once and must re-converge.
fn fault_round(rounds: usize) -> usize {
    rounds / 3
}

/// Builds the fault plan for one sweep cell. Restart waits another third
/// after the node fault.
fn plan_for(late: f64, churn: Churn, rounds: usize, servers: usize, seed: u64) -> FaultPlan {
    let plan = late_plan(seed, late);
    let victim = victim(seed, servers);
    let fault_at = fault_round(rounds);
    match churn {
        Churn::None => plan,
        Churn::Crash => plan.and(fault_at, victim, NodeFaultKind::Crash),
        Churn::CrashRestart => plan.and(fault_at, victim, NodeFaultKind::Crash).and(
            2 * rounds / 3,
            victim,
            NodeFaultKind::Restart,
        ),
        Churn::Depart => plan.and(fault_at, victim, NodeFaultKind::Depart),
    }
}

/// Survivor-optimal utility: the centralized oracle re-solved over the
/// live nodes only, at the full budget (dead budget re-absorbed).
fn survivor_optimal(problem: &PowerBudgetProblem, health: &[NodeHealth]) -> f64 {
    let live: Vec<_> = problem
        .utilities()
        .iter()
        .zip(health)
        .filter(|&(_, &h)| h == NodeHealth::Alive)
        .map(|(u, _)| *u)
        .collect();
    let sub = PowerBudgetProblem::new(live, problem.budget())
        .expect("survivor subproblem stays feasible at the full budget");
    let oracle = centralized::solve(&sub);
    sub.total_utility(&oracle.allocation)
}

/// The agents of one sweep cell: same cluster, topology and fault plan
/// for the measured and the traced path, so a trace always describes
/// exactly the cell `measure_cell` scores.
fn cell_run(
    servers: usize,
    rounds: usize,
    seed: u64,
    late: f64,
    churn: Churn,
) -> (PowerBudgetProblem, Lockstep) {
    let cluster = ClusterBuilder::new(servers).seed(seed).build();
    let problem = PowerBudgetProblem::new(cluster.utilities(), Watts(170.0 * servers as f64))
        .expect("170 W/server is feasible for every generated cluster");
    let graph = Graph::ring_with_chords(servers, (servers / 16).max(2));
    let plan = plan_for(late, churn, rounds, servers, seed);
    let run = Lockstep::for_problem(&problem, &graph, DibaConfig::default(), plan)
        .expect("ring-with-chords is connected");
    (problem, run)
}

/// Runs one sweep cell with the round recorder attached and returns the
/// captured telemetry — the `--trace` path of `dpc faults`.
pub(crate) fn traced_cell(
    servers: usize,
    rounds: usize,
    seed: u64,
    late: f64,
    churn: Churn,
) -> Telemetry {
    let (_, mut run) = cell_run(servers, rounds, seed, late, churn);
    run.set_telemetry(TelemetryConfig::with_capacity(rounds.max(1)));
    run.run(rounds);
    run.telemetry().expect("the recorder is attached").clone()
}

/// Runs one sweep cell.
fn measure_cell(servers: usize, rounds: usize, seed: u64, late: f64, churn: Churn) -> CellResult {
    let (problem, mut run) = cell_run(servers, rounds, seed, late, churn);
    run.run(rounds);

    let feasible = run.total_power() <= problem.budget() + Watts(1e-6);
    let optimal = survivor_optimal(&problem, &run.health());
    let oracle_gap = (1.0 - run.total_utility() / optimal).max(0.0);
    CellResult {
        late,
        churn,
        live: run.live_count(),
        feasible,
        drift: run.conservation_drift(),
        pending: run.pending_total(),
        oracle_gap,
        partitioned: run.partitioned(),
    }
}

/// Runs the full late-rate × churn sweep.
pub(crate) fn run_fault_bench(
    servers: usize,
    rounds: usize,
    seed: u64,
    late: &[f64],
) -> FaultBenchReport {
    let mut cells = Vec::with_capacity(late.len() * Churn::ALL.len());
    for &rate in late {
        for churn in Churn::ALL {
            cells.push(measure_cell(servers, rounds, seed, rate, churn));
        }
    }
    FaultBenchReport {
        servers,
        rounds,
        seed,
        cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alg::telemetry::FaultEventKind;

    #[test]
    fn sweep_recovers_in_every_cell() {
        let report = run_fault_bench(24, 1200, 7, &[0.0, 0.10]);
        assert_eq!(report.cells.len(), 8);
        for c in &report.cells {
            assert!(c.feasible, "{:?} infeasible", c);
            assert!(c.drift < 1e-6, "{:?} leaked mass", c);
            assert!(c.pending.abs() < 1e-9, "{:?} shares left unbooked", c);
            assert!(!c.partitioned, "{:?} partitioned", c);
            let expected_live = match c.churn {
                Churn::None | Churn::CrashRestart => 24,
                Churn::Crash | Churn::Depart => 23,
            };
            assert_eq!(c.live, expected_live, "{:?}", c);
            assert!(c.oracle_gap < 0.05, "{:?} too far from oracle", c);
        }
        assert!(report.all_recovered());
    }

    #[test]
    fn traced_cell_sees_the_fault_story() {
        let t = traced_cell(24, 900, 7, 0.05, Churn::CrashRestart);
        assert_eq!(t.rounds_recorded(), 900);
        let kinds: Vec<FaultEventKind> = t.events().map(|e| e.kind).collect();
        assert!(kinds.contains(&FaultEventKind::Crash));
        assert!(kinds.contains(&FaultEventKind::Detect));
        assert!(kinds.contains(&FaultEventKind::Settle));
        assert!(kinds.contains(&FaultEventKind::Restart));
        assert!(t.messages_sent() > 0);
        let last = t.latest().expect("rounds were recorded");
        assert!(last.conservation_drift() < 1e-6);
    }

    #[test]
    fn report_is_deterministic_and_well_formed() {
        let a = run_fault_bench(16, 600, 3, &[0.05]);
        let b = run_fault_bench(16, 600, 3, &[0.05]);
        assert_eq!(a.to_json(), b.to_json());
        let json = a.to_json();
        assert!(json.contains("\"bench\": \"fault_resilience\""));
        assert!(json.contains("\"churn\": \"crash_restart\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(a.to_table().contains("crash_restart"));
    }
}
