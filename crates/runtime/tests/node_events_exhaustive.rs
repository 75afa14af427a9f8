//! Every schedule of at most two node events, checked after every round.
//!
//! The events are {crash, restart, depart} × node × round `1..=6` on a
//! 4-ring, a 4-path and K4, with agents that detect a silent peer after
//! two rounds and never exit, run for 16 rounds. The whole enumeration
//! runs twice: on a benign network, and under one fixed late-delivery
//! plan (reorder 0.3, activation 0.8). After every round of every run the
//! ledger holds to 1e-9 W, every running agent keeps `e < 0`, and
//! `Σp ≤ P + 1e-6`, and no debt is stranded on a link between two dead
//! nodes; nothing panics; and by the last round every share of a dead node
//! has been booked. A failure names the schedule.
//!
//! Run it in release: debug builds take several times longer.

use dpc_alg::diba::DibaConfig;
use dpc_alg::faults::{FaultPlan, LinkFaults, NodeFault, NodeFaultKind, NodeHealth};
use dpc_alg::problem::PowerBudgetProblem;
use dpc_models::units::Watts;
use dpc_models::workload::ClusterBuilder;
use dpc_runtime::cluster::{node_specs, RuntimeConfig};
use dpc_runtime::lockstep::Lockstep;
use dpc_runtime::node::NodeSpec;
use dpc_topology::Graph;
use std::panic::{catch_unwind, AssertUnwindSafe};

const NODES: usize = 4;
const ROUNDS: usize = 16;
const LAST_EVENT_ROUND: usize = 6;

/// Every single event: kind × node × round.
fn events() -> Vec<NodeFault> {
    let kinds = [
        NodeFaultKind::Crash,
        NodeFaultKind::Restart,
        NodeFaultKind::Depart,
    ];
    let mut all = Vec::new();
    for kind in kinds {
        for node in 0..NODES {
            for round in 1..=LAST_EVENT_ROUND {
                all.push(NodeFault { round, node, kind });
            }
        }
    }
    all
}

/// Every schedule of at most two events; a pair is ordered, so two events
/// in one round fire in both orders.
fn schedules() -> Vec<Vec<NodeFault>> {
    let events = events();
    let mut all = vec![Vec::new()];
    all.extend(events.iter().map(|&f| vec![f]));
    for &a in &events {
        for &b in &events {
            all.push(vec![a, b]);
        }
    }
    all
}

fn specs(graph: &Graph) -> (Vec<NodeSpec>, Watts) {
    let cluster = ClusterBuilder::new(NODES).seed(11).build();
    let budget = Watts(170.0 * NODES as f64);
    let problem = PowerBudgetProblem::new(cluster.utilities(), budget).unwrap();
    let rt = RuntimeConfig {
        detect_after: 2,
        stable_rounds: usize::MAX,
        max_rounds: usize::MAX,
        ..RuntimeConfig::default()
    };
    let specs = node_specs(&problem, graph, DibaConfig::default(), &rt).unwrap();
    (specs, budget)
}

/// Runs one schedule and checks every round; the error names the round
/// and what broke.
fn check(specs: &[NodeSpec], graph: &Graph, plan: FaultPlan, budget: Watts) -> Result<(), String> {
    let mut run = Lockstep::new(specs.to_vec(), graph, plan);
    for _ in 0..ROUNDS {
        run.step();
        let round = run.round();
        let drift = run.conservation_drift();
        if drift >= 1e-9 {
            return Err(format!("round {round}: ledger drift {drift:e} W"));
        }
        let health = run.health();
        for (i, &(_, e)) in run.node_states().iter().enumerate() {
            if health[i] == NodeHealth::Alive && e >= 0.0 {
                return Err(format!("round {round}: agent {i} has e = {e}"));
            }
        }
        let (sum_p, cap) = (run.total_power(), budget + Watts(1e-6));
        if sum_p > cap {
            return Err(format!("round {round}: Σp = {} W over P", sum_p.0));
        }
        // The feasibility argument needs what two dead ends strand to be
        // slack, not debt.
        let stranded = run.stranded();
        if stranded > 0.0 {
            return Err(format!("round {round}: {stranded} W of debt stranded"));
        }
    }
    // Ten rounds after the last event every survivor has detected its
    // dead peers and booked its share of them.
    let pending = run.pending_total();
    if pending != 0.0 {
        return Err(format!("{pending} W of shares left unbooked"));
    }
    Ok(())
}

#[test]
fn every_schedule_of_two_node_events_keeps_the_books() {
    let graphs = [
        ("4-ring", Graph::ring(NODES)),
        ("4-path", Graph::path(NODES)),
        ("K4", Graph::complete(NODES)),
    ];
    let late = FaultPlan {
        activation: 0.8,
        ..FaultPlan::with_link(
            3,
            LinkFaults {
                reorder: 0.3,
                ..LinkFaults::none()
            },
        )
    };
    let networks = [("benign", FaultPlan::none()), ("late", late)];
    let schedules = schedules();
    let mut runs = 0;
    for (name, graph) in &graphs {
        let (specs, budget) = specs(graph);
        for (network, base) in &networks {
            for schedule in &schedules {
                let plan = FaultPlan {
                    schedule: schedule.clone(),
                    ..base.clone()
                };
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    check(&specs, graph, plan.clone(), budget)
                }));
                let failure = match outcome {
                    Ok(Ok(())) => None,
                    Ok(Err(msg)) => Some(msg),
                    Err(_) => Some("panicked".to_string()),
                };
                if let Some(msg) = failure {
                    panic!("{name}, {network} network, schedule {schedule:?}: {msg}");
                }
                runs += 1;
            }
        }
    }
    assert_eq!(runs, 3 * 2 * (1 + 72 + 72 * 72));
}
