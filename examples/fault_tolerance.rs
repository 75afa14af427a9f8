//! Fault isolation: the motivation for decentralization (Section 4.2).
//!
//! Runs the deployed agents on the lockstep executor along a chorded ring
//! under a seeded fault plan that delivers some entries late and silently
//! crashes two nodes, and shows the survivors keep enforcing the budget
//! and re-optimizing: each books its own share of a dead neighbour, which
//! it kept on its link all along. A centralized controller would be a
//! single point of failure; here there is simply no single point to fail.
//!
//! ```text
//! cargo run --release --example fault_tolerance
//! ```

use dpc::alg::centralized;
use dpc::alg::diba::DibaConfig;
use dpc::alg::faults::{FaultPlan, LinkFaults, NodeFaultKind};
use dpc::alg::problem::PowerBudgetProblem;
use dpc::models::units::Watts;
use dpc::models::workload::ClusterBuilder;
use dpc::runtime::lockstep::Lockstep;
use dpc::topology::Graph;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 32;
    let budget = Watts(170.0 * n as f64);
    let cluster = ClusterBuilder::new(n).seed(11).build();
    let problem = PowerBudgetProblem::new(cluster.utilities(), budget)?;
    let optimal = problem.total_utility(&centralized::solve(&problem).allocation);

    // A ring hardened with chords so single failures cannot partition it.
    let graph = Graph::ring_with_chords(n, 8);
    println!(
        "deploying {n} agents on a chorded ring (avg degree {:.1}, budget {:.2} kW)\n",
        graph.average_degree(),
        budget.kilowatts()
    );
    // Each crash fires on the first round of its 1 500-round epoch below;
    // one entry in ten is late, and every node sits one round in five out.
    let link = LinkFaults {
        reorder: 0.1,
        ..LinkFaults::none()
    };
    let plan = FaultPlan {
        activation: 0.8,
        ..FaultPlan::with_link(3, link)
    }
    .and(2_000, 5, NodeFaultKind::Crash)
    .and(3_500, 21, NodeFaultKind::Crash);
    let mut agents = Lockstep::for_problem(&problem, &graph, DibaConfig::default(), plan)?;

    agents.run(1_999);
    println!(
        "converged: power {:.3} kW / budget {:.3} kW, utility {:.1}% of optimal",
        agents.total_power().kilowatts(),
        budget.kilowatts(),
        100.0 * agents.total_utility() / optimal,
    );

    for victim in [5, 21] {
        println!("\n*** node {victim} crashes silently ***");
        agents.run(1_500);
        println!(
            "survivors: {} / {n}; power {:.3} kW (dead nodes draw 0 W), \
             budget respected: {}, unbooked shares {:.1e} W, \
             conservation drift {:.1e} W",
            agents.live_count(),
            agents.total_power().kilowatts(),
            agents.total_power() <= budget + Watts(1e-6),
            agents.pending_total(),
            agents.conservation_drift(),
        );
    }

    let survivors: Vec<f64> = agents
        .node_states()
        .iter()
        .map(|&(p, _)| p)
        .filter(|&p| p > 0.0)
        .collect();
    println!(
        "\nfinal per-survivor power spread: {:.1}–{:.1} W",
        survivors.iter().copied().fold(f64::INFINITY, f64::min),
        survivors.iter().copied().fold(f64::NEG_INFINITY, f64::max),
    );
    println!("no coordinator existed at any point during this run.");
    Ok(())
}
