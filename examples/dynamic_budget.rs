//! Demand response: the cluster's budget changes every minute (as a utility
//! operator's demand-response program would dictate) while DiBA re-allocates
//! on the fly — the scenario of the paper's Fig. 4.4.
//!
//! ```text
//! cargo run --release --example dynamic_budget
//! ```

use dpc::alg::diba::DibaConfig;
use dpc::alg::problem::PowerBudgetProblem;
use dpc::models::units::{Seconds, Watts};
use dpc::models::workload::ClusterBuilder;
use dpc::sim::budgeter::DibaBudgeter;
use dpc::sim::engine::{DynamicSim, SimConfig};
use dpc::sim::schedule::BudgetSchedule;
use dpc::topology::Graph;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 300;
    let cluster = ClusterBuilder::new(n).seed(7).build();

    // A demand-response schedule: per-server budget changes every minute.
    let per_server = [180.0, 168.0, 188.0, 172.0, 190.0, 166.0];
    let schedule = BudgetSchedule::steps(
        per_server
            .iter()
            .enumerate()
            .map(|(m, &w)| (Seconds(60.0 * m as f64), Watts(w * n as f64)))
            .collect(),
    );

    let problem = PowerBudgetProblem::new(cluster.utilities(), schedule.budget_at(Seconds::ZERO))?;
    let budgeter = DibaBudgeter::new(problem, Graph::ring(n), DibaConfig::default())?;

    let config = SimConfig {
        duration: Seconds(60.0 * per_server.len() as f64),
        sample_interval: Seconds(5.0),
        rounds_per_sample: 400,
        churn_mean: None,
        phase_mean: None,
        record_allocations: false,
        telemetry: dpc_alg::telemetry::TelemetryConfig::off(),
    };
    let mut sim = DynamicSim::new(cluster, budgeter, schedule, config);
    let series = sim.run()?;

    println!("   t (s)  budget (kW)  power (kW)     SNP  SNP/optimal");
    println!("------------------------------------------------------");
    for pt in series.points().iter().step_by(3) {
        println!(
            "{:>8.0}  {:>11.2}  {:>10.2}  {:.4}       {:.4}",
            pt.t.0,
            pt.budget.kilowatts(),
            pt.total_power.kilowatts(),
            pt.snp,
            pt.snp / pt.optimal_snp,
        );
    }
    println!(
        "\nbudget respected at every sample: {}",
        series.budget_respected(Watts(1e-6))
    );
    println!(
        "mean SNP/optimal over the run:   {:.4}",
        series.mean_optimality()
    );
    Ok(())
}
