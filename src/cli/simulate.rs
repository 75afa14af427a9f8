//! `dpc simulate`: a dynamic DiBA simulation under churn and workload
//! phases.

use super::{problem_for, CliError, Job, Options, Result, POSITIVE};
use crate::alg::diba::{DibaConfig, DibaRun};
use crate::models::units::{Seconds, Watts};
use crate::models::workload::ClusterBuilder;
use crate::sim::engine::{simulate, SimConfig};
use crate::sim::schedule::BudgetSchedule;
use crate::topology::Graph;

pub(super) fn parse(o: &mut Options) -> Result<Job> {
    let n = o.servers(100, 1)?;
    let budget = o.budget(176.0 * n as f64)?;
    // The engine checks the sample ceiling.
    let seconds = o.num("seconds", 60.0, 0.0..)?;
    let churn = o.num_opt("churn-secs", POSITIVE)?;
    let phases = o.num_opt("phase-secs", POSITIVE)?;
    let seed = o.num("seed", 0, ..)?;
    Ok(Box::new(move || {
        let cluster = ClusterBuilder::new(n).seed(seed).build();
        let problem = problem_for(cluster.utilities(), budget)?;
        let mut run = DibaRun::new(problem, Graph::ring(n), DibaConfig::default())
            .map_err(|e| CliError(e.to_string()))?;
        let config = SimConfig {
            duration: Seconds(seconds),
            sample_interval: Seconds(2.0),
            rounds_per_sample: 300,
            churn_mean: churn.map(Seconds),
            phase_mean: phases.map(Seconds),
        };
        let schedule = BudgetSchedule::constant(budget);
        // Every other knob is checked or fixed, so a refusal is the run
        // length's.
        let series = simulate(cluster, &mut run, &schedule, &config)
            .map_err(|e| CliError(format!("--seconds {seconds}: {e}")))?;
        Ok(format!(
            "{n} servers, budget {:.2} kW, {seconds:.0} s simulated\n\
             samples: {}  budget respected: {}\n\
             mean SNP: {:.4}  mean SNP/optimal: {:.4}\n\n{}",
            budget.kilowatts(),
            series.len(),
            series.budget_respected(Watts(1e-6)),
            series.mean_snp(),
            series.mean_optimality(),
            series.to_csv(),
        ))
    }))
}
