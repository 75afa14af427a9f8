//! Total power budgeting: the Chapter 3 pipeline end to end.
//!
//! A facility has one number — the total budget at the meter. This example
//! splits it into computing and cooling power self-consistently
//! (Algorithm 1), then allocates the computing share across 3200 servers
//! with the multiple-choice knapsack budgeter driven by the runtime
//! throughput predictor, and compares against uniform allocation.
//!
//! ```text
//! cargo run --release --example total_power_budgeting
//! ```

use dpc::alg::knapsack::{self, chapter3_levels};
use dpc::alg::predictor::{PredictorKind, ThroughputPredictor};
use dpc::alg::{baselines, problem::PowerBudgetProblem};
use dpc::models::metrics::MetricSummary;
use dpc::models::units::Watts;
use dpc::repro::ch3;
use dpc::thermal::partition::{self_consistent_partition, uniform_rack_map};
use dpc::thermal::ThermalModel;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let total = Watts::from_megawatts(0.66);

    // 1. Split the meter budget into computing + cooling so the CRACs can
    //    extract exactly the heat the servers produce.
    let model = ThermalModel::paper_cluster();
    let map = uniform_rack_map(model.racks());
    let split = self_consistent_partition(total, &model, &map, Watts(50.0), 500)?;
    println!(
        "total {:.2} MW -> computing {:.3} MW + cooling {:.3} MW \
         (supply temperature {:.1})",
        total.megawatts(),
        split.computing.megawatts(),
        split.cooling.megawatts(),
        split.t_sup,
    );

    // 2. Budget the computing share across the servers. The budgeter only
    //    sees each server's current operating point; the trained predictor
    //    (Eq. 3.7/3.8) extrapolates every candidate cap.
    let n = 3200;
    let (truths, observations) = ch3::ch3_population(n, ch3::WithinServer::Homogeneous, 5);
    let train = ch3::ch3_records(1, 4);
    let predictor = ThroughputPredictor::train(PredictorKind::QuadraticLlcTp, &train)?;

    let levels = chapter3_levels();
    let top = *levels.last().expect("non-empty ladder");
    let values: Vec<Vec<f64>> = observations
        .iter()
        .map(|obs| {
            let peak = predictor.predict(obs, top).max(1e-9);
            levels
                .iter()
                .map(|&l| (predictor.predict(obs, l) / peak).clamp(1e-6, 1.2))
                .collect()
        })
        .collect();
    let budget = split.computing;
    let proposed = knapsack::solve_with_values(&values, &levels, budget, Watts(1.0))?;

    // 3. Score against uniform on the *true* curves.
    let problem = PowerBudgetProblem::new(truths.clone(), budget)?;
    let uniform = baselines::uniform(&problem);
    let score = |alloc: &dpc::alg::problem::Allocation| {
        let anps: Vec<f64> = truths
            .iter()
            .zip(alloc.powers())
            .map(|(u, &p)| u.anp(u.clamp(p)))
            .collect();
        MetricSummary::from_anps(&anps)
    };
    let (mp, mu) = (score(&proposed.allocation), score(&uniform));
    println!("\n                      proposed   uniform");
    println!(
        "SNP (geometric)        {:.4}    {:.4}",
        mp.snp_geometric, mu.snp_geometric
    );
    println!(
        "slowdown norm          {:.4}    {:.4}",
        mp.slowdown, mu.slowdown
    );
    println!(
        "unfairness             {:.4}    {:.4}",
        mp.unfairness, mu.unfairness
    );
    println!(
        "\ncaps spread over {} ladder levels (uniform uses one level for all).",
        {
            let mut levels_used = proposed.chosen_levels.clone();
            levels_used.sort_unstable();
            levels_used.dedup();
            levels_used.len()
        }
    );
    Ok(())
}
