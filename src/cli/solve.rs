//! `dpc solve`: allocate a budget once and report every scheme.

use super::{
    cluster_utilities, graph_for, problem_for, CliError, Job, Options, Result, TOPOLOGIES,
};
use crate::alg::diba::{DibaConfig, DibaRun};
use crate::alg::primal_dual::{self, PrimalDualConfig};
use crate::alg::problem::Allocation;
use crate::alg::{baselines, centralized};
use crate::models::metrics::snp_arithmetic;
use crate::models::traces::{parse_trace_csv, utilities_from_traces};
use crate::models::units::Watts;
use crate::models::QuadraticUtility;

/// The utilities fitted to the measurement trace at `path`.
fn read_trace(path: &str) -> Result<Vec<QuadraticUtility>> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError(format!("--trace {path}: cannot read: {e}")))?;
    let traces = parse_trace_csv(&text).map_err(|e| CliError(format!("--trace {path}: {e}")))?;
    utilities_from_traces(&traces).map_err(|e| CliError(format!("--trace {path}: fit: {e}")))
}

pub(super) fn parse(o: &mut Options) -> Result<Job> {
    let n = o.servers(100, 1)?;
    let seed = o.num("seed", 0, ..)?;
    let topology = o.choice("topology", "ring", TOPOLOGIES)?;
    let traced = o.path("trace").map(|path| read_trace(&path)).transpose()?;
    let n = traced.as_ref().map_or(n, Vec::len);
    let budget = o.budget(172.0 * n as f64)?;
    Ok(Box::new(move || {
        let utilities = traced.unwrap_or_else(|| cluster_utilities(n, seed));
        let problem = problem_for(utilities, budget)?;
        let graph = graph_for(topology, n, seed)?;

        let oracle = centralized::solve(&problem);
        let opt_util = problem.total_utility(&oracle.allocation);
        let uniform = baselines::uniform(&problem);
        let greedy_alloc = baselines::greedy_throughput_per_watt(&problem, Watts(1.0));
        let pd = primal_dual::solve(&problem, &PrimalDualConfig::default());
        let mut diba = DibaRun::new(problem.clone(), graph, DibaConfig::default())
            .map_err(|e| CliError(e.to_string()))?;
        let rounds = diba.run_until_within(opt_util, 0.01, 50_000);

        let snp = |a: &Allocation| snp_arithmetic(&problem.anps(a));
        let mut out = format!(
            "{n} servers, budget {:.2} kW ({:.1} W/server)\n\n\
             scheme        SNP      power (kW)\n\
             ----------------------------------\n",
            budget.kilowatts(),
            budget.0 / n as f64
        );
        for (name, alloc) in [
            ("uniform", &uniform),
            ("greedy", &greedy_alloc),
            ("primal-dual", &pd.allocation),
            ("DiBA", &diba.allocation()),
            ("oracle", &oracle.allocation),
        ] {
            out.push_str(&format!(
                "{name:<12}  {:.4}   {:>9.2}\n",
                snp(alloc),
                alloc.total().kilowatts()
            ));
        }
        out.push_str(&match rounds {
            Some(r) => format!("\nDiBA: 99% of optimal in {r} gossip rounds\n"),
            None => "\nDiBA: did not reach 99% within 50000 rounds\n".to_string(),
        });
        Ok(out)
    }))
}
