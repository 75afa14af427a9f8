//! `dpc trace`: runs one solver with the round recorder attached and
//! writes the captured telemetry in the requested sink format. The
//! recorded trajectory is bitwise identical to an untraced run, and the
//! JSONL/CSV output is byte-identical across reruns with the same flags.

use super::{
    cluster_utilities, graph_for, problem_for, write_output, CliError, Job, Options, Result,
    TOPOLOGIES,
};
use crate::alg::diba::{DibaConfig, DibaRun};
use crate::alg::faults::NodeFaultKind;
use crate::alg::primal_dual::{self, PrimalDualConfig};
use crate::alg::telemetry::{Telemetry, TelemetryConfig};
use crate::repro::faultbench;
use crate::runtime::lockstep::Lockstep;

pub(super) fn parse(o: &mut Options) -> Result<Job> {
    let solver = o.choice("solver", "diba", &["diba", "async", "primal-dual"])?;
    let n = o.servers(64, 3)?;
    let budget = o.budget(170.0 * n as f64)?;
    let seed = o.num("seed", 0, ..)?;
    let rounds = o.num("rounds", 600, 1..)?;
    let topology = o.choice("topology", "ring", TOPOLOGIES)?;
    let threads = o.threads()?;
    let format = o.choice("format", "jsonl", &["jsonl", "csv", "prom"])?;
    let telemetry = TelemetryConfig::with_capacity(o.num("capacity", rounds, ..)?);
    // Every solver's recorder reserves its capacity up front.
    telemetry
        .validate()
        .map_err(|e| CliError(format!("--capacity (defaults to --rounds): {e}")))?;
    let late = o.num("late", 0.0, 0.0..1.0)?;
    let crash_round = o.num_opt("crash-round", 1..=rounds)?;
    let out_path = o.path("out").unwrap_or_else(|| "TRACE.jsonl".to_string());
    Ok(Box::new(move || {
        let problem = problem_for(cluster_utilities(n, seed), budget)?;
        let graph = graph_for(topology, n, seed)?;
        let recorder: Telemetry = match solver {
            "diba" => {
                let config = DibaConfig {
                    threads,
                    telemetry,
                    ..DibaConfig::default()
                };
                let mut run =
                    DibaRun::new(problem, graph, config).map_err(|e| CliError(e.to_string()))?;
                run.run(rounds);
                run.telemetry()
                    .expect("telemetry was enabled in the config")
                    .clone()
            }
            "async" => {
                let mut plan = faultbench::late_plan(seed, late);
                if let Some(r) = crash_round {
                    // Same victim as the fault sweep's.
                    let victim = faultbench::victim(seed, n);
                    plan = plan.and(r, victim, NodeFaultKind::Crash);
                }
                let mut run = Lockstep::for_problem(&problem, &graph, DibaConfig::default(), plan)
                    .map_err(|e| CliError(e.to_string()))?;
                run.set_telemetry(telemetry);
                run.run(rounds);
                run.telemetry().expect("the recorder is attached").clone()
            }
            _ => {
                let result = primal_dual::solve(&problem, &PrimalDualConfig::default());
                let mut t = Telemetry::new(telemetry);
                t.record_primal_dual(n, budget, &result);
                t
            }
        };

        let rendered = match format {
            "jsonl" => recorder.to_jsonl(),
            "csv" => recorder.to_csv(),
            _ => recorder.prometheus(),
        };
        write_output("out", &out_path, &rendered)?;

        let sent = recorder.messages_sent();
        let drift = recorder
            .latest()
            .map(|r| r.conservation_drift())
            .unwrap_or(0.0);
        Ok(format!(
            "{solver} trace: {n} servers, {} rounds recorded ({} retained), {} fault events\n\
             messages: {sent} sent\n\
             final conservation drift: {drift:.3e} W\n\
             trace written to {out_path}\n",
            recorder.rounds_recorded(),
            recorder.rounds_retained(),
            recorder.events_recorded(),
        ))
    }))
}
