//! `dpc faults`: sweep late-delivery rate × node churn, check that every
//! cell recovers, and write the JSON report.

use super::{write_output, CliError, Job, Options, Result};
use crate::repro::faultbench::{run_fault_bench, traced_cell, Churn, DEFAULT_LATE};

pub(super) fn parse(o: &mut Options) -> Result<Job> {
    let servers = o.servers(48, 3)?;
    // Node faults land a third of the way in, and round 0 is the launch
    // state.
    let rounds = o.num("rounds", 1_500, 3..)?;
    let seed = o.num("seed", 0, ..)?;
    let late = o.list("late", &DEFAULT_LATE, 0.0..1.0)?;
    let out_path = o
        .path("out")
        .unwrap_or_else(|| "BENCH_fault_resilience.json".to_string());
    let trace_path = o.path("trace");
    Ok(Box::new(move || {
        let report = run_fault_bench(servers, rounds, seed, &late);
        if !report.all_recovered() {
            return Err(CliError(report.refusal()));
        }
        write_output("out", &out_path, &report.to_json())?;
        let mut out = format!(
            "{}\nall cells re-attained a feasible allocation with the dead \
             node's budget re-absorbed\nreport written to {out_path}\n",
            report.to_table()
        );
        if let Some(trace_path) = trace_path {
            let t = traced_cell(servers, rounds, seed, late[0], Churn::CrashRestart);
            write_output("trace", &trace_path, &t.to_jsonl())?;
            out.push_str(&format!(
                "crash+restart trace ({} rounds, {} fault events) written to {trace_path}\n",
                t.rounds_recorded(),
                t.events_recorded()
            ));
        }
        Ok(out)
    }))
}
