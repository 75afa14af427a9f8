//! `dpc replay`: drives a scenario event timeline against a warm-started
//! DiBA and reports per-event re-convergence (optionally vs a cold start
//! on the identical mutated instance).
//!
//! The output is deterministic: the report carries round counts and
//! allocations only, never wall-clock, so `--out` files are byte-identical
//! across reruns (the CI replay smoke step relies on this).

use super::{write_output, CliError, Job, Options, Result, POSITIVE};
use crate::alg::diba::DibaConfig;
use crate::sim::replay::{replay, ReplayConfig, Scenario, SettleCriterion};

pub(super) fn parse(o: &mut Options) -> Result<Job> {
    let scenario = o.path("scenario");
    let compare_cold = o.choice("cold", "on", &["on", "off"])? == "on";
    let threads = o.threads()?;
    let settle = SettleCriterion {
        tol_watts: o.num("tol", 1e-2, POSITIVE)?,
        stable_rounds: o.num("stable-rounds", 10, 1..)?,
        max_rounds: o.num("max-rounds", 200_000, 1..)?,
    };
    let out_path = o.path("out");
    let path = scenario
        .ok_or_else(|| CliError("--scenario is required (the scenario file to replay)".into()))?;
    let text = std::fs::read_to_string(&path)
        .map_err(|e| CliError(format!("--scenario {path}: cannot read: {e}")))?;
    let scenario =
        Scenario::parse(&text).map_err(|e| CliError(format!("--scenario {path}: {e}")))?;
    let config = ReplayConfig {
        diba: DibaConfig {
            threads,
            ..DibaConfig::default()
        },
        settle,
        compare_cold,
    };
    Ok(Box::new(move || {
        let outcome =
            replay(&scenario, &config).map_err(|e| CliError(format!("--scenario {path}: {e}")))?;
        let report = &outcome.report;
        if let Some(out_path) = &out_path {
            write_output("out", out_path, &report.to_json())?;
        }
        let mut out = report.to_table();
        if !report.all_settled() {
            return Err(CliError(format!(
                "an event group failed to re-settle within --max-rounds:\n{out}"
            )));
        }
        if let Some(out_path) = out_path {
            out.push_str(&format!("report written to {out_path}\n"));
        }
        Ok(out)
    }))
}
