//! `dpc hier`: solves one hierarchical budget tree (or, with `--bench`,
//! runs the fanout × depth sweep and writes `BENCH_hierarchy.json`).

use super::{
    cluster_utilities, write_output, CliError, Job, Options, Result, MAX_SERVERS, POSITIVE,
};
use crate::alg::diba::DibaConfig;
use crate::alg::hierarchy::{BudgetTree, DomainSpec, LeafSolver};
use crate::alg::telemetry::{domains_to_jsonl, DomainRecord};
use crate::models::units::Watts;

pub(super) fn parse(o: &mut Options) -> Result<Job> {
    let bench = o.path("bench");
    let n = o.servers(96, if bench.is_some() { 8 } else { 2 })?;
    let budget = o.budget(170.0 * n as f64)?;
    let seed = o.num("seed", 0, ..)?;
    // With fanout ≥ 2, no level past ⌈log₂ n⌉ can split a domain.
    let max_depth = n.next_power_of_two().trailing_zeros() as usize;
    let fanout = o.num("fanout", 4, 2..=n)?;
    let depth = o.num("depth", 1, ..=max_depth)?;
    let leaf = o.choice("leaf", "oracle", &["oracle", "diba"])?;
    // Bench mode stripes two tenants unless told otherwise.
    let tenants = o.num_opt("tenants", ..=n)?;
    let rel_tol = o.num("tol", 0.015, POSITIVE)?;
    let max_rounds = o.num("max-rounds", 200_000, ..)?;
    let threads = o.threads()?;
    let domains = o.path("domains");
    let fanouts = o.list("fanouts", &[2, 4], 2..=n)?;
    let depths = o.list("depths", &[1, 2], 1..=max_depth)?;
    let big = o.num("big", 0, ..=MAX_SERVERS)?;
    if (1..100_000).contains(&big) {
        return Err(CliError(
            "--big is the ≥100k scalability row; use 0 to skip it".into(),
        ));
    }

    if let Some(bench_out) = bench {
        let tenants = tenants.unwrap_or(2);
        return Ok(Box::new(move || {
            let report = crate::repro::hierbench::run(
                n,
                &fanouts,
                &depths,
                seed,
                tenants,
                (big > 0).then_some(big),
            );
            if !report.gates_pass() {
                return Err(CliError(format!(
                    "a sweep cell failed its gate:\n{}",
                    report.to_table()
                )));
            }
            write_output("bench", &bench_out, &report.to_json())?;
            Ok(format!(
                "{}\nreport written to {bench_out}\n",
                report.to_table()
            ))
        }));
    }

    let leaf = match leaf {
        "oracle" => LeafSolver::Oracle,
        _ => LeafSolver::Diba {
            config: DibaConfig {
                threads,
                ..DibaConfig::default()
            },
            rel_tol,
            max_rounds,
        },
    };
    let tenants = tenants.unwrap_or(0);
    Ok(Box::new(move || {
        let utilities = cluster_utilities(n, seed);
        let caps = crate::repro::hierbench::striped_tenants(&utilities, tenants);
        let spec = DomainSpec::uniform(n, fanout, depth);
        let mut tree = BudgetTree::new(utilities, &spec, budget, caps)
            .map_err(|e| CliError(format!("--budget-watts {}: infeasible tree: {e}", budget.0)))?;
        let sol = tree
            .solve(&leaf)
            .map_err(|e| CliError(format!("tree solve failed: {e}")))?;

        let reports = tree.domain_reports();
        if let Some(path) = &domains {
            let records: Vec<DomainRecord> = reports
                .iter()
                .map(|r| DomainRecord {
                    path: r.path.clone(),
                    depth: r.depth,
                    servers: r.servers,
                    budget_w: r.budget.0,
                    cap_w: r.cap.map(|c| c.0),
                    power_w: r.power.0,
                    price: r.price,
                    rounds: r.rounds,
                })
                .collect();
            write_output("domains", path, &domains_to_jsonl(&records))?;
        }

        let mut out = format!(
            "hierarchical budget tree: {n} servers, fanout {fanout}, depth {depth}\n\n\
             {:>5}  {:>7}  {:>12}  {:>12}  {:>12}  {:>9}  path\n",
            "depth", "servers", "budget (W)", "power (W)", "price", "rounds",
        );
        for r in &reports {
            out.push_str(&format!(
                "{:>5}  {:>7}  {:>12.2}  {:>12.2}  {:>12.6}  {:>9}  {}\n",
                r.depth, r.servers, r.budget.0, r.power.0, r.price, r.rounds, r.path,
            ));
        }
        out.push_str(&format!(
            "\ntotal power {:.2} W of {:.2} W budget, utility {:.4}, largest ring {} servers\n",
            sol.total_power.0, budget.0, sol.total_utility, sol.max_leaf_servers,
        ));
        for t in &sol.tenants {
            out.push_str(&format!(
                "tenant {:>8}: usage {:>10.2} W of cap {:>10.2} W, price {:.6}{}\n",
                t.name,
                t.usage.0,
                t.cap.0,
                t.price,
                if t.binding { " (binding)" } else { "" },
            ));
        }
        if !tree.nested_feasible(Watts(1e-9 * budget.0.max(1.0))) {
            return Err(CliError(format!(
                "nested-constraint chain violated:\n{out}"
            )));
        }
        if let Some(path) = domains {
            out.push_str(&format!("domain records written to {path}\n"));
        }
        Ok(out)
    }))
}
