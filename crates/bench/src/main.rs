//! `repro` — regenerates every table and figure of the paper.
//!
//! Usage:
//!
//! ```text
//! repro <experiment> [--small]
//! repro all [--small]
//! repro list
//! ```
//!
//! `--small` shrinks cluster sizes for quick checks; the defaults match the
//! paper's scales (N = 1000 for the static/dynamic experiments, up to 6400
//! for the scalability table) and are intended for `--release`.

#![forbid(unsafe_code)]

use dpc_bench::{ch3, ch4, ext};

struct Scale {
    /// Static / dynamic experiment cluster size (paper: 1000).
    n: usize,
    /// Scalability sweep sizes (paper: 400…6400).
    sweep: Vec<usize>,
    /// Random-graph samples for Fig. 4.10 (paper: 100).
    graph_samples: usize,
    /// Chapter-3 population size (paper: 3200).
    ch3_n: usize,
    /// Dynamic experiment durations in minutes (Fig. 4.4, Fig. 4.7).
    minutes: (usize, usize),
}

impl Scale {
    fn paper() -> Scale {
        Scale {
            n: 1000,
            sweep: vec![400, 800, 1600, 3200, 6400],
            graph_samples: 100,
            ch3_n: 3200,
            minutes: (10, 80),
        }
    }

    fn small() -> Scale {
        Scale {
            n: 120,
            sweep: vec![100, 200, 400],
            graph_samples: 12,
            ch3_n: 400,
            minutes: (3, 6),
        }
    }
}

fn experiments() -> Vec<(&'static str, &'static str)> {
    vec![
        ("table4_1", "benchmark catalog"),
        ("fig4_1", "communication topologies (star vs ring)"),
        ("fig4_2", "normalized throughput functions"),
        (
            "fig4_3",
            "SNP vs budget: uniform / primal-dual / DiBA / oracle",
        ),
        ("table4_2", "runtime breakdown vs cluster size"),
        ("fig4_4", "dynamic budget reallocation"),
        ("fig4_5", "step response: budget drop"),
        ("fig4_6", "step response: budget raise"),
        ("fig4_7", "dynamic workloads (churn)"),
        ("fig4_8", "residual propagation after a perturbation"),
        ("fig4_9", "locality of the power response"),
        ("fig4_10", "convergence vs graph connectivity"),
        ("fig2_1", "power-capping feedback controller"),
        ("table3_2", "throughput-predictor accuracy"),
        ("fig3_10", "computing/cooling budget split"),
        ("fig3_11", "self-consistent partition trace"),
        ("fig3_12", "knapsack budgeting metrics (two workload mixes)"),
        ("fig3_13", "power saving at iso-SNP"),
        ("fig3_14_15", "runtime SNP trace and cap distribution"),
        ("ablation_eta", "extension: barrier-weight ablation"),
        ("ablation_steps", "extension: step-size ablation"),
        ("ablation_boost", "extension: continuation-boost ablation"),
        (
            "ablation_topology",
            "extension: deployment-topology ablation",
        ),
        (
            "ext_async",
            "extension: asynchrony / message-delay robustness",
        ),
        ("ext_enforcement", "extension: end-to-end cap enforcement"),
        ("ext_phases", "extension: execution-phase workload dynamics"),
        (
            "ext_spectral",
            "extension: spectral prediction of convergence",
        ),
        (
            "ext_hierarchy",
            "extension: depth-1 budget tree vs one ring",
        ),
        (
            "ext_prototype",
            "extension: message-passing agents under dynamic budgets",
        ),
        (
            "ext_network_load",
            "extension: aggregate network load per scheme",
        ),
    ]
}

fn run_one(id: &str, s: &Scale) -> Option<String> {
    let out = match id {
        "table4_1" => ch4::table4_1(),
        "fig4_1" => ch4::fig4_1(),
        "fig4_2" => ch4::fig4_2(),
        "fig4_3" => ch4::fig4_3(s.n),
        "table4_2" => ch4::table4_2(&s.sweep),
        "fig4_4" => ch4::fig4_4(s.n, s.minutes.0),
        "fig4_5" => ch4::fig4_5(s.n),
        "fig4_6" => ch4::fig4_6(s.n),
        "fig4_7" => ch4::fig4_7(s.n, s.minutes.1),
        "fig4_8" => ch4::fig4_8(100),
        "fig4_9" => ch4::fig4_9(100),
        "fig4_10" => ch4::fig4_10(100, s.graph_samples),
        "fig2_1" => ch3::fig2_1(),
        "table3_2" => ch3::table3_2(),
        "fig3_10" => ch3::fig3_10(),
        "fig3_11" => ch3::fig3_11(),
        "fig3_12" => ch3::fig3_12(s.ch3_n),
        "fig3_13" => ch3::fig3_13(s.ch3_n.min(800)),
        "fig3_14_15" => ch3::fig3_14_15(s.ch3_n),
        "ablation_eta" => ext::ablation_eta(s.n.min(200)),
        "ablation_steps" => ext::ablation_steps(s.n.min(150)),
        "ablation_boost" => ext::ablation_boost(s.n.min(200)),
        "ablation_topology" => ext::ablation_topology(if s.n >= 400 { 400 } else { 100 }),
        "ext_async" => ext::ext_async(s.n.min(120)),
        "ext_enforcement" => ext::ext_enforcement(s.n.min(400)),
        "ext_phases" => ext::ext_phases(s.n.min(300)),
        "ext_spectral" => ext::ext_spectral(if s.n >= 400 { 400 } else { 100 }),
        "ext_hierarchy" => ext::ext_hierarchy(s.n.min(200)),
        "ext_prototype" => ext::ext_prototype(s.n.min(64)),
        "ext_network_load" => ext::ext_network_load(s.n),
        _ => return None,
    };
    Some(out)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let small = args.iter().any(|a| a == "--small");
    let scale = if small {
        Scale::small()
    } else {
        Scale::paper()
    };
    let target = args.iter().find(|a| !a.starts_with("--")).cloned();

    match target.as_deref() {
        None | Some("list") => {
            eprintln!("usage: repro <experiment|all|list> [--small]\n\nexperiments:");
            for (id, desc) in experiments() {
                eprintln!("  {id:<12} {desc}");
            }
        }
        Some("all") => {
            for (id, _) in experiments() {
                let banner = "=".repeat(72);
                println!("{banner}\n{id}\n{banner}");
                match run_one(id, &scale) {
                    Some(out) => println!("{out}"),
                    None => unreachable!("listed experiment must run"),
                }
            }
        }
        Some(id) => match run_one(id, &scale) {
            Some(out) => println!("{out}"),
            None => {
                eprintln!("unknown experiment `{id}`; try `repro list`");
                std::process::exit(2);
            }
        },
    }
}
