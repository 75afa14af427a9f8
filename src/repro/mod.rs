//! The reproduction harness: one function per table and figure of the
//! paper's evaluation, and the Chapter 2/3 substrate experiments.
//!
//! `EXPERIMENTS` lists them in the order `dpc repro --experiment all`
//! prints them; `repro_output.txt` holds that output at paper scale. The
//! [`ch3`] and [`ch4`] data functions are public so the integration tests
//! can assert on the reproduced shapes without scraping text.
//!
//! `faultbench` and `hierbench` are the byte-reproducible sweeps behind
//! `dpc faults` and `dpc hier --bench`. Only `ch4::table4_2`, the paper's
//! own timing table, reads a clock: wall-clock measurement of the system
//! lives in the repository's `benchmark/` harness.

pub mod ch3;
pub mod ch4;
mod ext;
pub(crate) mod faultbench;
pub(crate) mod hierbench;
mod report;

/// Experiment sizes: the paper's, or a quick pass.
pub(crate) struct Scale {
    /// Static / dynamic experiment cluster size (paper: 1000).
    n: usize,
    /// Scalability sweep sizes (paper: 400…6400).
    sweep: &'static [usize],
    /// Random-graph samples for Fig. 4.10 (paper: 100).
    graph_samples: usize,
    /// Chapter-3 population size (paper: 3200).
    ch3_n: usize,
    /// Dynamic experiment durations in minutes (Fig. 4.4, Fig. 4.7).
    minutes: (usize, usize),
}

impl Scale {
    /// The paper's scales (N = 1000 for the static/dynamic experiments, up
    /// to 6400 for the scalability table), intended for `--release`.
    pub(crate) const PAPER: Scale = Scale {
        n: 1000,
        sweep: &[400, 800, 1600, 3200, 6400],
        graph_samples: 100,
        ch3_n: 3200,
        minutes: (10, 80),
    };

    /// Shrunken cluster sizes for quick checks.
    pub(crate) const SMALL: Scale = Scale {
        n: 120,
        sweep: &[100, 200, 400],
        graph_samples: 12,
        ch3_n: 400,
        minutes: (3, 6),
    };
}

/// One experiment: its id, what it shows, and the report it prints at a
/// scale.
pub(crate) type Experiment = (&'static str, &'static str, fn(&Scale) -> String);

/// Every experiment, in the order `--experiment all` runs them.
#[rustfmt::skip]
pub(crate) const EXPERIMENTS: [Experiment; 30] = [
    ("table4_1", "benchmark catalog", |_| ch4::table4_1()),
    ("fig4_1", "communication topologies (star vs ring)", |_| ch4::fig4_1()),
    ("fig4_2", "normalized throughput functions", |_| ch4::fig4_2()),
    ("fig4_3", "SNP vs budget: uniform / primal-dual / DiBA / oracle", |s| ch4::fig4_3(s.n)),
    ("table4_2", "runtime breakdown vs cluster size", |s| ch4::table4_2(s.sweep)),
    ("fig4_4", "dynamic budget reallocation", |s| ch4::fig4_4(s.n, s.minutes.0)),
    ("fig4_5", "step response: budget drop", |s| ch4::fig4_5(s.n)),
    ("fig4_6", "step response: budget raise", |s| ch4::fig4_6(s.n)),
    ("fig4_7", "dynamic workloads (churn)", |s| ch4::fig4_7(s.n, s.minutes.1)),
    ("fig4_8", "residual propagation after a perturbation", |_| ch4::fig4_8(100)),
    ("fig4_9", "locality of the power response", |_| ch4::fig4_9(100)),
    ("fig4_10", "convergence vs graph connectivity", |s| ch4::fig4_10(100, s.graph_samples)),
    ("fig2_1", "power-capping feedback controller", |_| ch3::fig2_1()),
    ("table3_2", "throughput-predictor accuracy", |_| ch3::table3_2()),
    ("fig3_10", "computing/cooling budget split", |_| ch3::fig3_10()),
    ("fig3_11", "self-consistent partition trace", |_| ch3::fig3_11()),
    ("fig3_12", "knapsack budgeting metrics (two workload mixes)", |s| ch3::fig3_12(s.ch3_n)),
    ("fig3_13", "power saving at iso-SNP", |s| ch3::fig3_13(s.ch3_n.min(800))),
    ("fig3_14_15", "runtime SNP trace and cap distribution", |s| ch3::fig3_14_15(s.ch3_n)),
    ("ablation_eta", "extension: barrier-weight ablation", |s| ext::ablation_eta(s.n.min(200))),
    ("ablation_steps", "extension: step-size ablation", |s| ext::ablation_steps(s.n.min(150))),
    ("ablation_boost", "extension: continuation-boost ablation", |s| ext::ablation_boost(s.n.min(200))),
    ("ablation_topology", "extension: deployment-topology ablation", |s| ext::ablation_topology(if s.n >= 400 { 400 } else { 100 })),
    ("ext_async", "extension: asynchrony / message-delay robustness", |s| ext::ext_async(s.n.min(120))),
    ("ext_enforcement", "extension: end-to-end cap enforcement", |s| ext::ext_enforcement(s.n.min(400))),
    ("ext_phases", "extension: execution-phase workload dynamics", |s| ext::ext_phases(s.n.min(300))),
    ("ext_spectral", "extension: spectral prediction of convergence", |s| ext::ext_spectral(if s.n >= 400 { 400 } else { 100 })),
    ("ext_hierarchy", "extension: depth-1 budget tree vs one ring", |s| ext::ext_hierarchy(s.n.min(200))),
    ("ext_prototype", "extension: message-passing agents under dynamic budgets", |s| ext::ext_prototype(s.n.min(64))),
    ("ext_network_load", "extension: aggregate network load per scheme", |s| ext::ext_network_load(s.n)),
];

#[cfg(test)]
mod tests {
    use super::EXPERIMENTS;

    /// `repro_output.txt` is `--experiment all` at paper scale, so its
    /// banner ids and the table must be the same set, in the same order:
    /// an experiment missing from either side is one CI cannot compare.
    #[test]
    fn experiment_table_matches_the_banners_of_repro_output() {
        let text = include_str!("../../repro_output.txt");
        let lines: Vec<&str> = text.lines().collect();
        let is_banner = |l: &str| !l.is_empty() && l.bytes().all(|b| b == b'=');
        let banners: Vec<&str> = lines
            .windows(3)
            .filter(|w| is_banner(w[0]) && is_banner(w[2]))
            .map(|w| w[1])
            .collect();
        let table: Vec<&str> = EXPERIMENTS.iter().map(|(id, _, _)| *id).collect();
        assert_eq!(banners, table);
    }
}
