//! `BENCH_hierarchy.json`: nested budget trees vs the flat water-filling
//! oracle across fanout × depth (the `dpc hier --bench` sweep).
//!
//! Each cell solves one [`BudgetTree`] shape over the same synthetic
//! cluster a flat solve would see. Oracle-leaf cells are gated on exact
//! equivalence: the tree's allocation must match the flat oracle within
//! [`HierBenchReport::equiv_eps_watts`] per server (same gate style as the
//! `Precision::Fast` contract). DiBA-leaf cells are gated on the relative
//! utility gap to the flat optimum plus nested feasibility, and
//! demonstrate the scalability headline: a two-level tree of ~1k-server
//! domains reaches ≥100k servers while the largest communication ring
//! stays at the leaf size.
//!
//! Every field in the report is a pure function of the configuration and
//! seed (round counts included, by the engine's determinism contract), so
//! the JSON is byte-reproducible across runs and hosts.

use crate::alg::centralized;
use crate::alg::diba::DibaConfig;
use crate::alg::hierarchy::{BudgetTree, DomainSpec, LeafSolver, TenantCap};
use crate::alg::problem::PowerBudgetProblem;
use crate::models::units::Watts;
use crate::models::workload::ClusterBuilder;

/// Per-server deviation below which a tree allocation counts as the flat
/// oracle's (watts).
const EQUIV_EPS_WATTS: f64 = 0.05;

/// Largest relative utility gap a DiBA-leaf cell may leave to the flat
/// optimum.
const DIBA_GAP_MAX: f64 = 0.02;

/// One sweep cell: a tree shape × leaf solver over one cluster.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct HierCell {
    /// Cluster size.
    pub(crate) servers: usize,
    /// Fanout of every internal level.
    pub(crate) fanout: usize,
    /// Internal levels above the leaves (0 = one flat leaf).
    pub(crate) depth: usize,
    /// Leaf solver: `"oracle"` or `"diba"`.
    pub(crate) leaf: String,
    /// Domains in the tree (internal + leaf).
    pub(crate) domains: usize,
    /// Leaf domains.
    pub(crate) leaves: usize,
    /// Largest leaf — the largest communication ring any decentralized
    /// leaf phase needs.
    pub(crate) max_leaf_servers: usize,
    /// Largest per-server deviation from the flat oracle (watts); only
    /// meaningful for oracle leaves, `None` for DiBA cells.
    pub(crate) max_dev_watts: Option<f64>,
    /// Relative utility gap to the flat optimum.
    pub(crate) utility_gap: f64,
    /// Facility budget (watts).
    pub(crate) budget_w: f64,
    /// Power the solved tree draws (watts).
    pub(crate) total_power_w: f64,
    /// Largest per-leaf DiBA round count (0 for oracle leaves).
    pub(crate) max_leaf_rounds: u64,
    /// The nested-constraint chain held at every domain.
    pub(crate) nested_feasible: bool,
    /// Tenant caps attached to the cell (0 = none).
    pub(crate) tenants: usize,
    /// Every tenant cap was respected.
    pub(crate) tenants_ok: bool,
}

/// The `BENCH_hierarchy.json` report.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct HierBenchReport {
    /// Workload seed.
    pub(crate) seed: u64,
    /// The oracle-equivalence gate (watts).
    pub(crate) equiv_eps_watts: f64,
    /// The DiBA utility-gap gate.
    pub(crate) diba_gap_max: f64,
    /// The sweep cells.
    pub(crate) cells: Vec<HierCell>,
}

impl HierBenchReport {
    /// The acceptance gate: every oracle cell ε-matches the flat oracle,
    /// every DiBA cell closes the utility gap with bounded rings, and all
    /// cells are nested-feasible with their tenant caps respected.
    pub(crate) fn gates_pass(&self) -> bool {
        self.cells.iter().all(|c| {
            let solver_ok = match c.max_dev_watts {
                Some(dev) => dev <= self.equiv_eps_watts,
                None => {
                    c.utility_gap <= self.diba_gap_max
                        && (c.depth == 0 || c.max_leaf_servers < c.servers)
                }
            };
            solver_ok && c.nested_feasible && c.tenants_ok
        })
    }

    /// Renders the report as pretty-printed JSON (hand-rolled — the
    /// workspace carries no serialization dependency). Byte-reproducible:
    /// no wall-clock fields.
    pub(crate) fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"bench\": \"hierarchy\",\n");
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!(
            "  \"equiv_eps_watts\": {},\n",
            self.equiv_eps_watts
        ));
        out.push_str(&format!("  \"diba_gap_max\": {},\n", self.diba_gap_max));
        out.push_str(&format!("  \"gates_pass\": {},\n", self.gates_pass()));
        out.push_str("  \"note\": \"all fields are deterministic per seed; byte-reproducible\",\n");
        out.push_str("  \"cells\": [\n");
        for (k, c) in self.cells.iter().enumerate() {
            let dev = match c.max_dev_watts {
                Some(d) => format!("{d:.6}"),
                None => "null".to_string(),
            };
            out.push_str(&format!(
                "    {{\"servers\": {}, \"fanout\": {}, \"depth\": {}, \"leaf\": \"{}\", \
                 \"domains\": {}, \"leaves\": {}, \"max_leaf_servers\": {}, \
                 \"max_dev_watts\": {}, \"utility_gap\": {:.6}, \"budget_w\": {:.1}, \
                 \"total_power_w\": {:.3}, \"max_leaf_rounds\": {}, \
                 \"nested_feasible\": {}, \"tenants\": {}, \"tenants_ok\": {}}}{}\n",
                c.servers,
                c.fanout,
                c.depth,
                c.leaf,
                c.domains,
                c.leaves,
                c.max_leaf_servers,
                dev,
                c.utility_gap,
                c.budget_w,
                c.total_power_w,
                c.max_leaf_rounds,
                c.nested_feasible,
                c.tenants,
                c.tenants_ok,
                if k + 1 < self.cells.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Renders a human-readable table.
    pub(crate) fn to_table(&self) -> String {
        let mut out = format!(
            "hierarchical budget tree vs flat oracle, seed {}\n\n\
             {:>8}  {:>6}  {:>5}  {:>6}  {:>7}  {:>9}  {:>12}  {:>9}  {:>10}  ok\n",
            self.seed,
            "servers",
            "fanout",
            "depth",
            "leaf",
            "domains",
            "max ring",
            "max dev (W)",
            "util gap",
            "max rounds",
        );
        for c in &self.cells {
            let dev = match c.max_dev_watts {
                Some(d) => format!("{d:.6}"),
                None => "-".to_string(),
            };
            out.push_str(&format!(
                "{:>8}  {:>6}  {:>5}  {:>6}  {:>7}  {:>9}  {:>12}  {:>9.2e}  {:>10}  {}\n",
                c.servers,
                c.fanout,
                c.depth,
                c.leaf,
                c.domains,
                c.max_leaf_servers,
                dev,
                c.utility_gap,
                c.max_leaf_rounds,
                if c.nested_feasible && c.tenants_ok {
                    "ok"
                } else {
                    "FAIL"
                },
            ));
        }
        out.push_str(&format!(
            "\ngates (oracle dev ≤ {} W, diba gap ≤ {}, bounded rings, nested + tenant feasibility): {}\n",
            self.equiv_eps_watts,
            self.diba_gap_max,
            if self.gates_pass() { "pass" } else { "FAIL" }
        ));
        out
    }
}

/// Synthetic cross-cutting tenants: `count` tenants striding the facility
/// (tenant `t` owns servers `t, t+count, …`), each capped at 90 % of its
/// members' aggregate peak so caps are active but feasible at any budget.
pub(crate) fn striped_tenants(
    utilities: &[crate::models::QuadraticUtility],
    count: usize,
) -> Vec<TenantCap> {
    (0..count)
        .map(|t| {
            let members: Vec<usize> = (t..utilities.len()).step_by(count).collect();
            let peak: f64 = members.iter().map(|&i| utilities[i].p_max().0).sum();
            TenantCap::new(format!("tenant{t}"), members, Watts(0.9 * peak))
        })
        .collect()
}

/// Measures one sweep cell.
///
/// # Panics
///
/// Panics when the cell's tree construction or solve fails — bench
/// configurations are statically feasible.
fn measure_cell(
    servers: usize,
    fanout: usize,
    depth: usize,
    leaf: &LeafSolver,
    seed: u64,
    tenants: usize,
) -> HierCell {
    let utilities = ClusterBuilder::new(servers).seed(seed).build().utilities();
    let budget = Watts(170.0 * servers as f64);
    let flat = PowerBudgetProblem::new(utilities.clone(), budget)
        .expect("bench budgets cover the cluster floor");
    let oracle = centralized::solve(&flat);
    let opt_util = flat.total_utility(&oracle.allocation);

    let caps = striped_tenants(&utilities, tenants);
    let spec = DomainSpec::uniform(servers, fanout, depth);
    let mut tree =
        BudgetTree::new(utilities, &spec, budget, caps.clone()).expect("bench tree is feasible");
    let sol = tree.solve(leaf).expect("bench tree solves");

    // Tenant-free oracle cells admit the exact-equivalence gate; with
    // tenants (or DiBA leaves) the flat oracle solves a different problem,
    // so only the utility gap and feasibility are meaningful.
    let (leaf_name, max_dev) = match leaf {
        LeafSolver::Oracle if tenants == 0 => (
            "oracle",
            Some(sol.allocation.max_abs_diff(&oracle.allocation).0),
        ),
        LeafSolver::Oracle => ("oracle", None),
        LeafSolver::Diba { .. } => ("diba", None),
    };
    let tenants_ok = sol
        .tenants
        .iter()
        .all(|t| t.usage.0 <= t.cap.0 * (1.0 + 1e-6));
    HierCell {
        servers,
        fanout,
        depth,
        leaf: leaf_name.to_string(),
        domains: tree.domain_count(),
        leaves: tree.leaf_count(),
        max_leaf_servers: sol.max_leaf_servers,
        max_dev_watts: max_dev,
        utility_gap: ((opt_util - sol.total_utility) / opt_util.abs()).max(0.0),
        budget_w: budget.0,
        total_power_w: sol.total_power.0,
        max_leaf_rounds: sol.leaf_rounds.iter().copied().max().unwrap_or(0),
        // Relative tolerance: summing ~100k child budgets carries ~1e-9
        // relative rounding, so an absolute microwatt gate would fail on
        // float noise at megawatt scale.
        nested_feasible: tree.nested_feasible(Watts(1e-9 * budget.0.max(1.0))),
        tenants,
        tenants_ok,
    }
}

/// The default DiBA leaf solver of the sweep.
fn default_diba_leaf() -> LeafSolver {
    LeafSolver::Diba {
        config: DibaConfig::default(),
        rel_tol: 0.015,
        max_rounds: 200_000,
    }
}

/// Runs the sweep: every fanout × depth shape at `servers` with oracle
/// leaves (the equivalence gate), the same shapes again with `tenants`
/// striped caps, and — when `big` is set — the scalability row: a
/// two-level tree (`fanout` ≈ √big) of ~1k-server domains at ≥100k servers
/// with DiBA leaves.
pub(crate) fn run(
    servers: usize,
    fanouts: &[usize],
    depths: &[usize],
    seed: u64,
    tenants: usize,
    big: Option<usize>,
) -> HierBenchReport {
    let mut cells = Vec::new();
    for &fanout in fanouts {
        for &depth in depths {
            cells.push(measure_cell(
                servers,
                fanout,
                depth,
                &LeafSolver::Oracle,
                seed,
                0,
            ));
            if tenants > 0 {
                cells.push(measure_cell(
                    servers,
                    fanout,
                    depth,
                    &LeafSolver::Oracle,
                    seed,
                    tenants,
                ));
            }
        }
    }
    // A DiBA-leaf cell at the sweep size: bounded rings, bounded gap.
    if let (Some(&fanout), Some(&depth)) = (fanouts.first(), depths.first()) {
        cells.push(measure_cell(
            servers,
            fanout,
            depth.max(1),
            &default_diba_leaf(),
            seed,
            0,
        ));
    }
    if let Some(big_n) = big {
        // Two-level tree of ~1k-server leaf domains: rings stay at the
        // domain size no matter how large the facility grows.
        let fanout = big_n.div_ceil(1024);
        cells.push(measure_cell(
            big_n,
            fanout,
            1,
            &default_diba_leaf(),
            seed,
            0,
        ));
    }
    HierBenchReport {
        seed,
        equiv_eps_watts: EQUIV_EPS_WATTS,
        diba_gap_max: DIBA_GAP_MAX,
        cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_cells_pass_the_equivalence_gate() {
        let report = run(96, &[2, 4], &[1, 2], 0, 2, None);
        assert!(report.gates_pass(), "{}", report.to_table());
        // Tenant-free oracle cells carry the deviation field; tenant and
        // DiBA cells do not.
        assert!(report
            .cells
            .iter()
            .any(|c| c.max_dev_watts.is_some() && c.tenants == 0));
        assert!(report
            .cells
            .iter()
            .all(|c| c.max_dev_watts.is_none() || c.tenants == 0));
    }

    #[test]
    fn report_is_byte_reproducible() {
        let a = run(64, &[4], &[1], 1, 0, None).to_json();
        let b = run(64, &[4], &[1], 1, 0, None).to_json();
        assert_eq!(a, b);
        assert!(a.contains("\"bench\": \"hierarchy\""));
    }

    #[test]
    fn diba_cell_bounds_the_ring() {
        let cell = measure_cell(128, 4, 1, &default_diba_leaf(), 0, 0);
        assert_eq!(cell.max_leaf_servers, 32);
        assert!(cell.utility_gap <= DIBA_GAP_MAX, "gap {}", cell.utility_gap);
        assert!(cell.nested_feasible);
    }
}
