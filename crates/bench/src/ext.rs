//! Extension experiments beyond the paper's figures: ablations of DiBA's
//! design parameters, the deployed agents under stalls, delayed networking
//! and a crash, and end-to-end cap enforcement through the DVFS actuators.

use crate::report::Table;
use dpc_alg::centralized;
use dpc_alg::diba::{DibaConfig, DibaRun};
use dpc_alg::faults::{FaultPlan, LinkFaults, NodeFaultKind};
use dpc_alg::problem::PowerBudgetProblem;
use dpc_models::units::Watts;
use dpc_models::workload::ClusterBuilder;
use dpc_runtime::lockstep::Lockstep;
use dpc_sim::enforcement::EnforcedCluster;
use dpc_topology::Graph;

fn problem(n: usize, per_server: f64, seed: u64) -> PowerBudgetProblem {
    let c = ClusterBuilder::new(n).seed(seed).build();
    PowerBudgetProblem::new(c.utilities(), Watts(per_server * n as f64))
        .expect("feasible experiment budget")
}

fn rounds_to_99(p: &PowerBudgetProblem, g: Graph, config: DibaConfig, opt: f64) -> String {
    let mut run = DibaRun::new(p.clone(), g, config).expect("sizes match");
    match run.run_until_within(opt, 0.01, 60_000) {
        Some(r) => r.to_string(),
        None => ">60000".to_string(),
    }
}

/// Ablation: the barrier weight η (accuracy/speed trade-off).
pub fn ablation_eta(n: usize) -> String {
    let p = problem(n, 170.0, 21);
    let opt = p.total_utility(&centralized::solve(&p).allocation);
    let auto = DibaRun::new(p.clone(), Graph::ring(n), DibaConfig::default())
        .expect("sizes")
        .eta();
    let mut t = Table::new([
        "η / η_auto",
        "rounds to 99%",
        "final unspent (W)",
        "final util/opt",
    ]);
    for &mult in &[0.25, 0.5, 1.0, 2.0, 4.0, 8.0] {
        let cfg = DibaConfig {
            eta: Some(auto * mult),
            ..DibaConfig::default()
        };
        let mut run = DibaRun::new(p.clone(), Graph::ring(n), cfg).expect("sizes");
        let rounds = run
            .run_until_within(opt, 0.01, 60_000)
            .map_or(">60000".to_string(), |r| r.to_string());
        run.run(2_000);
        t.row([
            format!("{mult:.2}"),
            rounds,
            format!("{:.1}", (p.budget() - run.total_power()).0),
            format!("{:.4}", run.total_utility() / opt),
        ]);
    }
    format!(
        "Ablation — barrier weight η ({n} servers, ring)\n\n{}\n\
         Small η wastes little budget but diffuses slack slowly; large η\n\
         converges fast to a *worse* point (barrier gap). The auto-tuned\n\
         value balances the two; the continuation schedule buys both.\n",
        t.render()
    )
}

/// Ablation: gradient and transfer step sizes.
pub fn ablation_steps(n: usize) -> String {
    let p = problem(n, 170.0, 22);
    let opt = p.total_utility(&centralized::solve(&p).allocation);
    let mut t = Table::new(["step_power", "step_transfer", "rounds to 99%"]);
    for &sp in &[0.3, 0.7, 1.0] {
        for &st in &[0.4, 1.2, 2.0] {
            let cfg = DibaConfig {
                step_power: sp,
                step_transfer: st,
                ..DibaConfig::default()
            };
            t.row([
                format!("{sp:.1}"),
                format!("{st:.1}"),
                rounds_to_99(&p, Graph::ring(n), cfg, opt),
            ]);
        }
    }
    format!(
        "Ablation — step sizes ({n} servers, ring)\n\n{}\n\
         Convergence is transfer-limited: raising the diffusion step helps\n\
         until overshoot sets in; the power step saturates early.\n",
        t.render()
    )
}

/// Ablation: the barrier-continuation boost.
pub fn ablation_boost(n: usize) -> String {
    let p = problem(n, 170.0, 23);
    let opt = p.total_utility(&centralized::solve(&p).allocation);
    let mut t = Table::new(["eta_boost", "rounds to 99%"]);
    for &boost in &[1.0, 5.0, 30.0, 100.0] {
        let cfg = DibaConfig {
            eta_boost: boost,
            ..DibaConfig::default()
        };
        t.row([
            format!("{boost:.0}"),
            rounds_to_99(&p, Graph::ring(n), cfg, opt),
        ]);
    }
    format!(
        "Ablation — barrier continuation boost ({n} servers, ring)\n\n{}\n\
         boost = 1 disables continuation (pure fixed-η Algorithm 4); the\n\
         boosted start accelerates the bulk redistribution phase.\n",
        t.render()
    )
}

/// Ablation: communication topology (complements Fig. 4.10's random graphs
/// with the structured topologies an operator would actually deploy).
pub fn ablation_topology(n: usize) -> String {
    let p = problem(n, 170.0, 24);
    let opt = p.total_utility(&centralized::solve(&p).allocation);
    let side = (n as f64).sqrt().round() as usize;
    let graphs: Vec<(String, Graph)> = vec![
        ("ring".into(), Graph::ring(n)),
        (
            "ring + n/8 chords".into(),
            Graph::ring_with_chords(n, n / 8),
        ),
        (format!("grid {side}x{side}"), Graph::grid(side, n / side)),
        ("star".into(), Graph::star(n)),
        ("complete".into(), Graph::complete(n)),
    ];
    let mut t = Table::new(["topology", "avg degree", "diameter", "rounds to 99%"]);
    for (name, g) in graphs {
        if g.len() != n {
            continue; // grid may not tile n exactly
        }
        t.row([
            name,
            format!("{:.2}", g.average_degree()),
            g.diameter().map_or("-".into(), |d| d.to_string()),
            rounds_to_99(&p, g, DibaConfig::default(), opt),
        ]);
    }
    format!(
        "Ablation — deployment topologies ({n} servers)\n\n{}\n\
         More connectivity buys rounds but costs per-round messages; the\n\
         chorded ring is the sweet spot the paper recommends (low fixed\n\
         degree, fault tolerant, near-grid convergence).\n",
        t.render()
    )
}

/// Extension: convergence on the deployed agents when nodes stall (late
/// activation) and entries arrive late and out of order.
pub fn ext_async(n: usize) -> String {
    let p = problem(n, 170.0, 25);
    let opt = p.total_utility(&centralized::solve(&p).allocation);
    let mut t = Table::new([
        "activation",
        "reorder prob",
        "reorder max",
        "rounds to 98.5%",
    ]);
    let nets = [
        (1.0, 0.0, 1usize),
        (0.9, 0.2, 3),
        (0.7, 0.3, 5),
        (0.5, 0.5, 8),
        (0.3, 0.6, 12),
    ];
    for &(activation, reorder, reorder_max) in &nets {
        let link = LinkFaults {
            reorder,
            reorder_max,
            ..LinkFaults::none()
        };
        let plan = FaultPlan {
            activation,
            ..FaultPlan::with_link(7, link)
        };
        let mut run = Lockstep::for_problem(&p, &Graph::ring(n), DibaConfig::default(), plan)
            .expect("sizes match");
        let rounds = run
            .run_until_within(opt, 0.015, 120_000)
            .map_or(">120000".to_string(), |r| r.to_string());
        t.row([
            format!("{activation:.1}"),
            format!("{reorder:.1}"),
            reorder_max.to_string(),
            rounds,
        ]);
    }
    format!(
        "Extension — asynchrony and message delay ({n} servers, ring)\n\n{}\n\
         The algorithm degrades gracefully: slower clocks and staler state\n\
         cost rounds roughly in proportion, never feasibility (the residual\n\
         conservation including in-flight mass is exact).\n",
        t.render()
    )
}

/// Extension: end-to-end enforcement — allocator caps through the DVFS
/// actuator bank to the meter.
pub fn ext_enforcement(n: usize) -> String {
    let cluster = ClusterBuilder::new(n).seed(26).build();
    let budget = Watts(176.0 * n as f64);
    let p = PowerBudgetProblem::new(cluster.utilities(), budget).expect("feasible");
    let opt = centralized::solve(&p);

    let noise = Watts(0.8);
    let mut e = EnforcedCluster::new(cluster.server(), &opt.allocation, noise, 9);
    e.run(80);
    let measured = e.measured_total();
    let allocated = opt.allocation.total();

    // Budget cut: re-solve and re-apply; count controller periods to the
    // meter actually reading under the new budget.
    let cut = budget * 0.93;
    let tight = p.with_budget(cut).expect("still feasible");
    let new_alloc = centralized::solve(&tight).allocation;
    e.apply(&new_alloc);
    let ticks = e.ticks_to_total(cut, 200);

    let mut t = Table::new(["quantity", "value"]);
    t.row([
        "budget".to_string(),
        format!("{:.2} kW", budget.kilowatts()),
    ]);
    t.row([
        "allocated (continuous caps)".to_string(),
        format!("{:.2} kW", allocated.kilowatts()),
    ]);
    t.row([
        "measured after settling".to_string(),
        format!("{:.2} kW", measured.kilowatts()),
    ]);
    t.row([
        "quantization loss".to_string(),
        format!("{:.1}%", (allocated - measured) / allocated * 100.0),
    ]);
    t.row([
        "compliance (strict, noisy meter)".to_string(),
        format!("{:.1}%", e.compliance() * 100.0),
    ]);
    t.row([
        "compliance (within 2x meter noise)".to_string(),
        format!("{:.1}%", e.compliance_within(noise * 2.0) * 100.0),
    ]);
    t.row([
        "cut of 7% realized at the meter in".to_string(),
        ticks.map_or("never".into(), |k| format!("{k} controller periods")),
    ]);
    format!(
        "Extension — cap enforcement fidelity ({n} servers)\n\n{}\n\
         The continuous allocation survives the discrete p-state ladder with\n\
         a few percent of quantization loss, and budget cuts reach the meter\n\
         within a handful of controller periods (1 s each in the paper's\n\
         setup) on top of the algorithm's milliseconds.\n",
        t.render()
    )
}

/// Extension: execution-phase dynamics — the budgeter tracks workloads
/// whose characteristics swing between compute- and memory-bound phases.
pub fn ext_phases(n: usize) -> String {
    use dpc_models::units::Seconds;
    use dpc_sim::engine::{simulate, SimConfig};
    use dpc_sim::schedule::BudgetSchedule;

    let budget_per = 172.0;
    let mut t = Table::new([
        "phase dwell (s)",
        "mean SNP",
        "mean SNP/optimal",
        "violations",
    ]);
    for &dwell in &[f64::INFINITY, 60.0, 20.0, 8.0] {
        let cluster = ClusterBuilder::new(n).seed(33).build();
        let budget = Watts(budget_per * n as f64);
        let p = PowerBudgetProblem::new(cluster.utilities(), budget).expect("feasible");
        let mut run = DibaRun::new(p, Graph::ring(n), DibaConfig::default()).expect("sizes");
        let config = SimConfig {
            duration: Seconds(120.0),
            sample_interval: Seconds(2.0),
            rounds_per_sample: 250,
            churn_mean: None,
            phase_mean: dwell.is_finite().then_some(Seconds(dwell)),
        };
        let schedule = BudgetSchedule::constant(budget);
        let series = simulate(cluster, &mut run, &schedule, &config).expect("schedule feasible");
        let violations = series
            .points()
            .iter()
            .filter(|pt| pt.total_power > pt.budget + Watts(1e-6))
            .count();
        t.row([
            if dwell.is_finite() {
                format!("{dwell:.0}")
            } else {
                "static".into()
            },
            format!("{:.4}", series.mean_snp()),
            format!("{:.4}", series.mean_optimality()),
            violations.to_string(),
        ]);
    }
    format!(
        "Extension — execution-phase dynamics ({n} servers, ring, 2 min)\n\n{}\n\
         Faster phase churn erodes tracking quality gradually but never\n\
         feasibility: the decentralized re-optimization keeps pace with\n\
         second-scale workload behaviour changes.\n",
        t.render()
    )
}

/// Extension: the spectral gap of the communication graph predicts DiBA's
/// convergence before deployment.
pub fn ext_spectral(n: usize) -> String {
    use dpc_topology::consensus_spectrum;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let p = problem(n, 170.0, 27);
    let opt = p.total_utility(&centralized::solve(&p).allocation);
    let mut rng = StdRng::seed_from_u64(5);
    let side = (n as f64).sqrt().round() as usize;
    let mut graphs: Vec<(String, Graph)> = vec![
        ("ring".into(), Graph::ring(n)),
        (
            "ring + n/10 chords".into(),
            Graph::ring_with_chords(n, n / 10),
        ),
        (
            "ring + n/4 chords".into(),
            Graph::ring_with_chords(n, n / 4),
        ),
    ];
    if side * (n / side) == n {
        graphs.push((
            format!("grid {side}x{}", n / side),
            Graph::grid(side, n / side),
        ));
    }
    graphs.push((
        "ER avg-degree 6".into(),
        Graph::erdos_renyi_connected(n, 3 * n, &mut rng, 200).expect("m >= n-1"),
    ));

    let mut t = Table::new([
        "topology",
        "spectral gap",
        "mixing est.",
        "converged",
        "rounds to 99%",
    ]);
    let mut rows: Vec<(f64, usize)> = Vec::new();
    for (name, g) in graphs {
        let s = consensus_spectrum(&g, 2_000);
        let mut run = DibaRun::new(p.clone(), g, DibaConfig::default()).expect("sizes");
        let rounds = run.run_until_within(opt, 0.01, 60_000).unwrap_or(60_000);
        rows.push((s.mixing_time, rounds));
        t.row([
            name,
            format!("{:.4}", s.gap),
            format!("{:.0}", s.mixing_time),
            if s.converged { "yes" } else { "no" }.into(),
            rounds.to_string(),
        ]);
    }
    // Rank correlation between predicted mixing time and measured rounds.
    let mut concordant = 0usize;
    let mut pairs = 0usize;
    for i in 0..rows.len() {
        for j in i + 1..rows.len() {
            if (rows[i].0 - rows[j].0).abs() > 1e-9 && rows[i].1 != rows[j].1 {
                pairs += 1;
                if (rows[i].0 < rows[j].0) == (rows[i].1 < rows[j].1) {
                    concordant += 1;
                }
            }
        }
    }
    format!(
        "Extension — spectral prediction of convergence ({n} servers)\n\n{}\n\
         rank agreement between predicted mixing time and measured rounds:\n\
         {concordant}/{pairs} pairs. The consensus spectral gap is an a-priori\n\
         sizing tool: pick chords until the predicted mixing fits the control\n\
         deadline, before deploying anything.\n",
        t.render()
    )
}

/// Extension: hierarchical budgeting — a depth-1 budget tree splits the
/// facility budget over its domains' aggregate demand curves, and every
/// domain runs its own small DiBA ring.
pub fn ext_hierarchy(n: usize) -> String {
    use dpc_alg::hierarchy::{BudgetTree, DomainSpec, LeafSolver};

    let per_server = 168.0;
    let c = ClusterBuilder::new(n).seed(28).build();
    let utilities = c.utilities();
    let total = Watts(per_server * n as f64);
    let flat_problem = PowerBudgetProblem::new(utilities.clone(), total).expect("feasible");
    let opt = flat_problem.total_utility(&centralized::solve(&flat_problem).allocation);

    let mut t = Table::new([
        "configuration",
        "ring size",
        "rounds to 98.5%",
        "final util/opt",
    ]);
    // Flat DiBA reference.
    let mut flat =
        DibaRun::new(flat_problem.clone(), Graph::ring(n), DibaConfig::default()).expect("sizes");
    let flat_rounds = flat.run_until_within(opt, 0.015, 60_000);
    t.row([
        "flat (one ring)".to_string(),
        n.to_string(),
        flat_rounds.map_or(">60000".into(), |r| r.to_string()),
        format!("{:.4}", flat.total_utility() / opt),
    ]);
    let leaf = LeafSolver::Diba {
        config: DibaConfig::default(),
        rel_tol: 0.015,
        max_rounds: 60_000,
    };
    for &domains in &[2usize, 5, 10] {
        let spec = DomainSpec::uniform(n, domains, 1);
        let mut tree = BudgetTree::new(utilities.clone(), &spec, total, vec![]).expect("feasible");
        let (rounds, quality) = match tree.solve(&leaf) {
            // Leaf rings run in parallel, so the slowest one sets the pace.
            Ok(sol) => (
                sol.leaf_rounds
                    .iter()
                    .max()
                    .copied()
                    .unwrap_or(0)
                    .to_string(),
                format!("{:.4}", sol.total_utility / opt),
            ),
            Err(_) => (">60000".to_string(), "-".to_string()),
        };
        t.row([
            format!("{domains} domains"),
            tree.max_leaf_servers().to_string(),
            rounds,
            quality,
        ]);
    }
    format!(
        "Extension — hierarchical budgeting ({n} servers, budget {:.1} kW)\n\n{}\n\
         The root inverts its children's exact aggregate demand curves once\n\
         (no iteration), then every domain converges on its own ring to\n\
         within 1.5% of its own optimum. At this size the barrier continuation,\n\
         not the ring diameter, sets the round count, so the split costs\n\
         nothing in rounds or optimality while bounding every gossip ring —\n\
         and failure domain — at n/domains servers.\n",
        total.kilowatts(),
        t.render()
    )
}

/// Extension: the paper's prototype demonstration — "a working prototype
/// of DiBA on a real experimental cluster … meeting dynamic total power
/// budget in a fully distributed fashion" (Section 4.1) — reproduced on
/// the deployed agents ([`Lockstep`]), every one of them sitting one round
/// in five out, with a seeded mid-run silent node crash thrown in.
pub fn ext_prototype(n: usize) -> String {
    let cluster = ClusterBuilder::new(n).seed(40).build();
    let budgets: [f64; 4] = [176.0, 168.0, 182.0, 172.0];
    let initial = Watts(budgets[0] * n as f64);
    let p = PowerBudgetProblem::new(cluster.utilities(), initial).expect("feasible");
    // The crash fires on the first round after epoch 2's budget change has
    // had its 1 000 rounds (1 500 + 2 × 1 000 rounds in).
    let plan = FaultPlan {
        activation: 0.8,
        ..FaultPlan::none()
    }
    .and(3_501, n / 3, NodeFaultKind::Crash);
    let graph = Graph::ring_with_chords(n, (n / 6).max(2));
    let mut agents = Lockstep::for_problem(&p, &graph, DibaConfig::default(), plan)
        .expect("deployment is valid");

    let mut t = Table::new([
        "epoch",
        "event",
        "budget (kW)",
        "power (kW)",
        "within budget",
    ]);
    let log = |agents: &Lockstep, epoch: usize, event: &str, t: &mut Table| {
        let budget = agents.budget();
        t.row([
            epoch.to_string(),
            event.to_string(),
            format!("{:.2}", budget.kilowatts()),
            format!("{:.2}", agents.total_power().kilowatts()),
            (agents.total_power() <= budget + Watts(1e-6)).to_string(),
        ]);
    };

    agents.run(1_500);
    log(&agents, 0, "converged", &mut t);
    for (epoch, &per_server) in budgets.iter().enumerate().skip(1) {
        agents.set_budget(Watts(per_server * n as f64));
        agents.run(1_000);
        log(&agents, epoch, "budget change", &mut t);
        if epoch == 2 {
            agents.run(800);
            log(&agents, epoch, "node crash + recovery", &mut t);
        }
    }
    format!(
        "Extension — the deployed prototype under dynamic budgets ({n} agents)\n\n{}\n\
         survivors: {}/{n}; residual-invariant drift: {:.2e} W.\n\
         Every agent exchanges messages with its graph neighbors only and\n\
         sits one round in five out — no coordinator exists anywhere in\n\
         this run, including during the budget changes and the crash.\n",
        t.render(),
        agents.live_count(),
        agents.conservation_drift(),
    )
}

/// Extension: aggregate network load per scheme — total packets/bytes and,
/// decisively, the hottest single device.
pub fn ext_network_load(n: usize) -> String {
    use dpc_alg::primal_dual::{self, PrimalDualConfig};
    use dpc_net::load::{coordinator_load, diba_load, PACKET_BYTES};
    use dpc_net::{LinkTiming, TwoTierNetwork};

    let p = problem(n, 172.0, 29);
    let opt = p.total_utility(&centralized::solve(&p).allocation);
    let pd = primal_dual::solve(&p, &PrimalDualConfig::default());
    let g = Graph::ring(n);
    let mut diba = DibaRun::new(p.clone(), g.clone(), DibaConfig::default()).expect("sizes");
    let rounds = diba.run_until_within(opt, 0.01, 60_000).unwrap_or(60_000);

    let timing = LinkTiming::measured_10gbe();
    let loads = [
        ("centralized", coordinator_load(n, 1)),
        ("primal-dual", coordinator_load(n, pd.iterations)),
        ("DiBA (ring)", diba_load(g.num_edges(), 2, rounds)),
    ];
    let mut t = Table::new([
        "scheme",
        "packets total",
        "bytes total",
        "hottest device pkts",
        "hottest device busy",
    ]);
    for (name, l) in loads {
        t.row([
            name.to_string(),
            l.packets.to_string(),
            format!("{:.1} KiB", l.bytes as f64 / 1024.0),
            l.hottest_device_packets.to_string(),
            format!("{:.1} ms", l.hottest_device_busy_seconds(timing) * 1e3),
        ]);
    }
    let tree = TwoTierNetwork::paper();
    format!(
        "Extension — aggregate network load to convergence ({n} servers; {PACKET_BYTES}-byte frames)\n\n{}\n\
         DiBA puts more packets on the wire in total, but they are spread\n\
         over every link; the coordinator schemes concentrate all of theirs\n\
         on one NIC. On the two-tier physical network a rack-aligned ring\n\
         sends {} packets per round through the core ({:.0}% of a single\n\
         serial forwarding engine — the conservative bound; real\n\
         non-blocking fabrics forward ports in parallel).\n",
        t.render(),
        tree.diba_core_packets_per_round(n),
        tree.diba_core_utilization(n) * 100.0,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_eta_reports_all_rows() {
        let s = ablation_eta(24);
        assert!(s.matches('\n').count() > 10);
        assert!(s.contains("0.25") && s.contains("8.00"));
    }

    #[test]
    fn ablation_topology_orders_complete_fastest() {
        let s = ablation_topology(25); // 5x5 grid tiles exactly
        assert!(s.contains("complete"));
        assert!(s.contains("grid 5x5"));
    }

    #[test]
    fn ext_enforcement_reports_compliance() {
        let s = ext_enforcement(20);
        assert!(s.contains("compliance"));
        assert!(s.contains("quantization loss"));
    }
}
