//! Integration tests spanning the workspace crates: the full pipelines the
//! paper's experiments exercise, at reduced scale.

use dpc::alg::diba::{DibaConfig, DibaRun};
use dpc::alg::faults::{FaultPlan, NodeFaultKind};
use dpc::alg::knapsack;
use dpc::alg::primal_dual::{self, PrimalDualConfig};
use dpc::alg::problem::PowerBudgetProblem;
use dpc::alg::{baselines, centralized};
use dpc::models::metrics::snp_arithmetic;
use dpc::models::units::{Seconds, Watts};
use dpc::models::workload::ClusterBuilder;
use dpc::net::CommModel;
use dpc::runtime::lockstep::Lockstep;
use dpc::runtime::{run_cluster, RuntimeConfig};
use dpc::sim::engine::{simulate, SimConfig};
use dpc::sim::schedule::BudgetSchedule;
use dpc::sim::step::step_response;
use dpc::thermal::partition::{self_consistent_partition, uniform_rack_map};
use dpc::thermal::ThermalModel;
use dpc::topology::Graph;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn problem(n: usize, per_server: f64, seed: u64) -> PowerBudgetProblem {
    let c = ClusterBuilder::new(n).seed(seed).build();
    PowerBudgetProblem::new(c.utilities(), Watts(per_server * n as f64)).unwrap()
}

#[test]
fn every_scheme_is_feasible_and_ordered_by_design() {
    // uniform ≤ {PD, DiBA} ≤ oracle in utility, all within budget.
    let p = problem(80, 168.0, 1);
    let oracle = centralized::solve(&p);
    let opt = p.total_utility(&oracle.allocation);

    let uniform = baselines::uniform(&p);
    let pd = primal_dual::solve(&p, &PrimalDualConfig::default());
    let mut diba = DibaRun::new(p.clone(), Graph::ring(80), DibaConfig::default()).unwrap();
    diba.run_until_within(opt, 0.01, 20_000)
        .expect("diba converges");

    for (name, alloc) in [
        ("uniform", &uniform),
        ("pd", &pd.allocation),
        ("diba", &diba.allocation()),
        ("oracle", &oracle.allocation),
    ] {
        assert!(p.is_feasible(alloc, Watts(1e-3)), "{name} infeasible");
    }
    let u_uni = p.total_utility(&uniform);
    assert!(p.total_utility(&pd.allocation) >= u_uni);
    assert!(diba.total_utility() >= u_uni);
    assert!(opt >= p.total_utility(&pd.allocation) - opt.abs() * 1e-9);
    assert!(opt >= diba.total_utility() - opt.abs() * 1e-9);
}

#[test]
fn diba_converges_on_every_connected_topology() {
    let n = 48;
    let p = problem(n, 170.0, 2);
    let opt = p.total_utility(&centralized::solve(&p).allocation);
    let mut rng = StdRng::seed_from_u64(9);
    let graphs = vec![
        ("ring", Graph::ring(n)),
        ("chorded", Graph::ring_with_chords(n, 12)),
        ("grid", Graph::grid(6, 8)),
        ("complete", Graph::complete(n)),
        (
            "er",
            Graph::erdos_renyi_connected(n, 3 * n, &mut rng, 100).unwrap(),
        ),
    ];
    for (name, g) in graphs {
        let mut run = DibaRun::new(p.clone(), g, DibaConfig::default()).unwrap();
        let rounds = run.run_until_within(opt, 0.01, 30_000);
        assert!(rounds.is_some(), "{name} did not converge");
    }
}

#[test]
fn agents_and_synchronous_reference_agree() {
    // The message-passing deployment (the default runtime: agents on the
    // epoll reactor, exchanging wire frames with graph neighbors only) must
    // land at the same equilibrium as the synchronous reference.
    let n = 20;
    let p = problem(n, 170.0, 3);
    let mut sync = DibaRun::new(p.clone(), Graph::ring(n), DibaConfig::default()).unwrap();
    sync.run(3_000);

    let agents = run_cluster(
        p.clone(),
        Graph::ring(n),
        DibaConfig::default(),
        &RuntimeConfig::default(),
    )
    .unwrap();
    assert!(agents.converged, "no convergence quorum");

    // Both sides compute the same round; only the continuation schedule
    // differs (the engine also halves its boost when the global max |Δp|
    // stalls, which no agent sees), and with no continuation they agree
    // bit for bit (`crates/runtime/tests/equivalence.rs`). The two
    // schedules settle at slightly different barrier points on a utility
    // landscape that is flat near the optimum, so allocations agree
    // loosely (worst 6.7 W here, 10.1 W while the engine also read
    // neighbours' post-receive residuals) while utilities agree tightly
    // below (2.6e-4).
    let s = sync.allocation();
    let worst = agents.allocation.max_abs_diff(&s);
    assert!(worst < Watts(12.0), "allocations diverge by {worst}");
    let utility = p.total_utility(&agents.allocation);
    assert!((utility - sync.total_utility()).abs() < 0.02 * sync.total_utility());
}

#[test]
fn decentralized_communication_beats_the_coordinator_at_scale() {
    // Table 4.2's ordering: at moderate size the total communication of a
    // converged DiBA run undercuts primal-dual's coordinator rounds.
    let n = 200;
    let p = problem(n, 172.0, 20);
    let opt = p.total_utility(&centralized::solve(&p).allocation);
    let pd = primal_dual::solve(&p, &PrimalDualConfig::default());
    let mut diba = DibaRun::new(p.clone(), Graph::ring(n), DibaConfig::default()).unwrap();
    let rounds = diba.run_until_within(opt, 0.01, 30_000).expect("converges");

    let comm = CommModel::paper();
    let mut rng = StdRng::seed_from_u64(5);
    let pd_time = comm.primal_dual_total(n, pd.iterations, &mut rng);
    let diba_time = comm.diba_total(2, rounds);
    assert!(
        diba_time < pd_time,
        "DiBA {diba_time} should undercut PD {pd_time} at n={n}"
    );
}

#[test]
fn dynamic_sim_tracks_schedule_and_churn_together() {
    let n = 40;
    let cluster = ClusterBuilder::new(n).seed(6).build();
    let schedule = BudgetSchedule::steps(vec![
        (Seconds(0.0), Watts(176.0 * n as f64)),
        (Seconds(10.0), Watts(168.0 * n as f64)),
        (Seconds(20.0), Watts(182.0 * n as f64)),
    ]);
    let p =
        PowerBudgetProblem::new(cluster.utilities(), schedule.budget_at(Seconds::ZERO)).unwrap();
    let mut run = DibaRun::new(p, Graph::ring(n), DibaConfig::default()).unwrap();
    let config = SimConfig {
        duration: Seconds(30.0),
        sample_interval: Seconds(1.0),
        rounds_per_sample: 150,
        churn_mean: Some(Seconds(8.0)),
        phase_mean: None,
    };
    let series = simulate(cluster, &mut run, &schedule, &config).unwrap();
    // At most the samples right after the cut may transiently exceed.
    let violations = series
        .points()
        .iter()
        .filter(|pt| pt.total_power > pt.budget + Watts(1e-6))
        .count();
    assert!(violations <= 1, "{violations} violations");
    assert!(
        series.mean_optimality() > 0.9,
        "{}",
        series.mean_optimality()
    );
}

#[test]
fn replay_rejects_a_repeated_servers_header_with_exit_2() {
    // Events are checked against the first size, so a second `servers`
    // line is an input error: exit 2 naming the line, not a panic.
    let dir = std::env::temp_dir().join("dpc-e2e-replay-servers");
    std::fs::create_dir_all(&dir).unwrap();
    let scenario = dir.join("resized.txt");
    std::fs::write(
        &scenario,
        "servers 10\nbudget 1700\nat 1.0 drain node 9\nservers 5\n",
    )
    .unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_dpc"))
        .args(["replay", "--scenario", scenario.to_str().unwrap()])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("line 4"), "{stderr}");
}

#[test]
fn step_response_cut_recovers_within_tens_of_rounds() {
    let cluster = ClusterBuilder::new(60).seed(8).build();
    let r = step_response(
        cluster.utilities(),
        Graph::ring(60),
        Watts(190.0 * 60.0),
        Watts(170.0 * 60.0),
        600,
        Seconds(420e-6),
    )
    .unwrap();
    let rounds = r.rounds_to_feasible.expect("recovers");
    assert!(rounds < 100, "cut took {rounds} rounds");
    // Wall-clock: tens of milliseconds on the paper's network — the
    // "fast" in fast decentralized power capping.
    let wall_ms = rounds as f64 * 0.42;
    assert!(wall_ms < 50.0, "{wall_ms} ms");
}

#[test]
fn total_power_pipeline_from_meter_to_caps() {
    // Chapter 3 end to end: meter budget → computing/cooling split →
    // knapsack caps → feasible, better-than-uniform allocation.
    let model = ThermalModel::paper_cluster();
    let map = uniform_rack_map(model.racks());
    let split =
        self_consistent_partition(Watts::from_megawatts(0.66), &model, &map, Watts(50.0), 500)
            .unwrap();
    assert!(split.cooling_fraction() > 0.2 && split.cooling_fraction() < 0.4);

    // Budget the computing share over a small chapter-3 population.
    let n = 400;
    let per_server = split.computing / 3200.0; // paper cluster size
    let truths: Vec<_> = (0..n)
        .map(|i| {
            dpc::models::throughput::CurveParams::for_memory_boundedness((i % 10) as f64 / 10.0)
                .utility(Watts(125.0), Watts(165.0))
        })
        .collect();
    let budget = per_server * n as f64;
    let problem = PowerBudgetProblem::new(truths, budget).unwrap();
    let levels = knapsack::chapter3_levels();
    let dp = knapsack::solve(&problem, &levels, Watts(1.0)).unwrap();
    assert!(dp.allocation.total() <= budget);
    let snp_dp = snp_arithmetic(&problem.anps(&dp.allocation));
    let snp_uni = snp_arithmetic(&problem.anps(&baselines::uniform(&problem)));
    assert!(
        snp_dp >= snp_uni - 1e-9,
        "knapsack {snp_dp} vs uniform {snp_uni}"
    );
}

#[test]
fn agent_failure_does_not_break_budget_or_liveness() {
    let n = 24;
    let p = problem(n, 172.0, 10);
    let budget = p.budget();
    // Two silent crashes mid-run, nodes sitting one round in five out,
    // seeded: the whole test is deterministic.
    let plan = FaultPlan {
        activation: 0.8,
        ..FaultPlan::none()
    }
    .and(800, 3, NodeFaultKind::Crash)
    .and(800, 17, NodeFaultKind::Crash);
    let graph = Graph::ring_with_chords(n, 6);
    let mut agents = Lockstep::for_problem(&p, &graph, DibaConfig::default(), plan).unwrap();
    agents.run(1_600);
    assert_eq!(agents.live_count(), n - 2);
    assert!(agents.total_power() <= budget + Watts(1e-6));
    assert!(agents.conservation_drift() < 1e-6);
    // Survivors still re-optimize: cut the budget and watch them comply.
    agents.set_budget(budget - Watts(300.0));
    agents.run(1_200);
    assert!(agents.total_power() <= budget - Watts(300.0) + Watts(1e-6));
    assert!(agents.conservation_drift() < 1e-6);
}
