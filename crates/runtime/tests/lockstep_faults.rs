//! The fault model on the deployed agents: [`Lockstep`] under a
//! [`FaultPlan`].
//!
//! A plan that cannot perturb the run is [`run_lockstep`], bit for bit,
//! and a plan perturbs nothing before its first fault. Under any mix of
//! faults the ledger `Σe + Σpending + Σin-flight + stranded = Σp − P` holds
//! after every round, `Σp ≤ P` does too, and attaching the recorder
//! changes no bit of it. And recovery works: a crash is detected and every
//! survivor books its share of the dead node, a restart is admitted, a
//! departure is re-absorbed at once — also with entries still on the way
//! to or from the dead node.

use dpc_alg::centralized;
use dpc_alg::diba::DibaConfig;
use dpc_alg::faults::{FaultPlan, LinkFaults, NodeFaultKind, NodeHealth};
use dpc_alg::problem::PowerBudgetProblem;
use dpc_alg::telemetry::{FaultEventKind, TelemetryConfig};
use dpc_models::units::Watts;
use dpc_models::workload::ClusterBuilder;
use dpc_runtime::cluster::{node_specs, RuntimeConfig};
use dpc_runtime::lockstep::{run_lockstep, Lockstep};
use dpc_runtime::node::NodeReport;
use dpc_topology::Graph;
use proptest::prelude::*;

fn problem(n: usize, per_server: f64, seed: u64) -> PowerBudgetProblem {
    let c = ClusterBuilder::new(n).seed(seed).build();
    PowerBudgetProblem::new(c.utilities(), Watts(per_server * n as f64)).unwrap()
}

/// `rate` of the entries late by up to four rounds.
fn late_link(rate: f64) -> LinkFaults {
    LinkFaults {
        reorder: rate,
        reorder_max: 4,
    }
}

/// `plan` with every node sitting one round in five out.
fn stalling(plan: FaultPlan) -> FaultPlan {
    FaultPlan {
        activation: 0.8,
        ..plan
    }
}

fn agents(problem: &PowerBudgetProblem, graph: &Graph, plan: FaultPlan) -> Lockstep {
    Lockstep::for_problem(problem, graph, DibaConfig::default(), plan).unwrap()
}

fn optimal(p: &PowerBudgetProblem) -> f64 {
    p.total_utility(&centralized::solve(p).allocation)
}

/// Oracle utility over the surviving nodes only, at the full budget.
fn survivor_optimal(p: &PowerBudgetProblem, dead: &[usize]) -> f64 {
    let utilities: Vec<_> = p
        .utilities()
        .iter()
        .enumerate()
        .filter(|(i, _)| !dead.contains(i))
        .map(|(_, u)| *u)
        .collect();
    optimal(&PowerBudgetProblem::new(utilities, p.budget()).unwrap())
}

/// Every node's `(p, e)` as bit patterns.
fn state_bits(run: &Lockstep) -> Vec<(u64, u64)> {
    let states = run.node_states().into_iter();
    states.map(|(p, e)| (p.to_bits(), e.to_bits())).collect()
}

/// Every field of a node report, floats as bit patterns.
fn report_bits(r: &NodeReport) -> Vec<u64> {
    let mut bits = vec![
        r.node as u64,
        r.p.to_bits(),
        r.e.to_bits(),
        r.rounds as u64,
        u64::from(r.converged),
        r.msgs_sent,
        r.msgs_received,
        r.heartbeats_sent,
        r.pruned.len() as u64,
    ];
    bits.extend(r.pruned.iter().map(|&peer| peer as u64));
    bits.push(r.trace.len() as u64);
    for s in &r.trace {
        bits.extend([s.round as u64, s.p.to_bits(), s.e.to_bits(), s.msgs_sent]);
    }
    bits
}

/// One round, then the ledger and the budget checked.
fn step_checked(run: &mut Lockstep, budget: Watts) {
    run.step();
    let drift = run.conservation_drift();
    assert!(drift < 1e-6, "drift {drift} W at round {}", run.round());
    assert!(
        run.total_power() <= budget + Watts(1e-6),
        "budget violated at round {}",
        run.round()
    );
}

/// The recorder cases: late entries, stalls, and a crash at round 60
/// restarted at round 160.
fn recorded_case(n: usize, seed: u64, late: f64) -> (PowerBudgetProblem, Graph, FaultPlan) {
    let victim = 1 + (seed as usize % (n - 1));
    let plan = stalling(FaultPlan::with_link(seed, late_link(late)))
        .and(60, victim, NodeFaultKind::Crash)
        .and(160, victim, NodeFaultKind::Restart);
    (problem(n, 170.0, seed), Graph::ring_with_chords(n, 2), plan)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A plan that cannot perturb the run — zero-rate links under any seed
    /// and delay bound, an empty schedule, every node acting — is
    /// `run_lockstep`, quorum and drain included, in every bit of every
    /// report, trace samples too.
    #[test]
    fn a_benign_plan_is_run_lockstep_bit_for_bit(
        seed in 0u64..1_000,
        n in 6usize..12,
        reorder_max in 1usize..8,
    ) {
        let p = problem(n, 170.0, seed);
        let graph = Graph::ring_with_chords(n, 2);
        let rt = RuntimeConfig {
            sample_every: 50,
            ..RuntimeConfig::default()
        };
        let specs = node_specs(&p, &graph, DibaConfig::default(), &rt).unwrap();
        let plain: Vec<_> = run_lockstep(specs.clone(), &graph).iter().map(report_bits).collect();
        let link = LinkFaults { reorder_max, ..LinkFaults::none() };
        let plan = FaultPlan::with_link(seed, link);
        let mut planned = Lockstep::new(specs, &graph, plan);
        planned.run(30_000);
        let planned: Vec<_> = planned.into_reports().iter().map(report_bits).collect();
        prop_assert_eq!(plain, planned);
    }

    /// A plan perturbs nothing before its first fault. With a crash in
    /// round k + 1 and zero-rate links under a random seed, rounds 1 … k
    /// are the plain run's, state for state, and round k + 1 is not. With
    /// late entries, adding that crash leaves rounds 1 … k of the late run
    /// alone: the schedule draws nothing from the plan's RNG.
    #[test]
    fn rounds_before_the_first_fault_are_the_plain_runs(
        seed in 0u64..1_000,
        n in 6usize..16,
        k in 1usize..150,
        late in 0.05f64..0.2,
    ) {
        let p = problem(n, 170.0, seed);
        let graph = Graph::ring_with_chords(n, 2);
        let crash = |plan: FaultPlan| plan.and(k + 1, seed as usize % n, NodeFaultKind::Crash);
        let delayed = FaultPlan::with_link(seed, late_link(late));
        let legs = [
            (FaultPlan::none(), crash(FaultPlan::with_link(seed, LinkFaults::none()))),
            (delayed.clone(), crash(delayed)),
        ];
        for (plain, faulted) in legs {
            let mut plain = agents(&p, &graph, plain);
            let mut faulted = agents(&p, &graph, faulted);
            for round in 1..=k {
                plain.step();
                faulted.step();
                prop_assert!(state_bits(&plain) == state_bits(&faulted), "round {} of {}", round, k);
            }
            plain.step();
            faulted.step();
            prop_assert!(
                state_bits(&plain) != state_bits(&faulted),
                "the crash in round {} changed nothing",
                k + 1
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Up to 20 % of the entries late, stalls, a crash, a restart and a
    /// departure (at times of the crashed node itself): the ledger holds to
    /// 1 µW and `Σp ≤ P` after every round.
    #[test]
    fn the_ledger_holds_every_round_under_every_fault(
        seed in 0u64..1_000,
        n in 8usize..24,
        late in 0.0f64..0.2,
        activation in 0.5f64..1.0,
        crash_at in 1usize..80,
        restart_after in 10usize..120,
        depart_at in 1usize..200,
        leaver in 0usize..24,
    ) {
        let p = problem(n, 170.0, seed);
        let victim = 1 + seed as usize % (n - 1);
        let plan = FaultPlan {
            activation,
            ..FaultPlan::with_link(seed, late_link(late))
        }
        .and(crash_at, victim, NodeFaultKind::Crash)
        .and(crash_at + restart_after, victim, NodeFaultKind::Restart)
        .and(depart_at, leaver % n, NodeFaultKind::Depart);
        let mut run = agents(&p, &Graph::ring_with_chords(n, 2), plan);
        for _ in 0..300 {
            run.step();
            let drift = run.conservation_drift();
            prop_assert!(drift < 1e-6, "drift {} W at round {}", drift, run.round());
            prop_assert!(
                run.total_power() <= p.budget() + Watts(1e-6),
                "Σp over P at round {}",
                run.round()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Late entries, stalls and a crash/restart, with and without the
    /// recorder: the same bits every round, ledger included.
    #[test]
    fn faulted_trajectory_is_unchanged_by_telemetry(
        seed in 0u64..1_000,
        n in 8usize..32,
        late in 0.0f64..0.3,
    ) {
        let (p, graph, plan) = recorded_case(n, seed, late);
        let mut silent = agents(&p, &graph, plan.clone());
        let mut watched = agents(&p, &graph, plan);
        watched.set_telemetry(TelemetryConfig::on());
        for round in 0..260 {
            silent.step();
            watched.step();
            prop_assert!(state_bits(&silent) == state_bits(&watched), "diverged at round {}", round);
        }
        prop_assert_eq!(silent.pending_total().to_bits(), watched.pending_total().to_bits());
        prop_assert_eq!(silent.stranded().to_bits(), watched.stranded().to_bits());
        prop_assert_eq!(
            silent.conservation_drift().to_bits(),
            watched.conservation_drift().to_bits()
        );
    }

    /// Every record captured under faults conserves mass on its own, so a
    /// trace's pending and stranded columns are the recovery ledger.
    #[test]
    fn recorded_ledger_conserves_mass_under_faults(
        seed in 0u64..1_000,
        n in 8usize..32,
        late in 0.0f64..0.3,
    ) {
        let (p, graph, plan) = recorded_case(n, seed, late);
        let mut run = agents(&p, &graph, plan);
        run.set_telemetry(TelemetryConfig::on());
        run.run(260);
        let t = run.telemetry().unwrap();
        prop_assert_eq!(t.rounds_recorded(), 260);
        prop_assert!(t.events_recorded() >= 2, "crash + restart must be recorded");
        for r in t.rounds() {
            prop_assert!(
                r.conservation_drift() < 1e-6,
                "round {} drifted by {} W (pending {} W, stranded {} W)",
                r.round, r.conservation_drift(), r.pending, r.stranded
            );
        }
        let last = t.latest().unwrap();
        prop_assert_eq!(last.pending, run.pending_total());
        prop_assert_eq!(last.stranded, run.stranded());
    }
}

#[test]
fn budget_never_violated_despite_network_chaos() {
    let p = problem(40, 170.0, 3);
    let link = LinkFaults {
        reorder: 0.5,
        reorder_max: 8,
    };
    let plan = FaultPlan {
        activation: 0.5,
        ..FaultPlan::with_link(9, link)
    };
    let mut run = agents(&p, &Graph::ring(40), plan);
    for _ in 0..800 {
        run.step();
        assert!(run.total_power() <= p.budget() + Watts(1e-6));
    }
}

#[test]
fn still_converges_to_near_optimal() {
    let p = problem(60, 170.0, 3);
    let mut run = agents(&p, &Graph::ring(60), stalling(FaultPlan::none()));
    let rounds = run.run_until_within(optimal(&p), 0.015, 40_000);
    assert!(rounds.is_some(), "stalling agents failed to converge");
}

#[test]
fn crash_is_detected_shares_booked_and_budget_reclaimed() {
    let p = problem(40, 170.0, 3);
    let victim = 7;
    let plan =
        stalling(FaultPlan::with_link(5, late_link(0.1))).and(100, victim, NodeFaultKind::Crash);
    let mut run = agents(&p, &Graph::ring_with_chords(40, 3), plan);
    for _ in 0..12_000 {
        step_checked(&mut run, p.budget());
    }
    assert_eq!(run.health()[victim], NodeHealth::Crashed);
    assert_eq!(run.pending_total(), 0.0, "a share was never booked");
    assert_eq!(run.stranded(), 0.0, "every neighbour was alive to book");
    assert!(!run.partitioned(), "chorded ring survives one crash");
    // The freed budget is re-absorbed: survivors approach the oracle
    // utility of the 39-node problem at the full budget.
    let opt = survivor_optimal(&p, &[victim]);
    let gap = (opt - run.total_utility()).abs() / opt;
    assert!(gap < 0.03, "survivors did not re-absorb budget: gap {gap}");
}

#[test]
fn crashed_node_restarts_and_cluster_reconverges() {
    let p = problem(30, 170.0, 3);
    let victim = 4;
    let plan = stalling(FaultPlan::with_link(5, LinkFaults::none()))
        .and(100, victim, NodeFaultKind::Crash)
        .and(2_000, victim, NodeFaultKind::Restart);
    let mut run = agents(&p, &Graph::ring(30), plan);
    run.run(1_500);
    assert_eq!(run.health()[victim], NodeHealth::Crashed);
    assert_eq!(run.node_states()[victim].0, 0.0);
    run.run(10_000);
    assert_eq!(
        run.health()[victim],
        NodeHealth::Alive,
        "restart never booted"
    );
    assert!(run.node_states()[victim].0 >= p.utility(victim).p_min().0);
    let drift = run.conservation_drift();
    assert!(drift < 1e-6, "drift {drift}");
    // Back to the full-cluster optimum.
    assert!(
        run.run_until_within(optimal(&p), 0.02, 40_000).is_some(),
        "cluster failed to re-converge after restart"
    );
}

#[test]
fn departure_reabsorbs_budget_immediately() {
    let p = problem(30, 170.0, 3);
    let leaver = 12;
    let plan = stalling(FaultPlan::none()).and(200, leaver, NodeFaultKind::Depart);
    let mut run = agents(&p, &Graph::ring(30), plan);
    for _ in 0..300 {
        step_checked(&mut run, p.budget());
    }
    assert_eq!(run.health()[leaver], NodeHealth::Departed);
    assert_eq!(
        run.pending_total(),
        0.0,
        "a departure's shares are booked at once"
    );
    assert!(
        !run.partitioned(),
        "ring minus one node is a path: connected"
    );
    let opt = survivor_optimal(&p, &[leaver]);
    assert!(
        run.run_until_within(opt, 0.02, 40_000).is_some(),
        "survivors failed to absorb the departed budget"
    );
}

#[test]
fn hub_departure_flags_partition() {
    let p = problem(8, 170.0, 3);
    let plan = stalling(FaultPlan::none()).and(50, 0, NodeFaultKind::Depart);
    let mut run = agents(&p, &Graph::star(8), plan);
    run.run(60);
    assert!(run.partitioned(), "losing the star hub must partition");
    // Feasibility still holds per component.
    assert!(run.conservation_drift() < 1e-6);
}

#[test]
#[should_panic(expected = "invalid fault plan")]
fn rejects_out_of_range_fault_schedule() {
    let p = problem(4, 170.0, 1);
    let plan = FaultPlan::none().and(10, 99, NodeFaultKind::Crash);
    agents(&p, &Graph::ring(4), plan);
}

#[test]
#[should_panic(expected = "never exit")]
fn faults_are_refused_on_agents_that_can_exit() {
    let p = problem(4, 170.0, 1);
    let graph = Graph::ring(4);
    let specs = node_specs(&p, &graph, DibaConfig::default(), &RuntimeConfig::default()).unwrap();
    Lockstep::new(specs, &graph, stalling(FaultPlan::none()));
}

/// Agents of `p` on `graph` that prune a silent peer after two rounds, so
/// a crash is booked while its late entries are still on the way.
fn quick_detectors(p: &PowerBudgetProblem, graph: &Graph, plan: FaultPlan) -> Lockstep {
    let rt = RuntimeConfig {
        detect_after: 2,
        stable_rounds: usize::MAX,
        max_rounds: usize::MAX,
        ..RuntimeConfig::default()
    };
    let specs = node_specs(p, graph, DibaConfig::default(), &rt).unwrap();
    Lockstep::new(specs, graph, plan)
}

/// Steps `rounds` rounds, checking the ledger to 1 nW, `Σp ≤ P` and
/// `e < 0` on every live agent after each.
fn run_exact(run: &mut Lockstep, budget: Watts, rounds: usize) {
    for _ in 0..rounds {
        run.step();
        let round = run.round();
        let drift = run.conservation_drift();
        assert!(drift < 1e-9, "drift {drift} W at round {round}");
        assert!(
            run.total_power() <= budget + Watts(1e-6),
            "Σp over P at round {round}"
        );
        let health = run.health();
        for (i, &(_, e)) in run.node_states().iter().enumerate() {
            let live = health[i] == NodeHealth::Alive;
            assert!(!live || e < 0.0, "agent {i} at e = {e} in round {round}");
        }
    }
}

/// Pitfall (a): entries up to eight rounds late, and neighbours that book
/// a crashed peer's share two silent rounds after the crash, so the dead
/// peer's entries keep arriving after its share was booked. The share
/// already counts them; crediting them again would show in the ledger.
#[test]
fn a_late_entry_from_a_crashed_peer_is_not_credited_twice() {
    let p = problem(6, 170.0, 4);
    let graph = Graph::ring(6);
    for seed in 0..20 {
        let link = LinkFaults {
            reorder: 0.6,
            reorder_max: 8,
        };
        let plan = FaultPlan::with_link(seed, link).and(10, 2, NodeFaultKind::Crash);
        let mut run = quick_detectors(&p, &graph, plan);
        run_exact(&mut run, p.budget(), 60);
        assert_eq!(
            run.pending_total(),
            0.0,
            "seed {seed}: a share was never booked"
        );
    }
}

/// Pitfall (c): entries still queued to a departing agent are not handed
/// back by the network. Each sender's share of the departed peer counts
/// what it sent and the peer never read, and every neighbour books its
/// share in the departure's round, under heavy late delivery.
#[test]
fn entries_queued_to_a_departing_agent_return_in_the_senders_share() {
    let p = problem(6, 170.0, 4);
    let graph = Graph::ring_with_chords(6, 2);
    for seed in 0..20 {
        let link = LinkFaults {
            reorder: 0.6,
            reorder_max: 8,
        };
        let plan = FaultPlan::with_link(seed, link).and(10, 3, NodeFaultKind::Depart);
        let mut run = quick_detectors(&p, &graph, plan);
        run_exact(&mut run, p.budget(), 10);
        assert_eq!(run.health()[3], NodeHealth::Departed);
        assert_eq!(
            run.pending_total(),
            0.0,
            "seed {seed}: shares booked at once"
        );
        run_exact(&mut run, p.budget(), 40);
    }
}

/// Pitfall (b): a share is a base share plus a net flow, so it can be a
/// debt. On a 4-ring whose node 3 has left, node 2's crash leaves one
/// neighbour owing it: that debt is booked at the crash's notice (a
/// settle event with positive mass), and `e < 0` and `Σp ≤ P` hold in
/// every round around it.
#[test]
fn a_debt_share_is_booked_at_the_notice_keeping_e_negative() {
    let p = problem(4, 170.0, 11);
    let plan = FaultPlan::none()
        .and(1, 3, NodeFaultKind::Depart)
        .and(6, 2, NodeFaultKind::Crash);
    let mut run = quick_detectors(&p, &Graph::ring(4), plan);
    run.set_telemetry(TelemetryConfig::on());
    run_exact(&mut run, p.budget(), 30);
    let t = run.telemetry().unwrap();
    let debt = t
        .events()
        .find(|e| e.kind == FaultEventKind::Settle && e.mass > 0.0)
        .expect("a neighbour of node 2 owed it");
    assert_eq!((debt.node, debt.round), (2, 6), "booked at the notice");
    assert_eq!(run.pending_total(), 0.0);
}
