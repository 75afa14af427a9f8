//! Transport-equivalence regression tests — the headline invariant.
//!
//! The same seeded problem must converge to the same allocation whether it
//! runs on the serial lockstep executor, the epoll reactor in one process,
//! or one reactor node shard per agent over real TCP loopback sockets (the
//! `dpc node` deployment). The runtime drivers execute bit-identical logic
//! over exact round-aligned delivery, so `lockstep` is the fixed point and
//! every reactor allocation must agree with it *bitwise*.
//!
//! `DibaRun`, the in-process round engine every solver workload times and
//! the simulator drives, computes the agents' round itself: neighbours
//! seen at the residual they sent, and the agent's fold order. The one
//! thing it does differently is the continuation schedule — it also halves
//! the boost when the global max |Δp| stalls, which no agent can see — so
//! with the continuation off (`eta_boost = 1`) `DibaRun` after k rounds is
//! the lockstep agents after k rounds, bit for bit. That is the simulator
//! leg every deployment below is held to.

use dpc_alg::diba::{DibaConfig, DibaRun};
use dpc_alg::exec::Threads;
use dpc_alg::problem::PowerBudgetProblem;
use dpc_models::units::Watts;
use dpc_models::workload::ClusterBuilder;
use dpc_runtime::cluster::{
    node_specs, run_cluster, ClusterOutcome, RuntimeConfig, ShardCount, TransportKind,
};
use dpc_runtime::lockstep::run_lockstep;
use dpc_runtime::node::{NodeReport, NodeSpec};
use dpc_runtime::reactor::{host_node, run_reactor_cluster};
use dpc_topology::Graph;
use proptest::prelude::*;
use std::net::TcpListener;

fn seeded_problem(n: usize, seed: u64, budget: f64) -> PowerBudgetProblem {
    let cluster = ClusterBuilder::new(n).seed(seed).build();
    PowerBudgetProblem::new(cluster.utilities(), Watts(budget)).unwrap()
}

fn runtime_config(transport: TransportKind) -> RuntimeConfig {
    RuntimeConfig {
        transport,
        ..RuntimeConfig::default()
    }
}

/// `(p, e)` as bit patterns, so `-0.0` and a one-ulp drift both differ.
fn state_bits(states: Vec<(f64, f64)>) -> Vec<(u64, u64)> {
    states
        .into_iter()
        .map(|(p, e)| (p.to_bits(), e.to_bits()))
        .collect()
}

/// The simulator leg: with the continuation off, `DibaRun` after `k`
/// rounds holds the lockstep agents' `(p, e)` after `k` rounds (quorum
/// off), bit for bit.
fn engine_is_the_agents(problem: &PowerBudgetProblem, graph: &Graph, k: usize) -> bool {
    let config = DibaConfig {
        eta_boost: 1.0,
        ..DibaConfig::default()
    };
    let rt = RuntimeConfig {
        stable_rounds: usize::MAX,
        max_rounds: k,
        ..runtime_config(TransportKind::Lockstep)
    };
    let reports = run_lockstep(node_specs(problem, graph, config, &rt).unwrap(), graph);
    let mut engine = DibaRun::new(problem.clone(), graph.clone(), config).unwrap();
    engine.run(k);
    state_bits(reports.iter().map(|r| (r.p, r.e)).collect()) == state_bits(engine.node_states())
}

fn check_outcome(outcome: &ClusterOutcome, problem: &PowerBudgetProblem, drift_tol: f64) {
    assert!(
        outcome.converged,
        "cluster did not reach convergence quorum"
    );
    assert!(
        outcome.drift <= drift_tol,
        "residual invariant drifted by {} W (tolerance {drift_tol})",
        outcome.drift
    );
    assert!(
        problem.is_feasible(&outcome.allocation, Watts(1e-3)),
        "converged allocation infeasible"
    );
}

/// The paper's deployment shape inside one test process: one loopback
/// listener and one [`host_node`] entry point per agent, each running its
/// shard loop on its own thread exactly as a `dpc node` process runs it
/// on its main thread, every graph edge a real TCP stream. `tweak` edits
/// the launch specs first (a fault test shortens one node's life).
fn host_node_per_agent(
    problem: &PowerBudgetProblem,
    graph: &Graph,
    tweak: impl FnOnce(&mut [NodeSpec]),
) -> ClusterOutcome {
    let rt = RuntimeConfig::default();
    let mut specs = node_specs(problem, graph, DibaConfig::default(), &rt).unwrap();
    tweak(&mut specs);
    let listeners: Vec<TcpListener> = (0..graph.len())
        .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
        .collect();
    let addrs: Vec<_> = listeners.iter().map(|l| l.local_addr().unwrap()).collect();
    let reports = std::thread::scope(|scope| {
        let handles: Vec<_> = specs
            .into_iter()
            .zip(listeners)
            .map(|(spec, listener)| {
                let dial_addrs: Vec<_> = graph
                    .neighbors(spec.id)
                    .iter()
                    .filter(|&&peer| peer > spec.id)
                    .map(|&peer| (peer, addrs[peer]))
                    .collect();
                scope.spawn(move || host_node(spec, graph, listener, &dial_addrs, &rt))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("node thread").expect("node shard"))
            .collect()
    });
    ClusterOutcome::from_reports(reports, problem.budget(), 0)
}

#[test]
fn lockstep_matches_simulator_and_reproduces_exactly() {
    let n = 8;
    let problem = seeded_problem(n, 42, 170.0 * n as f64);
    let graph = Graph::ring(n);
    let rt = runtime_config(TransportKind::Lockstep);

    let first = run_cluster(problem.clone(), graph.clone(), DibaConfig::default(), &rt).unwrap();
    let second = run_cluster(problem.clone(), graph.clone(), DibaConfig::default(), &rt).unwrap();
    check_outcome(&first, &problem, 1e-6);

    // Bitwise reproducibility: two invocations of the same seeded problem
    // take identical trajectories (the serial schedule leaves no room for
    // scheduling to leak into the math).
    let alloc_1: Vec<f64> = first.allocation.powers().iter().map(|w| w.0).collect();
    let alloc_2: Vec<f64> = second.allocation.powers().iter().map(|w| w.0).collect();
    assert_eq!(alloc_1, alloc_2, "lockstep run is not reproducible");
    assert_eq!(first.rounds, second.rounds);

    assert!(
        engine_is_the_agents(&problem, &graph, first.rounds),
        "lockstep agents and the engine differ after {} rounds",
        first.rounds
    );
}

#[test]
fn headline_three_way_equivalence_lockstep_tcp_simulator() {
    let n = 8;
    let problem = seeded_problem(n, 7, 170.0 * n as f64);
    let graph = Graph::ring(n);

    let lockstep = run_cluster(
        problem.clone(),
        graph.clone(),
        DibaConfig::default(),
        &runtime_config(TransportKind::Lockstep),
    )
    .unwrap();
    let tcp = host_node_per_agent(&problem, &graph, |_| {});
    check_outcome(&lockstep, &problem, 1e-6);
    check_outcome(&tcp, &problem, 1e-6);

    // The two drivers run the identical program over exact round-aligned
    // delivery, so the trajectories — and thus the allocations — are
    // bitwise equal.
    let lockstep_alloc: Vec<f64> = lockstep.allocation.powers().iter().map(|w| w.0).collect();
    let tcp_alloc: Vec<f64> = tcp.allocation.powers().iter().map(|w| w.0).collect();
    assert_eq!(
        lockstep_alloc, tcp_alloc,
        "lockstep and node-shard-per-agent TCP allocations differ"
    );
    assert_eq!(lockstep.rounds, tcp.rounds);

    assert!(
        engine_is_the_agents(&problem, &graph, lockstep.rounds),
        "lockstep agents and the engine differ after {} rounds",
        lockstep.rounds
    );
}

fn reactor_config(shards: usize) -> RuntimeConfig {
    RuntimeConfig {
        transport: TransportKind::Reactor,
        shards: ShardCount::Fixed(shards),
        ..RuntimeConfig::default()
    }
}

fn allocation_of(outcome: &ClusterOutcome) -> Vec<f64> {
    outcome.allocation.powers().iter().map(|w| w.0).collect()
}

#[test]
fn reactor_matches_lockstep_bitwise() {
    let n = 8;
    let problem = seeded_problem(n, 42, 170.0 * n as f64);
    let graph = Graph::ring(n);

    let lockstep = run_cluster(
        problem.clone(),
        graph.clone(),
        DibaConfig::default(),
        &runtime_config(TransportKind::Lockstep),
    )
    .unwrap();
    // Three shards on an 8-ring force cross-shard edges, so real epoll
    // sockets carry part of the mesh.
    let reactor = run_cluster(
        problem.clone(),
        graph.clone(),
        DibaConfig::default(),
        &reactor_config(3),
    )
    .unwrap();
    check_outcome(&lockstep, &problem, 1e-6);
    check_outcome(&reactor, &problem, 1e-6);

    // Both drivers execute the identical per-round program over
    // round-aligned FIFO delivery: the trajectories agree bitwise.
    assert_eq!(
        allocation_of(&lockstep),
        allocation_of(&reactor),
        "reactor substrate diverged from the lockstep reference"
    );
    assert_eq!(lockstep.rounds, reactor.rounds);
    assert_eq!(lockstep.msgs_sent, reactor.msgs_sent);
}

#[test]
fn reactor_allocation_is_invariant_to_shard_count() {
    let n = 12;
    let problem = seeded_problem(n, 9, 168.0 * n as f64);
    let graph = Graph::ring_with_chords(n, 2);

    let mut baseline: Option<Vec<f64>> = None;
    for shards in [1, 2, 4] {
        let outcome = run_cluster(
            problem.clone(),
            graph.clone(),
            DibaConfig::default(),
            &reactor_config(shards),
        )
        .unwrap();
        check_outcome(&outcome, &problem, 1e-6);
        let alloc = allocation_of(&outcome);
        match &baseline {
            None => baseline = Some(alloc),
            Some(base) => assert_eq!(
                base, &alloc,
                "reactor allocation changed between shard counts (shards={shards})"
            ),
        }
    }
}

/// Mid-size pin of the coalesced wire path: at N = 256 the four shards
/// exchange thousands of batch entries per round, in place inside a shard
/// and as coalesced batches on the carriers between shards, and the
/// allocation and the deterministic counters must still be bitwise the
/// serial lockstep reference.
#[test]
fn coalesced_reactor_matches_lockstep_at_n256() {
    let n = 256;
    let problem = seeded_problem(n, 11, 170.0 * n as f64);
    let graph = Graph::torus(16, 16).unwrap();

    let lockstep = run_cluster(
        problem.clone(),
        graph.clone(),
        DibaConfig::default(),
        &runtime_config(TransportKind::Lockstep),
    )
    .unwrap();
    let reactor = run_cluster(
        problem.clone(),
        graph.clone(),
        DibaConfig::default(),
        &reactor_config(4),
    )
    .unwrap();
    check_outcome(&lockstep, &problem, 1e-6);
    check_outcome(&reactor, &problem, 1e-6);
    assert_eq!(
        allocation_of(&lockstep),
        allocation_of(&reactor),
        "coalesced reactor diverged from the lockstep reference at N=256"
    );
    assert_eq!(lockstep.rounds, reactor.rounds);
    assert_eq!(lockstep.msgs_sent, reactor.msgs_sent);
    assert_eq!(lockstep.heartbeats, reactor.heartbeats);

    // The count is the whole process's, and the tests beside this one
    // bring a few dozen threads of their own — so the leak check lives at
    // a size where that cannot be mistaken for a thread per agent.
    let threads = reactor.peak_threads.expect("reactor reports peak threads");
    assert!(
        threads < n as u32 / 4,
        "reactor used {threads} threads for {n} agents — thread-per-node leak"
    );
}

/// The bench framing gate's comparison arm: with `coalesce` off every
/// entry is sealed into its own single-entry frame. Framing is a wire
/// packaging choice, so it must be invisible to the trajectory.
#[test]
fn per_message_framing_matches_coalesced_bitwise() {
    let n = 8;
    let problem = seeded_problem(n, 42, 170.0 * n as f64);
    let graph = Graph::ring(n);

    let coalesced = run_cluster(
        problem.clone(),
        graph.clone(),
        DibaConfig::default(),
        &reactor_config(3),
    )
    .unwrap();
    let per_message = run_cluster(
        problem.clone(),
        graph.clone(),
        DibaConfig::default(),
        &RuntimeConfig {
            coalesce: false,
            ..reactor_config(3)
        },
    )
    .unwrap();
    check_outcome(&per_message, &problem, 1e-6);
    assert_eq!(
        allocation_of(&coalesced),
        allocation_of(&per_message),
        "frame packaging changed the trajectory"
    );
    assert_eq!(coalesced.rounds, per_message.rounds);
    assert_eq!(coalesced.msgs_sent, per_message.msgs_sent);
}

/// `--shards auto` is a performance policy, not a semantic one: whatever
/// shard count it picks must produce the same allocation as any pinned
/// count (the shard-invariance test above covers the pinned side).
#[test]
fn auto_shard_count_picks_the_same_allocation_as_fixed() {
    let n = 24;
    let problem = seeded_problem(n, 13, 169.0 * n as f64);
    let graph = Graph::ring_with_chords(n, 3);

    let auto = run_cluster(
        problem.clone(),
        graph.clone(),
        DibaConfig::default(),
        &RuntimeConfig {
            transport: TransportKind::Reactor,
            shards: ShardCount::Auto,
            ..RuntimeConfig::default()
        },
    )
    .unwrap();
    let fixed = run_cluster(
        problem.clone(),
        graph.clone(),
        DibaConfig::default(),
        &reactor_config(2),
    )
    .unwrap();
    check_outcome(&auto, &problem, 1e-6);
    let picked = auto.shards_used.expect("reactor reports its shard count");
    assert!(picked >= 1);
    assert_eq!(
        allocation_of(&auto),
        allocation_of(&fixed),
        "auto-tuned shard count changed the allocation (picked {picked})"
    );
    assert_eq!(auto.rounds, fixed.rounds);
    assert_eq!(auto.msgs_sent, fixed.msgs_sent);
}

/// Every field of a node report, floats as bit patterns, so `-0.0` and
/// a one-ulp drift both count as a difference.
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

/// FNV-1a over every report's [`report_bits`], little-endian: one literal
/// that moves when any bit of any report does.
fn fingerprint(out: &ClusterOutcome) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in out
        .reports
        .iter()
        .flat_map(report_bits)
        .flat_map(u64::to_le_bytes)
    {
        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// One pinned deployment: the seed-0 problem on `graph`, run on every
/// listed driver (`None` is one node shard per agent over real sockets,
/// which takes no cluster config). Each must converge, hit the literal cluster counters
/// and the literal report fingerprint, and agree with the first driver in
/// every field of every node report.
fn assert_pinned(
    graph: &Graph,
    sample_every: usize,
    drivers: &[(&str, Option<RuntimeConfig>)],
    counters: (usize, u64, u64),
    pinned_fingerprint: u64,
) {
    let n = graph.len();
    let problem = seeded_problem(n, 0, 170.0 * n as f64);
    let mut reference: Option<Vec<Vec<u64>>> = None;
    for (driver, rt) in drivers {
        let out = match rt {
            Some(rt) => {
                let rt = RuntimeConfig {
                    sample_every,
                    ..*rt
                };
                run_cluster(problem.clone(), graph.clone(), DibaConfig::default(), &rt).unwrap()
            }
            None => host_node_per_agent(&problem, graph, |specs| {
                for spec in specs {
                    spec.sample_every = sample_every;
                }
            }),
        };
        assert!(out.converged, "n={n} {driver}");
        assert_eq!(
            (out.rounds, out.msgs_sent, out.heartbeats),
            counters,
            "n={n} {driver}"
        );
        let per_node: Vec<Vec<u64>> = out.reports.iter().map(report_bits).collect();
        assert_eq!(
            &per_node,
            reference.get_or_insert(per_node.clone()),
            "n={n} {driver}"
        );
        let got = fingerprint(&out);
        assert_eq!(
            got, pinned_fingerprint,
            "n={n} {driver}: fingerprint {got:#018x}"
        );
    }
}

/// The seed-0 chord-ring deployments, as literals: every driver runs the
/// identical round-aligned program, so every field of every node report
/// — state, counters, pruned list, trace — is a property of the
/// deployment, not of the transport, and a change that moves one changes
/// the protocol. At N = 8 the deployment is also run as eight node shards
/// over real sockets (64 threads of socket rounds would add seconds at
/// N = 64 for no new coverage), once more with `sample_every = 50` so the
/// trace samples are pinned too.
#[test]
fn seed0_chord_ring_counters_are_pinned_on_every_transport() {
    let lockstep = ("lockstep", Some(runtime_config(TransportKind::Lockstep)));
    let reactor = ("reactor", Some(runtime_config(TransportKind::Reactor)));
    let node_shards = ("node shards", None);
    let ring = |n: usize| Graph::ring_with_chords(n, (n / 16).max(2));
    assert_pinned(
        &ring(8),
        0,
        &[lockstep, reactor, node_shards],
        (2_423, 43_426, 1),
        0x6201_f2d8_f436_e45b,
    );
    assert_pinned(
        &ring(8),
        50,
        &[lockstep, reactor, node_shards],
        (2_423, 43_426, 1),
        0xa929_7b61_7800_f3b4,
    );
    assert_pinned(
        &ring(64),
        0,
        &[lockstep, reactor],
        (13_616, 323_734, 363),
        0x65cc_2537_6f02_b34c,
    );
}

/// The same pin on the reactor's flagship shape, a 16×16 torus: the serial
/// reference, one shard (every edge handed over in place), two shards
/// (half the edges in place, half on one socket carrier) and four shards
/// (in place and sockets, more carriers) produce one set of reports.
#[test]
fn seed0_torus_reports_are_pinned_on_every_shard_count() {
    assert_pinned(
        &Graph::torus(16, 16).unwrap(),
        0,
        &[
            ("lockstep", Some(runtime_config(TransportKind::Lockstep))),
            ("reactor, 1 shard", Some(reactor_config(1))),
            ("reactor, 2 shards", Some(reactor_config(2))),
            ("reactor, 4 shards", Some(reactor_config(4))),
        ],
        (7_395, 3_755_006, 41),
        0x756d_10c3_4b12_b9c7,
    );
}

/// The benchmark's deployment, pinned where the product is tested: the
/// seed-0 32×32 torus (1 024 agents) on the serial reference, on the
/// one-shard reactor, where every edge is an in-place slot write, and on
/// two shards, where the edges across the cut ride a carrier. It
/// takes 12 569 rounds to quorum, a few seconds in release and far too
/// long unoptimized — run explicitly with
/// `cargo test --release -p dpc-runtime --test equivalence -- --ignored torus_1k`.
#[test]
#[ignore = "1 024-agent deployment; run with --ignored in release"]
fn seed0_torus_1k_reports_are_pinned_on_lockstep_and_one_and_two_shards() {
    assert_pinned(
        &Graph::torus(32, 32).unwrap(),
        0,
        &[
            ("lockstep", Some(runtime_config(TransportKind::Lockstep))),
            ("reactor, 1 shard", Some(reactor_config(1))),
            ("reactor, 2 shards", Some(reactor_config(2))),
        ],
        (12_569, 19_751_890, 1_322),
        0x2bd3_1aa0_32f7_0d2b,
    );
}

/// One DiBA on both sides of the socket: `DibaRun::run(k)` at 1, 2 and 7
/// workers against `run_lockstep` stopped after k rounds (`max_rounds = k`,
/// quorum off), every `(p, e)` compared by bits. The shapes cover both
/// traversals: a ring and a chorded ring take the lanes (the chord
/// endpoints as exceptional rows), a torus takes the CSR rows, and a cold
/// start eight watts per server above idle power sends the lanes through
/// their cold backtracking blocks (within 4 W of idle, no lane of a cold
/// start fails the first feasibility test).
#[test]
fn engine_rounds_are_the_lockstep_agents_rounds_bit_for_bit() {
    let n = 64;
    let config = DibaConfig {
        eta_boost: 1.0,
        ..DibaConfig::default()
    };
    let tight = seeded_problem(n, 4, 170.0 * n as f64).min_total().0 + 8.0 * n as f64;
    let cases = [
        (
            "ring",
            Graph::ring(n),
            seeded_problem(n, 1, 170.0 * n as f64),
        ),
        (
            "chorded ring",
            Graph::ring_with_chords(n, 6),
            seeded_problem(n, 2, 168.0 * n as f64),
        ),
        (
            "torus",
            Graph::torus(8, 8).unwrap(),
            seeded_problem(n, 3, 172.0 * n as f64),
        ),
        ("tight ring", Graph::ring(n), seeded_problem(n, 4, tight)),
    ];
    for (shape, graph, problem) in &cases {
        for k in [1, 2, 3, 50, 400] {
            let rt = RuntimeConfig {
                transport: TransportKind::Lockstep,
                stable_rounds: usize::MAX,
                max_rounds: k,
                ..RuntimeConfig::default()
            };
            let specs = node_specs(problem, graph, config, &rt).unwrap();
            let reports = run_lockstep(specs, graph);
            assert!(reports.iter().all(|r| r.rounds == k && !r.converged));
            let agents = state_bits(reports.iter().map(|r| (r.p, r.e)).collect());
            for workers in [1, 2, 7] {
                let config = DibaConfig {
                    threads: Threads::Fixed(workers),
                    ..config
                };
                let mut run = DibaRun::new(problem.clone(), graph.clone(), config).unwrap();
                run.run(k);
                assert!(
                    state_bits(run.node_states()) == agents,
                    "{shape}: engine and agents differ after {k} rounds at {workers} workers"
                );
            }
        }
    }
}

/// The outcome every driver must reach when node 2 of the seed-7 6-ring
/// exhausts a round budget of `leaver_rounds` and leaves unconverged while
/// the others run on. Its departure is a link end-of-stream, not a goodbye, so both
/// neighbors must prune it, the five survivors must still reach quorum on
/// what is now a path, and no slack may be lost on the way: a neighbor
/// takes back the transfer it staged for the leaver whether it learns of
/// the exit when it sends or only when nothing comes back.
fn assert_departure_conserves_mass(
    out: &ClusterOutcome,
    graph: &Graph,
    budget: f64,
    leaver_rounds: usize,
) {
    let leaver = 2;
    for report in &out.reports {
        if report.node == leaver {
            assert_eq!((report.rounds, report.converged), (leaver_rounds, false));
            continue;
        }
        assert!(report.converged, "survivor {} missed quorum", report.node);
        let is_neighbor = graph.neighbors(leaver).contains(&report.node);
        let expected: &[usize] = if is_neighbor { &[leaver] } else { &[] };
        assert_eq!(report.pruned, expected, "node {}", report.node);
    }
    let sum_p = out.total_power().0;
    let sum_e: f64 = out.reports.iter().map(|r| r.e).sum();
    assert!(sum_p <= budget + 1e-6, "budget violated: {sum_p}");
    let lost_slack = sum_e - (sum_p - budget);
    assert!(
        lost_slack.abs() <= 1e-6,
        "residual invariant off by {lost_slack} W with the leaver's report included"
    );
}

/// A fault in the real runtime: the departure over real sockets, one node
/// shard per agent. Which of a neighbor's two paths notices the exit —
/// the send that finds the link closed or the receive that finds it empty
/// — is a race between the leaver's EOF and the neighbor's next send.
#[test]
fn a_node_leaving_unconverged_is_pruned_and_the_survivors_reach_quorum() {
    let problem = seeded_problem(6, 7, 170.0 * 6.0);
    let graph = Graph::ring(6);
    let out = host_node_per_agent(&problem, &graph, |specs| specs[2].max_rounds = 40);
    assert_departure_conserves_mass(&out, &graph, problem.budget().0, 40);
}

/// The same departure on the serial reference. Mass is conserved here
/// too, but the reports are *not* compared with the socket run's: the
/// serial schedule fixes which path each neighbor takes (node 3 sends
/// after the leaver's exit and reclaims at send time, node 1 sent before
/// it and reclaims at receive time), the sockets do not, and the two
/// paths add the transfer back at different points of the round — equal
/// in exact arithmetic, not bit for bit.
#[test]
fn lockstep_conserves_mass_when_a_node_leaves_unconverged() {
    let problem = seeded_problem(6, 7, 170.0 * 6.0);
    let graph = Graph::ring(6);
    let rt = runtime_config(TransportKind::Lockstep);
    let mut specs = node_specs(&problem, &graph, DibaConfig::default(), &rt).unwrap();
    specs[2].max_rounds = 40;
    let reports = run_lockstep(specs, &graph);
    let out = ClusterOutcome::from_reports(reports, problem.budget(), 0);
    assert_departure_conserves_mass(&out, &graph, problem.budget().0, 40);
}

/// The same departure on the in-process reactor. At one shard every edge
/// is handed over in place, so the leaver's end-of-stream is latched on
/// its neighbors' links directly; the shard is one thread on a fixed
/// schedule, so its reports are pinned — at a second, odd budget too:
/// were the order in which the shard steps its agents to decide whether a
/// neighbor meets the EOF before or after its next send, one of the two
/// would move. At three shards one of the leaver's edges rides a socket
/// carrier and the other stays in place; which reclaim path a neighbor
/// takes then depends on arrival, so only mass is checked there.
#[test]
fn reactor_conserves_mass_when_a_node_leaves_unconverged() {
    let problem = seeded_problem(6, 7, 170.0 * 6.0);
    let graph = Graph::ring(6);
    let depart = |shards: usize, leaver_rounds: usize| {
        let rt = reactor_config(shards);
        let mut specs = node_specs(&problem, &graph, DibaConfig::default(), &rt).unwrap();
        specs[2].max_rounds = leaver_rounds;
        let run = run_reactor_cluster(specs, &graph, &rt).unwrap();
        let out = ClusterOutcome::from_reports(run.reports, problem.budget(), 0);
        assert_departure_conserves_mass(&out, &graph, problem.budget().0, leaver_rounds);
        out
    };
    for (leaver_rounds, counters, pinned) in [
        (40, (7_515, 60_246), 0xb505_bd22_a4e2_eaa0),
        (41, (7_521, 60_298), 0xcc93_9e44_2533_7975),
    ] {
        let out = depart(1, leaver_rounds);
        assert_eq!((out.rounds, out.msgs_sent), counters, "{leaver_rounds}");
        let got = fingerprint(&out);
        assert_eq!(got, pinned, "{leaver_rounds}: fingerprint {got:#018x}");
    }
    depart(3, 40);
}

/// The scale acceptance check: one process hosts the 10 240-agent bench
/// torus on the reactor, thread count stays O(shards), and the allocation
/// is bitwise the lockstep reference. Under a minute in release, far too
/// slow unoptimized — run explicitly with
/// `cargo test --release -p dpc-runtime --test equivalence -- --ignored ten_thousand`.
#[test]
#[ignore = "10k-agent scale check; run with --ignored"]
fn reactor_hosts_ten_thousand_agents_bitwise_equal_to_lockstep() {
    let n = 10_240;
    let problem = seeded_problem(n, 1, 170.0 * n as f64);
    let graph = Graph::torus(80, 128).unwrap();
    let config = DibaConfig::default();
    let rt_lockstep = RuntimeConfig {
        max_rounds: 6_000,
        ..runtime_config(TransportKind::Lockstep)
    };
    let rt_reactor = RuntimeConfig {
        max_rounds: 6_000,
        ..reactor_config(4)
    };

    let lockstep = run_cluster(problem.clone(), graph.clone(), config, &rt_lockstep).unwrap();
    let reactor = run_cluster(problem.clone(), graph.clone(), config, &rt_reactor).unwrap();

    assert_eq!(
        allocation_of(&lockstep),
        allocation_of(&reactor),
        "10k-agent reactor diverged from the lockstep reference"
    );
    let threads = reactor.peak_threads.expect("reactor reports peak threads");
    assert!(
        threads < 64,
        "10k agents took {threads} threads — not a readiness runtime"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn random_seeds_converge_and_match_the_simulator(
        seed in 0u64..1_000,
        n in 6usize..=10,
    ) {
        let problem = seeded_problem(n, seed, 165.0 * n as f64);
        let graph = Graph::ring(n);
        let outcome = run_cluster(
            problem.clone(),
            graph.clone(),
            DibaConfig::default(),
            &RuntimeConfig::default(),
        )
        .unwrap();
        prop_assert!(outcome.converged, "seed {seed} n {n} did not converge");
        prop_assert!(outcome.drift <= 1e-6, "drift {} W", outcome.drift);
        let total = outcome.total_power().0;
        prop_assert!(
            total <= 165.0 * n as f64 + 1e-6,
            "budget violated: {total}"
        );

        prop_assert!(
            engine_is_the_agents(&problem, &graph, outcome.rounds),
            "seed {} n {}: lockstep agents and the engine differ",
            seed,
            n
        );
    }
}
