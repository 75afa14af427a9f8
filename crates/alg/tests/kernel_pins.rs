//! Bit pins of the `DibaRun` round kernel. Every row runs one seeded
//! instance and pins the FNV-1a fingerprint of every `(p, e)` bit, the
//! round counter, the last round's max |dp| and, where a stop rule ran,
//! the round it returned. The literals were re-taken once, when the
//! engine adopted the deployed agent's round (neighbours seen at the
//! residual they sent, the agent's fold order); a kernel, traversal or
//! engine rewrite that moves any of them has changed the trajectory.
//!
//! The rows marked `#[ignore]` are release-only
//! (`cargo test --release -p dpc-alg --test kernel_pins -- --ignored`).

use dpc_alg::centralized;
use dpc_alg::diba::{DibaConfig, DibaRun};
use dpc_alg::exec::Threads;
use dpc_alg::problem::PowerBudgetProblem;
use dpc_models::throughput::CurveParams;
use dpc_models::units::Watts;
use dpc_models::workload::ClusterBuilder;
use dpc_topology::Graph;

/// What one row pins.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    /// The round a stop rule returned (`None` for plain `run(k)` rows).
    round: Option<usize>,
    iterations: usize,
    last_max_step: u64,
    fingerprint: u64,
}

/// FNV-1a over the bits of every `(p, e)` in `node_states()` order.
fn fingerprint(run: &DibaRun) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for (p, e) in run.node_states() {
        h = (h ^ p.to_bits()).wrapping_mul(0x0000_0100_0000_01b3);
        h = (h ^ e.to_bits()).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn pin(run: &DibaRun, round: Option<usize>) -> Pin {
    Pin {
        round,
        iterations: run.iterations(),
        last_max_step: run.last_max_step().to_bits(),
        fingerprint: fingerprint(run),
    }
}

/// The seed-0 instance at 172 W per server.
fn problem(n: usize) -> PowerBudgetProblem {
    let utilities = ClusterBuilder::new(n).seed(0).build().utilities();
    PowerBudgetProblem::new(utilities, Watts(172.0 * n as f64)).unwrap()
}

fn config(threads: Threads) -> DibaConfig {
    DibaConfig {
        threads,
        ..DibaConfig::default()
    }
}

fn new_run(n: usize, graph: Graph, threads: Threads) -> DibaRun {
    DibaRun::new(problem(n), graph, config(threads)).unwrap()
}

fn rounds(n: usize, graph: Graph, threads: Threads, k: usize) -> Pin {
    let mut run = new_run(n, graph, threads);
    run.run(k);
    pin(&run, None)
}

fn within(n: usize, graph: Graph, threads: Threads) -> Pin {
    let problem = problem(n);
    let oracle = problem.total_utility(&centralized::solve(&problem).allocation);
    let mut run = DibaRun::new(problem, graph, config(threads)).unwrap();
    let round = run.run_until_within(oracle, 0.01, 60_000);
    pin(&run, round)
}

fn ring_with_extra_edges(n: usize, extra: &[(usize, usize)]) -> Graph {
    let mut edges = Graph::ring(n).edges();
    edges.extend_from_slice(extra);
    Graph::from_edges(n, &edges).unwrap()
}

#[test]
fn ring_1000_run_3000() {
    assert_eq!(
        rounds(1_000, Graph::ring(1_000), Threads::Fixed(1), 3_000),
        Pin {
            round: None,
            iterations: 3_000,
            last_max_step: 0x3f8f_c9d4_d824_c000,
            fingerprint: 0xa59a_2bcb_dd9b_1485,
        }
    );
}

#[test]
fn chord_ring_1000_run_3000_at_one_and_two_workers() {
    for threads in [1, 2] {
        assert_eq!(
            rounds(
                1_000,
                Graph::ring_with_chords(1_000, 15),
                Threads::Fixed(threads),
                3_000
            ),
            Pin {
                round: None,
                iterations: 3_000,
                last_max_step: 0x3f8e_eb9f_fae8_0000,
                fingerprint: 0xd775_6325_5e65_602d,
            },
            "{threads} workers"
        );
    }
}

#[test]
fn torus_32x32_run_3000() {
    assert_eq!(
        rounds(
            1_024,
            Graph::torus(32, 32).unwrap(),
            Threads::Fixed(1),
            3_000
        ),
        Pin {
            round: None,
            iterations: 3_000,
            last_max_step: 0x3f77_af40_906e_0000,
            fingerprint: 0xdeb3_5875_95ca_b26c,
        }
    );
}

#[test]
fn ring_1000_until_within() {
    assert_eq!(
        within(1_000, Graph::ring(1_000), Threads::Fixed(1)),
        Pin {
            round: Some(1_835),
            iterations: 1_835,
            last_max_step: 0x3fa5_de23_5fdd_e000,
            fingerprint: 0xdd64_3fea_ba99_9135,
        }
    );
}

/// Rings too short to fill one 4-node lane block, and rings whose tail
/// block holds both wrap-around nodes 0 and n − 1.
#[test]
fn short_rings_run_600() {
    let want = [
        (3, 0, 0xdbb6_5169_7e29_8a11),
        (5, 0x3f62_495c_0339_0000, 0x0403_2af6_2714_d166),
        (7, 0x3f88_b7b9_563d_0000, 0x0fd7_0e9a_7e74_7e7a),
        (9, 0x3f8e_19dd_3f0d_4000, 0x9d4e_b5a7_5f2b_b2cf),
    ];
    for (n, last_max_step, fingerprint) in want {
        assert_eq!(
            rounds(n, Graph::ring(n), Threads::Fixed(1), 600),
            Pin {
                round: None,
                iterations: 600,
                last_max_step,
                fingerprint,
            },
            "ring of {n}"
        );
    }
}

/// Chords on nodes 0, 1 and n − 1: the wrap-around nodes fold ring and
/// chord slots interleaved in ascending-neighbour order, node 0 at degree
/// 4 and nodes 1 and n − 1 at degree 3. Pinned at 1, 2 and 7 workers.
#[test]
fn chords_on_the_wrap_around_nodes_run_800() {
    let n = 40;
    let graph = ring_with_extra_edges(n, &[(0, 20), (0, 7), (1, 26), (39, 13)]);
    for threads in [1, 2, 7] {
        assert_eq!(
            rounds(n, graph.clone(), Threads::Fixed(threads), 800),
            Pin {
                round: None,
                iterations: 800,
                last_max_step: 0x3f9e_cd67_85f5_c000,
                fingerprint: 0x8b0d_ab4d_aac6_c7b3,
            },
            "{threads} workers"
        );
    }
}

/// A cut to half a watt per server above idle power: nodes pinned at
/// their lower box bound cannot finance their donations by shedding, so
/// backtracking scales them down, round after round.
#[test]
fn tight_budget_scales_donations() {
    let n = 60;
    let mut run = new_run(n, Graph::ring_with_chords(n, 3), Threads::Fixed(1));
    run.run(300);
    let tight = run.problem().min_total().0 + 0.5 * n as f64;
    run.set_budget(Watts(tight)).unwrap();
    run.run(300);
    assert_eq!(
        pin(&run, None),
        Pin {
            round: None,
            iterations: 600,
            last_max_step: 0x3f90_d0fd_9ac1_c000,
            fingerprint: 0x2031_ee16_367e_88a6,
        }
    );
}

/// Warm events mid-run: a budget trim, then two utility replacements,
/// then a return to rest.
#[test]
fn warm_events_mid_run() {
    let n = 200;
    let mut run = new_run(n, Graph::ring_with_chords(n, 4), Threads::Fixed(1));
    run.run(300);
    run.set_budget(Watts(172.0 * n as f64 * 0.97)).unwrap();
    run.run(100);
    let steep = {
        let u = run.problem().utility(5);
        CurveParams::for_memory_boundedness(0.0).utility(u.p_min(), u.p_max())
    };
    let flat = {
        let u = run.problem().utility(150);
        CurveParams::for_memory_boundedness(1.0).utility(u.p_min(), u.p_max())
    };
    run.replace_utilities(&[(5, steep), (150, flat)]).unwrap();
    let round = run.run_to_rest(1e-2, 10, 20_000);
    assert_eq!(
        pin(&run, round),
        Pin {
            round: Some(2_502),
            iterations: 2_902,
            last_max_step: 0x3f84_7477_24d6_8000,
            fingerprint: 0xaa5a_9959_3d1f_533b,
        }
    );
}

#[test]
#[ignore = "release-only: 20 million node-rounds"]
fn ring_10k_run_2000() {
    assert_eq!(
        rounds(10_000, Graph::ring(10_000), Threads::Fixed(1), 2_000),
        Pin {
            round: None,
            iterations: 2_000,
            last_max_step: 0x3fa7_3858_e804_e000,
            fingerprint: 0xb324_0f1c_a54a_79a4,
        }
    );
}

#[test]
#[ignore = "release-only: a 10 000-node cold solve"]
fn ring_10k_until_within() {
    assert_eq!(
        within(10_000, Graph::ring(10_000), Threads::Fixed(1)),
        Pin {
            round: Some(1_754),
            iterations: 1_754,
            last_max_step: 0x3fa6_221c_d0b1_f800,
            fingerprint: 0xa196_8a9c_0e53_9284,
        }
    );
}

#[test]
#[ignore = "release-only: 30 million node-rounds"]
fn chord_ring_100k_run_300() {
    let n = 100_000;
    assert_eq!(
        rounds(n, Graph::ring_with_chords(n, 1_562), Threads::Auto, 300),
        Pin {
            round: None,
            iterations: 300,
            last_max_step: 0x3fc4_f4fb_8a48_e000,
            fingerprint: 0x2092_b167_ca97_78c3,
        }
    );
}

#[test]
#[ignore = "release-only: a 100 000-node cold solve"]
fn chord_ring_100k_until_within() {
    let n = 100_000;
    assert_eq!(
        within(n, Graph::ring_with_chords(n, 1_562), Threads::Auto),
        Pin {
            round: Some(1_370),
            iterations: 1_370,
            last_max_step: 0x3fb6_85ef_68e1_e000,
            fingerprint: 0xc46b_1b32_4f09_0bb4,
        }
    );
}
