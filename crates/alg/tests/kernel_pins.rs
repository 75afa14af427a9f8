//! Bit pins of the `DibaRun` round kernel. Every row runs one seeded
//! instance and pins the FNV-1a fingerprint of every `(p, e)` bit, the
//! round counter, the last round's max |dp| and, where a stop rule ran,
//! the round it returned. The literals were taken once and must never
//! change: a kernel, traversal or engine rewrite that moves any of them
//! has changed the trajectory.
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
            last_max_step: 0x3f8c_d405_8b23_4000,
            fingerprint: 0x1588_b715_1d21_8b1d,
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
                last_max_step: 0x3f8f_c578_3ee1_0000,
                fingerprint: 0x13aa_0b8a_d6d5_b02a,
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
            last_max_step: 0x3f7a_b592_ebea_8000,
            fingerprint: 0x64c0_c271_ee9c_b138,
        }
    );
}

#[test]
fn ring_1000_until_within() {
    assert_eq!(
        within(1_000, Graph::ring(1_000), Threads::Fixed(1)),
        Pin {
            round: Some(2_665),
            iterations: 2_665,
            last_max_step: 0x3f9f_d941_f504_d000,
            fingerprint: 0x25c9_2283_7550_b616,
        }
    );
}

/// Rings too short to fill one 4-node lane block, and rings whose tail
/// block holds both wrap-around nodes 0 and n − 1.
#[test]
fn short_rings_run_600() {
    let want = [
        (3, 0, 0x32f3_5451_6175_52c6),
        (5, 0x3f68_4a38_daa9_8000, 0x411d_03d3_6801_2e23),
        (7, 0x3f8f_5e66_952d_0000, 0xab94_1cc9_6556_2d72),
        (9, 0x3f91_e7e5_58b0_2000, 0xa3b4_afc8_f30a_c386),
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
                last_max_step: 0x3fa1_9af7_4331_e000,
                fingerprint: 0xa901_5863_7b9d_3d84,
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
            last_max_step: 0x3fa6_5162_2037_5000,
            fingerprint: 0xb4aa_507e_cc44_02cf,
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
            round: Some(2_946),
            iterations: 3_346,
            last_max_step: 0x3f7f_3787_5ca7_0000,
            fingerprint: 0x06aa_55c9_6ac0_d48d,
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
            last_max_step: 0x3fb0_9d06_6db6_2c00,
            fingerprint: 0xcf21_304e_cdb9_af53,
        }
    );
}

#[test]
#[ignore = "release-only: a 10 000-node cold solve"]
fn ring_10k_until_within() {
    assert_eq!(
        within(10_000, Graph::ring(10_000), Threads::Fixed(1)),
        Pin {
            round: Some(2_547),
            iterations: 2_547,
            last_max_step: 0x3fa5_45ce_3794_d000,
            fingerprint: 0xa7f6_47a4_e0f1_c067,
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
            last_max_step: 0x3fc4_404d_6303_7600,
            fingerprint: 0x05a1_94ad_fb5f_abee,
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
            round: Some(1_991),
            iterations: 1_991,
            last_max_step: 0x3fb0_e86a_021a_e800,
            fingerprint: 0xa10c_c32c_7ab9_8bff,
        }
    );
}
