//! Bit pins of instance set-up beyond the generated cluster (whose own pins
//! are `dpc-models`' `generation_pins`): the water-filling oracle
//! `centralized::solve` on the generated problems, and the CSR arrays of
//! `Graph::ring_with_chords`. Each row folds, with FNV-1a over 64-bit
//! words, every bit of its results into one literal: per instance the
//! oracle's λ, its bisection count and every allocated power; per graph
//! its `topology_hash`.
//!
//! The row marked `#[ignore]` is release-only
//! (`cargo test --release -p dpc-alg --test generation_pins -- --ignored`).

use dpc_alg::centralized;
use dpc_alg::problem::PowerBudgetProblem;
use dpc_models::units::Watts;
use dpc_models::workload::ClusterBuilder;
use dpc_topology::Graph;

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// The oracle's fingerprint over the clusters of `n` servers at every seed
/// in `seeds`, with a budget of `watts_per_server · n`.
fn oracle(n: usize, watts_per_server: f64, seeds: std::ops::Range<u64>) -> u64 {
    let mut h = Fnv::new();
    for seed in seeds {
        let utilities = ClusterBuilder::new(n).seed(seed).build().utilities();
        let problem = PowerBudgetProblem::new(utilities, Watts(watts_per_server * n as f64))
            .expect("the per-server budget is feasible");
        let solution = centralized::solve(&problem);
        h.word(solution.lambda.to_bits());
        h.word(solution.iterations as u64);
        for p in solution.allocation.powers() {
            h.word(p.0.to_bits());
        }
    }
    h.0
}

/// The fingerprint of `ring_with_chords(n, c)` over every `(n, c)` pair.
fn rings(graphs: impl IntoIterator<Item = (usize, usize)>) -> u64 {
    let mut h = Fnv::new();
    for (n, c) in graphs {
        h.word(Graph::ring_with_chords(n, c).topology_hash());
    }
    h.0
}

#[test]
fn oracle_one_thousand_servers_seeds_0_to_63() {
    assert_eq!(oracle(1_000, 172.0, 0..64), 0x7db4_0a1d_96c7_c3a9);
}

#[test]
fn oracle_torus_instances_1024_servers_seeds_0_to_47() {
    assert_eq!(oracle(1_024, 170.0, 0..48), 0xda97_a835_2e59_d412);
}

#[test]
#[ignore = "release-only: four 100 000-server instances"]
fn oracle_one_hundred_thousand_servers_seeds_0_to_3() {
    assert_eq!(oracle(100_000, 172.0, 0..4), 0xd529_a3df_400f_9fef);
}

#[test]
fn ring_with_chords_csr() {
    let small = [1, 2, 3, 4, 5, 7]
        .into_iter()
        .flat_map(|n| (0..=8).map(move |c| (n, c)));
    let benchmark = [
        (1_000, 0),
        (1_000, 3),
        (1_000, 1_000 / 16),
        (1_024, 1_024 / 64),
    ];
    assert_eq!(rings(small.chain(benchmark)), 0x25ed_27bc_b2d9_b3a1);
}

#[test]
#[ignore = "release-only: the 100 000-node chord ring"]
fn ring_with_chords_csr_one_hundred_thousand() {
    assert_eq!(
        rings([0, 2, 100_000 / 64].map(|c| (100_000, c))),
        0x8de8_7a52_a001_18a9
    );
}
