//! Bit pins of cluster generation. Each row builds
//! `ClusterBuilder::new(n).seed(s)` for a range of seeds and folds, with
//! FNV-1a over 64-bit words, every generated bit into one literal: per
//! server its id, its benchmark's index, and the coefficients and power box
//! of both the ground-truth and the learned utility. Each cluster then
//! churns a few servers, and their new records are folded too, so the
//! re-run sweep of `Cluster::churn` is pinned with the build.
//!
//! The same RNG draws in the same order and the same float operations in
//! the same order keep every literal; a reordered sum in the fit or a
//! dropped measurement draw moves them, and with them every trajectory
//! that starts from a generated cluster.
//!
//! The row marked `#[ignore]` is release-only
//! (`cargo test --release -p dpc-models --test generation_pins -- --ignored`).

use dpc_models::throughput::QuadraticUtility;
use dpc_models::workload::{ClusterBuilder, ServerWorkload};

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn utility(&mut self, u: &QuadraticUtility) {
        let (a, b, c) = u.coefficients();
        for x in [a, b, c, u.p_min().0, u.p_max().0] {
            self.word(x.to_bits());
        }
    }

    fn server(&mut self, w: &ServerWorkload) {
        self.word(w.server_id as u64);
        self.word(w.benchmark as u64);
        self.utility(&w.truth);
        self.utility(&w.learned);
    }
}

/// Servers each cluster churns after the build.
const CHURNS: usize = 4;

/// The fingerprint of the clusters of `n` servers at every seed in `seeds`.
fn fingerprint(n: usize, seeds: std::ops::Range<u64>) -> u64 {
    let mut h = Fnv::new();
    for seed in seeds {
        let mut cluster = ClusterBuilder::new(n).seed(seed).build();
        h.word(cluster.len() as u64);
        for w in cluster.workloads() {
            h.server(w);
        }
        for k in 0..CHURNS {
            let i = (k * 7919) % n;
            cluster.churn(i);
            h.server(&cluster.workloads()[i]);
        }
    }
    h.0
}

#[test]
fn one_thousand_servers_seeds_0_to_63() {
    assert_eq!(fingerprint(1_000, 0..64), 0x30ef_b318_44a1_2f8b);
}

#[test]
fn torus_instances_1024_servers_seeds_0_to_47() {
    assert_eq!(fingerprint(1_024, 0..48), 0x7d69_fbbe_e564_3c99);
}

#[test]
#[ignore = "release-only: 400 000 generated servers"]
fn one_hundred_thousand_servers_seeds_0_to_3() {
    assert_eq!(fingerprint(100_000, 0..4), 0x8299_050d_2308_abdb);
}
