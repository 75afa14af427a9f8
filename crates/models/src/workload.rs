//! Cluster-level workload assembly.
//!
//! Builds the population of `N` servers with learned utility functions that
//! the allocation algorithms operate on, mirroring the paper's setup: "to
//! simulate a cluster with arbitrary number of servers N, we draw the
//! throughput functions from a uniform distribution such that each server
//! hosts at least one type of workload and the entire cluster is fully
//! utilized" (Section 4.4.1).

use crate::benchmark::Benchmark;
use crate::characterization::learn_utility;
use crate::power::ServerSpec;
use crate::throughput::QuadraticUtility;
use crate::units::Watts;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One server's workload and its power→throughput characteristics.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerWorkload {
    /// Index of the server in the cluster.
    pub server_id: usize,
    /// Benchmark currently hosted.
    pub benchmark: Benchmark,
    /// Ground-truth curve (used by oracle experiments only).
    pub truth: QuadraticUtility,
    /// Curve learned from the noisy DVFS sweep (what the algorithms see).
    pub learned: QuadraticUtility,
}

/// Relative jitter of each server's throughput curve around its
/// benchmark's nominal curve.
const CURVE_JITTER: f64 = 0.08;

/// Relative noise on each point of the characterization sweep.
const MEASUREMENT_NOISE: f64 = 0.01;

/// Configuration for building a [`Cluster`].
#[derive(Debug, Clone)]
pub struct ClusterBuilder {
    n: usize,
    seed: u64,
}

impl ClusterBuilder {
    /// Starts a builder for `n` servers of the paper's server class
    /// ([`ServerSpec::dell_c1100`]), each hosting a uniformly drawn
    /// benchmark, with 8 % curve jitter between instances, 1 % measurement
    /// noise and seed 0.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> ClusterBuilder {
        assert!(n > 0, "cluster must have at least one server");
        ClusterBuilder { n, seed: 0 }
    }

    /// Sets the RNG seed; identical seeds reproduce identical clusters.
    pub fn seed(mut self, seed: u64) -> ClusterBuilder {
        self.seed = seed;
        self
    }

    /// Builds the cluster, running the synthetic characterization sweep for
    /// every server.
    pub fn build(&self) -> Cluster {
        let server = ServerSpec::dell_c1100();
        let mut cluster = Cluster {
            levels: server.cap_levels(),
            server,
            workloads: Vec::with_capacity(self.n),
            rng: StdRng::seed_from_u64(self.seed),
        };
        for i in 0..self.n {
            let benchmark = cluster.draw_benchmark();
            let workload = cluster.learn(i, benchmark);
            cluster.workloads.push(workload);
        }
        cluster
    }
}

/// A population of servers with workloads, the unit every experiment starts
/// from.
#[derive(Debug, Clone)]
pub struct Cluster {
    server: ServerSpec,
    /// `server.cap_levels()`, the sweep's operating points.
    levels: Vec<Watts>,
    workloads: Vec<ServerWorkload>,
    rng: StdRng,
}

impl Cluster {
    /// Number of servers.
    pub fn len(&self) -> usize {
        self.workloads.len()
    }

    /// `true` when the cluster has no servers (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.workloads.is_empty()
    }

    /// The server class shared by all nodes.
    pub fn server(&self) -> &ServerSpec {
        &self.server
    }

    /// Per-server workload records.
    pub fn workloads(&self) -> &[ServerWorkload] {
        &self.workloads
    }

    /// The learned utility functions, in server order — the input to every
    /// allocation algorithm.
    pub fn utilities(&self) -> Vec<QuadraticUtility> {
        self.workloads.iter().map(|w| w.learned).collect()
    }

    /// Lowest enforceable total power (all servers at `p_min`).
    pub fn min_total_power(&self) -> Watts {
        self.workloads.iter().map(|w| w.learned.p_min()).sum()
    }

    /// Replaces server `i`'s workload with a fresh uniform draw, re-running
    /// the characterization sweep — the churn event of the dynamic-workload
    /// experiment (Fig. 4.7). Returns the new benchmark.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn churn(&mut self, i: usize) -> Benchmark {
        let benchmark = self.draw_benchmark();
        self.replace(i, benchmark);
        benchmark
    }

    /// Replaces server `i`'s workload with a specific benchmark (used by the
    /// perturbation experiments, Figs. 4.8/4.9).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub(crate) fn replace(&mut self, i: usize, benchmark: Benchmark) {
        self.workloads[i] = self.learn(i, benchmark);
    }

    /// A uniformly drawn benchmark.
    fn draw_benchmark(&mut self) -> Benchmark {
        Benchmark::ALL[self.rng.gen_range(0..Benchmark::ALL.len())]
    }

    /// Server `i` running `benchmark`, with its utility learned from a fresh
    /// characterization sweep.
    fn learn(&mut self, i: usize, benchmark: Benchmark) -> ServerWorkload {
        let (truth, learned) = learn_utility(
            benchmark.spec(),
            &self.levels,
            self.server.peak,
            CURVE_JITTER,
            MEASUREMENT_NOISE,
            &mut self.rng,
        );
        ServerWorkload {
            server_id: i,
            benchmark,
            truth,
            learned,
        }
    }

    /// Draws an exponentially distributed workload duration with the given
    /// mean, for churn processes.
    ///
    /// # Panics
    ///
    /// Panics if `mean_secs` is not positive.
    pub fn draw_duration(&mut self, mean_secs: f64) -> f64 {
        assert!(mean_secs > 0.0, "mean duration must be positive");
        let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        -mean_secs * u.ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_is_reproducible() {
        let a = ClusterBuilder::new(50).seed(42).build();
        let b = ClusterBuilder::new(50).seed(42).build();
        assert_eq!(a.workloads(), b.workloads());
    }

    #[test]
    fn different_seeds_differ() {
        let a = ClusterBuilder::new(50).seed(1).build();
        let b = ClusterBuilder::new(50).seed(2).build();
        assert_ne!(a.workloads(), b.workloads());
    }

    #[test]
    fn uniform_random_hosts_every_benchmark_eventually() {
        let c = ClusterBuilder::new(500).seed(7).build();
        for b in Benchmark::ALL {
            assert!(
                c.workloads().iter().any(|w| w.benchmark == b),
                "{b} not present in 500 draws"
            );
        }
    }

    #[test]
    fn power_range_is_n_times_server_box() {
        let c = ClusterBuilder::new(100).build();
        let lo = c.min_total_power();
        let hi: Watts = c.workloads().iter().map(|w| w.learned.p_max()).sum();
        let srv = c.server();
        assert!((lo - srv.min_full_power() * 100.0).abs() < Watts(1e-6));
        assert!((hi - srv.peak * 100.0).abs() < Watts(1e-6));
    }

    #[test]
    fn churn_changes_the_record() {
        let mut c = ClusterBuilder::new(10).seed(3).build();
        let before = c.workloads()[4].clone();
        c.churn(4);
        let after = &c.workloads()[4];
        assert_eq!(after.server_id, 4);
        // Curves are re-jittered even if the same benchmark is drawn.
        assert_ne!(before.truth, after.truth);
    }

    #[test]
    fn replace_sets_specific_benchmark() {
        let mut c = ClusterBuilder::new(10).seed(3).build();
        c.replace(2, Benchmark::Ra);
        assert_eq!(c.workloads()[2].benchmark, Benchmark::Ra);
    }

    #[test]
    fn durations_are_positive_with_roughly_right_mean() {
        let mut c = ClusterBuilder::new(1).seed(9).build();
        let n = 2000;
        let mean: f64 = (0..n).map(|_| c.draw_duration(120.0)).sum::<f64>() / n as f64;
        assert!(mean > 100.0 && mean < 140.0, "mean {mean}");
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_size_rejected() {
        let _ = ClusterBuilder::new(0);
    }
}
