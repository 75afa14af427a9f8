//! The telemetry layer's core contract: **recording is inert**.
//!
//! Attaching the round recorder must not perturb the solver by a single
//! bit — not in the serial engine, and not in the parallel engine at any
//! worker count. The comparisons below are exact (`==` on `f64` slices),
//! because the recorder only *reads* sealed per-round state. (The same
//! contract for the deployed agents under live faults is pinned in
//! `dpc-runtime`'s `lockstep_faults.rs`.)

use dpc_alg::diba::{DibaConfig, DibaRun};
use dpc_alg::exec::Threads;
use dpc_alg::problem::PowerBudgetProblem;
use dpc_alg::telemetry::TelemetryConfig;
use dpc_models::units::Watts;
use dpc_models::workload::ClusterBuilder;
use dpc_topology::Graph;
use proptest::prelude::*;

fn sync_run(n: usize, seed: u64, threads: Threads, telemetry: TelemetryConfig) -> DibaRun {
    let cluster = ClusterBuilder::new(n).seed(seed).build();
    let problem = PowerBudgetProblem::new(cluster.utilities(), Watts(171.0 * n as f64)).unwrap();
    let graph = Graph::ring_with_chords(n, 2);
    let config = DibaConfig {
        threads,
        telemetry,
        ..DibaConfig::default()
    };
    DibaRun::new(problem, graph, config).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Serial engine: telemetry on vs. off walks the identical trajectory.
    #[test]
    fn serial_trajectory_is_unchanged_by_telemetry(
        seed in 0u64..1_000,
        n in 8usize..48,
        rounds in 20usize..120,
    ) {
        let mut silent = sync_run(n, seed, Threads::Fixed(1), TelemetryConfig::off());
        let mut watched = sync_run(n, seed, Threads::Fixed(1), TelemetryConfig::with_capacity(rounds));
        silent.run(rounds);
        watched.run(rounds);
        prop_assert_eq!(silent.residuals(), watched.residuals());
        prop_assert_eq!(silent.allocation(), watched.allocation());
        prop_assert_eq!(silent.last_max_step(), watched.last_max_step());
        prop_assert_eq!(watched.telemetry().unwrap().rounds_recorded(), rounds as u64);
    }

    /// Parallel engine: telemetry on vs. off is bitwise identical at every
    /// worker count, and the *records* are identical across worker counts
    /// (worker 0 aggregates with the thread-count-invariant chunked sums).
    #[test]
    fn parallel_trajectory_and_records_are_worker_count_invariant(
        seed in 0u64..1_000,
        n in 16usize..64,
        rounds in 20usize..80,
    ) {
        let telemetry = TelemetryConfig::with_capacity(rounds);
        let mut silent2 = sync_run(n, seed, Threads::Fixed(2), TelemetryConfig::off());
        let mut watched2 = sync_run(n, seed, Threads::Fixed(2), telemetry);
        let mut watched7 = sync_run(n, seed, Threads::Fixed(7), telemetry);
        silent2.run(rounds);
        watched2.run(rounds);
        watched7.run(rounds);
        prop_assert_eq!(silent2.residuals(), watched2.residuals());
        prop_assert_eq!(silent2.allocation(), watched2.allocation());
        prop_assert_eq!(watched2.residuals(), watched7.residuals());
        // Every recorded solver quantity is bitwise identical between
        // engine widths, so the JSONL is byte-identical too.
        let r2: Vec<_> = watched2.telemetry().unwrap().rounds().copied().collect();
        let r7: Vec<_> = watched7.telemetry().unwrap().rounds().copied().collect();
        prop_assert_eq!(r2, r7, "records must not depend on the worker count");
        prop_assert_eq!(
            watched2.telemetry().unwrap().to_jsonl(),
            watched7.telemetry().unwrap().to_jsonl(),
            "the rendered trace must not depend on the worker count"
        );
    }
}
