//! Multi-round batching must be invisible: `run(k)` is one engine
//! dispatch for `k` rounds, and this suite pins it to `k` single `step()`
//! calls — same final allocation, same residuals, same telemetry
//! `RoundRecord` stream, bit for bit. On the serial engine, on the
//! persistent worker pool, and on the asynchronous engine with and
//! without fault injection.

use dpc_alg::diba::{DibaConfig, DibaRun};
use dpc_alg::diba_async::{AsyncConfig, AsyncDibaRun};
use dpc_alg::exec::Threads;
use dpc_alg::faults::{FaultPlan, LinkFaults, NodeFaultKind};
use dpc_alg::problem::PowerBudgetProblem;
use dpc_alg::telemetry::{RoundRecord, TelemetryConfig, MAX_TIMED_SHARDS};
use dpc_models::units::Watts;
use dpc_models::workload::ClusterBuilder;
use dpc_topology::Graph;
use proptest::prelude::*;

fn sync_run(n: usize, seed: u64, threads: Threads, capacity: usize) -> DibaRun {
    let cluster = ClusterBuilder::new(n).seed(seed).build();
    let problem = PowerBudgetProblem::new(cluster.utilities(), Watts(171.0 * n as f64)).unwrap();
    let config = DibaConfig {
        threads,
        telemetry: TelemetryConfig::with_capacity(capacity),
        ..DibaConfig::default()
    };
    DibaRun::new(problem, Graph::ring_with_chords(n, 2), config).unwrap()
}

fn async_run(n: usize, seed: u64, drop: f64, capacity: usize) -> AsyncDibaRun {
    let cluster = ClusterBuilder::new(n).seed(seed).build();
    let problem = PowerBudgetProblem::new(cluster.utilities(), Watts(170.0 * n as f64)).unwrap();
    let graph = Graph::ring_with_chords(n, 2);
    let config = DibaConfig {
        telemetry: TelemetryConfig::with_capacity(capacity),
        ..DibaConfig::default()
    };
    let net = AsyncConfig {
        seed,
        ..AsyncConfig::default()
    };
    let plan = if drop > 0.0 {
        let link = LinkFaults {
            drop,
            duplicate: drop / 2.0,
            reorder: drop,
            ..LinkFaults::none()
        };
        let victim = 1 + (seed as usize % (n - 1));
        FaultPlan::with_link(seed, link)
            .and(20, victim, NodeFaultKind::Crash)
            .and(60, victim, NodeFaultKind::Restart)
    } else {
        FaultPlan::none()
    };
    AsyncDibaRun::with_faults(problem, graph, config, net, plan).unwrap()
}

/// Wall-clock shard timings are the one field allowed to differ between
/// executions of the same trajectory; everything else must match bitwise.
fn mask(r: &RoundRecord) -> RoundRecord {
    let mut m = *r;
    m.shard_nanos = [0; MAX_TIMED_SHARDS];
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Serial and pooled engines: `run(k)` leaves the identical
    /// final allocation and the identical recorded round stream as `k`
    /// individual steps.
    #[test]
    fn sync_batching_is_invisible(
        seed in 0u64..1_000,
        n in 8usize..48,
        k in 1usize..60,
        threads in (0usize..3).prop_map(|i| [1usize, 2, 7][i]),
    ) {
        let mut stepped = sync_run(n, seed, Threads::Fixed(threads), k);
        let mut batched = sync_run(n, seed, Threads::Fixed(threads), k);
        for _ in 0..k {
            stepped.step();
        }
        batched.run(k);

        prop_assert_eq!(stepped.allocation(), batched.allocation());
        prop_assert_eq!(stepped.residuals(), batched.residuals());
        prop_assert_eq!(stepped.node_states(), batched.node_states());
        prop_assert_eq!(stepped.iterations(), batched.iterations());

        let rs: Vec<_> = stepped.telemetry().unwrap().rounds().map(mask).collect();
        let rb: Vec<_> = batched.telemetry().unwrap().rounds().map(mask).collect();
        prop_assert_eq!(rs.len(), k);
        prop_assert_eq!(rs, rb, "record streams diverged at {} threads", threads);
        prop_assert_eq!(
            stepped.telemetry().unwrap().to_jsonl(),
            batched.telemetry().unwrap().to_jsonl(),
            "rendered traces diverged"
        );
    }

    /// The asynchronous engine, fault-free and under live message faults
    /// plus a crash/restart: batching is invisible there too (RNG streams
    /// included).
    #[test]
    fn async_batching_is_invisible(
        seed in 0u64..1_000,
        n in 8usize..32,
        k in 1usize..120,
        drop in ((0usize..2), (0.05f64..0.3)).prop_map(|(z, d)| if z == 0 { 0.0 } else { d }),
    ) {
        let mut stepped = async_run(n, seed, drop, k);
        let mut batched = async_run(n, seed, drop, k);
        for _ in 0..k {
            stepped.step();
        }
        batched.run(k);

        prop_assert_eq!(stepped.allocation(), batched.allocation());
        prop_assert_eq!(stepped.residuals(), batched.residuals());
        prop_assert_eq!(stepped.escrow_total(), batched.escrow_total());
        prop_assert_eq!(stepped.stranded(), batched.stranded());
        prop_assert_eq!(stepped.in_flight(), batched.in_flight());

        let rs: Vec<_> = stepped.telemetry().unwrap().rounds().map(mask).collect();
        let rb: Vec<_> = batched.telemetry().unwrap().rounds().map(mask).collect();
        prop_assert_eq!(rs.len(), k);
        prop_assert_eq!(rs, rb, "async record streams diverged (drop = {})", drop);
        prop_assert_eq!(
            stepped.telemetry().unwrap().to_jsonl(),
            batched.telemetry().unwrap().to_jsonl(),
            "rendered async traces diverged"
        );
    }
}
