//! Multi-round batching must be invisible: `run(k)` is one engine
//! dispatch for `k` rounds, and this suite pins it to `k` single `step()`
//! calls — same final allocation, same residuals, same telemetry
//! `RoundRecord` stream, bit for bit, on the serial engine and with
//! parallel workers.
//!
//! The two stop rules are just as invisible: `run_until_within` and
//! `run_to_rest` are one dispatch each, pinned here to the loops a caller
//! would write with public `step()` + `total_power()` / `total_utility()`
//! / `last_max_step()` — same returned round, same bits, same next rounds.

use dpc_alg::centralized;
use dpc_alg::diba::{DibaConfig, DibaRun};
use dpc_alg::exec::{Precision, Threads};
use dpc_alg::problem::PowerBudgetProblem;
use dpc_alg::telemetry::TelemetryConfig;
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

/// The cap-test loop written with the public API only: the criterion
/// before the first step and after every step, sums in plain index order.
fn stepped_until_within(
    run: &mut DibaRun,
    reference: f64,
    rel_tol: f64,
    max_rounds: usize,
) -> Option<usize> {
    let start = run.iterations();
    for round in 0..=max_rounds {
        let feasible = run.total_power() <= run.problem().budget() + Watts(1e-6);
        let gap = (reference - run.total_utility()).abs() / reference.abs().max(1e-12);
        if feasible && gap < rel_tol {
            return Some(run.iterations() - start);
        }
        if round < max_rounds {
            run.step();
        }
    }
    None
}

/// The at-rest loop written with the public API only.
fn stepped_to_rest(
    run: &mut DibaRun,
    tol_watts: f64,
    stable_rounds: usize,
    max_rounds: usize,
) -> Option<usize> {
    let start = run.iterations();
    let mut stable = 0usize;
    for _ in 0..max_rounds {
        run.step();
        if run.last_max_step() < tol_watts {
            stable += 1;
            if stable >= stable_rounds {
                return Some(run.iterations() - start);
            }
        } else {
            stable = 0;
        }
    }
    None
}

/// Every way a `DibaRun` executes a round: serial, and parallel with and
/// without oversubscription — each on both kernel tiers.
fn engines() -> Vec<(Threads, Precision)> {
    let mut all = Vec::new();
    for precision in [Precision::Reference, Precision::Fast] {
        for threads in [1, 2, 7] {
            all.push((Threads::Fixed(threads), precision));
        }
    }
    all
}

/// Ring, chord ring or torus over `rows × cols` nodes.
fn stop_rule_graph(kind: usize, rows: usize, cols: usize) -> Graph {
    let n = rows * cols;
    match kind {
        0 => Graph::ring(n),
        1 => Graph::ring_with_chords(n, (n / 8).max(2)),
        _ => Graph::torus(rows, cols).expect("sides of at least 3"),
    }
}

/// Asserts two runs are indistinguishable: state bits, control state (via
/// the next five rounds) and the recorded round stream.
fn assert_same_run(mut a: DibaRun, mut b: DibaRun, what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.iterations(), b.iterations(), "{}: iterations", what);
    prop_assert_eq!(
        a.last_max_step().to_bits(),
        b.last_max_step().to_bits(),
        "{}: last_max_step",
        what
    );
    prop_assert_eq!(a.node_states(), b.node_states(), "{}: (p, e)", what);
    a.run(5);
    b.run(5);
    prop_assert_eq!(
        a.node_states(),
        b.node_states(),
        "{}: five rounds later",
        what
    );
    let ra: Vec<_> = a.telemetry().unwrap().rounds().copied().collect();
    let rb: Vec<_> = b.telemetry().unwrap().rounds().copied().collect();
    prop_assert_eq!(ra, rb, "{}: record streams", what);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `run_until_within` — one dispatch, cap test fused into phase A —
    /// stops at the round, and in the state, of the stepped loop; whether
    /// the criterion fires or the cap does.
    #[test]
    fn cap_test_stop_rule_is_invisible(
        seed in 0u64..1_000,
        rows in 3usize..7,
        cols in 3usize..8,
        kind in 0usize..3,
        rel_tol in (0usize..3).prop_map(|i| [0.05, 0.01, 0.002][i]),
        max_rounds in 0usize..400,
    ) {
        let n = rows * cols;
        let cluster = ClusterBuilder::new(n).seed(seed).build();
        let problem =
            PowerBudgetProblem::new(cluster.utilities(), Watts(171.0 * n as f64)).unwrap();
        let reference = problem.total_utility(&centralized::solve(&problem).allocation);
        for (threads, precision) in engines() {
            let config = DibaConfig {
                threads,
                precision,
                telemetry: TelemetryConfig::with_capacity(max_rounds + 8),
                ..DibaConfig::default()
            };
            let graph = stop_rule_graph(kind, rows, cols);
            let mut stepped = DibaRun::new(problem.clone(), graph, config).unwrap();
            let mut fused = stepped.clone();
            let want = stepped_until_within(&mut stepped, reference, rel_tol, max_rounds);
            let got = fused.run_until_within(reference, rel_tol, max_rounds);
            let what = format!("{threads} {precision}");
            prop_assert_eq!(got, want, "{}: returned round", &what);
            assert_same_run(fused, stepped, &what)?;
        }
    }

    /// `run_to_rest` — one dispatch, streak counted at the round boundary
    /// — likewise, including `stable_rounds` of 0 and 1.
    #[test]
    fn at_rest_stop_rule_is_invisible(
        seed in 0u64..1_000,
        rows in 3usize..7,
        cols in 3usize..8,
        kind in 0usize..3,
        tol_watts in (0usize..3).prop_map(|i| [1.0, 0.1, 0.01][i]),
        stable_rounds in 0usize..12,
        max_rounds in 0usize..600,
    ) {
        let n = rows * cols;
        let cluster = ClusterBuilder::new(n).seed(seed).build();
        let problem =
            PowerBudgetProblem::new(cluster.utilities(), Watts(171.0 * n as f64)).unwrap();
        for (threads, precision) in engines() {
            let config = DibaConfig {
                threads,
                precision,
                telemetry: TelemetryConfig::with_capacity(max_rounds + 8),
                ..DibaConfig::default()
            };
            let graph = stop_rule_graph(kind, rows, cols);
            let mut stepped = DibaRun::new(problem.clone(), graph, config).unwrap();
            let mut fused = stepped.clone();
            let want = stepped_to_rest(&mut stepped, tol_watts, stable_rounds, max_rounds);
            let got = fused.run_to_rest(tol_watts, stable_rounds, max_rounds);
            let what = format!("{threads} {precision}");
            prop_assert_eq!(got, want, "{}: returned round", &what);
            assert_same_run(fused, stepped, &what)?;
        }
    }

    /// Serial and parallel engines: `run(k)` leaves the identical
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

        let rs: Vec<_> = stepped.telemetry().unwrap().rounds().copied().collect();
        let rb: Vec<_> = batched.telemetry().unwrap().rounds().copied().collect();
        prop_assert_eq!(rs.len(), k);
        prop_assert_eq!(rs, rb, "record streams diverged at {} threads", threads);
        prop_assert_eq!(
            stepped.telemetry().unwrap().to_jsonl(),
            batched.telemetry().unwrap().to_jsonl(),
            "rendered traces diverged"
        );
    }
}

/// The long dispatch at scale: on the 100 000-node chord ring of
/// `solve_scale_100k`, one fused `run_until_within` stops at the round and
/// in the bits of the stepped loop — with two workers, and with
/// seven (oversubscribed on a small host, so every barrier parks).
/// Release-only
/// (`cargo test --release -p dpc-alg --test batch_identity -- --ignored`):
/// ~2 000 rounds at about a millisecond each, three times.
#[test]
#[ignore = "release-only: three 100 000-node solves"]
fn cap_test_stop_rule_is_invisible_at_100k() {
    let n = 100_000;
    let cluster = ClusterBuilder::new(n).seed(0).build();
    let problem = PowerBudgetProblem::new(cluster.utilities(), Watts(172.0 * n as f64)).unwrap();
    let reference = problem.total_utility(&centralized::solve(&problem).allocation);
    let config = DibaConfig {
        threads: Threads::Fixed(2),
        ..DibaConfig::default()
    };
    let graph = Graph::ring_with_chords(n, n / 64);
    let mut stepped = DibaRun::new(problem, graph, config).unwrap();
    let cold = stepped.clone();
    let want = stepped_until_within(&mut stepped, reference, 0.01, 20_000);
    assert!(want.is_some(), "the stepped loop never capped");
    for threads in [2, 7] {
        let mut fused = cold.clone();
        fused.set_threads(Threads::Fixed(threads));
        assert_eq!(fused.run_until_within(reference, 0.01, 20_000), want);
        assert_eq!(fused.iterations(), stepped.iterations());
        assert_eq!(
            fused.last_max_step().to_bits(),
            stepped.last_max_step().to_bits()
        );
        assert!(
            fused.node_states() == stepped.node_states(),
            "(p, e) diverged with {threads} workers"
        );
    }
}
