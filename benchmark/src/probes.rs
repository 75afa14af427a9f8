//! Per-layer probes of the traced pass.
//!
//! Each probe measures one product module from outside, on the workload's
//! own problem (pool instance 0) wherever the module's API accepts it, so
//! the same metric name reads as "this layer, at this workload's size and
//! topology". Runs that would take a whole solve per sample are capped at
//! [`probe_rounds`] rounds. The wire and `node_action_into` probes do not
//! depend on the problem's size. The replay probe (warm against cold
//! rounds, `dpc_sim::replay` against the direct drive) always runs
//! timeline 0 of `replay_events_1k`: a `Scenario` can name no other
//! workload's shape, and a cold restart per event costs a whole solve.

use crate::calib::Calibrator;
use crate::spec::MetricSet;
use crate::stats::{median, percentile};
use crate::timeline;
use crate::trace::Tracer;
use crate::workload::{
    build_instance, new_run, run_instance, solve_to_cap, Instance, Shape, WarmRun, Workload,
};
use dpc_alg::diba::{node_action_into, DibaConfig, DibaRun, NodeScratch};
use dpc_alg::exec::{Backend, Precision, Threads};
use dpc_models::units::Watts;
use dpc_net::CommModel;
use dpc_runtime::cluster::{
    node_specs, run_cluster, ClusterOutcome, RuntimeConfig, ShardCount, TransportKind,
};
use dpc_runtime::wire::{BatchEntry, BatchWriter, DataBatch, EntryKind, FrameKind, Reassembly};
use dpc_sim::replay::{replay, ReplayConfig, Scenario, ScenarioEvent};
use dpc_topology::spectral::consensus_spectrum;
use dpc_topology::Graph;
use std::hint::black_box;
use std::time::Instant;

/// Round cap of a probe run: about three million node-rounds, between 30
/// and 1 500 rounds (1 500 on the 1 024-agent torus, the cap the product's
/// own framing comparison uses).
pub fn probe_rounds(servers: usize) -> usize {
    (3_000_000 / servers).clamp(30, 1_500)
}

fn secs(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// Median seconds of `repeats` calls of `f`.
fn median_secs(repeats: usize, mut f: impl FnMut()) -> f64 {
    median(&(0..repeats).map(|_| secs(&mut f)).collect::<Vec<_>>())
}

/// Cost of one `Instant::now()` (ns).
pub fn timer_ns() -> f64 {
    const CALLS: usize = 1_000_000;
    let s = secs(|| {
        for _ in 0..CALLS {
            black_box(Instant::now());
        }
    });
    s * 1e9 / CALLS as f64
}

/// Durations (seconds) of a fixed arithmetic spin loop. Their spread is
/// what the host adds to work that never varies.
pub fn spin_samples(samples: usize) -> Vec<f64> {
    (0..samples)
        .map(|_| {
            secs(|| {
                let mut x = 0x9E37_79B9_7F4A_7C15u64;
                for i in 0..400_000u64 {
                    x = black_box(x.rotate_left(7) ^ i).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                }
                black_box(x);
            })
        })
        .collect()
}

/// `models`, `topology`, `alg_centralized` and `alg_diba::new` set-up
/// costs, from the spans recorded around every instance built so far.
pub fn setup_metrics(set: &mut MetricSet, tracer: &Tracer, inst: &Instance) {
    let ms = |name: &str| median(&tracer.durations_s(name)) * 1e3;
    set.set("models.build_ms", ms("models.build"));
    set.set("topology.build_ms", ms("topology.build"));
    set.set("alg_centralized.solve_ms", ms("alg_centralized.solve"));
    set.set("alg_diba.new_ms", ms("alg_diba.new"));
    set.set(
        "topology.spectral_gap",
        consensus_spectrum(&inst.graph, 200).gap,
    );
}

/// Reference solve of the instance, the harness's own step loop: the
/// source of the step and criterion spans on workloads whose episodes
/// have none, and the run the fast tier and the warm probe start from.
pub fn solver(shape: &Shape, inst: &Instance, tracer: &mut Tracer) -> (DibaRun, usize) {
    let mut run = new_run(inst, shape.diba(), tracer);
    let rounds = solve_to_cap(&mut run, inst.oracle_utility, tracer)
        .expect("the reference solve of instance 0 reaches the cap");
    (run, rounds)
}

/// Step and criterion metrics from every such span recorded so far.
pub fn step_metrics(set: &mut MetricSet, tracer: &Tracer, servers: usize) {
    let steps = tracer.durations_s("alg_diba.step");
    let criteria = tracer.durations_s("alg_diba.criterion");
    let p50 = percentile(&steps, 50.0);
    set.set("alg_diba.step_us_p50", p50 * 1e6);
    set.set("alg_diba.step_us_p99", percentile(&steps, 99.0) * 1e6);
    set.set("alg_diba.ns_per_node_round", p50 * 1e9 / servers as f64);
    set.set("alg_diba.criterion_us", median(&criteria) * 1e6);
    // Share of a cold solve's round spent on the cap test. Steps of warm
    // re-settles have no criterion beside them, so pair by count.
    let per_round = median(&criteria) + p50;
    set.set(
        "alg_diba.criterion_share_pct",
        100.0 * median(&criteria) / per_round,
    );
}

/// `node_action_into` at `degree` neighbors with a reused scratch, on
/// node states a few rounds into the instance's solve (ns per call).
fn node_action_ns(inst: &Instance, degree: usize, calls: usize) -> f64 {
    let config = DibaConfig {
        threads: Threads::Fixed(1),
        ..DibaConfig::default()
    };
    let mut run = new_run(inst, config, &mut Tracer::off());
    run.run(50);
    let (states, params) = (run.node_states(), run.params());
    let n = states.len();
    let mut scratch = NodeScratch::with_capacity(degree);
    let mut neighbor_e = vec![0.0; degree];
    let mut acc = 0.0;
    let s = secs(|| {
        for call in 0..calls {
            let node = call % n;
            let (p, e) = states[node];
            for (d, slot) in neighbor_e.iter_mut().enumerate() {
                *slot = states[(node + d + 1) % n].1;
            }
            acc += node_action_into(
                inst.problem.utility(node),
                black_box(p),
                e,
                &neighbor_e,
                &params,
                &mut scratch,
            );
        }
    });
    black_box(acc);
    s * 1e9 / calls as f64
}

pub fn kernel_metrics(set: &mut MetricSet, inst: &Instance, quick: bool) {
    let calls = if quick { 100_000 } else { 1_000_000 };
    set.set("alg_diba.node_action_ns_d2", node_action_ns(inst, 2, calls));
    set.set("alg_diba.node_action_ns_d4", node_action_ns(inst, 4, calls));
}

/// Median µs per round of batched `run()` calls under `config`.
fn batched_round_us(
    inst: &Instance,
    config: DibaConfig,
    rounds: usize,
    repeats: usize,
) -> (f64, usize) {
    let mut run = new_run(inst, config, &mut Tracer::off());
    run.run(8);
    let s = median_secs(repeats, || run.run(rounds));
    (s * 1e6 / rounds as f64, run.threads())
}

/// Serial vs pooled vs scoped round time on the instance, and the pool's
/// dispatch cost on a problem too small to have any other.
pub fn exec_metrics(set: &mut MetricSet, inst: &Instance, quick: bool) {
    let rounds = probe_rounds(inst.problem.len());
    let repeats = if quick { 3 } else { 10 };
    let with = |threads, backend| DibaConfig {
        threads,
        backend,
        ..DibaConfig::default()
    };
    let (serial, _) = batched_round_us(
        inst,
        with(Threads::Fixed(1), Backend::Pooled),
        rounds,
        repeats,
    );
    let (pooled, workers) =
        batched_round_us(inst, with(Threads::Auto, Backend::Pooled), rounds, repeats);
    let (scoped, _) = batched_round_us(inst, with(Threads::Auto, Backend::Scoped), rounds, repeats);
    set.set("alg_exec.workers", workers as f64);
    set.set("alg_exec.serial_round_us", serial);
    set.set("alg_exec.pooled_round_us", pooled);
    set.set("alg_exec.scoped_round_us", scoped);
    set.set("alg_exec.pooled_speedup", serial / pooled);

    let tiny = build_instance(
        &Shape {
            servers: 64,
            ..Workload::ReplayEvents1k.shape(true)
        },
        inst.seed,
        &mut Tracer::off(),
    );
    let (tiny_serial, _) = batched_round_us(
        &tiny,
        with(Threads::Fixed(1), Backend::Pooled),
        2_000,
        repeats,
    );
    let (tiny_pooled, _) = batched_round_us(
        &tiny,
        with(Threads::Fixed(2), Backend::Pooled),
        2_000,
        repeats,
    );
    set.set("alg_exec.dispatch_us", tiny_pooled - tiny_serial);
}

/// The fast tier on the same instance, one thread, against the reference
/// solve `(reference, reference_rounds)` that [`solver`] produced.
/// Returns whether the fast allocation stayed within `equiv_eps_watts`.
pub fn fast_metrics(
    set: &mut MetricSet,
    inst: &Instance,
    reference: &DibaRun,
    reference_rounds: usize,
    reference_step_s: f64,
) -> bool {
    let config = DibaConfig {
        threads: Threads::Fixed(1),
        precision: Precision::Fast,
        ..DibaConfig::default()
    };
    let mut tracer = Tracer::new(true);
    let mut fast = new_run(inst, config, &mut tracer);
    let rounds = solve_to_cap(&mut fast, inst.oracle_utility, &mut tracer)
        .expect("the fast tier reaches the cap on instance 0");
    let step_s = percentile(&tracer.durations_s("alg_diba.step"), 50.0);
    // Compare allocations at the same round: bring the tier that stopped
    // first up to the other's count.
    let mut reference = reference.clone();
    if rounds < reference_rounds {
        fast.run(reference_rounds - rounds);
    } else {
        reference.run(rounds - reference_rounds);
    }
    let dev = fast.allocation().max_abs_diff(&reference.allocation()).0;
    set.set(
        "alg_fast.ns_per_node_round",
        step_s * 1e9 / inst.problem.len() as f64,
    );
    set.set("alg_fast.speedup_vs_reference", reference_step_s / step_s);
    set.set("alg_fast.max_dev_w", dev);
    set.set("alg_fast.rounds_to_cap", rounds as f64);
    dev <= config.equiv_eps_watts
}

/// Cost of the two warm-start entry points at the instance's size: a
/// 5 % budget cut and one server's phase change applied to the solved
/// reference run, not settled afterwards.
pub fn entry_point_metrics(
    set: &mut MetricSet,
    shape: &Shape,
    reference: DibaRun,
    tracer: &mut Tracer,
) {
    let mut warm = WarmRun::adopt(reference, None);
    warm.apply(
        &ScenarioEvent::SetBudget(Watts(shape.budget().0 * 0.95)),
        tracer,
    );
    warm.apply(
        &ScenarioEvent::Phase {
            node: shape.servers / 3,
            memory_boundedness: 0.8,
        },
        tracer,
    );
    let us = |name: &str| median(&tracer.durations_s(name)) * 1e6;
    set.set("alg_diba.set_budget_us", us("alg_diba.set_budget"));
    set.set(
        "alg_diba.replace_utilities_us",
        us("alg_diba.replace_utilities"),
    );
}

/// `(encode ns/entry, decode ns/entry, bytes/entry)` for frames of
/// `entries` entries through reused buffers.
fn wire_batch(entries: usize, total_entries: usize) -> (f64, f64, f64) {
    let batch: Vec<BatchEntry> = (0..entries)
        .map(|i| BatchEntry {
            slot: i as u32,
            e: -1.5 - i as f64 * 1e-3,
            transfer: -(i as f64) * 1e-4,
            settled: i % 7 == 0,
            kind: EntryKind::Data,
        })
        .collect();
    let reps = total_entries.div_ceil(entries);
    let mut buf = Vec::new();
    let mut writer = BatchWriter::new();
    let encode = secs(|| {
        for round in 0..reps {
            buf.clear();
            for entry in &batch {
                writer.push(&mut buf, round as u32, *entry, true);
            }
            writer.seal(&mut buf);
            black_box(&buf);
        }
    });
    let mut reassembly = Reassembly::new();
    let mut decoded = DataBatch::default();
    let mut seen = 0usize;
    let decode = secs(|| {
        for _ in 0..reps {
            reassembly.push(&buf);
            while let Some(kind) = reassembly
                .next_frame_into(&mut decoded)
                .expect("the harness's own frames decode")
            {
                assert!(matches!(kind, FrameKind::Batch));
                seen += black_box(&decoded).entries.len();
            }
        }
    });
    assert_eq!(seen, reps * entries, "every encoded entry decodes");
    let per_entry = 1e9 / (reps * entries) as f64;
    (
        encode * per_entry,
        decode * per_entry,
        buf.len() as f64 / entries as f64,
    )
}

pub fn wire_metrics(set: &mut MetricSet, quick: bool) {
    let total = if quick { 100_000 } else { 2_000_000 };
    let (enc, dec, bytes) = wire_batch(128, total);
    set.set("runtime_wire.encode_ns_per_entry_128", enc);
    set.set("runtime_wire.decode_ns_per_entry_128", dec);
    set.set("runtime_wire.bytes_per_entry_128", bytes);
    let (enc, dec, bytes) = wire_batch(2_048, total);
    set.set("runtime_wire.encode_ns_per_entry_2048", enc);
    set.set("runtime_wire.decode_ns_per_entry_2048", dec);
    set.set("runtime_wire.bytes_per_entry_2048", bytes);
}

/// One deployment of the instance; `(seconds, outcome)`.
fn deploy(inst: &Instance, diba: DibaConfig, rt: &RuntimeConfig) -> (f64, ClusterOutcome) {
    let (problem, graph) = (inst.problem.clone(), inst.graph.clone());
    let t = Instant::now();
    let outcome = run_cluster(problem, graph, diba, rt).expect("in-memory or loopback deployment");
    (t.elapsed().as_secs_f64(), outcome)
}

/// Median seconds and the last outcome of `repeats` deployments.
fn deploy_median(
    inst: &Instance,
    diba: DibaConfig,
    rt: &RuntimeConfig,
    repeats: usize,
) -> (f64, ClusterOutcome) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..repeats {
        let (s, outcome) = deploy(inst, diba, rt);
        times.push(s);
        last = Some(outcome);
    }
    (median(&times), last.expect("at least one repeat"))
}

/// The runtime layers on the instance, every run capped at the same
/// round count so the variants compare equal work: `node_specs`, the
/// lockstep reference, and the reactor with one shard, with two shards
/// (one loopback TCP carrier) and with per-message framing.
pub fn runtime_metrics(
    set: &mut MetricSet,
    shape: &Shape,
    inst: &Instance,
    quick: bool,
    tracer: &mut Tracer,
) {
    let n = shape.servers;
    let diba = shape.diba();
    let rounds = probe_rounds(n);
    let repeats = if quick || n > 20_000 { 1 } else { 3 };
    let capped = RuntimeConfig {
        max_rounds: rounds,
        ..shape.runtime()
    };

    let s = tracer.enter("runtime_cluster.node_specs");
    black_box(node_specs(&inst.problem, &inst.graph, diba, &capped).expect("valid configuration"));
    tracer.exit(s);
    set.set(
        "runtime_cluster.node_specs_ms",
        median(&tracer.durations_s("runtime_cluster.node_specs")) * 1e3,
    );

    let (bringup_s, _) = deploy_median(
        inst,
        diba,
        &RuntimeConfig {
            max_rounds: 1,
            ..capped
        },
        repeats,
    );
    // Round time of a capped run, bring-up taken off.
    let round_us = |secs: f64, outcome: &ClusterOutcome| {
        (secs - bringup_s).max(secs * 0.01) * 1e6 / outcome.rounds as f64
    };

    let lockstep = RuntimeConfig {
        transport: TransportKind::Lockstep,
        ..capped
    };
    let (lock_s, lock_out) = deploy_median(inst, diba, &lockstep, repeats);
    set.set(
        "runtime_lockstep.round_us",
        lock_s * 1e6 / lock_out.rounds as f64,
    );

    let (base_s, base) = deploy_median(inst, diba, &capped, repeats);
    let base_us = round_us(base_s, &base);
    let msgs_per_round = base.msgs_sent as f64 / base.rounds as f64;
    set.set("runtime_reactor.round_us", base_us);
    set.set("runtime_reactor.msgs_per_round", msgs_per_round);
    set.set("runtime_reactor.msgs_per_s", base.msgs_sent as f64 / base_s);
    set.set("runtime_reactor.heartbeats", base.heartbeats as f64);
    set.set(
        "runtime_reactor.ns_per_agent_round",
        base_us * 1e3 / n as f64,
    );
    set.set(
        "runtime_reactor.peak_threads",
        f64::from(base.peak_threads.unwrap_or(0)),
    );
    set.set("runtime_reactor.bringup_ms", bringup_s * 1e3);

    let two_shards = RuntimeConfig {
        shards: ShardCount::Fixed(2),
        ..capped
    };
    let (x_s, x_out) = deploy_median(inst, diba, &two_shards, repeats);
    set.set("runtime_reactor.xshard_round_us", round_us(x_s, &x_out));
    set.set(
        "runtime_reactor.xshard_penalty",
        round_us(x_s, &x_out) / base_us,
    );

    let per_message = RuntimeConfig {
        coalesce: false,
        ..capped
    };
    let (pm_s, pm_out) = deploy_median(inst, diba, &per_message, repeats);
    set.set(
        "runtime_reactor.per_message_round_us",
        round_us(pm_s, &pm_out),
    );
    set.set(
        "runtime_reactor.coalesce_speedup",
        round_us(pm_s, &pm_out) / base_us,
    );

    let entry_bytes = set
        .get("runtime_wire.bytes_per_entry_2048")
        .expect("wire probe ran first");
    set.set("runtime_wire.bytes_per_round", msgs_per_round * entry_bytes);

    // What no outside measurement explains: the round minus the kernel
    // (one node action per agent) and the wire (one encode and one decode
    // per message).
    let kernel_ns = if inst.graph.max_degree() <= 2 {
        set.get("alg_diba.node_action_ns_d2")
    } else {
        set.get("alg_diba.node_action_ns_d4")
    }
    .expect("kernel probe ran first");
    let wire_ns = set
        .get("runtime_wire.encode_ns_per_entry_2048")
        .expect("wire probe ran first")
        + set
            .get("runtime_wire.decode_ns_per_entry_2048")
            .expect("wire probe ran first");
    let explained_us = (n as f64 * kernel_ns + msgs_per_round * wire_ns) * 1e-3;
    set.set(
        "runtime_reactor.unattributed_pct",
        100.0 * (base_us - explained_us) / base_us,
    );
}

/// The reactor and the lockstep reference must land on the same bits.
pub fn reactor_matches_lockstep(
    shape: &Shape,
    inst: &Instance,
    reactor: &dpc_alg::problem::Allocation,
) -> bool {
    let lockstep = RuntimeConfig {
        transport: TransportKind::Lockstep,
        ..shape.runtime()
    };
    let (_, reference) = deploy(inst, shape.diba(), &lockstep);
    reference.converged
        && reference.allocation.len() == reactor.len()
        && reference
            .allocation
            .powers()
            .iter()
            .zip(reactor.powers())
            .all(|(a, b)| a.0.to_bits() == b.0.to_bits())
}

/// What the replay probe found.
#[derive(Debug)]
pub struct ReplayProbe {
    /// Whole `dpc_sim::replay::replay` call (ms).
    pub timeline_ms: f64,
    /// The same timeline driven directly by the harness, set-up included (ms).
    pub direct_ms: f64,
    /// Initial settle and every per-event round count equal on both sides.
    pub rounds_agree: bool,
    /// Per-event rounds of the warm re-cap.
    pub warm_rounds: Vec<f64>,
    /// Per-event rounds of a cold restart on the same mutated problem
    /// (empty unless asked for).
    pub cold_rounds: Vec<f64>,
}

/// Drives timeline 0 of `replay_events_1k` both ways: directly (as the
/// workload does) and through `dpc_sim::replay::replay` on the equivalent
/// `Scenario`. With `with_cold`, a third pass restarts a cold solver on
/// the mutated problem after every event.
pub fn replay_probe(seed: u64, quick: bool, with_cold: bool) -> ReplayProbe {
    let shape = Workload::ReplayEvents1k.shape(quick);
    let off = &mut Tracer::off();
    let instance_seed = shape.instance_seed(seed, 0);
    let events = timeline::generate(instance_seed, shape.servers, shape.budget().0, shape.events);
    let scenario = Scenario {
        servers: shape.servers,
        seed: instance_seed,
        topology: "ring".to_string(),
        budget: shape.budget(),
        events: events.clone(),
    };
    let config = ReplayConfig {
        diba: shape.diba(),
        compare_cold: false,
        ..ReplayConfig::default()
    };

    // One pass of each drive: `(sample, report, direct ms, replay ms)`.
    // The direct time is set-up plus timed regions — what `replay` also
    // does — without the judge's oracle solves between them.
    let mut drive_both = || {
        let sample = run_instance(&shape, seed, 0, off, &mut Calibrator::off());
        let direct_s = sample.setup_s + sample.episodes.iter().map(|e| e.wall_s).sum::<f64>();
        let t = Instant::now();
        let report = replay(&scenario, &config)
            .expect("a generated scenario is valid")
            .report;
        (
            sample,
            report,
            direct_s * 1e3,
            t.elapsed().as_secs_f64() * 1e3,
        )
    };
    // Both drives do the same rounds; where the times are reported,
    // alternate them three times and compare medians.
    let (direct, report, direct_ms, sim_ms) = drive_both();
    let (mut direct_times, mut sim_times) = (vec![direct_ms], vec![sim_ms]);
    if with_cold && !quick {
        for _ in 0..2 {
            let (_, _, direct_ms, sim_ms) = drive_both();
            direct_times.push(direct_ms);
            sim_times.push(sim_ms);
        }
    }

    let rounds_agree = report.initial_rounds == direct.initial_rounds
        && report.events.len() == direct.episodes.len()
        && report
            .events
            .iter()
            .zip(&direct.episodes)
            .all(|(sim, own)| sim.warm_rounds == Some(own.rounds));

    let mut cold_rounds = Vec::new();
    if with_cold {
        let inst = build_instance(&shape, instance_seed, off);
        let mut warm = WarmRun::settle(&inst, shape.diba(), off);
        for event in &events {
            warm.recap_episode(event, off);
            let cold = warm.cold_rounds(&inst.graph, shape.diba());
            cold_rounds
                .push(cold.expect("a cold restart comes to rest inside the settle bound") as f64);
        }
    }
    ReplayProbe {
        timeline_ms: median(&sim_times),
        direct_ms: median(&direct_times),
        rounds_agree,
        warm_rounds: direct.episodes.iter().map(|e| e.rounds as f64).collect(),
        cold_rounds,
    }
}

pub fn replay_metrics(set: &mut MetricSet, probe: &ReplayProbe) {
    set.set("sim_replay.timeline_ms", probe.timeline_ms);
    set.set(
        "sim_replay.driver_overhead_pct",
        100.0 * (probe.timeline_ms - probe.direct_ms) / probe.direct_ms,
    );
    set.set(
        "alg_diba.warm_rounds_p50",
        percentile(&probe.warm_rounds, 50.0),
    );
    set.set(
        "alg_diba.warm_rounds_p95",
        percentile(&probe.warm_rounds, 95.0),
    );
    set.set(
        "alg_diba.cold_rounds_p50",
        percentile(&probe.cold_rounds, 50.0),
    );
}

/// The paper's socket constants applied to the measured round count —
/// computed, never measured: no delay is injected anywhere.
pub fn modeled_comm_ms(graph: &Graph, rounds: usize) -> f64 {
    CommModel::paper().diba_total(graph.max_degree(), rounds).0 * 1e3
}
