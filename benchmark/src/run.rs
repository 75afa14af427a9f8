//! One run of one workload: the untraced pass that yields the end-to-end
//! metrics, or the traced pass that yields the per-layer metrics.

use crate::probes;
use crate::spec::{Metric, MetricSet, END_TO_END, PER_LAYER};
use crate::stats::{median, percentile, summarize, Summary};
use crate::trace::Tracer;
use crate::workload::{build_instance, run_instance, Episode, Sample, Shape, Workload};
use dpc_alg::exec::host_parallelism;
use std::collections::BTreeMap;
use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Rounds and messages of the seed-0 deployment, as pinned in
/// `BENCH_runtime.json` (torus, 1 024 servers).
const PINNED_TORUS_SEED0: (usize, u64) = (12_569, 19_751_890);

const REPLAY_MISMATCH: &str = "per-event rounds differ from dpc_sim::replay::replay";

/// Most instance pairs the traced pass runs; bounds the trace file.
const MAX_TRACED_PAIRS: usize = 4;

#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Shrunken sizes for a smoke run; its numbers are not for claims.
    pub quick: bool,
    /// Where the traced pass writes `trace_<workload>.jsonl`.
    pub out_dir: PathBuf,
}

/// What one run reports.
#[derive(Debug)]
pub struct Outcome {
    /// Every episode passed and every cross-check held.
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<(&'static Metric, f64)>,
    /// Sample count and quartiles behind each metric that has them.
    pub summaries: Vec<(&'static str, Summary)>,
    /// Human-readable findings: failed episodes, broken cross-checks.
    pub notes: Vec<String>,
}

impl Outcome {
    /// The result line the driver reads: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(m, v)| {
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// One line per metric: name, value, unit, and the samples behind it.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (m, v) in &self.metrics {
            let spread = self
                .summaries
                .iter()
                .find(|(name, _)| *name == m.name)
                .map(|(_, s)| format!("  n={} q1={:.6} q3={:.6}", s.n, s.q1, s.q3))
                .unwrap_or_default();
            out.push_str(&format!(
                "{:<42} {:>16.6} {:<7}{spread}\n",
                m.name, v, m.unit
            ));
        }
        out
    }
}

pub fn run(opts: &Options) -> io::Result<Outcome> {
    if opts.trace {
        traced_pass(opts)
    } else {
        Ok(untraced_pass(opts))
    }
}

/// Episodes of `samples`, flattened.
fn episodes(samples: &[Sample]) -> impl Iterator<Item = &Episode> {
    samples.iter().flat_map(|s| &s.episodes)
}

fn note_failures(samples: &[Sample], notes: &mut Vec<String>) -> usize {
    let mut failed = 0;
    for (k, sample) in samples.iter().enumerate() {
        for (j, e) in sample.episodes.iter().enumerate() {
            if let Some(why) = &e.failure {
                failed += 1;
                notes.push(format!("instance {k} episode {j} failed: {why}"));
            }
        }
    }
    failed
}

/// Cross-checks on the warm-up sample (instance 0), which every run has.
fn cross_checks(opts: &Options, shape: &Shape, warmup: &Sample, notes: &mut Vec<String>) -> bool {
    let before = notes.len();
    if let Some((allocation, msgs)) = &warmup.cluster {
        let inst = build_instance(shape, shape.instance_seed(opts.seed, 0), &mut Tracer::off());
        if !probes::reactor_matches_lockstep(shape, &inst, allocation) {
            notes.push("reactor allocation is not bitwise-equal to lockstep".to_string());
        }
        let got = (warmup.episodes[0].rounds, *msgs);
        if opts.seed == 0 && !opts.quick && got != PINNED_TORUS_SEED0 {
            notes.push(format!(
                "seed 0 gave {got:?} (rounds, msgs), BENCH_runtime.json pins {PINNED_TORUS_SEED0:?}"
            ));
        }
    }
    // The traced pass runs the replay probe on every workload anyway.
    if opts.workload == Workload::ReplayEvents1k
        && !opts.trace
        && !probes::replay_probe(opts.seed, opts.quick, false).rounds_agree
    {
        notes.push(REPLAY_MISMATCH.to_string());
    }
    notes.len() == before
}

/// Median of the values that share a slot, for every slot, in slot order.
fn slot_medians(values: impl Iterator<Item = (usize, f64)>) -> Vec<f64> {
    let mut slots: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for (slot, value) in values {
        slots.entry(slot).or_default().push(value);
    }
    slots.values().map(|v| median(v)).collect()
}

/// `VmHWM` of this process (MB).
fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn untraced_pass(opts: &Options) -> Outcome {
    let shape = opts.workload.shape(opts.quick);
    let mut off = Tracer::off();
    let mut cal = shape.calibrator();
    let mut notes = Vec::new();

    // One untimed warm-up sample; the cross-checks reuse its outputs.
    let warmup = run_instance(&shape, opts.seed, 0, &mut off, &mut cal);
    let mut correct = cross_checks(opts, &shape, &warmup, &mut notes);

    // Closed loop, one driver thread: the next episode starts when the
    // previous one returns. At least one full cycle through the pool,
    // then whole samples until the time is up.
    let window = Duration::from_secs_f64(opts.seconds);
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < shape.pool || start.elapsed() < window {
        samples.push(run_instance(
            &shape,
            opts.seed,
            samples.len(),
            &mut off,
            &mut cal,
        ));
    }

    let attempted = episodes(&samples).count();
    let failed = note_failures(&samples, &mut notes);
    correct &= failed == 0;

    // Timings are at nominal host speed, one value per pool slot (the
    // median over the cycles that reached it), so every instance weighs
    // the same however far into the next cycle the run got. Rounds and gap
    // use the first cycle; they repeat on every cycle anyway.
    let setup = slot_medians(
        samples
            .iter()
            .enumerate()
            .map(|(k, s)| (k % shape.pool, s.setup_s / s.setup_slowdown)),
    );
    let per_episode = |value: &dyn Fn(&Episode) -> f64| {
        slot_medians(samples.iter().enumerate().flat_map(|(k, s)| {
            let per_sample = s.episodes.len();
            s.episodes
                .iter()
                .enumerate()
                .map(move |(j, e)| ((k % shape.pool) * per_sample + j, value(e)))
        }))
    };
    let first_cycle = &samples[..shape.pool];
    let series: [(&'static str, Vec<f64>); 5] = [
        ("setup_s", setup),
        ("time_to_cap_ms", per_episode(&|e| e.nominal_s() * 1e3)),
        (
            "rounds_to_cap",
            episodes(first_cycle).map(|e| e.rounds as f64).collect(),
        ),
        (
            "round_us",
            per_episode(&|e| e.nominal_s() * 1e6 / e.rounds.max(1) as f64),
        ),
        (
            "cap_gap_pct",
            episodes(first_cycle).map(|e| e.gap_pct).collect(),
        ),
    ];
    let mut set = MetricSet::new(&END_TO_END);
    let mut summaries = Vec::new();
    for (name, values) in &series {
        set.set(name, median(values));
        summaries.push((*name, summarize(values)));
    }
    set.set("peak_rss_mb", peak_rss_mb());

    let raw_ms: Vec<f64> = episodes(&samples).map(|e| e.wall_s * 1e3).collect();
    let slowdowns: Vec<f64> = episodes(&samples).map(|e| e.slowdown).collect();
    notes.push(format!(
        "as measured: time_to_cap_ms median {:.4}, nearest-rank p95 {:.4} (n={}); host slowdown median {:.3}",
        median(&raw_ms),
        percentile(&raw_ms, 95.0),
        raw_ms.len(),
        median(&slowdowns)
    ));
    notes.push(format!(
        "rounds_to_cap x round_us = {:.4} ms against time_to_cap_ms = {:.4} ms",
        set.get("rounds_to_cap").expect("just set") * set.get("round_us").expect("just set") * 1e-3,
        set.get("time_to_cap_ms").expect("just set")
    ));

    Outcome {
        correct,
        attempted,
        failed,
        metrics: set.finish(),
        summaries,
        notes,
    }
}

fn traced_pass(opts: &Options) -> io::Result<Outcome> {
    let shape = opts.workload.shape(opts.quick);
    let mut tracer = Tracer::new(true);
    let mut off = Tracer::off();
    let mut cal = shape.calibrator();
    let mut notes = Vec::new();
    let mut set = MetricSet::new(&PER_LAYER);
    let noise_before = probes::spin_samples(50);

    // Pairs of the same instance, untraced and traced (taking turns to go
    // first), for half the run: the traced one fills the trace, their
    // ratio is the tracing overhead.
    let window = Duration::from_secs_f64(opts.seconds / 2.0);
    let start = Instant::now();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    while plain.is_empty()
        || (start.elapsed() < window && plain.len() < shape.pool.min(MAX_TRACED_PAIRS))
    {
        let k = plain.len();
        if k % 2 == 0 {
            plain.push(run_instance(&shape, opts.seed, k, &mut off, &mut cal));
        }
        traced.push(run_instance(&shape, opts.seed, k, &mut tracer, &mut cal));
        if k % 2 == 1 {
            plain.push(run_instance(&shape, opts.seed, k, &mut off, &mut cal));
        }
    }
    let mut correct = cross_checks(opts, &shape, &plain[0], &mut notes);
    let attempted = episodes(&plain).count() + episodes(&traced).count();
    let failed = note_failures(&plain, &mut notes) + note_failures(&traced, &mut notes);
    correct &= failed == 0;
    let nominal_ms = |samples: &[Sample]| {
        median(
            &episodes(samples)
                .map(|e| e.nominal_s() * 1e3)
                .collect::<Vec<_>>(),
        )
    };
    set.set(
        "harness.trace_overhead_pct",
        100.0 * (nominal_ms(&traced) - nominal_ms(&plain)) / nominal_ms(&plain),
    );
    let slowdowns: Vec<f64> = episodes(&plain)
        .chain(episodes(&traced))
        .map(|e| e.slowdown)
        .collect();
    set.set("harness.host_slowdown", median(&slowdowns));

    // Layer probes on instance 0.
    let inst = build_instance(&shape, shape.instance_seed(opts.seed, 0), &mut tracer);
    tracer.set_episode(u32::MAX);
    let (reference, reference_rounds) = probes::solver(&shape, &inst, &mut tracer);
    probes::setup_metrics(&mut set, &tracer, &inst);
    probes::step_metrics(&mut set, &tracer, shape.servers);
    let reference_step_s = set.get("alg_diba.step_us_p50").expect("just set") * 1e-6;
    if !probes::fast_metrics(
        &mut set,
        &inst,
        &reference,
        reference_rounds,
        reference_step_s,
    ) {
        correct = false;
        notes.push("fast tier drifted past equiv_eps_watts from the reference".to_string());
    }
    probes::kernel_metrics(&mut set, &inst, opts.quick);
    probes::exec_metrics(&mut set, &inst, opts.quick);

    probes::entry_point_metrics(&mut set, &shape, reference, &mut tracer);
    probes::wire_metrics(&mut set, opts.quick);
    probes::runtime_metrics(&mut set, &shape, &inst, opts.quick, &mut tracer);
    let replay = probes::replay_probe(opts.seed, opts.quick, true);
    if !replay.rounds_agree {
        correct = false;
        notes.push(REPLAY_MISMATCH.to_string());
    }
    probes::replay_metrics(&mut set, &replay);

    let rounds: Vec<f64> = episodes(&plain).map(|e| e.rounds as f64).collect();
    set.set(
        "net.modeled_comm_ms",
        probes::modeled_comm_ms(&inst.graph, median(&rounds) as usize),
    );
    set.set("harness.timer_ns", probes::timer_ns());
    let mut noise = noise_before;
    noise.extend(probes::spin_samples(50));
    set.set(
        "harness.noise_floor_pct",
        100.0 * summarize(&noise).spread(),
    );
    set.set("host.nproc", host_parallelism() as f64);

    fs::create_dir_all(&opts.out_dir)?;
    let path = opts
        .out_dir
        .join(format!("trace_{}.jsonl", opts.workload.name()));
    let mut file = BufWriter::new(fs::File::create(&path)?);
    tracer.write_jsonl(&mut file)?;
    file.flush()?;
    notes.push(format!(
        "{} spans written to {}",
        tracer.spans().len(),
        path.display()
    ));

    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics: set.finish(),
        summaries: Vec::new(),
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    fn names(list: &Value) -> Vec<String> {
        list.as_array()
            .unwrap()
            .iter()
            .map(|m| m.get("name").unwrap().as_str().unwrap().to_string())
            .collect()
    }

    /// The smallest workload, quick sizes, both passes: every name the run
    /// prints is in `BENCHMARK.json` and every name there is printed.
    #[test]
    fn a_quick_run_prints_exactly_the_names_in_benchmark_json() {
        let contract = json::parse(
            &fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json")).unwrap(),
        )
        .unwrap();
        let listed: Vec<String> = names(contract.get("workloads").unwrap());
        let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(listed, known);
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }

        let out_dir =
            std::env::temp_dir().join(format!("dpc-benchmark-test-{}", std::process::id()));
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let outcome = run(&Options {
                workload: Workload::ReplayEvents1k,
                seed: 3,
                seconds: 0.2,
                trace,
                quick: true,
                out_dir: out_dir.clone(),
            })
            .unwrap();
            assert!(outcome.correct, "{:?}", outcome.notes);
            assert!(outcome.attempted >= 1 && outcome.failed == 0);
            let line = json::parse(&outcome.result_line()).unwrap();
            let keys: Vec<&str> = line
                .members()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let printed: Vec<String> = line
                .get("metrics")
                .unwrap()
                .members()
                .unwrap()
                .iter()
                .map(|(name, m)| {
                    assert!(m.get("value").unwrap().as_f64().is_some());
                    assert!(m.get("unit").unwrap().as_str().is_some());
                    name.clone()
                })
                .collect();
            assert_eq!(printed, names(contract.get(key).unwrap()), "{key}");
            for name in &printed {
                assert!(outcome.table().contains(name.as_str()));
            }
        }
        let trace = fs::read_to_string(out_dir.join("trace_replay_events_1k.jsonl")).unwrap();
        assert!(trace.lines().all(|l| json::parse(l).is_ok()) && trace.lines().count() > 100);
        fs::remove_dir_all(&out_dir).unwrap();
    }
}
