//! Node-runtime throughput benchmark (`dpc cluster --bench`).
//!
//! Three sections, one report:
//!
//! * **cells** — the same seeded problem deployed on every transport
//!   ([`TransportKind::ALL`]: TCP loopback, the lockstep executor, and the
//!   epoll reactor) at several small cluster sizes, recording rounds and
//!   messages per second alongside the run's deterministic counters.
//! * **scale** — reactor-only rows at N ∈ {1024, 10240} on a torus, the
//!   regime the readiness runtime exists for: one process, shard count
//!   pinned (`peak_threads` reports what the process actually ran), round
//!   budget capped so the row measures throughput rather than patience.
//! * **topologies** — rounds-to-converge at N = 1024 across the graph
//!   families (ring, chord ring, torus, hypercube, random-regular) on the
//!   lockstep executor, each row carrying its consensus spectral gap. The
//!   scale-out families quorum in roughly half the ring's rounds; the
//!   hypercube row caps on a quorum-detector tail (see
//!   [`TOPOLOGY_MAX_ROUNDS`]) and reports that honestly.
//!
//! The JSON written by the CLI (`BENCH_runtime.json`) keeps the two kinds
//! of fields on separate lines: every deterministic counter is a pure
//! function of `(sizes, seed)` and is byte-identical across reruns, while
//! the wall-clock rates live on their own `"..._per_sec"`/`"secs"` lines.
//! Stripping those ([`crate::report::deterministic_lines`]) therefore
//! yields a byte-reproducible document — the contract the CLI tests
//! check, mirroring how `BENCH_round_engine.json` treats its timing
//! columns. `peak_threads` rides the volatile line too: it is a
//! process-wide `/proc/self/status` sample, so it counts whatever other
//! threads the host process happens to run (a test harness's siblings).
//! One wrinkle: a *force-capped reactor* row tears down with messages
//! still in flight, so its message totals and final drift carry a small
//! run-to-run tail — those rows emit their counters on the volatile line
//! instead (lockstep rows are serial and stay deterministic even capped).
//! Capped rows are also labelled honestly: a row that exhausted its round
//! budget reports `"cap_exhausted": true` with the budget under
//! `"round_cap"`, and omits the `"rounds"` field entirely so a cap can
//! never be mistaken for a rounds-to-converge measurement.

use dpc_alg::diba::DibaConfig;
use dpc_alg::problem::PowerBudgetProblem;
use dpc_models::units::Watts;
use dpc_models::workload::ClusterBuilder;
use dpc_runtime::cluster::{run_cluster, RuntimeConfig, ShardCount, TransportKind};
use dpc_topology::spectral::consensus_spectrum;
use dpc_topology::Graph;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Default cluster sizes exercised by `dpc cluster --bench`.
pub const DEFAULT_SIZES: [usize; 2] = [8, 64];

/// Reactor scale rows: `(servers, torus rows, torus cols, round cap)`.
/// The caps differ on purpose: the 1 024-agent torus quorums at ~12.6k
/// rounds, so its cap is sized for convergence and the row reports a real
/// rounds-to-converge figure; the 10 240-agent row exists to measure
/// throughput and footprint, keeps the tight cap, and is labelled
/// `cap_exhausted` in the JSON instead of pretending the cap was a
/// convergence count.
pub const SCALE_SHAPES: [(usize, usize, usize, usize); 2] = [
    (1024, 32, 32, SCALE_CONVERGE_ROUNDS),
    (10_240, 80, 128, SCALE_MAX_ROUNDS),
];

/// Shard count pinned for the scale rows, so the poller thread count is a
/// constant of the benchmark rather than of the host's core count (and so
/// the rows stay comparable across PRs that change the auto-tune policy).
pub const SCALE_SHARDS: usize = 4;

/// Round cap for the 10 240-agent scale row, which measures throughput and
/// thread/memory footprint rather than convergence latency; the cap keeps
/// its wall clock bounded and `all_converged` gates it on residual drift
/// only.
pub const SCALE_MAX_ROUNDS: usize = 6_000;

/// Round cap for the 1 024-agent scale row, sized so the torus actually
/// reaches quorum inside it (~12.6k rounds at seed 0) and the row carries
/// an honest rounds-to-converge number.
pub const SCALE_CONVERGE_ROUNDS: usize = 16_000;

/// Cluster size and torus shape for the framing comparison behind
/// `--min-msgs-speedup`: batched `DataBatch` frames vs one frame per
/// message over the identical deployment.
pub const FRAMING_N: (usize, usize, usize) = (1024, 32, 32);

/// Round cap for the framing comparison — both runs are force-capped at
/// the same round count, so the msgs/s ratio compares equal work.
pub const FRAMING_MAX_ROUNDS: usize = 1_500;

/// Round cap for the topology table — sized so every family that
/// actually reaches quorum at N = 1 024 does so inside it (ring ~21.8k,
/// chords ~23.2k, torus ~12.6k, random-regular ~8.2k at seed 0). The
/// hypercube row is the deliberate exception: its consensus has mixed to
/// the same 1e-10 drift level by ~14k rounds, but one interior node
/// surrounded by box-clamped neighbors keeps oscillating right at the
/// settle tolerance, so the quorum detector never fires and the row
/// reports the cap with `converged: false` — a shutdown-protocol tail,
/// not slow mixing.
pub const TOPOLOGY_MAX_ROUNDS: usize = 25_000;

/// Cluster size of the topology convergence table.
pub const TOPOLOGY_TABLE_N: usize = 1_024;

/// One (transport, size) cell's measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeCell {
    /// Link layer the cell ran on.
    pub transport: TransportKind,
    /// Cluster size.
    pub servers: usize,
    /// Rounds until convergence quorum (the slowest node's count).
    pub rounds: usize,
    /// Whether every node exited through convergence quorum.
    pub converged: bool,
    /// Total messages sent across the cluster.
    pub msgs_sent: u64,
    /// Heartbeats among the messages sent.
    pub heartbeats: u64,
    /// Residual-invariant drift at the end (watts).
    pub drift: f64,
    /// Peak OS threads of the whole process over the deployment, when the
    /// substrate reports it (the reactor does). Host-dependent: it counts
    /// every thread the process runs, not only the pollers.
    pub peak_threads: Option<u32>,
    /// Wall-clock for the whole deployment (handshake included).
    pub secs: f64,
}

impl RuntimeCell {
    /// Throughput in gossip rounds per second.
    pub fn rounds_per_sec(&self) -> f64 {
        self.rounds as f64 / self.secs.max(1e-12)
    }

    /// Throughput in delivered messages per second.
    pub fn msgs_per_sec(&self) -> f64 {
        self.msgs_sent as f64 / self.secs.max(1e-12)
    }
}

/// One row of the topology convergence table.
#[derive(Debug, Clone, PartialEq)]
pub struct TopologyCell {
    /// Family name (`ring`, `chords`, `torus`, `hypercube`,
    /// `random-regular`).
    pub topology: String,
    /// Cluster size.
    pub servers: usize,
    /// Consensus spectral gap of the graph (deterministic power iteration).
    pub spectral_gap: f64,
    /// Rounds until convergence quorum, or the cap if it never settled.
    pub rounds: usize,
    /// Whether quorum was reached inside the cap.
    pub converged: bool,
    /// Total messages sent across the cluster.
    pub msgs_sent: u64,
    /// Residual-invariant drift at the end (watts).
    pub drift: f64,
    /// Wall-clock for the deployment.
    pub secs: f64,
}

/// The full `dpc cluster --bench` report.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeBenchReport {
    /// Workload seed.
    pub seed: u64,
    /// Per-cell measurements, size-major then transport order.
    pub cells: Vec<RuntimeCell>,
    /// Reactor scale rows (empty in the quick sweep).
    pub scale: Vec<RuntimeCell>,
    /// Topology convergence table (empty in the quick sweep).
    pub topologies: Vec<TopologyCell>,
}

impl RuntimeBenchReport {
    /// `true` when every small-sweep cell converged with a clean residual
    /// invariant — the benchmark's acceptance condition. Scale rows and
    /// topology rows must conserve the invariant too, but are allowed to
    /// exhaust their round cap (the scale rows and the hypercube row are
    /// *expected* to): they report honestly instead of gating.
    pub fn all_converged(&self) -> bool {
        // Conservation drift accumulates with message volume, so the
        // large rows get a budget-relative bound (1 µW per watt of the
        // 170 W/server budget ≈ 0.17 mW per server; the measured 10 240-
        // agent row sits around 30 mW against a 1.74 MW budget) while the
        // small sweep keeps the absolute gate.
        fn drift_ok(drift: f64, servers: usize) -> bool {
            drift < 170.0 * 1e-6 * servers as f64
        }
        self.cells.iter().all(|c| c.converged && c.drift < 1e-3)
            && self.scale.iter().all(|c| drift_ok(c.drift, c.servers))
            && self.topologies.iter().all(|t| drift_ok(t.drift, t.servers))
    }

    /// Renders the report as pretty-printed JSON (hand-rolled — the
    /// workspace carries no serialization dependency). Deterministic
    /// counters and wall-clock rates are kept on separate lines; see the
    /// module docs for the reproducibility contract.
    pub fn to_json(&self) -> String {
        // A run that reaches quorum has fully deterministic counters. A
        // force-capped reactor run does not: teardown happens with
        // messages still in flight, so its message totals and final
        // drift carry a small run-to-run tail. Capped rows therefore
        // move those fields onto the volatile (stripped) line; the
        // fields that stay pure functions of `(sizes, seed)` — rounds,
        // convergence — remain on the stable line.
        fn cell_json(out: &mut String, c: &RuntimeCell, last: bool, extra: &str) {
            let threads = match c.peak_threads {
                Some(t) => format!("\"peak_threads\": {t}, "),
                None => String::new(),
            };
            let counters = format!(
                "\"msgs_sent\": {}, \"heartbeats\": {}, \"drift_w\": {:.3e}",
                c.msgs_sent, c.heartbeats, c.drift,
            );
            // A cap-exhausted row never converged, so its `rounds` figure
            // is the cap, not a rounds-to-converge measurement. Label it
            // as such instead of letting the two read the same.
            let (rounds, stable_counters, volatile_counters) = if c.converged {
                (
                    format!("\"rounds\": {}", c.rounds),
                    format!(", {counters}"),
                    String::new(),
                )
            } else {
                (
                    format!("\"cap_exhausted\": true, \"round_cap\": {}", c.rounds),
                    String::new(),
                    format!("{counters}, "),
                )
            };
            out.push_str(&format!(
                "    {{\"transport\": \"{}\", \"servers\": {}{extra}, {rounds}, \
                 \"converged\": {}{stable_counters},\n",
                c.transport.key(),
                c.servers,
                c.converged,
            ));
            out.push_str(&format!(
                "     {volatile_counters}{threads}\"rounds_per_sec\": {:.1}, \"msgs_per_sec\": {:.1}}}{}\n",
                c.rounds_per_sec(),
                c.msgs_per_sec(),
                if last { "" } else { "," },
            ));
        }

        let mut out = String::from("{\n");
        out.push_str("  \"bench\": \"runtime\",\n");
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!("  \"all_converged\": {},\n", self.all_converged()));
        out.push_str("  \"cells\": [\n");
        for (k, c) in self.cells.iter().enumerate() {
            cell_json(&mut out, c, k + 1 == self.cells.len(), "");
        }
        out.push_str("  ],\n");
        out.push_str("  \"scale\": [\n");
        for (k, c) in self.scale.iter().enumerate() {
            let extra = format!(", \"topology\": \"torus\", \"shards\": {SCALE_SHARDS}");
            cell_json(&mut out, c, k + 1 == self.scale.len(), &extra);
        }
        out.push_str("  ],\n");
        out.push_str("  \"topologies\": [\n");
        for (k, t) in self.topologies.iter().enumerate() {
            let rounds = if t.converged {
                format!("\"rounds\": {}", t.rounds)
            } else {
                format!("\"cap_exhausted\": true, \"round_cap\": {}", t.rounds)
            };
            out.push_str(&format!(
                "    {{\"topology\": \"{}\", \"servers\": {}, \"spectral_gap\": {:.6}, \
                 {rounds}, \"converged\": {}, \"msgs_sent\": {}, \"drift_w\": {:.3e},\n",
                t.topology, t.servers, t.spectral_gap, t.converged, t.msgs_sent, t.drift,
            ));
            out.push_str(&format!(
                "     \"secs\": {:.3}}}{}\n",
                t.secs,
                if k + 1 == self.topologies.len() {
                    ""
                } else {
                    ","
                },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Renders a human-readable table.
    pub fn to_table(&self) -> String {
        let mut out = format!(
            "node runtime: seed {}\n\n\
             {:>7}  {:>9}  {:>7}  {:>9}  {:>10}  {:>12}  {:>12}  {:>7}  conv\n",
            self.seed,
            "servers",
            "transport",
            "rounds",
            "msgs",
            "heartbeats",
            "rounds/s",
            "msgs/s",
            "threads",
        );
        for c in self.cells.iter().chain(&self.scale) {
            out.push_str(&format!(
                "{:>7}  {:>9}  {:>7}  {:>9}  {:>10}  {:>12.1}  {:>12.1}  {:>7}  {}\n",
                c.servers,
                c.transport.key(),
                c.rounds,
                c.msgs_sent,
                c.heartbeats,
                c.rounds_per_sec(),
                c.msgs_per_sec(),
                c.peak_threads
                    .map(|t| t.to_string())
                    .unwrap_or_else(|| "-".into()),
                if c.converged { "ok" } else { "NO QUORUM" },
            ));
        }
        if !self.topologies.is_empty() {
            out.push_str(&format!(
                "\ntopology convergence at N = {TOPOLOGY_TABLE_N} (lockstep, cap {TOPOLOGY_MAX_ROUNDS} \
                 rounds)\n\
                 {:>15}  {:>12}  {:>7}  {:>10}  conv\n",
                "topology", "spectral gap", "rounds", "msgs",
            ));
            for t in &self.topologies {
                out.push_str(&format!(
                    "{:>15}  {:>12.6}  {:>7}  {:>10}  {}\n",
                    t.topology,
                    t.spectral_gap,
                    t.rounds,
                    t.msgs_sent,
                    if t.converged { "ok" } else { "AT CAP" },
                ));
            }
        }
        out
    }
}

/// Builds the seeded problem for one cell — same workload generator and
/// topology family as the fault sweep, so the benchmarks stay comparable.
fn cell_problem(servers: usize, seed: u64) -> (PowerBudgetProblem, Graph) {
    let cluster = ClusterBuilder::new(servers).seed(seed).build();
    let problem = PowerBudgetProblem::new(cluster.utilities(), Watts(170.0 * servers as f64))
        .expect("170 W/server is feasible for every generated cluster");
    let graph = Graph::ring_with_chords(servers, (servers / 16).max(2));
    (problem, graph)
}

fn timed_cell(
    problem: PowerBudgetProblem,
    graph: Graph,
    rt: &RuntimeConfig,
    servers: usize,
) -> RuntimeCell {
    let start = Instant::now();
    let outcome =
        run_cluster(problem, graph, DibaConfig::default(), rt).expect("loopback deployment");
    let secs = start.elapsed().as_secs_f64();
    RuntimeCell {
        transport: rt.transport,
        servers,
        rounds: outcome.rounds,
        converged: outcome.converged,
        msgs_sent: outcome.msgs_sent,
        heartbeats: outcome.heartbeats,
        drift: outcome.drift,
        peak_threads: outcome.peak_threads,
        secs,
    }
}

/// Deploys and times one (transport, size) cell of the small sweep.
pub fn measure_cell(servers: usize, seed: u64, transport: TransportKind) -> RuntimeCell {
    let (problem, graph) = cell_problem(servers, seed);
    let rt = RuntimeConfig {
        transport,
        ..RuntimeConfig::default()
    };
    timed_cell(problem, graph, &rt, servers)
}

/// Deploys and times one reactor scale row on a torus with a pinned shard
/// count and a per-shape round cap.
pub fn measure_scale_cell(
    servers: usize,
    rows: usize,
    cols: usize,
    max_rounds: usize,
    seed: u64,
) -> RuntimeCell {
    assert_eq!(rows * cols, servers, "torus shape must match the row size");
    let cluster = ClusterBuilder::new(servers).seed(seed).build();
    let problem = PowerBudgetProblem::new(cluster.utilities(), Watts(170.0 * servers as f64))
        .expect("170 W/server is feasible");
    let graph = Graph::torus(rows, cols).expect("torus builds");
    let rt = RuntimeConfig {
        transport: TransportKind::Reactor,
        shards: ShardCount::Fixed(SCALE_SHARDS),
        max_rounds,
        ..RuntimeConfig::default()
    };
    timed_cell(problem, graph, &rt, servers)
}

/// The batched-vs-per-message framing comparison behind the CLI's
/// `--min-msgs-speedup` gate.
#[derive(Debug, Clone, PartialEq)]
pub struct FramingCompare {
    /// Reactor run with per-round `DataBatch` coalescing (the default).
    pub batched: RuntimeCell,
    /// The identical deployment with one wire frame per entry.
    pub per_message: RuntimeCell,
}

impl FramingCompare {
    /// Message-throughput ratio of the batched run over the per-message
    /// run. Both runs are capped at the same round count over the same
    /// seeded problem, so the ratio compares equal work.
    pub fn speedup(&self) -> f64 {
        self.batched.msgs_per_sec() / self.per_message.msgs_per_sec().max(1e-12)
    }

    /// One-line summary for the CLI.
    pub fn to_line(&self) -> String {
        format!(
            "framing: batched {:.1} msgs/s vs per-message {:.1} msgs/s ({:.2}x) at N={}",
            self.batched.msgs_per_sec(),
            self.per_message.msgs_per_sec(),
            self.speedup(),
            self.batched.servers,
        )
    }
}

/// Runs the reactor twice over the identical seeded torus — once with
/// per-round frame coalescing, once emitting one frame per entry — and
/// reports both throughputs. Single-threaded hosts cannot time this
/// meaningfully (the shards contend with the workload generator and each
/// other on one core), so callers should skip the gate there.
pub fn measure_framing_compare(seed: u64) -> FramingCompare {
    let (servers, rows, cols) = FRAMING_N;
    let run = |coalesce: bool| {
        let cluster = ClusterBuilder::new(servers).seed(seed).build();
        let problem = PowerBudgetProblem::new(cluster.utilities(), Watts(170.0 * servers as f64))
            .expect("170 W/server is feasible");
        let graph = Graph::torus(rows, cols).expect("torus builds");
        let rt = RuntimeConfig {
            transport: TransportKind::Reactor,
            shards: ShardCount::Fixed(SCALE_SHARDS),
            max_rounds: FRAMING_MAX_ROUNDS,
            coalesce,
            ..RuntimeConfig::default()
        };
        timed_cell(problem, graph, &rt, servers)
    };
    FramingCompare {
        batched: run(true),
        per_message: run(false),
    }
}

/// Deploys one topology-table row on the lockstep executor.
pub fn measure_topology_cell(
    topology: &str,
    graph: Graph,
    seed: u64,
    max_rounds: usize,
) -> TopologyCell {
    let servers = graph.len();
    let cluster = ClusterBuilder::new(servers).seed(seed).build();
    let problem = PowerBudgetProblem::new(cluster.utilities(), Watts(170.0 * servers as f64))
        .expect("170 W/server is feasible");
    let spectral_gap = consensus_spectrum(&graph, 200).gap;
    let rt = RuntimeConfig {
        transport: TransportKind::Lockstep,
        max_rounds,
        ..RuntimeConfig::default()
    };
    let start = Instant::now();
    let outcome =
        run_cluster(problem, graph, DibaConfig::default(), &rt).expect("lockstep deployment");
    TopologyCell {
        topology: topology.to_string(),
        servers,
        spectral_gap,
        rounds: outcome.rounds,
        converged: outcome.converged,
        msgs_sent: outcome.msgs_sent,
        drift: outcome.drift,
        secs: start.elapsed().as_secs_f64(),
    }
}

/// The topology table's graph families at size `n`.
pub fn topology_table_graphs(n: usize, seed: u64) -> Vec<(&'static str, Graph)> {
    let (rows, cols) = {
        let mut side = (n as f64).sqrt().floor() as usize;
        while side > 1 && !n.is_multiple_of(side) {
            side -= 1;
        }
        (side, n / side)
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = vec![
        ("ring", Graph::ring(n)),
        // Same chord density as the CLI's `--topology chords`, so the row
        // is reproducible with a plain `dpc cluster` invocation.
        ("chords", Graph::ring_with_chords(n, (n / 8).max(2))),
        ("torus", Graph::torus(rows, cols).expect("torus builds")),
    ];
    if n.is_power_of_two() {
        out.push(("hypercube", Graph::hypercube(n.trailing_zeros())));
    }
    if n > 4 {
        out.push((
            "random-regular",
            Graph::random_regular(n, 4, &mut rng, 200).expect("regular sample"),
        ));
    }
    out
}

/// Runs the small size × transport sweep only (no scale rows, no topology
/// table) — what the unit tests exercise.
pub fn run_runtime_bench(sizes: &[usize], seed: u64) -> RuntimeBenchReport {
    let mut cells = Vec::with_capacity(sizes.len() * TransportKind::ALL.len());
    for &servers in sizes {
        for transport in TransportKind::ALL {
            cells.push(measure_cell(servers, seed, transport));
        }
    }
    RuntimeBenchReport {
        seed,
        cells,
        scale: Vec::new(),
        topologies: Vec::new(),
    }
}

/// The full `dpc cluster --bench` run: the small sweep plus the reactor
/// scale rows and the topology convergence table. Minutes of wall clock at
/// the 10k row — this is the CLI entry point, not a unit-test surface.
pub fn run_runtime_bench_full(sizes: &[usize], seed: u64) -> RuntimeBenchReport {
    let mut report = run_runtime_bench(sizes, seed);
    for (servers, rows, cols, max_rounds) in SCALE_SHAPES {
        report
            .scale
            .push(measure_scale_cell(servers, rows, cols, max_rounds, seed));
    }
    for (name, graph) in topology_table_graphs(TOPOLOGY_TABLE_N, seed) {
        report.topologies.push(measure_topology_cell(
            name,
            graph,
            seed,
            TOPOLOGY_MAX_ROUNDS,
        ));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::deterministic_lines;

    #[test]
    fn bench_converges_on_every_transport() {
        let report = run_runtime_bench(&[8], 7);
        assert_eq!(report.cells.len(), TransportKind::ALL.len());
        assert!(report.all_converged());
        let lockstep = &report.cells[1];
        assert_eq!(lockstep.transport, TransportKind::Lockstep);
        for cell in &report.cells {
            // Every transport runs the identical round-aligned program, so
            // the deterministic counters must agree exactly with the
            // serial reference.
            assert_eq!(cell.rounds, lockstep.rounds, "{:?}", cell.transport);
            assert_eq!(cell.msgs_sent, lockstep.msgs_sent, "{:?}", cell.transport);
            assert!(cell.secs > 0.0);
        }
        let reactor = report.cells.last().unwrap();
        assert_eq!(reactor.transport, TransportKind::Reactor);
        assert!(reactor.peak_threads.is_some());
    }

    #[test]
    fn deterministic_counters_are_byte_stable() {
        let a = run_runtime_bench(&[8], 3);
        let b = run_runtime_bench(&[8], 3);
        assert_eq!(
            deterministic_lines(&a.to_json()),
            deterministic_lines(&b.to_json())
        );
    }

    #[test]
    fn topology_rows_rank_by_spectral_gap() {
        // A miniature of the N=1024 table: every family at n=64, where even
        // the ring settles inside the cap. The scale-out families must mix
        // strictly faster than the ring.
        let seed = 5;
        let rows: Vec<TopologyCell> = topology_table_graphs(64, seed)
            .into_iter()
            .map(|(name, g)| measure_topology_cell(name, g, seed, 20_000))
            .collect();
        assert!(rows.iter().all(|t| t.converged), "all families settle");
        let ring = rows.iter().find(|t| t.topology == "ring").unwrap();
        for t in &rows {
            if t.topology != "ring" {
                assert!(
                    t.spectral_gap > ring.spectral_gap,
                    "{} gap {} should beat the ring's {}",
                    t.topology,
                    t.spectral_gap,
                    ring.spectral_gap
                );
            }
        }
    }

    #[test]
    fn json_report_is_well_formed() {
        let report = RuntimeBenchReport {
            seed: 7,
            cells: vec![RuntimeCell {
                transport: TransportKind::Tcp,
                servers: 8,
                rounds: 100,
                converged: true,
                msgs_sent: 1600,
                heartbeats: 40,
                drift: 1e-12,
                peak_threads: None,
                secs: 0.5,
            }],
            scale: vec![RuntimeCell {
                transport: TransportKind::Reactor,
                servers: 1024,
                rounds: 500,
                converged: true,
                msgs_sent: 2_048_000,
                heartbeats: 0,
                drift: 1e-9,
                peak_threads: Some(5),
                secs: 2.0,
            }],
            topologies: vec![TopologyCell {
                topology: "torus".into(),
                servers: 1024,
                spectral_gap: 0.01,
                rounds: 800,
                converged: true,
                msgs_sent: 3_276_800,
                drift: 1e-9,
                secs: 4.0,
            }],
        };
        let json = report.to_json();
        assert!(json.contains("\"bench\": \"runtime\""));
        assert!(json.contains("\"transport\": \"tcp\""));
        assert!(json.contains("\"rounds_per_sec\": 200.0"));
        assert!(json.contains("\"msgs_per_sec\": 3200.0"));
        assert!(json.contains("\"peak_threads\": 5"));
        assert!(json.contains("\"topology\": \"torus\""));
        assert!(json.contains("\"spectral_gap\": 0.010000"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(report.to_table().contains("tcp"));
        assert!(report.to_table().contains("topology convergence"));
    }

    #[test]
    fn capped_reactor_rows_keep_their_counters_off_the_stable_lines() {
        // A force-capped reactor run tears down with messages in flight,
        // so its message totals and drift are not pure functions of the
        // seed — the JSON must keep them on the volatile (stripped) line.
        let mut report = RuntimeBenchReport {
            seed: 7,
            cells: vec![],
            scale: vec![RuntimeCell {
                transport: TransportKind::Reactor,
                servers: 10_240,
                rounds: SCALE_MAX_ROUNDS,
                converged: false,
                msgs_sent: 143_842_055,
                heartbeats: 5_049,
                drift: 4.5e-2,
                peak_threads: Some(5),
                secs: 170.0,
            }],
            topologies: vec![],
        };
        let stable = deterministic_lines(&report.to_json());
        assert!(!stable.contains("msgs_sent"), "{stable}");
        assert!(!stable.contains("drift_w"), "{stable}");
        // The capped row must not masquerade as a rounds-to-converge
        // measurement: it is labelled cap_exhausted and reports the cap
        // under `round_cap`, with no `rounds` field at all.
        assert!(!stable.contains("\"rounds\":"), "{stable}");
        assert!(stable.contains("\"cap_exhausted\": true"));
        assert!(stable.contains("\"round_cap\": 6000"));
        // A process-wide thread sample is host state, not a counter.
        assert!(!stable.contains("peak_threads"), "{stable}");
        assert!(report.to_json().contains("\"peak_threads\": 5"));
        // The same row after quorum keeps everything on the stable line
        // and reports a genuine rounds figure.
        report.scale[0].converged = true;
        let stable = deterministic_lines(&report.to_json());
        assert!(stable.contains("msgs_sent"), "{stable}");
        assert!(stable.contains("drift_w"), "{stable}");
        assert!(stable.contains("\"rounds\": 6000"));
        assert!(!stable.contains("cap_exhausted"), "{stable}");
    }
}
