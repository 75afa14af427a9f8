//! Cluster harness: run N node agents locally and collect the outcome.
//!
//! This is the deployment-shaped entry point behind `dpc cluster`: it
//! computes every node's initial state through the same bridge the
//! simulator uses ([`DibaRun::new`]), hands the specs to the selected
//! driver (the epoll reactor or the serial lockstep reference), runs
//! every node to convergence quorum, and folds the per-node reports into
//! a cluster-level outcome (allocation, residual-invariant drift, message
//! totals, optional merged telemetry). One agent per OS process — the
//! paper's deployment — is the same reactor entered through
//! [`crate::reactor::host_node`], from the same [`node_specs`].

use crate::error::RuntimeError;
use crate::lockstep;
use crate::node::{NodeReport, NodeSpec};
use crate::reactor;
use dpc_alg::diba::{DibaConfig, DibaRun};
use dpc_alg::problem::{Allocation, PowerBudgetProblem};
use dpc_alg::telemetry::{RoundRecord, Telemetry, TelemetryConfig};
use dpc_models::units::Watts;
use dpc_topology::Graph;
use std::time::Duration;

/// Which driver the cluster runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKind {
    /// The serial lockstep executor: whole cluster on one thread, no
    /// sockets — the cheap deterministic reference at any N.
    Lockstep,
    /// The sharded epoll reactor: thousands of agents per poller thread,
    /// cross-shard edges on real loopback sockets (`ShardCount::Fixed(n)`
    /// puts every agent on its own shard and every edge on a socket).
    /// K shards with P adjacent shard pairs hold K + 2·P + 1 file
    /// descriptors; bring-up fails with `Too many open files` when
    /// `RLIMIT_NOFILE` is lower.
    Reactor,
}

impl TransportKind {
    /// Every driver, in the order reports and usage text list them. The
    /// CLI's `--transport` parser, its error text and the bench sweep all
    /// derive from this table.
    pub const ALL: [TransportKind; 2] = [TransportKind::Lockstep, TransportKind::Reactor];

    /// Stable identifier used in reports and CLI flags.
    pub fn key(self) -> &'static str {
        match self {
            TransportKind::Lockstep => "lockstep",
            TransportKind::Reactor => "reactor",
        }
    }

    /// The driver whose [`key`](TransportKind::key) is `key`.
    pub fn from_key(key: &str) -> Option<TransportKind> {
        TransportKind::ALL.into_iter().find(|t| t.key() == key)
    }
}

/// How many poller shards the reactor deploys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardCount {
    /// Load-driven auto-tune: sized from total round work (Σ degree+4),
    /// host parallelism, and the measured per-shard round cost (see
    /// `crate::reactor::resolve_shard_count`). The CLI spelling is
    /// `--shards auto`.
    #[default]
    Auto,
    /// Exactly this many shards (clamped to `[1, n]`). Every shard pair
    /// that shares an edge is one loopback socket carrier, so K shards
    /// with P such pairs need K + 2·P + 1 file descriptors within
    /// `RLIMIT_NOFILE`, or bring-up fails with `Too many open files`.
    Fixed(usize),
}

/// Runtime knobs for a cluster run (the algorithm knobs live in
/// [`DibaConfig`]).
#[derive(Debug, Clone, Copy)]
pub struct RuntimeConfig {
    /// Link layer to deploy on.
    pub transport: TransportKind,
    /// A round's power move below this magnitude (watts) counts toward a
    /// node's settled streak.
    pub settle_tol: f64,
    /// Consecutive sub-tolerance rounds before a node declares itself
    /// settled.
    pub stable_rounds: usize,
    /// Consecutive silent rounds before a neighbor is pruned as dead (also
    /// how the lockstep fault model finds a crash).
    pub detect_after: usize,
    /// Hard per-node round budget.
    pub max_rounds: usize,
    /// How long a reactor agent waits out a frame-starved round before it
    /// runs the round with the entries missing, and (capped at 100 ms) a
    /// draining agent's quiet period. The lockstep driver has no clock.
    pub round_timeout: Duration,
    /// The one deadline a node process's bring-up runs under: dial
    /// retries, accepts and the handshakes together
    /// ([`crate::reactor::host_node`]). In-process carriers have no
    /// handshake.
    pub handshake_timeout: Duration,
    /// Merge a telemetry record every this many rounds (0 = none).
    pub sample_every: usize,
    /// Poller shards for the reactor transport; other transports ignore
    /// it.
    pub shards: ShardCount,
    /// Coalesce cross-shard reactor traffic into multi-entry `DataBatch`
    /// frames (the default; intra-shard entries are never framed). `false`
    /// seals one frame per message — the mode the benchmark's
    /// `runtime_reactor.coalesce_speedup` probe compares against.
    pub coalesce: bool,
}

impl Default for RuntimeConfig {
    fn default() -> RuntimeConfig {
        RuntimeConfig {
            transport: TransportKind::Reactor,
            settle_tol: 1e-4,
            stable_rounds: 5,
            detect_after: 40,
            max_rounds: 20_000,
            round_timeout: Duration::from_secs(2),
            handshake_timeout: Duration::from_secs(10),
            sample_every: 0,
            shards: ShardCount::Auto,
            coalesce: true,
        }
    }
}

/// What a cluster run produced.
#[derive(Debug)]
pub struct ClusterOutcome {
    /// Per-node reports, ordered by node id.
    pub reports: Vec<NodeReport>,
    /// The converged power caps.
    pub allocation: Allocation,
    /// Budget the cluster was capped to.
    pub budget: Watts,
    /// Largest per-node round count.
    pub rounds: usize,
    /// `true` when every node exited through convergence quorum.
    pub converged: bool,
    /// Total messages sent across the cluster (heartbeats and goodbyes
    /// included).
    pub msgs_sent: u64,
    /// Total messages received.
    pub msgs_received: u64,
    /// Heartbeats among the messages sent.
    pub heartbeats: u64,
    /// Residual-invariant drift `|Σe − (Σp − P)|` (watts).
    pub drift: f64,
    /// Merged round telemetry (when `sample_every > 0`).
    pub telemetry: Option<Telemetry>,
    /// Peak process thread count observed during the run (reactor
    /// transport only — the number the O(shards)-not-O(agents) claim is
    /// checked against).
    pub peak_threads: Option<u32>,
    /// Peak resident set size in KiB observed during the run (reactor
    /// transport only).
    pub peak_rss_kb: Option<u64>,
    /// Poller shards actually deployed (reactor transport only) — the
    /// auto-tune's pick, re-reported in the cluster header.
    pub shards_used: Option<usize>,
}

impl ClusterOutcome {
    /// Folds per-node reports (ordered by node id) into the cluster-level
    /// outcome, merging their trace samples when `sample_every > 0`. The
    /// process-level fields (`peak_threads`, `peak_rss_kb`, `shards_used`)
    /// are left `None` — reports gathered from separate node processes
    /// ([`crate::reactor::host_node`]) have no process to speak of.
    pub fn from_reports(
        reports: Vec<NodeReport>,
        budget: Watts,
        sample_every: usize,
    ) -> ClusterOutcome {
        let sum_p: f64 = reports.iter().map(|r| r.p).sum();
        let sum_e: f64 = reports.iter().map(|r| r.e).sum();
        let telemetry = (sample_every > 0).then(|| merge_telemetry(&reports, budget));
        ClusterOutcome {
            allocation: reports.iter().map(|r| Watts(r.p)).collect(),
            budget,
            rounds: reports.iter().map(|r| r.rounds).max().unwrap_or(0),
            converged: reports.iter().all(|r| r.converged),
            msgs_sent: reports.iter().map(|r| r.msgs_sent).sum(),
            msgs_received: reports.iter().map(|r| r.msgs_received).sum(),
            heartbeats: reports.iter().map(|r| r.heartbeats_sent).sum(),
            drift: (sum_e - (sum_p - budget.0)).abs(),
            telemetry,
            peak_threads: None,
            peak_rss_kb: None,
            shards_used: None,
            reports,
        }
    }

    /// Total power of the converged allocation.
    pub fn total_power(&self) -> Watts {
        self.reports.iter().map(|r| Watts(r.p)).sum()
    }
}

/// Derives every node's launch spec from the shared problem statement —
/// the same init bridge ([`DibaRun::new`]) all substrates use, so a node
/// launched in its own process (`dpc node`) starts from exactly the state
/// its peers assume.
///
/// # Errors
///
/// Propagates problem/config validation failures ([`RuntimeError::Alg`]).
pub fn node_specs(
    problem: &PowerBudgetProblem,
    graph: &Graph,
    config: DibaConfig,
    rt: &RuntimeConfig,
) -> Result<Vec<NodeSpec>, RuntimeError> {
    let reference = DibaRun::new(problem.clone(), graph.clone(), config)?;
    let params = reference.params();
    let states = reference.node_states();
    Ok(states
        .iter()
        .enumerate()
        .map(|(id, &(p, e))| NodeSpec {
            id,
            utility: *problem.utility(id),
            p,
            e,
            params,
            eta_boost: config.eta_boost,
            settle_tol: rt.settle_tol,
            stable_rounds: rt.stable_rounds,
            detect_after: rt.detect_after,
            max_rounds: rt.max_rounds,
            sample_every: rt.sample_every,
        })
        .collect())
}

/// Merges per-node trace samples into cluster-level [`RoundRecord`]s.
///
/// Lockstep delivery aligns end-of-round states across nodes (a frame sent
/// in round `k` is absorbed in the receiver's round `k`), so a merged
/// record's conservation identity holds to rounding — the runtime's
/// telemetry bridge reuses the recorder unchanged.
fn merge_telemetry(reports: &[NodeReport], budget: Watts) -> Telemetry {
    let mut rounds: Vec<usize> = reports
        .iter()
        .flat_map(|r| r.trace.iter().map(|s| s.round))
        .collect();
    rounds.sort_unstable();
    rounds.dedup();
    let mut telemetry = Telemetry::new(TelemetryConfig::with_capacity(rounds.len().max(1)));
    let mut prev_msgs = 0u64;
    for &round in &rounds {
        let mut sum_p = 0.0;
        let mut sum_e = 0.0;
        let mut norm2 = 0.0;
        let mut max_abs_e = 0.0f64;
        let mut msgs = 0u64;
        for report in reports {
            // The node's state at `round`: its last sample at or before the
            // round, or its final state if it had already shut down.
            let (p, e, sent) = if report.rounds < round {
                (report.p, report.e, report.msgs_sent)
            } else {
                report
                    .trace
                    .iter()
                    .rev()
                    .find(|s| s.round <= round)
                    .map(|s| (s.p, s.e, s.msgs_sent))
                    .unwrap_or((report.p, report.e, report.msgs_sent))
            };
            sum_p += p;
            sum_e += e;
            norm2 += p * p;
            max_abs_e = max_abs_e.max(e.abs());
            msgs += sent;
        }
        telemetry.record_round(RoundRecord {
            round: round as u64,
            budget: budget.0,
            sum_p,
            norm2_p: norm2.sqrt(),
            sum_e,
            max_abs_e,
            msgs_sent: msgs.saturating_sub(prev_msgs),
            live: reports.len() as u64,
            ..RoundRecord::default()
        });
        prev_msgs = msgs;
    }
    telemetry
}

/// Runs a full cluster deployment and waits for the outcome.
///
/// # Errors
///
/// Validation failures ([`RuntimeError::Alg`]) before anything starts;
/// transport failures (bind/connect/handshake/decode, each naming the
/// peer) from the node that hit them first.
pub fn run_cluster(
    problem: PowerBudgetProblem,
    graph: Graph,
    config: DibaConfig,
    rt: &RuntimeConfig,
) -> Result<ClusterOutcome, RuntimeError> {
    let specs = node_specs(&problem, &graph, config, rt)?;
    let mut peak_threads = None;
    let mut peak_rss_kb = None;
    let mut shards_used = None;
    let reports = match rt.transport {
        TransportKind::Lockstep => lockstep::run_lockstep(specs, &graph),
        TransportKind::Reactor => {
            let run = reactor::run_reactor_cluster(specs, &graph, rt)?;
            peak_threads = Some(run.peak_threads);
            peak_rss_kb = run.peak_rss_kb;
            shards_used = Some(run.shards);
            run.reports
        }
    };

    Ok(ClusterOutcome {
        peak_threads,
        peak_rss_kb,
        shards_used,
        ..ClusterOutcome::from_reports(reports, problem.budget(), rt.sample_every)
    })
}
