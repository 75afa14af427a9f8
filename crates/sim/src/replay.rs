//! Scenario replay: a typed event timeline driven against a warm-started
//! DiBA (`dpc replay`).
//!
//! Everything else in the workspace solves one static instance; this module
//! tests the paper's *real* claim — fast **re**-allocation when conditions
//! change. A [`Scenario`] is a cluster description plus a time-ordered list
//! of [`ScenarioEvent`]s (budget moves, VM churn re-fitting a server's
//! quadratic, workload phase changes, maintenance drains). The
//! [`replay`] driver applies each event group to a *running* [`DibaRun`]
//! through its warm-start entry points — power and residual state carry
//! over, `Σe = Σp − P` is preserved by construction through every mutation
//! — measures the rounds to re-converge, and (optionally) measures a cold
//! start on the identical mutated instance for comparison.
//!
//! # Scenario file format
//!
//! Line-oriented text; `#` starts a comment, blank lines are ignored.
//! Header lines come first, then `at` lines in non-decreasing time order:
//!
//! ```text
//! # 8-node budget-ramp example
//! servers 8
//! seed 7
//! topology ring
//! budget 1400
//!
//! at 1.0 budget 1360
//! at 2.0 vm-arrive node 3 share 0.4 mem 0.2
//! at 3.0 phase node 5 mem 0.9
//! at 4.0 vm-depart node 3
//! at 5.0 drain node 2
//! at 6.0 restore node 2
//! ```
//!
//! Events sharing one timestamp are applied atomically (one re-convergence
//! measurement). [`Scenario::parse`] rejects malformed input with typed
//! [`AlgError`]s naming the offending line — non-monotone times, non-finite
//! numbers, events addressing unknown nodes ([`AlgError::UnknownNode`]),
//! departures with no resident VM, double drains — never panics.

use dpc_alg::diba::{DibaConfig, DibaRun};
use dpc_alg::problem::{AlgError, PowerBudgetProblem};
use dpc_alg::telemetry::{FaultEvent, FaultEventKind};
use dpc_models::throughput::QuadraticUtility;
use dpc_models::units::Watts;
use dpc_models::vm::{ServerLoad, VmSpec};
use dpc_models::workload::ClusterBuilder;
use dpc_topology::Graph;
use std::collections::BTreeMap;

/// One event of a scenario timeline.
///
/// Frozen: `benchmark/src/workload.rs` matches every variant
/// exhaustively and `benchmark/src/probes.rs` builds them. A new variant
/// or field breaks the harness's build, and that harness judges every
/// change, so the shape stays as it is until the next benchmark change
/// (ROADMAP.md, "Gate").
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioEvent {
    /// The cluster budget changes to the given total (watts).
    SetBudget(Watts),
    /// A VM is placed on `node`, re-fitting its utility curve.
    VmArrive {
        /// Server the VM lands on.
        node: usize,
        /// The VM's share and workload shape.
        vm: VmSpec,
    },
    /// The most recently placed VM leaves `node` (LIFO).
    VmDepart {
        /// Server the VM leaves.
        node: usize,
    },
    /// `node`'s base workload enters a new phase with the given
    /// memory-boundedness.
    Phase {
        /// Server whose workload changed phase.
        node: usize,
        /// New memory-boundedness of the base workload, in `[0, 1]`.
        memory_boundedness: f64,
    },
    /// `node` is drained for maintenance: its curve is pinned to an idle
    /// box so the allocator migrates its power away.
    Drain {
        /// Server being drained.
        node: usize,
    },
    /// A drained `node` returns to service with its composed curve.
    Restore {
        /// Server returning to service.
        node: usize,
    },
}

impl ScenarioEvent {
    /// Stable one-line description used in reports.
    pub fn describe(&self) -> String {
        match self {
            ScenarioEvent::SetBudget(w) => format!("budget {:.1}", w.0),
            ScenarioEvent::VmArrive { node, vm } => format!(
                "vm-arrive node {node} share {:.2} mem {:.2}",
                vm.share, vm.memory_boundedness
            ),
            ScenarioEvent::VmDepart { node } => format!("vm-depart node {node}"),
            ScenarioEvent::Phase {
                node,
                memory_boundedness,
            } => format!("phase node {node} mem {memory_boundedness:.2}"),
            ScenarioEvent::Drain { node } => format!("drain node {node}"),
            ScenarioEvent::Restore { node } => format!("restore node {node}"),
        }
    }
}

/// An event with its scenario timestamp (seconds, ordering only — the
/// replay driver measures re-convergence in rounds, not wall time).
///
/// Frozen: `benchmark/src/timeline.rs` builds it by struct literal and
/// `benchmark/src/workload.rs` reads both fields. A new field breaks the
/// harness's build, and that harness judges every change, so the shape
/// stays as it is until the next benchmark change (ROADMAP.md, "Gate").
#[derive(Debug, Clone, PartialEq)]
pub struct TimedEvent {
    /// Scenario time (non-negative, non-decreasing in file order).
    pub at: f64,
    /// The event.
    pub event: ScenarioEvent,
}

/// A parsed, validated scenario: cluster description plus timeline.
///
/// Frozen: `benchmark/src/probes.rs` builds it by struct literal with all
/// five fields, and `benchmark/src/workload.rs` drives the same timeline
/// directly to cross-check [`replay`]'s rounds. A new field breaks the
/// harness's build, and that harness judges every change, so the shape
/// stays as it is until the next benchmark change (ROADMAP.md, "Gate").
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Cluster size.
    pub servers: usize,
    /// Workload seed for [`ClusterBuilder`].
    pub seed: u64,
    /// Topology name: `ring`, `chords` or `grid` (the `dpc` CLI names).
    pub topology: String,
    /// Initial total budget (watts).
    pub budget: Watts,
    /// The timeline, in non-decreasing time order.
    pub events: Vec<TimedEvent>,
}

fn bad(line_no: usize, what: impl std::fmt::Display) -> AlgError {
    AlgError::InvalidConfig {
        what: format!("scenario line {line_no}: {what}"),
    }
}

fn parse_f64(tok: &str, line_no: usize, what: &str) -> Result<f64, AlgError> {
    let v: f64 = tok
        .parse()
        .map_err(|_| bad(line_no, format!("{what} `{tok}` is not a number")))?;
    if !v.is_finite() {
        return Err(bad(line_no, format!("{what} `{tok}` must be finite")));
    }
    Ok(v)
}

fn parse_usize(tok: &str, line_no: usize, what: &str) -> Result<usize, AlgError> {
    tok.parse().map_err(|_| {
        bad(
            line_no,
            format!("{what} `{tok}` is not a non-negative integer"),
        )
    })
}

/// Expects `tokens[idx]` to be the literal keyword `key` and returns the
/// token after it.
fn keyed<'a>(
    tokens: &[&'a str],
    idx: usize,
    key: &str,
    line_no: usize,
) -> Result<&'a str, AlgError> {
    match (tokens.get(idx), tokens.get(idx + 1)) {
        (Some(&k), Some(&v)) if k == key => Ok(v),
        _ => Err(bad(
            line_no,
            format!("expected `{key} <value>` at position {idx}"),
        )),
    }
}

impl Scenario {
    /// Parses and validates the scenario text format.
    ///
    /// # Errors
    ///
    /// [`AlgError::InvalidConfig`] naming the offending line for syntax
    /// errors, a repeated `servers` header, non-finite or out-of-range
    /// numbers, non-monotone event times, VM departures with no resident
    /// VM, and drain/restore mismatches; [`AlgError::UnknownNode`] for
    /// events addressing a node the cluster does not have.
    pub fn parse(text: &str) -> Result<Scenario, AlgError> {
        let mut servers: Option<usize> = None;
        let mut seed: u64 = 0;
        let mut topology = String::from("ring");
        let mut budget: Option<f64> = None;
        let mut events: Vec<TimedEvent> = Vec::new();
        let mut last_at: Option<f64> = None;
        // Static semantic state for depart/drain validation.
        let mut resident: BTreeMap<usize, usize> = BTreeMap::new();
        let mut drained: BTreeMap<usize, bool> = BTreeMap::new();

        for (k, raw) in text.lines().enumerate() {
            let line_no = k + 1;
            let line = match raw.find('#') {
                Some(pos) => &raw[..pos],
                None => raw,
            }
            .trim();
            if line.is_empty() {
                continue;
            }
            let tokens: Vec<&str> = line.split_whitespace().collect();
            match tokens[0] {
                "servers" => {
                    // Events are validated against the size in force, so
                    // the size cannot change once given.
                    if servers.is_some() {
                        return Err(bad(line_no, "`servers` given twice"));
                    }
                    let v = keyed(&tokens, 0, "servers", line_no)?;
                    let n = parse_usize(v, line_no, "servers")?;
                    if n < 2 {
                        return Err(bad(line_no, format!("servers {n} must be at least 2")));
                    }
                    servers = Some(n);
                }
                "seed" => {
                    let v = keyed(&tokens, 0, "seed", line_no)?;
                    seed = v
                        .parse()
                        .map_err(|_| bad(line_no, format!("seed `{v}` is not a u64")))?;
                }
                "topology" => {
                    let v = keyed(&tokens, 0, "topology", line_no)?;
                    if !matches!(v, "ring" | "chords" | "grid") {
                        return Err(bad(
                            line_no,
                            format!("unknown topology `{v}` (ring | chords | grid)"),
                        ));
                    }
                    topology = v.to_string();
                }
                "budget" => {
                    let v = keyed(&tokens, 0, "budget", line_no)?;
                    let w = parse_f64(v, line_no, "budget")?;
                    if w <= 0.0 {
                        return Err(bad(line_no, format!("budget {w} must be positive")));
                    }
                    budget = Some(w);
                }
                "at" => {
                    let n =
                        servers.ok_or_else(|| bad(line_no, "`servers` must come before events"))?;
                    let at = parse_f64(
                        tokens
                            .get(1)
                            .ok_or_else(|| bad(line_no, "`at` needs a time"))?,
                        line_no,
                        "event time",
                    )?;
                    if at < 0.0 {
                        return Err(bad(line_no, format!("event time {at} must be >= 0")));
                    }
                    if let Some(prev) = last_at {
                        if at < prev {
                            return Err(bad(
                                line_no,
                                format!("event time {at} goes back in time (previous {prev})"),
                            ));
                        }
                    }
                    last_at = Some(at);
                    let node_for = |idx: usize| -> Result<usize, AlgError> {
                        let v = keyed(&tokens, idx, "node", line_no)?;
                        let node = parse_usize(v, line_no, "node")?;
                        if node >= n {
                            return Err(AlgError::UnknownNode { node, nodes: n });
                        }
                        Ok(node)
                    };
                    let kind = tokens
                        .get(2)
                        .ok_or_else(|| bad(line_no, "`at <t>` needs an event"))?;
                    let event = match *kind {
                        "budget" => {
                            let v = tokens
                                .get(3)
                                .ok_or_else(|| bad(line_no, "`budget` needs a value"))?;
                            let w = parse_f64(v, line_no, "budget")?;
                            if w <= 0.0 {
                                return Err(bad(line_no, format!("budget {w} must be positive")));
                            }
                            ScenarioEvent::SetBudget(Watts(w))
                        }
                        "vm-arrive" => {
                            let node = node_for(3)?;
                            let share =
                                parse_f64(keyed(&tokens, 5, "share", line_no)?, line_no, "share")?;
                            let mem =
                                parse_f64(keyed(&tokens, 7, "mem", line_no)?, line_no, "mem")?;
                            let vm = VmSpec {
                                share,
                                memory_boundedness: mem,
                            };
                            if !vm.is_valid() {
                                return Err(bad(
                                    line_no,
                                    format!(
                                        "vm share {share} must be in (0,1] and mem {mem} in [0,1]"
                                    ),
                                ));
                            }
                            *resident.entry(node).or_insert(0) += 1;
                            ScenarioEvent::VmArrive { node, vm }
                        }
                        "vm-depart" => {
                            let node = node_for(3)?;
                            let count = resident.entry(node).or_insert(0);
                            if *count == 0 {
                                return Err(bad(
                                    line_no,
                                    format!("vm-depart: node {node} has no resident VM"),
                                ));
                            }
                            *count -= 1;
                            ScenarioEvent::VmDepart { node }
                        }
                        "phase" => {
                            let node = node_for(3)?;
                            let mem =
                                parse_f64(keyed(&tokens, 5, "mem", line_no)?, line_no, "mem")?;
                            if !(0.0..=1.0).contains(&mem) {
                                return Err(bad(
                                    line_no,
                                    format!("phase mem {mem} must be in [0,1]"),
                                ));
                            }
                            ScenarioEvent::Phase {
                                node,
                                memory_boundedness: mem,
                            }
                        }
                        "drain" => {
                            let node = node_for(3)?;
                            let d = drained.entry(node).or_insert(false);
                            if *d {
                                return Err(bad(
                                    line_no,
                                    format!("drain: node {node} is already drained"),
                                ));
                            }
                            *d = true;
                            ScenarioEvent::Drain { node }
                        }
                        "restore" => {
                            let node = node_for(3)?;
                            let d = drained.entry(node).or_insert(false);
                            if !*d {
                                return Err(bad(
                                    line_no,
                                    format!("restore: node {node} is not drained"),
                                ));
                            }
                            *d = false;
                            ScenarioEvent::Restore { node }
                        }
                        other => {
                            return Err(bad(line_no, format!("unknown event `{other}`")));
                        }
                    };
                    events.push(TimedEvent { at, event });
                }
                other => {
                    return Err(bad(line_no, format!("unknown directive `{other}`")));
                }
            }
        }

        let servers = servers.ok_or_else(|| bad(0, "missing `servers` header"))?;
        let budget = budget.ok_or_else(|| bad(0, "missing `budget` header"))?;
        Ok(Scenario {
            servers,
            seed,
            topology,
            budget: Watts(budget),
            events,
        })
    }

    /// Builds the communication graph the scenario names (the same
    /// topology vocabulary as the `dpc` CLI).
    ///
    /// # Errors
    ///
    /// [`AlgError::InvalidConfig`] when `grid` is requested for a
    /// non-rectangular cluster size.
    pub fn graph(&self) -> Result<Graph, AlgError> {
        let n = self.servers;
        match self.topology.as_str() {
            "chords" => Ok(Graph::ring_with_chords(n, (n / 8).max(2))),
            "grid" => {
                let side = (n as f64).sqrt().floor() as usize;
                if side < 1 || side * (n / side) != n {
                    return Err(AlgError::InvalidConfig {
                        what: format!("topology grid needs a rectangular server count, got {n}"),
                    });
                }
                Ok(Graph::grid(side, n / side))
            }
            _ => Ok(Graph::ring(n)),
        }
    }

    /// The scenario's initial problem: `servers` workloads drawn with
    /// `seed`, capped at `budget`.
    ///
    /// # Errors
    ///
    /// [`AlgError::InfeasibleBudget`] when the budget cannot cover the
    /// cluster's idle power.
    pub fn initial_problem(&self) -> Result<PowerBudgetProblem, AlgError> {
        let cluster = ClusterBuilder::new(self.servers).seed(self.seed).build();
        PowerBudgetProblem::new(cluster.utilities(), self.budget)
    }
}

/// The oracle-free convergence criterion of the replay driver: rest is
/// declared when the largest per-node power move stays below `tol_watts`
/// for `stable_rounds` consecutive rounds (see [`DibaRun::run_to_rest`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SettleCriterion {
    /// Largest per-node move that still counts as rest (watts).
    pub tol_watts: f64,
    /// Consecutive quiet rounds required.
    pub stable_rounds: usize,
    /// Give-up bound per settle.
    pub max_rounds: usize,
}

impl Default for SettleCriterion {
    fn default() -> Self {
        SettleCriterion {
            tol_watts: 1e-2,
            stable_rounds: 10,
            max_rounds: 200_000,
        }
    }
}

impl SettleCriterion {
    /// Checks the criterion is meaningful.
    ///
    /// # Errors
    ///
    /// [`AlgError::InvalidConfig`] naming the offending knob.
    pub fn validate(&self) -> Result<(), AlgError> {
        if !self.tol_watts.is_finite() || self.tol_watts <= 0.0 {
            return Err(AlgError::InvalidConfig {
                what: format!(
                    "settle tol_watts = {} must be finite and positive",
                    self.tol_watts
                ),
            });
        }
        if self.stable_rounds == 0 || self.max_rounds == 0 {
            return Err(AlgError::InvalidConfig {
                what: "settle stable_rounds and max_rounds must be positive".to_string(),
            });
        }
        Ok(())
    }
}

/// Configuration of the replay driver.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayConfig {
    /// Solver configuration used by the warm run (and, minus telemetry,
    /// by each cold comparison run).
    pub diba: DibaConfig,
    /// The re-convergence criterion applied after every event group.
    pub settle: SettleCriterion,
    /// Whether each event group also measures a cold start on the mutated
    /// instance (the headline warm-vs-cold comparison; costs one extra
    /// solve per group).
    pub compare_cold: bool,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig {
            diba: DibaConfig::default(),
            settle: SettleCriterion::default(),
            compare_cold: true,
        }
    }
}

/// Outcome of one event group (all events sharing a timestamp).
#[derive(Debug, Clone, PartialEq)]
pub struct EventOutcome {
    /// The group's scenario time.
    pub at: f64,
    /// One description per event, in file order.
    pub events: Vec<String>,
    /// Budget in effect after the group (watts).
    pub budget: f64,
    /// Rounds the warm run took to re-converge (`None`: hit `max_rounds`).
    pub warm_rounds: Option<usize>,
    /// Rounds a cold start took on the identical mutated instance
    /// (`None` when cold comparison is off or the cold run hit the bound).
    pub cold_rounds: Option<usize>,
    /// Total power after the warm re-settle (watts).
    pub total_power: f64,
    /// Conservation drift `|Σe − (Σp − P)|` after the group (watts).
    pub drift: f64,
    /// `Σp ≤ P` (within 1 µW) after the warm re-settle.
    pub feasible: bool,
}

/// The full deterministic replay report. Carries no wall-clock fields, so
/// rendering it is byte-identical across reruns — the contract the CI
/// replay smoke step checks.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayReport {
    /// Cluster size.
    pub servers: usize,
    /// Workload seed.
    pub seed: u64,
    /// Topology name.
    pub topology: String,
    /// Initial budget (watts).
    pub initial_budget: f64,
    /// Rounds of the initial (cold) settle.
    pub initial_rounds: Option<usize>,
    /// The settle criterion applied throughout.
    pub settle: SettleCriterion,
    /// Per-event-group outcomes, in time order.
    pub events: Vec<EventOutcome>,
}

fn fmt_rounds(r: Option<usize>) -> String {
    match r {
        Some(r) => r.to_string(),
        None => "null".to_string(),
    }
}

impl ReplayReport {
    /// `true` when every event group re-settled within the round bound
    /// with a clean ledger and a feasible allocation.
    pub fn all_settled(&self) -> bool {
        self.initial_rounds.is_some()
            && self
                .events
                .iter()
                .all(|e| e.warm_rounds.is_some() && e.feasible && e.drift < 1e-6)
    }

    /// Renders the report as pretty-printed JSON (hand-rolled — the
    /// workspace carries no serialization dependency). Deterministic: no
    /// timestamps or wall-clock fields.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"report\": \"replay\",\n");
        out.push_str(&format!("  \"servers\": {},\n", self.servers));
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!("  \"topology\": \"{}\",\n", self.topology));
        out.push_str(&format!(
            "  \"initial_budget_w\": {:.3},\n",
            self.initial_budget
        ));
        out.push_str(&format!(
            "  \"initial_rounds\": {},\n",
            fmt_rounds(self.initial_rounds)
        ));
        out.push_str(&format!(
            "  \"settle\": {{\"tol_watts\": {:.4}, \"stable_rounds\": {}, \"max_rounds\": {}}},\n",
            self.settle.tol_watts, self.settle.stable_rounds, self.settle.max_rounds
        ));
        out.push_str(&format!("  \"all_settled\": {},\n", self.all_settled()));
        out.push_str("  \"events\": [\n");
        for (k, e) in self.events.iter().enumerate() {
            let descs: Vec<String> = e.events.iter().map(|d| format!("\"{d}\"")).collect();
            out.push_str(&format!(
                "    {{\"at\": {:.3}, \"events\": [{}], \"budget_w\": {:.3}, \
                 \"warm_rounds\": {}, \"cold_rounds\": {}, \"total_power_w\": {:.3}, \
                 \"drift_w\": {:.3e}, \"feasible\": {}}}{}\n",
                e.at,
                descs.join(", "),
                e.budget,
                fmt_rounds(e.warm_rounds),
                fmt_rounds(e.cold_rounds),
                e.total_power,
                e.drift,
                e.feasible,
                if k + 1 < self.events.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Renders a fixed-width text table (one row per event group).
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "replay: {} servers, seed {}, topology {}, initial settle {} rounds\n",
            self.servers,
            self.seed,
            self.topology,
            fmt_rounds(self.initial_rounds)
        ));
        out.push_str(&format!(
            "{:>8}  {:>10}  {:>10}  {:>12}  {:>8}  events\n",
            "t", "warm", "cold", "power (W)", "feasible"
        ));
        for e in &self.events {
            out.push_str(&format!(
                "{:>8.2}  {:>10}  {:>10}  {:>12.2}  {:>8}  {}\n",
                e.at,
                fmt_rounds(e.warm_rounds),
                fmt_rounds(e.cold_rounds),
                e.total_power,
                e.feasible,
                e.events.join("; "),
            ));
        }
        out
    }
}

/// A finished replay: the deterministic report plus the still-warm run
/// (for further inspection — final allocation, telemetry stream, …).
#[derive(Debug)]
pub struct ReplayOutcome {
    /// The deterministic per-event report.
    pub report: ReplayReport,
    /// The warm run after the last event group settled.
    pub run: DibaRun,
}

/// How a tick of [`drive`] settles once its changes are in.
pub(crate) enum Settle {
    /// Exactly this many rounds ([`DibaRun::run`]).
    Rounds(usize),
    /// Until at rest ([`DibaRun::run_to_rest`]).
    Rest(SettleCriterion),
}

/// The one loop that advances a warm [`DibaRun`] across events; [`replay`],
/// [`simulate`](crate::engine::simulate) and
/// [`step_response`](crate::step::step_response) are front-ends that feed
/// it ticks and observe it.
///
/// Each tick, `next` applies its budget and curve changes to the run and
/// returns how the tick settles and the mark its observer reads (`None`
/// ends the timeline). The loop settles and hands `observe` the run, the
/// mark and the settle's rounds (`None`: the rest criterion hit its round
/// bound).
///
/// # Errors
///
/// The first error of `next` or of `observe`.
pub(crate) fn drive<M>(
    run: &mut DibaRun,
    mut next: impl FnMut(&mut DibaRun) -> Result<Option<(Settle, M)>, AlgError>,
    mut observe: impl FnMut(&mut DibaRun, M, Option<usize>) -> Result<(), AlgError>,
) -> Result<(), AlgError> {
    while let Some((settle, mark)) = next(run)? {
        let rounds = match settle {
            Settle::Rounds(k) => {
                run.run(k);
                Some(k)
            }
            Settle::Rest(s) => run.run_to_rest(s.tol_watts, s.stable_rounds, s.max_rounds),
        };
        observe(run, mark, rounds)?;
    }
    Ok(())
}

/// The idle box a drained node is pinned to: a flat positive utility on
/// `[p_min, p_min + 1 W]`, so the barrier walks the node to its floor and
/// the allocator migrates the freed power to its neighbors.
fn drain_curve(u: &QuadraticUtility) -> QuadraticUtility {
    QuadraticUtility::new(0.05, 0.0, 0.0, u.p_min(), u.p_min() + Watts(1.0))
        .expect("flat positive curve on a non-empty box is always valid")
}

/// The node an event addresses (`None` for a budget move).
fn event_node(event: &ScenarioEvent) -> Option<usize> {
    match *event {
        ScenarioEvent::SetBudget(_) => None,
        ScenarioEvent::VmArrive { node, .. }
        | ScenarioEvent::VmDepart { node }
        | ScenarioEvent::Phase { node, .. }
        | ScenarioEvent::Drain { node }
        | ScenarioEvent::Restore { node } => Some(node),
    }
}

/// Replays a scenario against a warm-started DiBA and reports per-event
/// re-convergence, warm vs cold.
///
/// The driver settles the initial instance cold, then for each group of
/// events sharing a timestamp: applies the mutations through the warm-start
/// entry points ([`DibaRun::set_budget`] in file order, then one
/// [`DibaRun::replace_utilities`] batch — residual state carries over,
/// `Σe = Σp − P` holds through every step), runs to rest, and optionally
/// solves the identical mutated instance from a cold start for the
/// comparison column. With telemetry enabled in `config.diba`, every
/// mutation leaves a `budget`/`workload` marker in the event stream and
/// each re-settle is recorded as a round range.
///
/// # Errors
///
/// Propagates [`AlgError`] from scenario validation ([`Scenario::graph`];
/// [`AlgError::UnknownNode`] for an event addressing a node a hand-built
/// scenario does not have), problem construction (e.g. an infeasible
/// initial budget), solver configuration, and events whose budget cannot
/// cover idle power.
pub fn replay(scenario: &Scenario, config: &ReplayConfig) -> Result<ReplayOutcome, AlgError> {
    config.diba.validate()?;
    config.settle.validate()?;
    let nodes = scenario.servers;
    if let Some(node) = scenario
        .events
        .iter()
        .filter_map(|te| event_node(&te.event))
        .find(|&node| node >= nodes)
    {
        return Err(AlgError::UnknownNode { node, nodes });
    }
    let graph = scenario.graph()?;
    let problem = scenario.initial_problem()?;
    let mut run = DibaRun::new(problem, graph.clone(), config.diba)?;
    let s = config.settle;
    let initial_rounds = run.run_to_rest(s.tol_watts, s.stable_rounds, s.max_rounds);

    // One tick per group of events sharing a timestamp.
    let mut loads: Vec<Option<ServerLoad>> = vec![None; nodes];
    let mut drained = vec![false; nodes];
    let mut groups = scenario.events.chunk_by(|a, b| a.at == b.at);
    let next = |run: &mut DibaRun| {
        let Some(group) = groups.next() else {
            return Ok(None);
        };
        let mut curves: BTreeMap<usize, QuadraticUtility> = BTreeMap::new();
        // Budget moves go in file order; curve changes form one batch
        // after them (last write per node wins). A node is adopted from
        // its fitted curve the first time an event touches it, and a
        // drained node keeps its idle box until it is restored.
        for te in group {
            if let ScenarioEvent::SetBudget(budget) = te.event {
                run.set_budget(budget)?;
            }
            let Some(node) = event_node(&te.event) else {
                continue;
            };
            let current = run.problem().utility(node);
            let load = loads[node].get_or_insert_with(|| ServerLoad::from_fitted(current));
            match te.event {
                ScenarioEvent::VmArrive { vm, .. } => load.vm_arrive(vm),
                ScenarioEvent::VmDepart { .. } => {
                    load.vm_depart();
                }
                ScenarioEvent::Phase {
                    memory_boundedness, ..
                } => load.set_phase(memory_boundedness),
                ScenarioEvent::Drain { .. } => {
                    drained[node] = true;
                    curves.insert(node, drain_curve(current));
                }
                ScenarioEvent::Restore { .. } => drained[node] = false,
                ScenarioEvent::SetBudget(_) => {} // addresses no node
            }
            if !drained[node] {
                curves.insert(node, load.fitted());
            }
        }
        if !curves.is_empty() {
            let curves: Vec<(usize, QuadraticUtility)> = curves.into_iter().collect();
            run.replace_utilities(&curves)?;
        }
        let descriptions = group.iter().map(|te| te.event.describe()).collect();
        Ok(Some((Settle::Rest(s), (group[0].at, descriptions))))
    };

    let mut outcomes: Vec<EventOutcome> = Vec::new();
    let observe = |run: &mut DibaRun, (at, events): (f64, Vec<String>), warm_rounds| {
        if let Some(r) = warm_rounds {
            run.record_event(FaultEvent {
                round: run.iterations() as u64,
                node: 0,
                kind: FaultEventKind::Reconverged,
                mass: r as f64,
            });
        }
        // Cold comparison on the identical mutated instance.
        let cold_rounds = if config.compare_cold {
            let cold_config = DibaConfig {
                telemetry: dpc_alg::telemetry::TelemetryConfig::off(),
                ..config.diba
            };
            let mut cold = DibaRun::new(run.problem().clone(), graph.clone(), cold_config)?;
            cold.run_to_rest(s.tol_watts, s.stable_rounds, s.max_rounds)
        } else {
            None
        };
        let total_power = run.total_power();
        outcomes.push(EventOutcome {
            at,
            events,
            budget: run.problem().budget().0,
            warm_rounds,
            cold_rounds,
            total_power: total_power.0,
            drift: run.invariant_drift(),
            feasible: total_power <= run.problem().budget() + Watts(1e-6),
        });
        Ok(())
    };
    drive(&mut run, next, observe)?;

    Ok(ReplayOutcome {
        report: ReplayReport {
            servers: scenario.servers,
            seed: scenario.seed,
            topology: scenario.topology.clone(),
            initial_budget: scenario.budget.0,
            initial_rounds,
            settle: s,
            events: outcomes,
        },
        run,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXAMPLE: &str = "\
# doc-test scenario
servers 8
seed 7
topology ring
budget 1400

at 1.0 budget 1360
at 2.0 vm-arrive node 3 share 0.4 mem 0.2
at 3.0 phase node 5 mem 0.9
at 4.0 vm-depart node 3
at 5.0 drain node 2
at 6.0 restore node 2
";

    #[test]
    fn parses_the_example() {
        let s = Scenario::parse(EXAMPLE).unwrap();
        assert_eq!(s.servers, 8);
        assert_eq!(s.seed, 7);
        assert_eq!(s.topology, "ring");
        assert_eq!(s.budget, Watts(1400.0));
        assert_eq!(s.events.len(), 6);
        assert_eq!(s.events[0].event, ScenarioEvent::SetBudget(Watts(1360.0)));
        assert!(matches!(
            s.events[4].event,
            ScenarioEvent::Drain { node: 2 }
        ));
    }

    #[test]
    fn rejects_malformed_scenarios_with_named_lines() {
        let cases: [(&str, &str); 9] = [
            (
                "servers 8\nbudget 100\nat 2 budget 90\nat 1 budget 95\n",
                "back in time",
            ),
            ("servers 8\nbudget 100\nat nope budget 90\n", "not a number"),
            ("servers 8\nbudget 100\nat 1 budget inf\n", "must be finite"),
            (
                "servers 8\nbudget 100\nat 1 vm-depart node 3\n",
                "no resident VM",
            ),
            (
                "servers 8\nbudget 100\nat 1 restore node 3\n",
                "not drained",
            ),
            (
                "servers 8\nbudget 100\nat 1 drain node 3\nat 2 drain node 3\n",
                "already drained",
            ),
            (
                "servers 8\nbudget 100\nat 1 explode node 3\n",
                "unknown event",
            ),
            ("servers 1\nbudget 100\n", "at least 2"),
            (
                "servers 10\nbudget 1700\nat 1.0 drain node 9\nservers 5\n",
                "line 4: `servers` given twice",
            ),
        ];
        for (text, needle) in cases {
            let err = Scenario::parse(text).unwrap_err();
            assert!(
                matches!(err, AlgError::InvalidConfig { .. }),
                "{text:?}: {err:?}"
            );
            assert!(err.to_string().contains(needle), "{text:?}: {err}");
        }
    }

    #[test]
    fn unknown_node_is_the_named_variant() {
        let err =
            Scenario::parse("servers 8\nbudget 100\nat 1 phase node 12 mem 0.5\n").unwrap_err();
        assert!(
            matches!(err, AlgError::UnknownNode { node: 12, nodes: 8 }),
            "{err:?}"
        );
    }

    #[test]
    fn hand_built_scenarios_fail_typed_instead_of_panicking() {
        let mut s = Scenario::parse(EXAMPLE).unwrap();
        let timed = |at, event| TimedEvent { at, event };
        // A restore with no drain before it re-fits the node's own curve.
        s.events
            .insert(0, timed(0.5, ScenarioEvent::Restore { node: 4 }));
        let out = replay(&s, &ReplayConfig::default()).unwrap();
        assert!(out.report.all_settled(), "{}", out.report.to_table());
        s.events.push(timed(7.0, ScenarioEvent::Drain { node: 8 }));
        let err = replay(&s, &ReplayConfig::default()).unwrap_err();
        assert!(
            matches!(err, AlgError::UnknownNode { node: 8, nodes: 8 }),
            "{err:?}"
        );
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let s = Scenario::parse("servers 4 # four\n\n# nothing\nbudget 700\n").unwrap();
        assert_eq!(s.servers, 4);
        assert!(s.events.is_empty());
    }

    #[test]
    fn replays_the_example_feasibly() {
        let s = Scenario::parse(EXAMPLE).unwrap();
        let out = replay(&s, &ReplayConfig::default()).unwrap();
        assert!(out.report.all_settled(), "{}", out.report.to_table());
        assert_eq!(out.report.events.len(), 6);
        for e in &out.report.events {
            assert!(e.feasible, "{e:?}");
            assert!(e.drift < 1e-6, "{e:?}");
        }
        // The drain group migrates node 2's power away: its allocation
        // afterwards sits at the idle floor.
        let drained = &out.report.events[4];
        assert!(drained.events[0].contains("drain node 2"));
        assert!(out.run.invariant_drift() < 1e-6);
    }

    /// The reason the warm-start entry points exist: after a small event
    /// (≈1 % budget moves, single-node VM and phase churn) re-settling
    /// from the carried-over state beats a cold start on the identical
    /// mutated instance, at the median and in the worst case.
    #[test]
    fn warm_start_beats_cold_restart_on_small_events() {
        let s = Scenario::parse(
            "servers 200\nseed 0\ntopology chords\nbudget 34000\n\
             at 1 budget 33660\nat 2 phase node 28 mem 0.85\n\
             at 3 budget 34000\nat 4 vm-arrive node 80 share 0.3 mem 0.3\n\
             at 5 budget 33830\nat 6 vm-depart node 80\n\
             at 7 budget 34170\nat 8 phase node 150 mem 0.25\n\
             at 9 budget 33660\nat 10 vm-arrive node 28 share 0.2 mem 0.6\n\
             at 11 budget 34000\nat 12 vm-depart node 28\n",
        )
        .unwrap();
        let config = ReplayConfig {
            compare_cold: true,
            ..ReplayConfig::default()
        };
        let report = replay(&s, &config).unwrap().report;
        assert!(report.all_settled(), "{}", report.to_table());
        // `unwrap`: every group settled, warm and cold, within the bound.
        let sorted = |pick: fn(&EventOutcome) -> Option<usize>| {
            let mut v: Vec<usize> = report.events.iter().map(|e| pick(e).unwrap()).collect();
            v.sort_unstable();
            v
        };
        let (warm, cold) = (sorted(|e| e.warm_rounds), sorted(|e| e.cold_rounds));
        assert_eq!(warm.len(), 12);
        // Nearest-rank percentiles of 12 samples: p50 is the 6th smallest,
        // p99 the largest.
        assert!(warm[5] < cold[5], "p50: warm {warm:?} vs cold {cold:?}");
        assert!(warm[11] < cold[11], "p99: warm {warm:?} vs cold {cold:?}");
    }

    #[test]
    fn report_rendering_is_deterministic() {
        let s = Scenario::parse(EXAMPLE).unwrap();
        let a = replay(&s, &ReplayConfig::default()).unwrap();
        let b = replay(&s, &ReplayConfig::default()).unwrap();
        assert_eq!(a.report.to_json(), b.report.to_json());
        assert_eq!(a.report.to_table(), b.report.to_table());
        assert!(a.report.to_json().contains("\"warm_rounds\""));
    }
}
