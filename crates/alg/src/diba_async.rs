//! Asynchronous DiBA under unreliable timing *and* injected faults.
//!
//! The synchronous rounds of [`crate::diba::DibaRun`] are an idealization:
//! in deployment, nodes act on their own clocks (the paper synchronizes via
//! NTP, Section 4.3.1) and messages ride a real network. This module
//! stresses the algorithm under two layers of imperfection:
//!
//! * **timing jitter** ([`AsyncConfig`]) — partial activation (a node whose
//!   control loop fired late skips the round) and geometric per-message
//!   delivery delay, so neighbors act on stale residuals and slack
//!   transfers spend time "in flight";
//! * **injected faults** ([`FaultPlan`], consumed by
//!   [`AsyncDibaRun::with_faults`]) — per-link message drop / duplication /
//!   reordering, plus scheduled node crashes, restarts, and permanent
//!   departures, with neighbor-timeout failure detection and budget
//!   re-absorption.
//!
//! The residual invariant becomes an inequality while transfers are in
//! flight: the donated (negative) mass has left the sender but not reached
//! the receiver, so `Σ eᵢ ≥ Σ pᵢ − P` on the nodes — feasibility is
//! preserved *conservatively*, never violated. Fault handling extends the
//! ledger rather than breaking it: dropped and undeliverable transfers
//! bounce back to their sender after an RTT, a dead node's mass sits in
//! per-node *escrow* until its silence is detected, and on detection (or a
//! graceful departure) the escrow is re-absorbed by the node's live
//! neighbors — see [`AsyncDibaRun::conservation_drift`] for the exact
//! accounting identity, which the tests pin at zero through every fault.

use crate::diba::{node_action_into, DibaConfig, DibaRun, NodeParams, NodeScratch};
use crate::exec::chunked_sum;
use crate::faults::{FaultPlan, FaultSampler, NodeFaultKind, NodeHealth};
use crate::problem::{AlgError, Allocation, PowerBudgetProblem};
use crate::telemetry::{FaultEvent, FaultEventKind, RoundRecord, Telemetry, TelemetryConfig};
use dpc_models::units::Watts;
use dpc_topology::Graph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Network/scheduling imperfections for the asynchronous run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AsyncConfig {
    /// Probability a node takes its action in a given round, in `(0, 1]`.
    pub activation: f64,
    /// Probability a message is delayed by (at least) one extra round; the
    /// delay is geometric with this parameter, capped at `max_delay`.
    pub delay_prob: f64,
    /// Hard cap on per-message delay, in rounds.
    pub max_delay: usize,
    /// RNG seed (the run is deterministic given the seed).
    pub seed: u64,
}

impl Default for AsyncConfig {
    fn default() -> Self {
        AsyncConfig {
            activation: 0.8,
            delay_prob: 0.3,
            max_delay: 5,
            seed: 0,
        }
    }
}

/// What an in-flight message is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MsgKind {
    /// A normal gossip message: residual snapshot plus a slack transfer.
    Data,
    /// A failed delivery bouncing back: the transport reports the loss and
    /// the sender reclaims the transfer (no snapshot payload).
    Bounce,
}

/// An in-flight message, due at `arrival`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct InFlight {
    arrival: usize,
    to: usize,
    from: usize,
    e_snapshot: f64,
    transfer: f64,
    kind: MsgKind,
}

/// Asynchronous DiBA run over a fixed barrier weight.
///
/// Runs the identical per-node program as the synchronous reference
/// ([`node_action_into`]); only the scheduling, delivery, and fault handling
/// differ. Built fault-free by [`AsyncDibaRun::new`] or with an injected
/// [`FaultPlan`] by [`AsyncDibaRun::with_faults`]; under the benign plan
/// ([`FaultPlan::none`]) both paths are trajectory-identical bit for bit
/// (fault draws come from a separate RNG stream that is never consulted).
#[derive(Debug, Clone)]
pub struct AsyncDibaRun {
    problem: PowerBudgetProblem,
    graph: Graph,
    params: NodeParams,
    net: AsyncConfig,
    rng: StdRng,
    p: Vec<f64>,
    e: Vec<f64>,
    /// Last residual heard from each neighbor: `last_heard[i]` aligned with
    /// `graph.neighbors(i)`.
    last_heard: Vec<Vec<f64>>,
    in_flight: Vec<InFlight>,
    round: usize,
    // --- fault state ---
    faults: FaultPlan,
    sampler: FaultSampler,
    health: Vec<NodeHealth>,
    /// Residual-minus-power mass of dead nodes awaiting re-absorption,
    /// plus any transfers that bounced back to a node after it died.
    escrow: Vec<f64>,
    /// Escrow already re-absorbed (dead node detected or departed): late
    /// bounces flush straight to the live neighbors instead of stranding.
    settled: Vec<bool>,
    /// Per-node link mask aligned with `graph.neighbors(i)`: `false` once
    /// the neighbor timed out (pruned); revived on hearing from it again.
    link_alive: Vec<Vec<bool>>,
    /// Round each neighbor was last heard from, aligned like `link_alive`.
    last_heard_round: Vec<Vec<usize>>,
    /// Crashed nodes whose scheduled restart could not yet gather enough
    /// slack to boot; retried every round.
    pending_restarts: Vec<usize>,
    /// Mass donated by a dying node that had no live neighbor left. Never
    /// spent (it is non-positive slack), only accounted.
    stranded: f64,
    /// `true` while the live subgraph is disconnected (DiBA's convergence
    /// guarantee needs connectivity; the run keeps going per component).
    partitioned: bool,
    /// Round recorder; `None` (the default) skips recording entirely.
    telemetry: Option<Box<Telemetry>>,
    /// Message accounting of the round in flight (plain counters — they
    /// never touch solver state or the RNG streams, so telemetry cannot
    /// perturb the trajectory).
    round_sent: u64,
    round_dropped: u64,
    round_duplicated: u64,
    round_bounced: u64,
    /// Reusable per-node working memory: steady-state rounds allocate
    /// nothing (the transfer buffer lives here, not in a fresh `Vec`).
    scratch: NodeScratch,
    /// Staging for the live-link residuals of a node with pruned links.
    pruned_e: Vec<f64>,
    /// Neighbor-slot indices matching `pruned_e`.
    pruned_slots: Vec<usize>,
}

impl AsyncDibaRun {
    /// Builds a fault-free asynchronous run with the same initialization as
    /// the synchronous reference. Equivalent to [`AsyncDibaRun::with_faults`]
    /// with [`FaultPlan::none`].
    ///
    /// # Errors
    ///
    /// Propagates [`DibaRun::new`] errors.
    ///
    /// # Panics
    ///
    /// Panics if `activation` is not in `(0, 1]` or `delay_prob` not in
    /// `[0, 1)`.
    pub fn new(
        problem: PowerBudgetProblem,
        graph: Graph,
        config: DibaConfig,
        net: AsyncConfig,
    ) -> Result<AsyncDibaRun, AlgError> {
        Self::with_faults(problem, graph, config, net, FaultPlan::none())
    }

    /// Builds an asynchronous run with an injected fault plan.
    ///
    /// # Errors
    ///
    /// Propagates [`DibaRun::new`] errors.
    ///
    /// # Panics
    ///
    /// Panics if `activation` is not in `(0, 1]`, `delay_prob` not in
    /// `[0, 1)`, or the plan fails [`FaultPlan::validate`].
    pub fn with_faults(
        problem: PowerBudgetProblem,
        graph: Graph,
        config: DibaConfig,
        net: AsyncConfig,
        faults: FaultPlan,
    ) -> Result<AsyncDibaRun, AlgError> {
        assert!(
            net.activation > 0.0 && net.activation <= 1.0,
            "activation {} not in (0, 1]",
            net.activation
        );
        assert!(
            (0.0..1.0).contains(&net.delay_prob),
            "delay_prob {} not in [0, 1)",
            net.delay_prob
        );
        if let Err(msg) = faults.validate(problem.len()) {
            panic!("invalid fault plan: {msg}");
        }
        config.validate()?;
        // The reference run exists only to resolve params and the initial
        // state; its own recorder would go unread, so build it without one.
        let reference = DibaRun::new(
            problem.clone(),
            graph.clone(),
            DibaConfig {
                telemetry: TelemetryConfig::off(),
                ..config
            },
        )?;
        let telemetry = if config.telemetry.enabled {
            Some(Box::new(Telemetry::new(config.telemetry)))
        } else {
            None
        };
        let params = reference.params();
        let states = reference.node_states();
        let p: Vec<f64> = states.iter().map(|s| s.0).collect();
        let e: Vec<f64> = states.iter().map(|s| s.1).collect();
        let n = problem.len();
        let last_heard = (0..n)
            .map(|i| graph.neighbors(i).iter().map(|&j| e[j]).collect())
            .collect();
        let link_alive = (0..n)
            .map(|i| vec![true; graph.neighbors(i).len()])
            .collect();
        let last_heard_round = (0..n)
            .map(|i| vec![0usize; graph.neighbors(i).len()])
            .collect();
        let sampler = FaultSampler::new(&faults);
        let max_degree = (0..n).map(|i| graph.neighbors(i).len()).max().unwrap_or(0);
        Ok(AsyncDibaRun {
            problem,
            graph,
            params,
            rng: StdRng::seed_from_u64(net.seed),
            net,
            p,
            e,
            last_heard,
            in_flight: Vec::new(),
            round: 0,
            faults,
            sampler,
            health: vec![NodeHealth::Alive; n],
            escrow: vec![0.0; n],
            settled: vec![false; n],
            link_alive,
            last_heard_round,
            pending_restarts: Vec::new(),
            stranded: 0.0,
            partitioned: false,
            telemetry,
            round_sent: 0,
            round_dropped: 0,
            round_duplicated: 0,
            round_bounced: 0,
            scratch: NodeScratch::with_capacity(max_degree),
            pruned_e: Vec::new(),
            pruned_slots: Vec::new(),
        })
    }

    /// The round recorder, when telemetry is enabled.
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.as_deref()
    }

    /// Attaches (or, with a disabled config, detaches) a fresh round
    /// recorder. Recording starts from the next round; the trajectory is
    /// unaffected either way.
    pub fn set_telemetry(&mut self, config: TelemetryConfig) {
        self.telemetry = if config.enabled {
            Some(Box::new(Telemetry::new(config)))
        } else {
            None
        };
    }

    /// Records a fault-machinery event (no-op without a recorder).
    fn note_event(&mut self, node: usize, kind: FaultEventKind, mass: f64) {
        if let Some(t) = self.telemetry.as_mut() {
            t.record_event(FaultEvent {
                round: self.round as u64,
                node,
                kind,
                mass,
            });
        }
    }

    /// Samples the round that just finished into the recorder. Pure
    /// observation: every aggregate is read from solver state sealed for
    /// the round, using the same fixed-chunk reductions as the engines.
    fn record_round(&mut self) {
        let mut max_abs_e = 0.0_f64;
        let mut norm2 = 0.0_f64;
        for (&pi, &ei) in self.p.iter().zip(&self.e) {
            max_abs_e = max_abs_e.max(ei.abs());
            norm2 += pi * pi;
        }
        let record = RoundRecord {
            round: self.round as u64,
            budget: self.problem.budget().0,
            sum_p: chunked_sum(&self.p),
            norm2_p: norm2.sqrt(),
            sum_e: chunked_sum(&self.e),
            max_abs_e,
            msgs_sent: self.round_sent,
            msgs_dropped: self.round_dropped,
            msgs_duplicated: self.round_duplicated,
            msgs_bounced: self.round_bounced,
            in_flight: self.in_flight.len() as u64,
            inflight_mass: self.in_flight.iter().map(|m| m.transfer).sum(),
            escrow_total: self.escrow.iter().sum(),
            stranded: self.stranded,
            live: self.live_count() as u64,
            workers: 1,
            ..RoundRecord::default()
        };
        if let Some(t) = self.telemetry.as_mut() {
            t.record_round(record);
        }
    }

    /// Replaces the fault plan and resets all fault state (health, escrow,
    /// pruned links). Intended to be called before the first [`step`]
    /// — installing a plan mid-run on a cluster that already suffered
    /// faults is a caller bug.
    ///
    /// [`step`]: AsyncDibaRun::step
    ///
    /// # Panics
    ///
    /// Panics if the plan fails [`FaultPlan::validate`].
    pub fn set_fault_plan(&mut self, faults: FaultPlan) {
        if let Err(msg) = faults.validate(self.problem.len()) {
            panic!("invalid fault plan: {msg}");
        }
        let n = self.problem.len();
        self.sampler = FaultSampler::new(&faults);
        self.faults = faults;
        self.health = vec![NodeHealth::Alive; n];
        self.escrow = vec![0.0; n];
        self.settled = vec![false; n];
        for row in &mut self.link_alive {
            row.iter_mut().for_each(|l| *l = true);
        }
        self.pending_restarts.clear();
        self.stranded = 0.0;
        self.partitioned = false;
    }

    /// Rounds elapsed.
    pub fn round(&self) -> usize {
        self.round
    }

    /// Current allocation (dead nodes draw 0 W).
    pub fn allocation(&self) -> Allocation {
        self.p.iter().map(|&p| Watts(p)).collect()
    }

    /// Current total power.
    pub fn total_power(&self) -> Watts {
        Watts(self.p.iter().sum())
    }

    /// Current total utility, summed over live nodes (a dead node produces
    /// no throughput; evaluating its quadratic at 0 W would be nonsense).
    pub fn total_utility(&self) -> f64 {
        self.problem
            .utilities()
            .iter()
            .zip(&self.p)
            .zip(&self.health)
            .filter(|&(_, h)| *h == NodeHealth::Alive)
            .map(|((u, &p), _)| u.value(Watts(p)))
            .sum()
    }

    /// Number of messages currently in flight.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// The problem being solved (utilities and current budget).
    pub fn problem(&self) -> &PowerBudgetProblem {
        &self.problem
    }

    /// The local residual estimates `eᵢ` (watts); dead nodes read 0.
    pub fn residuals(&self) -> &[f64] {
        &self.e
    }

    /// Per-node health under the installed fault plan.
    pub fn health(&self) -> &[NodeHealth] {
        &self.health
    }

    /// Number of live nodes.
    pub fn live_count(&self) -> usize {
        self.health
            .iter()
            .filter(|&&h| h == NodeHealth::Alive)
            .count()
    }

    /// Escrowed residual mass of dead nodes not yet re-absorbed (≤ 0).
    pub fn escrow_total(&self) -> f64 {
        self.escrow.iter().sum()
    }

    /// Slack mass stranded by nodes that died with no live neighbor (≤ 0).
    pub fn stranded(&self) -> f64 {
        self.stranded
    }

    /// `true` while churn has disconnected the live subgraph. DiBA's
    /// convergence proof requires a connected graph; a partitioned run
    /// stays feasible but each component equilibrates on its own.
    pub fn partitioned(&self) -> bool {
        self.partitioned
    }

    /// Residual accounting drift:
    /// `Σe + Σescrow + Σin-flight + stranded − (Σp − P)`, which must stay at
    /// exactly zero — mass conservation including the network and every
    /// fault-handling ledger. Because every term on the left is ≤ 0, this
    /// identity is also the feasibility proof: `Σp ≤ P` at all times.
    pub fn conservation_drift(&self) -> f64 {
        let on_nodes: f64 = self.e.iter().sum();
        let flying: f64 = self.in_flight.iter().map(|m| m.transfer).sum();
        let escrowed: f64 = self.escrow.iter().sum();
        let sum_p: f64 = self.p.iter().sum();
        (on_nodes + flying + escrowed + self.stranded - (sum_p - self.problem.budget().0)).abs()
    }

    /// Changes the budget in place: the shift is split across live nodes'
    /// residuals so the conservation identity is preserved exactly.
    ///
    /// # Errors
    ///
    /// [`AlgError::InfeasibleBudget`] when the new budget is below `Σp_min`.
    pub fn set_budget(&mut self, budget: Watts) -> Result<(), AlgError> {
        let old = self.problem.budget();
        self.problem = self.problem.with_budget(budget)?;
        let live: Vec<usize> = (0..self.p.len())
            .filter(|&i| self.health[i] == NodeHealth::Alive)
            .collect();
        let shift = (old.0 - budget.0) / live.len().max(1) as f64;
        for i in live {
            self.e[i] += shift;
        }
        Ok(())
    }

    /// Replaces node `i`'s utility (a workload change), clamping its power
    /// into the new box and adjusting the residual by the clamp so the
    /// conservation identity is preserved.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn replace_utility(&mut self, i: usize, utility: dpc_models::QuadraticUtility) {
        let mut utilities = self.problem.utilities().to_vec();
        utilities[i] = utility;
        let budget = self.problem.budget();
        self.problem = PowerBudgetProblem::new(utilities, budget)
            .expect("replacing one utility keeps the problem non-empty");
        if self.health[i] != NodeHealth::Alive {
            return; // a dead node keeps p = 0 until it restarts
        }
        let u = self.problem.utility(i);
        let clamped = self.p[i].clamp(u.p_min().0, u.p_max().0);
        self.e[i] += clamped - self.p[i];
        self.p[i] = clamped;
    }

    /// One asynchronous round: fire scheduled node faults, deliver due
    /// messages (bouncing undeliverable ones), run failure detection, then
    /// let a random subset of live nodes act and enqueue their messages
    /// with random delays and link faults.
    pub fn step(&mut self) {
        self.round += 1;
        self.round_sent = 0;
        self.round_dropped = 0;
        self.round_duplicated = 0;
        self.round_bounced = 0;
        if !self.faults.schedule.is_empty() || !self.pending_restarts.is_empty() {
            self.apply_schedule();
        }
        self.deliver_due();
        if self.faults.detect_after.is_some() {
            self.detect_failures();
        }
        self.act_nodes();
        if self.telemetry.is_some() {
            self.record_round();
        }
    }

    /// Runs `rounds` asynchronous rounds.
    pub fn run(&mut self, rounds: usize) {
        for _ in 0..rounds {
            self.step();
        }
    }

    /// Runs until feasible and within `rel_tol` of `reference_utility`;
    /// returns rounds used.
    pub fn run_until_within(
        &mut self,
        reference_utility: f64,
        rel_tol: f64,
        max_rounds: usize,
    ) -> Option<usize> {
        let start = self.round;
        for _ in 0..max_rounds {
            let feasible = self.total_power() <= self.problem.budget() + Watts(1e-6);
            let gap = (reference_utility - self.total_utility()).abs()
                / reference_utility.abs().max(1e-12);
            if feasible && gap < rel_tol {
                return Some(self.round - start);
            }
            self.step();
        }
        None
    }

    // ------------------------------------------------------------------
    // Fault machinery
    // ------------------------------------------------------------------

    /// Fires node events scheduled for this round, then retries deferred
    /// restarts.
    fn apply_schedule(&mut self) {
        for idx in 0..self.faults.schedule.len() {
            let f = self.faults.schedule[idx];
            if f.round != self.round {
                continue;
            }
            match f.kind {
                NodeFaultKind::Crash => self.crash(f.node),
                NodeFaultKind::Depart => self.depart(f.node),
                NodeFaultKind::Restart => {
                    if !self.try_restart(f.node) {
                        self.pending_restarts.push(f.node);
                    }
                }
            }
        }
        if !self.pending_restarts.is_empty() {
            let pending = std::mem::take(&mut self.pending_restarts);
            for node in pending {
                if !self.try_restart(node) {
                    self.pending_restarts.push(node);
                }
            }
        }
    }

    /// Node `i` powers off silently: its power draw stops and its residual
    /// mass `e − p` moves to escrow, keeping the conservation ledger exact.
    fn crash(&mut self, i: usize) {
        if self.health[i] != NodeHealth::Alive {
            return;
        }
        let escrowed = self.e[i] - self.p[i];
        self.escrow[i] += escrowed;
        self.e[i] = 0.0;
        self.p[i] = 0.0;
        self.health[i] = NodeHealth::Crashed;
        self.settled[i] = false;
        self.partitioned = !self.live_connected();
        self.note_event(i, FaultEventKind::Crash, escrowed);
    }

    /// Node `i` leaves permanently. A live node departs gracefully,
    /// donating `e − p` to its live neighbors in a farewell (so the budget
    /// it occupied is re-absorbed immediately); a crashed node is removed
    /// by the management plane, which settles its escrow the same way.
    fn depart(&mut self, i: usize) {
        match self.health[i] {
            NodeHealth::Alive => {
                let farewell = self.e[i] - self.p[i];
                self.e[i] = 0.0;
                self.p[i] = 0.0;
                self.health[i] = NodeHealth::Departed;
                self.settled[i] = true;
                self.donate_to_live_neighbors(i, farewell);
                self.note_event(i, FaultEventKind::Depart, farewell);
            }
            NodeHealth::Crashed => {
                self.health[i] = NodeHealth::Departed;
                if !self.settled[i] {
                    self.settle(i);
                }
                self.note_event(i, FaultEventKind::Depart, 0.0);
            }
            NodeHealth::Departed => return,
        }
        // Both directions of every incident link go down for good.
        for slot in 0..self.graph.neighbors(i).len() {
            self.link_alive[i][slot] = false;
        }
        for (j, row) in self.link_alive.iter_mut().enumerate() {
            if let Some(slot) = self.graph.neighbors(j).iter().position(|&k| k == i) {
                row[slot] = false;
            }
        }
        self.partitioned = !self.live_connected();
    }

    /// Re-absorbs a dead node's escrow into its live neighbors' residuals.
    fn settle(&mut self, i: usize) {
        self.settled[i] = true;
        let amount = std::mem::take(&mut self.escrow[i]);
        self.donate_to_live_neighbors(i, amount);
        self.note_event(i, FaultEventKind::Settle, amount);
    }

    /// Splits `amount` (≤ 0 slack mass) equally over `i`'s live neighbors;
    /// strands it when none is left (an island of dead nodes).
    fn donate_to_live_neighbors(&mut self, i: usize, amount: f64) {
        if amount == 0.0 {
            return;
        }
        let live: Vec<usize> = self
            .graph
            .neighbors(i)
            .iter()
            .copied()
            .filter(|&j| self.health[j] == NodeHealth::Alive)
            .collect();
        if live.is_empty() {
            self.stranded += amount;
            return;
        }
        let share = amount / live.len() as f64;
        for j in live {
            self.e[j] += share;
        }
    }

    /// Attempts to boot a crashed node at its idle power. The boot needs
    /// `p_min + margin` watts of headroom: first from the node's own
    /// escrow (if not yet re-absorbed), then from each live neighbor's
    /// spare slack, and finally — since a converged cluster has no spare
    /// slack at all — from neighbors *throttling down* toward their own
    /// `p_min` to make room (the admission-control handshake; the normal
    /// diffusion dynamics re-equalize afterwards). Returns `false`
    /// (deferring to the next round) when not enough headroom exists yet.
    fn try_restart(&mut self, i: usize) -> bool {
        match self.health[i] {
            NodeHealth::Crashed => {}
            // Restarting a live node is a no-op; a departed node is gone.
            NodeHealth::Alive | NodeHealth::Departed => return true,
        }
        let p_min = self.problem.utility(i).p_min().0;
        let need = p_min + self.params.margin;
        let own = if self.settled[i] {
            0.0
        } else {
            -self.escrow[i]
        };
        // Pass 1 (read-only): can enough headroom be gathered at all?
        // `spare` donates existing slack above the margin; `cut` throttles
        // the donor toward its own box floor, creating new headroom.
        let mut donations: Vec<(usize, f64, f64)> = Vec::new();
        let mut have = own;
        for &j in self.graph.neighbors(i) {
            if have >= need {
                break;
            }
            if self.health[j] != NodeHealth::Alive {
                continue;
            }
            let spare = ((-self.e[j]) - self.params.margin).max(0.0);
            let spare_take = spare.min(need - have);
            have += spare_take;
            let cut_cap = (self.p[j] - self.problem.utility(j).p_min().0).max(0.0);
            let cut_take = cut_cap.min(need - have);
            have += cut_take;
            if spare_take > 0.0 || cut_take > 0.0 {
                donations.push((j, spare_take, cut_take));
            }
        }
        if have < need {
            return false; // admission control: not enough headroom yet
        }
        // Pass 2: apply. A spare donation moves slack (e_j += d); a power
        // cut lowers p_j with e_j unchanged — either way the donor's
        // `e − p` rises by the donated amount, so with the boot below the
        // ledger change is exactly `p_min` on both sides of the invariant.
        for &(j, spare_take, cut_take) in &donations {
            self.e[j] += spare_take;
            self.p[j] -= cut_take;
        }
        self.escrow[i] = 0.0;
        self.settled[i] = false;
        self.health[i] = NodeHealth::Alive;
        self.p[i] = p_min;
        self.e[i] = p_min - have;
        // Fresh boot: revive own links and assume residual parity with the
        // neighbors until real gossip arrives (prevents blind donations).
        for slot in 0..self.graph.neighbors(i).len() {
            self.link_alive[i][slot] = true;
            self.last_heard[i][slot] = self.e[i];
            self.last_heard_round[i][slot] = self.round;
        }
        self.partitioned = !self.live_connected();
        self.note_event(i, FaultEventKind::Restart, p_min);
        true
    }

    /// `true` when the subgraph induced by live nodes is connected.
    fn live_connected(&self) -> bool {
        let alive: Vec<bool> = self
            .health
            .iter()
            .map(|&h| h == NodeHealth::Alive)
            .collect();
        self.graph.is_connected_among(&alive)
    }

    /// Delivers every message due this round. Data for a dead node bounces
    /// back to its sender after the link RTT; bounced transfers are
    /// reclaimed by the sender (or its escrow, if it died in the meantime).
    fn deliver_due(&mut self) {
        let round = self.round;
        let mut delivered = Vec::new();
        self.in_flight.retain(|m| {
            if m.arrival <= round {
                delivered.push(*m);
                false
            } else {
                true
            }
        });
        for m in delivered {
            match m.kind {
                MsgKind::Data => {
                    if self.health[m.to] == NodeHealth::Alive {
                        self.e[m.to] += m.transfer;
                        let slot = self
                            .graph
                            .neighbors(m.to)
                            .iter()
                            .position(|&j| j == m.from)
                            .expect("message along a graph edge");
                        self.last_heard[m.to][slot] = m.e_snapshot;
                        self.last_heard_round[m.to][slot] = round;
                        // Hearing from a pruned neighbor revives the link.
                        self.link_alive[m.to][slot] = true;
                    } else if m.transfer != 0.0 {
                        // Undeliverable: the transport bounces the transfer
                        // back to the sender after the RTT.
                        self.round_bounced += 1;
                        self.in_flight.push(InFlight {
                            arrival: round + self.faults.link.rtt.max(1),
                            to: m.from,
                            from: m.to,
                            e_snapshot: 0.0,
                            transfer: m.transfer,
                            kind: MsgKind::Bounce,
                        });
                    }
                }
                MsgKind::Bounce => self.reclaim(m.to, m.transfer),
            }
        }
    }

    /// Returns a bounced transfer to node `i`: to its residual while alive,
    /// to its escrow when dead (flushed onward immediately if the escrow
    /// was already settled).
    fn reclaim(&mut self, i: usize, transfer: f64) {
        if self.health[i] == NodeHealth::Alive {
            self.e[i] += transfer;
        } else if self.settled[i] {
            self.donate_to_live_neighbors(i, transfer);
        } else {
            self.escrow[i] += transfer;
        }
    }

    /// Neighbor-timeout failure detection: prunes links silent for longer
    /// than the plan's timeout, and on the first detection of a genuinely
    /// dead neighbor re-absorbs its escrowed budget. A pruned link to a
    /// live node (a false positive under heavy loss) revives as soon as a
    /// message gets through.
    fn detect_failures(&mut self) {
        let timeout = match self.faults.detect_after {
            Some(t) => t,
            None => return,
        };
        let n = self.p.len();
        for i in 0..n {
            if self.health[i] != NodeHealth::Alive {
                continue;
            }
            for slot in 0..self.graph.neighbors(i).len() {
                if !self.link_alive[i][slot] {
                    continue;
                }
                if self.round.saturating_sub(self.last_heard_round[i][slot]) > timeout {
                    self.link_alive[i][slot] = false;
                    let j = self.graph.neighbors(i)[slot];
                    if self.health[j] != NodeHealth::Alive && !self.settled[j] {
                        self.note_event(j, FaultEventKind::Detect, 0.0);
                        self.settle(j);
                    }
                }
            }
        }
    }

    /// The acting phase: each live node activates with probability
    /// `activation`, runs [`node_action_into`] over its live links (reusing
    /// the run's persistent scratch, so steady-state rounds never touch the
    /// allocator), and sends one message per live link, subject to delay
    /// and link faults.
    fn act_nodes(&mut self) {
        for i in 0..self.p.len() {
            if self.health[i] != NodeHealth::Alive {
                continue;
            }
            if self.rng.gen_range(0.0..1.0) >= self.net.activation {
                continue;
            }
            let degree = self.graph.neighbors(i).len();
            let all_links_up = self.link_alive[i].iter().all(|&l| l);
            let dp = if all_links_up {
                node_action_into(
                    self.problem.utility(i),
                    self.p[i],
                    self.e[i],
                    &self.last_heard[i],
                    &self.params,
                    &mut self.scratch,
                )
            } else {
                // Pruned links drop out of the local program entirely: the
                // node re-estimates against its live neighborhood only, so
                // slack diffusion renormalizes to the surviving degree.
                self.pruned_e.clear();
                self.pruned_slots.clear();
                for slot in 0..degree {
                    if self.link_alive[i][slot] {
                        self.pruned_slots.push(slot);
                        self.pruned_e.push(self.last_heard[i][slot]);
                    }
                }
                node_action_into(
                    self.problem.utility(i),
                    self.p[i],
                    self.e[i],
                    &self.pruned_e,
                    &self.params,
                    &mut self.scratch,
                )
            };
            // Same accounting as `NodeAction::own_residual_delta`, same
            // summation order, so the trajectory is bit-identical to the
            // allocating path it replaces.
            let sent_total: f64 = self.scratch.transfers.iter().sum();
            self.p[i] += dp;
            self.e[i] += dp - sent_total;
            for k in 0..self.scratch.transfers.len() {
                let t = self.scratch.transfers[k];
                let slot = if all_links_up {
                    k
                } else {
                    self.pruned_slots[k]
                };
                let j = self.graph.neighbors(i)[slot];
                let mut delay = 1usize;
                while delay < self.net.max_delay
                    && self.rng.gen_range(0.0..1.0) < self.net.delay_prob
                {
                    delay += 1;
                }
                let fate = self.sampler.fate();
                self.round_sent += 1;
                if fate.dropped {
                    self.round_dropped += 1;
                    if t != 0.0 {
                        self.round_bounced += 1;
                        // The transport reports the loss; the sender gets
                        // the transfer back one RTT after it would arrive.
                        self.in_flight.push(InFlight {
                            arrival: self.round + delay + self.faults.link.rtt.max(1),
                            to: i,
                            from: j,
                            e_snapshot: 0.0,
                            transfer: t,
                            kind: MsgKind::Bounce,
                        });
                    }
                    continue;
                }
                let arrival = self.round + delay + fate.extra_delay;
                self.in_flight.push(InFlight {
                    arrival,
                    to: j,
                    from: i,
                    e_snapshot: self.e[i],
                    transfer: t,
                    kind: MsgKind::Data,
                });
                if fate.dup_lag > 0 {
                    // The duplicate re-delivers only the (stale) snapshot:
                    // the receiver deduplicates the slack payload.
                    self.round_duplicated += 1;
                    self.in_flight.push(InFlight {
                        arrival: arrival + fate.dup_lag,
                        to: j,
                        from: i,
                        e_snapshot: self.e[i],
                        transfer: 0.0,
                        kind: MsgKind::Data,
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::centralized;
    use crate::faults::LinkFaults;
    use dpc_models::workload::ClusterBuilder;

    fn problem(n: usize, per_server: f64, seed: u64) -> PowerBudgetProblem {
        let c = ClusterBuilder::new(n).seed(seed).build();
        PowerBudgetProblem::new(c.utilities(), Watts(per_server * n as f64)).unwrap()
    }

    fn run(n: usize, net: AsyncConfig) -> (PowerBudgetProblem, AsyncDibaRun) {
        let p = problem(n, 170.0, 3);
        let r = AsyncDibaRun::new(p.clone(), Graph::ring(n), DibaConfig::default(), net).unwrap();
        (p, r)
    }

    fn lossy_link(drop: f64) -> LinkFaults {
        LinkFaults {
            drop,
            duplicate: drop / 2.0,
            reorder: drop,
            reorder_max: 4,
            rtt: 3,
        }
    }

    /// Oracle utility over the surviving nodes only, at the full budget.
    fn survivor_optimal(p: &PowerBudgetProblem, dead: &[usize]) -> f64 {
        let utilities: Vec<_> = p
            .utilities()
            .iter()
            .enumerate()
            .filter(|(i, _)| !dead.contains(i))
            .map(|(_, u)| *u)
            .collect();
        let survivors = PowerBudgetProblem::new(utilities, p.budget()).unwrap();
        survivors.total_utility(&centralized::solve(&survivors).allocation)
    }

    #[test]
    fn conservation_holds_with_delays_and_partial_activation() {
        let (_, mut r) = run(40, AsyncConfig::default());
        for _ in 0..500 {
            r.step();
            assert!(
                r.conservation_drift() < 1e-6,
                "drift {}",
                r.conservation_drift()
            );
        }
        // Messages really do spend time in flight.
        assert!(r.in_flight() > 0);
    }

    #[test]
    fn budget_never_violated_despite_network_chaos() {
        let net = AsyncConfig {
            activation: 0.5,
            delay_prob: 0.5,
            max_delay: 8,
            seed: 9,
        };
        let (p, mut r) = run(40, net);
        for _ in 0..800 {
            r.step();
            assert!(r.total_power() <= p.budget() + Watts(1e-6));
        }
    }

    #[test]
    fn still_converges_to_near_optimal() {
        let (p, mut r) = run(60, AsyncConfig::default());
        let opt = p.total_utility(&centralized::solve(&p).allocation);
        let rounds = r.run_until_within(opt, 0.015, 40_000);
        assert!(rounds.is_some(), "async run failed to converge");
    }

    #[test]
    fn synchronous_limit_matches_reference_behaviour() {
        // activation 1, no delay beyond the mandatory 1-round latency:
        // behaves like the message-passing prototype (one-round staleness).
        let net = AsyncConfig {
            activation: 1.0,
            delay_prob: 0.0,
            max_delay: 1,
            seed: 1,
        };
        let (p, mut r) = run(30, net);
        let opt = p.total_utility(&centralized::solve(&p).allocation);
        let rounds = r.run_until_within(opt, 0.01, 30_000).expect("converges");
        // Within small factor of the synchronous reference's budget.
        assert!(rounds < 20_000, "took {rounds}");
    }

    #[test]
    fn degraded_network_slows_but_does_not_break_convergence() {
        let p = problem(40, 170.0, 5);
        let opt = p.total_utility(&centralized::solve(&p).allocation);
        let fast_net = AsyncConfig {
            activation: 1.0,
            delay_prob: 0.0,
            max_delay: 1,
            seed: 2,
        };
        let slow_net = AsyncConfig {
            activation: 0.4,
            delay_prob: 0.6,
            max_delay: 10,
            seed: 2,
        };
        let mut fast =
            AsyncDibaRun::new(p.clone(), Graph::ring(40), DibaConfig::default(), fast_net).unwrap();
        let mut slow =
            AsyncDibaRun::new(p.clone(), Graph::ring(40), DibaConfig::default(), slow_net).unwrap();
        let rf = fast
            .run_until_within(opt, 0.02, 60_000)
            .expect("fast converges");
        let rs = slow
            .run_until_within(opt, 0.02, 60_000)
            .expect("slow converges");
        assert!(
            rs >= rf,
            "degraded network should not be faster: {rs} vs {rf}"
        );
    }

    #[test]
    #[should_panic(expected = "activation")]
    fn rejects_zero_activation() {
        let p = problem(4, 170.0, 1);
        let net = AsyncConfig {
            activation: 0.0,
            ..Default::default()
        };
        let _ = AsyncDibaRun::new(p, Graph::ring(4), DibaConfig::default(), net);
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    #[test]
    #[should_panic(expected = "invalid fault plan")]
    fn rejects_out_of_range_fault_schedule() {
        let p = problem(4, 170.0, 1);
        let plan = FaultPlan::none().and(10, 99, NodeFaultKind::Crash);
        let _ = AsyncDibaRun::with_faults(
            p,
            Graph::ring(4),
            DibaConfig::default(),
            AsyncConfig::default(),
            plan,
        );
    }

    #[test]
    fn zero_fault_plan_is_bitwise_inert() {
        let (_, mut plain) = run(30, AsyncConfig::default());
        let p = problem(30, 170.0, 3);
        let mut faulted = AsyncDibaRun::with_faults(
            p,
            Graph::ring(30),
            DibaConfig::default(),
            AsyncConfig::default(),
            FaultPlan::none(),
        )
        .unwrap();
        for _ in 0..400 {
            plain.step();
            faulted.step();
        }
        assert_eq!(plain.allocation(), faulted.allocation());
        assert_eq!(plain.residuals(), faulted.residuals());
        assert_eq!(plain.in_flight(), faulted.in_flight());
    }

    #[test]
    fn conservation_and_feasibility_survive_lossy_links() {
        let p = problem(40, 170.0, 3);
        let plan = FaultPlan::with_link(11, lossy_link(0.2));
        let mut r = AsyncDibaRun::with_faults(
            p.clone(),
            Graph::ring(40),
            DibaConfig::default(),
            AsyncConfig::default(),
            plan,
        )
        .unwrap();
        for _ in 0..1_500 {
            r.step();
            assert!(
                r.conservation_drift() < 1e-6,
                "drift {} at round {}",
                r.conservation_drift(),
                r.round()
            );
            assert!(r.total_power() <= p.budget() + Watts(1e-6));
        }
        // Still converges (more slowly) despite 20% loss.
        let opt = p.total_utility(&centralized::solve(&p).allocation);
        assert!(
            r.run_until_within(opt, 0.03, 80_000).is_some(),
            "lossy run failed to converge"
        );
    }

    #[test]
    fn crash_is_detected_escrow_reabsorbed_and_budget_reclaimed() {
        let p = problem(40, 170.0, 3);
        let victim = 7usize;
        let plan = FaultPlan::with_link(5, lossy_link(0.1))
            .and(100, victim, NodeFaultKind::Crash)
            .detect_after(Some(30));
        let mut r = AsyncDibaRun::with_faults(
            p.clone(),
            Graph::ring_with_chords(40, 3),
            DibaConfig::default(),
            AsyncConfig::default(),
            plan,
        )
        .unwrap();
        for _ in 0..12_000 {
            r.step();
            assert!(
                r.conservation_drift() < 1e-6,
                "drift {} at round {}",
                r.conservation_drift(),
                r.round()
            );
            assert!(r.total_power() <= p.budget() + Watts(1e-6));
        }
        assert_eq!(r.health()[victim], NodeHealth::Crashed);
        assert_eq!(r.escrow_total(), 0.0, "escrow never re-absorbed");
        assert!(!r.partitioned(), "chorded ring survives one crash");
        // The freed budget is re-absorbed: survivors approach the oracle
        // utility of the 39-node problem at the full budget.
        let opt = survivor_optimal(&p, &[victim]);
        let gap = (opt - r.total_utility()).abs() / opt;
        assert!(gap < 0.03, "survivors did not re-absorb budget: gap {gap}");
    }

    #[test]
    fn crashed_node_restarts_and_cluster_reconverges() {
        let p = problem(30, 170.0, 3);
        let victim = 4usize;
        let plan = FaultPlan::with_link(5, LinkFaults::none())
            .and(100, victim, NodeFaultKind::Crash)
            .and(2_000, victim, NodeFaultKind::Restart)
            .detect_after(Some(30));
        let mut r = AsyncDibaRun::with_faults(
            p.clone(),
            Graph::ring(30),
            DibaConfig::default(),
            AsyncConfig::default(),
            plan,
        )
        .unwrap();
        r.run(1_500);
        assert_eq!(r.health()[victim], NodeHealth::Crashed);
        assert_eq!(r.allocation().power(victim), Watts(0.0));
        r.run(10_000);
        assert_eq!(
            r.health()[victim],
            NodeHealth::Alive,
            "restart never booted"
        );
        assert!(r.allocation().power(victim) >= Watts(p.utility(victim).p_min().0));
        assert!(
            r.conservation_drift() < 1e-6,
            "drift {}",
            r.conservation_drift()
        );
        // Back to the full-cluster optimum.
        let opt = p.total_utility(&centralized::solve(&p).allocation);
        assert!(
            r.run_until_within(opt, 0.02, 40_000).is_some(),
            "cluster failed to re-converge after restart"
        );
    }

    #[test]
    fn departure_reabsorbs_budget_immediately() {
        let p = problem(30, 170.0, 3);
        let leaver = 12usize;
        let plan = FaultPlan::none()
            .and(200, leaver, NodeFaultKind::Depart)
            .detect_after(Some(40));
        let mut r = AsyncDibaRun::with_faults(
            p.clone(),
            Graph::ring(30),
            DibaConfig::default(),
            AsyncConfig::default(),
            plan,
        )
        .unwrap();
        for _ in 0..300 {
            r.step();
            assert!(
                r.conservation_drift() < 1e-6,
                "drift {}",
                r.conservation_drift()
            );
        }
        assert_eq!(r.health()[leaver], NodeHealth::Departed);
        assert_eq!(r.escrow_total(), 0.0, "graceful departure leaves no escrow");
        assert!(!r.partitioned(), "ring minus one node is a path: connected");
        let opt = survivor_optimal(&p, &[leaver]);
        assert!(
            r.run_until_within(opt, 0.02, 40_000).is_some(),
            "survivors failed to absorb the departed budget"
        );
    }

    #[test]
    fn hub_departure_flags_partition() {
        let p = problem(8, 170.0, 3);
        let plan = FaultPlan::none().and(50, 0, NodeFaultKind::Depart);
        let mut r = AsyncDibaRun::with_faults(
            p,
            Graph::star(8),
            DibaConfig::default(),
            AsyncConfig::default(),
            plan,
        )
        .unwrap();
        r.run(60);
        assert!(r.partitioned(), "losing the star hub must partition");
        // Feasibility still holds per component.
        assert!(r.conservation_drift() < 1e-6);
    }

    #[test]
    fn acceptance_sweep_cell_ten_percent_drop_plus_crash() {
        // The ISSUE acceptance criterion: 10% message drop + one node
        // crash still converges to a feasible allocation with the dead
        // node's budget re-absorbed.
        let p = problem(40, 170.0, 3);
        let victim = 19usize;
        let plan = FaultPlan::with_link(7, lossy_link(0.10))
            .and(300, victim, NodeFaultKind::Crash)
            .detect_after(Some(40));
        let mut r = AsyncDibaRun::with_faults(
            p.clone(),
            Graph::ring_with_chords(40, 3),
            DibaConfig::default(),
            AsyncConfig::default(),
            plan,
        )
        .unwrap();
        let opt = survivor_optimal(&p, &[victim]);
        let rounds = r.run_until_within(opt, 0.03, 60_000);
        assert!(rounds.is_some(), "faulted sweep cell failed to converge");
        assert!(r.total_power() <= p.budget() + Watts(1e-6));
        assert_eq!(r.escrow_total(), 0.0);
        assert!(r.conservation_drift() < 1e-6);
    }
}
