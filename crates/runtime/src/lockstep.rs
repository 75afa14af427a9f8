//! Serial lockstep executor: the whole cluster in one thread, no sockets —
//! and the one place faults are injected into the deployed agents.
//!
//! Every substrate in this crate delivers entries round-aligned: node
//! `i`'s round `r` consumes exactly node `j`'s round-`r` entry on each live
//! link (FIFO per link, one entry per neighbor per round). That makes the
//! trajectory *schedule-independent* — so a global serial schedule that
//! runs a send phase for every agent, then a receive phase for every
//! agent, reproduces the reactor's runs bitwise. This module is that
//! schedule: [`AgentCore`]s stepped in node-id order, the entries they
//! stage moved as values through per-edge in-memory queues. Nothing is
//! encoded — the byte format is the reactor's business, and
//! `tests/wire_props.rs` pins that it round-trips every entry bit for bit.
//!
//! Why it earns its keep:
//!
//! * it is the cheap reference at any N — no threads, no fds, no
//!   timeouts — so the 10k-agent reactor acceptance run has an oracle
//!   that costs seconds;
//! * it is deterministic by construction, which makes it the fixed point
//!   every reactor run — in one process or as node shards over TCP — is
//!   pinned against bitwise;
//! * it runs the fault model ([`FaultPlan`]) on the agents themselves.
//!   Every queued entry carries the round it is due in, and a round hands
//!   each slot every entry due by then, so a lossy, reordering network and
//!   a stalling scheduler are the same delivery loop with later due rounds;
//!   crashes, restarts and departures are the management plane acting
//!   between rounds ([`Lockstep`]). Under a benign plan every entry is due
//!   in the round it was sent and nothing is drawn from the plan's RNG, so
//!   [`run_lockstep`] is that loop with no faults.
//!
//! Shutdown mirrors the reactor's: an agent that reaches convergence
//! quorum says goodbye on every live link and lingers in the core's drain
//! state, which closes a slot on the peer's goodbye; this executor closes
//! it once the peer can provably never send again — the lockstep stand-in
//! for the reactor drain's quiet-period timer. The drain assumes reliable
//! delivery, so a plan with faults runs agents that never exit
//! ([`Lockstep::for_problem`]).

use crate::agent::AgentCore;
use crate::cluster::{node_specs, RuntimeConfig};
use crate::error::RuntimeError;
use crate::node::{NodeReport, NodeSpec};
use crate::wire::BatchEntry;
use dpc_alg::diba::DibaConfig;
use dpc_alg::exec::chunked_sum;
use dpc_alg::faults::{FaultPlan, FaultSampler, NodeFaultKind, NodeHealth};
use dpc_alg::problem::PowerBudgetProblem;
use dpc_alg::telemetry::{FaultEvent, FaultEventKind, RoundRecord, Telemetry, TelemetryConfig};
use dpc_models::units::Watts;
use dpc_models::QuadraticUtility;
use dpc_topology::Graph;
use std::collections::VecDeque;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// Running rounds.
    Active,
    /// Said goodbye, absorbing in-flight entries.
    Draining,
    /// Report folded.
    Done,
    /// Powered off by the plan: no core, its `e − p` in escrow.
    Crashed,
    /// Left for good by the plan: report folded with `p = e = 0`.
    Departed,
}

impl Status {
    /// The agent is gone and its links are closed: a send to it is
    /// refused and a silent slot to it is a link gone.
    fn exited(self) -> bool {
        matches!(self, Status::Done | Status::Departed)
    }
}

/// An entry on a link, due in round `due`.
#[derive(Debug, Clone, Copy)]
struct Queued {
    due: usize,
    entry: BatchEntry,
}

/// One queue per (node, slot): the entries that node's neighbor behind
/// that slot has sent and the node has not consumed yet, in arrival order
/// (by due round, then by send order).
type Inboxes = Vec<Vec<VecDeque<Queued>>>;

/// A transfer the network could not deliver, back with `node` in round
/// `due`.
#[derive(Debug, Clone, Copy)]
struct Bounce {
    due: usize,
    node: usize,
    transfer: f64,
}

/// The network between the agents: the link queues, the plan's sampler
/// (message fates and stalls) and the transfers bouncing home.
struct Links {
    /// `peers[i][slot]` = (neighbor id, the neighbor's slot for `i`).
    peers: Vec<Vec<(usize, usize)>>,
    inbox: Inboxes,
    sampler: FaultSampler,
    rtt: usize,
    bounces: Vec<Bounce>,
    /// The round's message counters (only the `msgs_*` fields are read).
    tally: RoundRecord,
}

impl Links {
    /// Queues `entry`, addressed to `node`'s `slot`, behind every entry
    /// due no later than `due`.
    fn enqueue(&mut self, node: usize, slot: usize, due: usize, entry: BatchEntry) {
        let queue = &mut self.inbox[node][slot];
        let at = queue.partition_point(|m| m.due <= due);
        queue.insert(at, Queued { due, entry });
    }

    /// The front entry of `node`'s `slot` queue, if it is due by `round`.
    fn pop_due(&mut self, node: usize, slot: usize, round: usize) -> Option<BatchEntry> {
        let queue = &mut self.inbox[node][slot];
        if queue.front()?.due > round {
            return None;
        }
        queue.pop_front().map(|m| m.entry)
    }

    /// The network reports `transfer` undelivered in `round`: it is back
    /// with `node` one round trip later.
    fn bounce(&mut self, node: usize, transfer: f64, round: usize) {
        if transfer != 0.0 {
            self.tally.msgs_bounced += 1;
            let due = round + self.rtt;
            self.bounces.push(Bounce {
                due,
                node,
                transfer,
            });
        }
    }

    /// Delivers everything `core` (node `i`) has staged: each entry is
    /// re-addressed to the receiver's slot and queued, due in `due` unless
    /// its fate drops or delays it, or refused if the neighbor has exited,
    /// which is the lockstep form of a closed link.
    fn send_staged(&mut self, core: &mut AgentCore, i: usize, status: &[Status], due: usize) {
        for k in 0..core.outbound().len() {
            let entry = core.outbound()[k];
            let (peer, peer_slot) = self.peers[i][entry.slot as usize];
            if status[peer].exited() {
                core.note_send_closed(k);
                continue;
            }
            core.note_sent(k);
            self.tally.msgs_sent += 1;
            let entry = BatchEntry {
                slot: peer_slot as u32,
                ..entry
            };
            let fate = self.sampler.fate();
            if fate.dropped {
                self.tally.msgs_dropped += 1;
                self.bounce(i, entry.transfer, due);
                continue;
            }
            let due = due + fate.extra_delay;
            self.enqueue(peer, peer_slot, due, entry);
            if fate.dup_lag > 0 {
                // The copy carries the stale residual, not the transfer.
                self.tally.msgs_duplicated += 1;
                let copy = BatchEntry {
                    transfer: 0.0,
                    ..entry
                };
                self.enqueue(peer, peer_slot, due + fate.dup_lag, copy);
            }
        }
    }
}

/// The cluster on the serial schedule, stepped one round at a time under
/// a [`FaultPlan`].
///
/// The plan acts on the network and on the management plane, never inside
/// an agent's round:
///
/// * **drop** — the entry is lost and its transfer returns to the sender
///   [`rtt`](dpc_alg::faults::LinkFaults::rtt) rounds later
///   ([`AgentCore::absorb`]);
/// * **duplicate** — a transfer-free copy arrives later;
/// * **reorder** — the entry is due some rounds after it was sent;
/// * **stall** — a live agent sits the round out with probability
///   `1 − activation`: it neither begins nor receives, and its entries
///   wait in its queues;
/// * **crash** — the agent's `e − p` moves to escrow, its core is gone and
///   entries reaching it bounce. Neighbors learn of it by silence
///   ([`NodeSpec::detect_after`]); the first prune settles the escrow over
///   its live neighbors, or strands it when none is left;
/// * **restart** — a crashed agent boots at idle power once its unsettled
///   escrow plus its neighbors' spare slack and power cuts fund
///   `p_min + margin` (retried every round until they do); a neighbor
///   that pruned it re-admits it on its first entry;
/// * **depart** — the agent's goodbyes carry its `e − p` to its live links
///   at once ([`AgentCore::depart`]) and it leaves; a crashed agent's
///   escrow is settled instead.
///
/// Every handler moves mass between ledgers, so
/// `Σe + Σescrow + Σin-flight + stranded = Σp − P` holds to rounding after
/// every round ([`Lockstep::conservation_drift`]).
pub struct Lockstep {
    graph: Graph,
    links: Links,
    cores: Vec<Option<AgentCore>>,
    status: Vec<Status>,
    reports: Vec<Option<NodeReport>>,
    utilities: Vec<QuadraticUtility>,
    /// Agents sitting this round out.
    stalled: Vec<bool>,
    round: usize,
    /// `P`: the launch ledger `Σp − Σe`, moved by [`Lockstep::set_budget`].
    budget: f64,
    plan: FaultPlan,
    /// The plan can perturb the run, so entries can reach slots that are
    /// not alive.
    faulty: bool,
    /// Launch specs to boot restarted agents from (empty when the
    /// schedule restarts nobody).
    specs: Vec<NodeSpec>,
    /// Mass of crashed agents awaiting settlement (≤ 0).
    escrow: Vec<f64>,
    /// A crashed agent's escrow has been settled: mass reaching it goes on
    /// to its live neighbors.
    settled: Vec<bool>,
    /// Restarts the headroom could not fund yet.
    pending_restarts: Vec<usize>,
    /// Mass whose every heir was dead (≤ 0).
    stranded: f64,
    partitioned: bool,
    telemetry: Option<Box<Telemetry>>,
}

impl Lockstep {
    /// Launches one agent per spec on `graph` under `plan`, with `P` read
    /// off the launch ledger `Σp − Σe`.
    ///
    /// `specs` must hold one spec per graph node, in node-id order (the
    /// shape [`crate::cluster::node_specs`] produces).
    ///
    /// # Panics
    ///
    /// If the plan fails [`FaultPlan::validate`], or if it can perturb the
    /// run while an agent can exit: the quorum drain assumes reliable
    /// delivery, so faults need `stable_rounds` and `max_rounds` at
    /// `usize::MAX`.
    pub fn new(specs: Vec<NodeSpec>, graph: &Graph, plan: FaultPlan) -> Lockstep {
        let n = specs.len();
        assert_eq!(n, graph.len(), "one spec per graph node");
        if let Err(msg) = plan.validate(n) {
            panic!("invalid fault plan: {msg}");
        }
        let faulty = !plan.is_benign();
        assert!(
            !faulty
                || specs
                    .iter()
                    .all(|s| s.stable_rounds == usize::MAX && s.max_rounds == usize::MAX),
            "a fault plan needs agents that never exit \
             (stable_rounds and max_rounds at usize::MAX)"
        );
        // peers[i][slot] = (neighbor id, the neighbor's slot for `i`); rows
        // are sorted, so the reverse slot is a binary search.
        let reverse_slot = |i: usize, j: usize| {
            let found = graph.neighbors(j).binary_search(&i);
            found.expect("graph edges are symmetric")
        };
        let peers: Vec<Vec<(usize, usize)>> = (0..n)
            .map(|i| {
                let row = graph.neighbors(i).iter();
                row.map(|&j| (j, reverse_slot(i, j))).collect()
            })
            .collect();
        let inbox = peers
            .iter()
            .map(|row| row.iter().map(|_| VecDeque::new()).collect())
            .collect();
        let p: Vec<f64> = specs.iter().map(|s| s.p).collect();
        let e: Vec<f64> = specs.iter().map(|s| s.e).collect();
        let restarts = plan
            .schedule
            .iter()
            .any(|f| f.kind == NodeFaultKind::Restart);
        let kept = if restarts { specs.clone() } else { Vec::new() };
        let utilities = specs.iter().map(|s| s.utility).collect();
        let cores = specs
            .into_iter()
            .map(|spec| {
                let id = spec.id;
                Some(AgentCore::new(spec, graph.neighbors(id)))
            })
            .collect();
        Lockstep {
            links: Links {
                peers,
                inbox,
                sampler: FaultSampler::new(&plan),
                rtt: plan.link.rtt,
                bounces: Vec::new(),
                tally: RoundRecord::default(),
            },
            graph: graph.clone(),
            cores,
            status: vec![Status::Active; n],
            reports: (0..n).map(|_| None).collect(),
            utilities,
            stalled: vec![false; n],
            round: 0,
            budget: chunked_sum(&p) - chunked_sum(&e),
            plan,
            faulty,
            specs: kept,
            escrow: vec![0.0; n],
            settled: vec![false; n],
            pending_restarts: Vec::new(),
            stranded: 0.0,
            partitioned: false,
            telemetry: None,
        }
    }

    /// The agents of `problem` on `graph` as [`node_specs`] launches them
    /// for `config` and [`RuntimeConfig::default`], except that they never
    /// exit — quorum and the round budget are off, so they run for as
    /// many rounds as the caller steps — under `plan`, with `P` the
    /// problem's budget.
    ///
    /// # Errors
    ///
    /// Propagates [`node_specs`] validation failures.
    ///
    /// # Panics
    ///
    /// If the plan fails [`FaultPlan::validate`].
    pub fn for_problem(
        problem: &PowerBudgetProblem,
        graph: &Graph,
        config: DibaConfig,
        plan: FaultPlan,
    ) -> Result<Lockstep, RuntimeError> {
        let rt = RuntimeConfig {
            stable_rounds: usize::MAX,
            max_rounds: usize::MAX,
            ..RuntimeConfig::default()
        };
        let specs = node_specs(problem, graph, config, &rt)?;
        Ok(Lockstep {
            budget: problem.budget().0,
            ..Lockstep::new(specs, graph, plan)
        })
    }

    /// Runs one round: the plan's node events for it, the transfers the
    /// network returns in it, then the send, receive and drain phases.
    /// Returns `false`, doing nothing, once no agent is running.
    pub fn step(&mut self) -> bool {
        let running = |s: &Status| matches!(s, Status::Active | Status::Draining);
        if !self.status.iter().any(running) {
            return false;
        }
        self.round += 1;
        self.links.tally = RoundRecord::default();
        self.apply_schedule();
        self.return_bounces();
        self.send_phase();
        self.receive_phase();
        self.drain_phase();
        if self.telemetry.is_some() {
            self.record_round();
        }
        true
    }

    /// Runs `rounds` rounds, or fewer if every agent stops first.
    pub fn run(&mut self, rounds: usize) {
        for _ in 0..rounds {
            if !self.step() {
                break;
            }
        }
    }

    /// Runs until the allocation is feasible and the live agents' utility
    /// is within `rel_tol` of `reference_utility`, checked before every
    /// round; returns the rounds that took, or `None` after `max_rounds`.
    pub fn run_until_within(
        &mut self,
        reference_utility: f64,
        rel_tol: f64,
        max_rounds: usize,
    ) -> Option<usize> {
        for rounds in 0..max_rounds {
            let feasible = self.total_power() <= self.budget() + Watts(1e-6);
            let gap = (reference_utility - self.total_utility()).abs()
                / reference_utility.abs().max(1e-12);
            if feasible && gap < rel_tol {
                return Some(rounds);
            }
            self.step();
        }
        None
    }

    /// Phase A: every active agent that does not stall computes its round
    /// and sends one entry per live link, in node-id order (order is
    /// irrelevant to the values because consumption is round-aligned, but
    /// fixing it keeps the executor trivially deterministic).
    fn send_phase(&mut self) {
        for i in 0..self.cores.len() {
            if self.status[i] != Status::Active {
                continue;
            }
            if !self.cores[i]
                .as_ref()
                .expect("active core")
                .rounds_remaining()
            {
                // Round budget exhausted without quorum: exit unconverged.
                let core = self.cores[i].take().expect("active core");
                self.reports[i] = Some(core.into_report());
                self.status[i] = Status::Done;
                continue;
            }
            self.stalled[i] = self.links.sampler.stalls();
            if self.stalled[i] {
                continue;
            }
            let core = self.cores[i].as_mut().expect("active core");
            core.begin_round();
            self.links.send_staged(core, i, &self.status, self.round);
        }
    }

    /// Phase B: every agent that began a round receives, on each slot of
    /// the round, every entry due by now in arrival order — exactly one
    /// under no faults — or `None`, then checks quorum. A goodbye staged
    /// here is due next round: a lower-id agent's sits behind its round
    /// entry, the order the reactor sees. Crashed and departed agents
    /// bounce what reaches them.
    fn receive_phase(&mut self) {
        let round = self.round;
        for i in 0..self.cores.len() {
            match self.status[i] {
                Status::Active if !self.stalled[i] => {}
                Status::Crashed | Status::Departed => {
                    self.bounce_inbox(i);
                    continue;
                }
                _ => continue,
            }
            if self.faulty {
                self.receive_off_round(i);
            }
            let core = self.cores[i].as_mut().expect("active core");
            let mut pruned = Vec::new();
            for k in 0..core.round_slots().len() {
                let slot = core.round_slots()[k];
                if !core.is_alive(slot) {
                    continue;
                }
                // Nothing due means the peer can no longer be sending
                // this round: its link is gone if it exited, otherwise
                // this is the lockstep analogue of a silent round.
                let peer = self.links.peers[i][slot].0;
                let peer_exited = self.status[peer].exited();
                let mut heard = false;
                while let Some(entry) = self.links.pop_due(i, slot, round) {
                    core.receive(slot, Some(entry), peer_exited);
                    heard = true;
                }
                if !heard {
                    core.receive(slot, None, peer_exited);
                    if !core.is_alive(slot) {
                        pruned.push(peer);
                    }
                }
            }
            if core.end_round() {
                self.links.send_staged(core, i, &self.status, round + 1);
                self.status[i] = Status::Draining;
            }
            for peer in pruned {
                if self.status[peer] == Status::Crashed && !self.settled[peer] {
                    self.note_event(peer, FaultEventKind::Detect, 0.0);
                    self.settle(peer);
                }
            }
        }
    }

    /// Under faults, entries also reach slots that are not alive. A peer
    /// still running (restarted, or only slow) is re-admitted and heard;
    /// from one that is gone only the mass is kept.
    fn receive_off_round(&mut self, i: usize) {
        let core = self.cores[i].as_mut().expect("active core");
        for slot in 0..self.links.peers[i].len() {
            if core.is_alive(slot) {
                continue;
            }
            let peer = self.links.peers[i][slot].0;
            while let Some(entry) = self.links.pop_due(i, slot, self.round) {
                if self.status[peer] == Status::Active {
                    core.readmit(slot);
                    core.receive(slot, Some(entry), false);
                } else if entry.transfer != 0.0 {
                    core.absorb(entry.transfer);
                }
            }
        }
    }

    /// What is due at a crashed or departed agent goes back to its senders.
    fn bounce_inbox(&mut self, i: usize) {
        for slot in 0..self.links.peers[i].len() {
            let sender = self.links.peers[i][slot].0;
            while let Some(entry) = self.links.pop_due(i, slot, self.round) {
                self.links.bounce(sender, entry.transfer, self.round);
            }
        }
    }

    /// Phase C: draining agents absorb in-flight entries. The core stages
    /// them and applies the mass in slot order, which makes the absorbed
    /// values independent of *when* each slot closes, so close timing only
    /// affects how many iterations the drain lingers.
    fn drain_phase(&mut self) {
        // Snapshot, per draining agent and slot, whether the peer's
        // reciprocal link is already dead — a dead reverse link means the
        // peer will never send here again, the deterministic stand-in for
        // the reactor drain's quiet-period timer.
        let reverse_dead: Vec<Vec<bool>> = (0..self.cores.len())
            .map(|i| {
                if self.status[i] != Status::Draining {
                    return Vec::new();
                }
                let peers = self.links.peers[i].iter();
                peers
                    .map(|&(peer, peer_slot)| match self.cores[peer].as_ref() {
                        Some(peer_core) => !peer_core.is_alive(peer_slot),
                        None => true,
                    })
                    .collect()
            })
            .collect();
        for (i, reverse_dead) in reverse_dead.iter().enumerate() {
            if self.status[i] != Status::Draining {
                continue;
            }
            let core = self.cores[i].as_mut().expect("draining core");
            for (slot, &reverse_dead) in reverse_dead.iter().enumerate() {
                while let Some(m) = self.links.inbox[i][slot].pop_front() {
                    core.drain(slot, m.entry);
                }
                let peer = self.links.peers[i][slot].0;
                if self.status[peer].exited() || reverse_dead {
                    core.close_drain(slot);
                }
            }
            if core.drain_done() {
                let core = self.cores[i].take().expect("draining core");
                self.reports[i] = Some(core.into_report());
                self.status[i] = Status::Done;
            }
        }
    }

    /// Fires the plan's node events for this round, after retrying the
    /// restarts earlier rounds could not fund.
    fn apply_schedule(&mut self) {
        for node in std::mem::take(&mut self.pending_restarts) {
            self.restart(node);
        }
        for k in 0..self.plan.schedule.len() {
            let fault = self.plan.schedule[k];
            if fault.round != self.round {
                continue;
            }
            match fault.kind {
                NodeFaultKind::Crash => self.crash(fault.node),
                NodeFaultKind::Restart => self.restart(fault.node),
                NodeFaultKind::Depart => self.depart(fault.node),
            }
        }
    }

    /// The transfers the network returns this round re-enter their
    /// senders.
    fn return_bounces(&mut self) {
        if self.links.bounces.is_empty() {
            return;
        }
        let round = self.round;
        let (due, later): (Vec<Bounce>, Vec<Bounce>) = std::mem::take(&mut self.links.bounces)
            .into_iter()
            .partition(|b| b.due <= round);
        self.links.bounces = later;
        for b in due {
            self.credit(b.node, b.transfer);
        }
    }

    /// Books `mass` to `node` from outside its round: into its residual
    /// while it runs, into its escrow while it is crashed and unsettled,
    /// otherwise on to its live neighbors.
    fn credit(&mut self, node: usize, mass: f64) {
        if let Some(core) = self.cores[node].as_mut() {
            core.absorb(mass);
        } else if self.status[node] == Status::Crashed && !self.settled[node] {
            self.escrow[node] += mass;
        } else {
            self.donate(node, mass);
        }
    }

    /// Splits `amount` equally over `i`'s running neighbors; strands it
    /// when none is left.
    fn donate(&mut self, i: usize, amount: f64) {
        if amount == 0.0 {
            return;
        }
        let heirs = self
            .graph
            .neighbors(i)
            .iter()
            .filter(|&&j| self.cores[j].is_some())
            .count();
        if heirs == 0 {
            self.stranded += amount;
            return;
        }
        let share = amount / heirs as f64;
        for &j in self.graph.neighbors(i) {
            if let Some(core) = self.cores[j].as_mut() {
                core.absorb(share);
            }
        }
    }

    /// Re-absorbs a crashed agent's escrow into its live neighbors.
    fn settle(&mut self, i: usize) {
        self.settled[i] = true;
        let amount = std::mem::take(&mut self.escrow[i]);
        self.donate(i, amount);
        self.note_event(i, FaultEventKind::Settle, amount);
    }

    /// Node `i` powers off silently: its power draw stops and its `e − p`
    /// moves to escrow.
    fn crash(&mut self, i: usize) {
        if self.status[i] != Status::Active {
            return;
        }
        let core = self.cores[i].take().expect("active core");
        let escrowed = core.e() - core.p();
        self.escrow[i] += escrowed;
        self.settled[i] = false;
        self.status[i] = Status::Crashed;
        self.partitioned = !self.live_connected();
        self.note_event(i, FaultEventKind::Crash, escrowed);
    }

    /// Node `i` leaves for good. A running agent's goodbyes carry its
    /// `e − p` to its neighbors at once; a crashed one is removed by the
    /// management plane, which settles its escrow.
    fn depart(&mut self, i: usize) {
        match self.status[i] {
            Status::Active => {
                let mut core = self.cores[i].take().expect("active core");
                self.status[i] = Status::Departed;
                let farewell = core.depart();
                if core.outbound().is_empty() {
                    self.stranded += farewell;
                }
                for k in 0..core.outbound().len() {
                    let entry = core.outbound()[k];
                    core.note_sent(k);
                    let (peer, peer_slot) = self.links.peers[i][entry.slot as usize];
                    match self.cores[peer].as_mut() {
                        Some(peer_core) => {
                            let entry = BatchEntry {
                                slot: peer_slot as u32,
                                ..entry
                            };
                            peer_core.receive(peer_slot, Some(entry), false);
                        }
                        None => self.credit(peer, entry.transfer),
                    }
                }
                self.reports[i] = Some(core.into_report());
                self.note_event(i, FaultEventKind::Depart, farewell);
            }
            Status::Crashed => {
                self.status[i] = Status::Departed;
                if !self.settled[i] {
                    self.settle(i);
                }
                self.note_event(i, FaultEventKind::Depart, 0.0);
            }
            _ => return,
        }
        self.partitioned = !self.live_connected();
    }

    /// Restarts `i`, or retries every round until it is admitted.
    fn restart(&mut self, i: usize) {
        if !self.try_restart(i) {
            self.pending_restarts.push(i);
        }
    }

    /// Boots crashed node `i` at its idle power. The boot needs
    /// `p_min + margin` watts of headroom: first from its own unsettled
    /// escrow, then from each running neighbor's spare slack, and finally
    /// — since a converged cluster has none to spare — from neighbors
    /// cutting their power toward their own `p_min`. Either way a donor's
    /// `e − p` rises by what it gives, so with the boot the ledger moves
    /// by exactly `p_min` on both sides. Returns `false`, deferring, while
    /// the headroom is not there.
    fn try_restart(&mut self, i: usize) -> bool {
        if self.status[i] != Status::Crashed {
            // Restarting a running node is a no-op; a departed one is gone.
            return true;
        }
        let p_min = self.utilities[i].p_min().0;
        let margin = self.specs[i].params.margin;
        let need = p_min + margin;
        let mut have = if self.settled[i] {
            0.0
        } else {
            -self.escrow[i]
        };
        // Pass 1 (read-only): can enough headroom be gathered at all?
        let mut donations: Vec<(usize, f64, f64)> = Vec::new();
        for &j in self.graph.neighbors(i) {
            if have >= need {
                break;
            }
            let Some(core) = self.cores[j].as_ref() else {
                continue;
            };
            let spare = (-core.e() - margin).max(0.0).min(need - have);
            have += spare;
            let floor = self.utilities[j].p_min().0;
            let cut = (core.p() - floor).max(0.0).min(need - have);
            have += cut;
            if spare > 0.0 || cut > 0.0 {
                donations.push((j, spare, cut));
            }
        }
        if have < need {
            return false;
        }
        // Pass 2: apply.
        for (j, spare, cut) in donations {
            let core = self.cores[j].as_mut().expect("donor is running");
            core.absorb(spare);
            core.cut_power(cut);
        }
        self.escrow[i] = 0.0;
        self.settled[i] = false;
        // A reboot joins a running cluster: no barrier continuation.
        let spec = NodeSpec {
            p: p_min,
            e: p_min - have,
            eta_boost: 1.0,
            ..self.specs[i].clone()
        };
        self.cores[i] = Some(AgentCore::new(spec, self.graph.neighbors(i)));
        self.status[i] = Status::Active;
        self.partitioned = !self.live_connected();
        self.note_event(i, FaultEventKind::Restart, p_min);
        true
    }

    /// `true` when the subgraph of running agents is connected.
    fn live_connected(&self) -> bool {
        let alive: Vec<bool> = self.cores.iter().map(Option::is_some).collect();
        self.graph.is_connected_among(&alive)
    }

    /// Moves the budget to `budget`, splitting the change over the running
    /// agents' residuals so the ledger stays exact.
    pub fn set_budget(&mut self, budget: Watts) {
        let shift = self.budget - budget.0;
        let live = self.cores.iter().flatten().count();
        if live == 0 {
            self.stranded += shift;
        } else {
            let share = shift / live as f64;
            for core in self.cores.iter_mut().flatten() {
                core.absorb(share);
            }
        }
        self.budget = budget.0;
    }

    /// Rounds run so far.
    pub fn round(&self) -> usize {
        self.round
    }

    /// The budget `P` in effect.
    pub fn budget(&self) -> Watts {
        Watts(self.budget)
    }

    /// Every node's `(p, e)` in node-id order: a running agent's state, an
    /// exited one's report, `(0, 0)` for a crashed one.
    pub fn node_states(&self) -> Vec<(f64, f64)> {
        self.cores
            .iter()
            .zip(&self.reports)
            .map(|(core, report)| match (core, report) {
                (Some(core), _) => (core.p(), core.e()),
                (None, Some(report)) => (report.p, report.e),
                (None, None) => (0.0, 0.0),
            })
            .collect()
    }

    /// Every node's health, in node-id order.
    pub fn health(&self) -> Vec<NodeHealth> {
        let health = |s: &Status| match s {
            Status::Crashed => NodeHealth::Crashed,
            Status::Departed => NodeHealth::Departed,
            _ => NodeHealth::Alive,
        };
        self.status.iter().map(health).collect()
    }

    /// Number of live nodes.
    pub fn live_count(&self) -> usize {
        let health = self.health();
        health.iter().filter(|&&h| h == NodeHealth::Alive).count()
    }

    /// Current total power (dead nodes draw 0 W).
    pub fn total_power(&self) -> Watts {
        Watts(self.node_states().iter().map(|s| s.0).sum())
    }

    /// Total utility of the live nodes (a dead node produces nothing).
    pub fn total_utility(&self) -> f64 {
        let states = self.node_states();
        let health = self.health();
        (0..states.len())
            .filter(|&i| health[i] == NodeHealth::Alive)
            .map(|i| self.utilities[i].value(Watts(states[i].0)))
            .sum()
    }

    /// Escrowed mass of crashed agents not yet settled (≤ 0).
    pub fn escrow_total(&self) -> f64 {
        self.escrow.iter().sum()
    }

    /// Mass stranded by agents that died with no live neighbor (≤ 0).
    pub fn stranded(&self) -> f64 {
        self.stranded
    }

    /// `true` while churn has disconnected the running agents. DiBA's
    /// convergence needs a connected graph; a partitioned run stays
    /// feasible, but each component equilibrates on its own.
    pub fn partitioned(&self) -> bool {
        self.partitioned
    }

    /// Entries and bounces on the network, and the mass they carry.
    /// Queues into an agent that exited through quorum or its round budget
    /// hold only what their senders took back, so they do not count.
    fn in_flight(&self) -> (u64, f64) {
        let mut count = self.links.bounces.len() as u64;
        let mut mass: f64 = self.links.bounces.iter().map(|b| b.transfer).sum();
        for (queues, &status) in self.links.inbox.iter().zip(&self.status) {
            if status == Status::Done {
                continue;
            }
            for m in queues.iter().flatten() {
                count += 1;
                mass += m.entry.transfer;
            }
        }
        (count, mass)
    }

    /// The ledger's drift
    /// `|Σe + Σescrow + Σin-flight + stranded − (Σp − P)|` (watts): zero up
    /// to rounding through every fault. Every term on the left is ≤ 0, so
    /// this is also the feasibility proof `Σp ≤ P`.
    pub fn conservation_drift(&self) -> f64 {
        let states = self.node_states();
        let sum_p: f64 = states.iter().map(|s| s.0).sum();
        let sum_e: f64 = states.iter().map(|s| s.1).sum();
        let ledger = sum_e + self.in_flight().1 + self.escrow_total() + self.stranded;
        (ledger - (sum_p - self.budget)).abs()
    }

    /// The round recorder, when one is attached.
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.as_deref()
    }

    /// Attaches (or, with a disabled config, detaches) a fresh round
    /// recorder. Recording starts with the next round and changes no bit
    /// of the run.
    pub fn set_telemetry(&mut self, config: TelemetryConfig) {
        self.telemetry = config.enabled.then(|| Box::new(Telemetry::new(config)));
    }

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

    /// Samples the round that just finished into the recorder, reading
    /// only sealed state.
    fn record_round(&mut self) {
        let states = self.node_states();
        let p: Vec<f64> = states.iter().map(|s| s.0).collect();
        let e: Vec<f64> = states.iter().map(|s| s.1).collect();
        let (in_flight, inflight_mass) = self.in_flight();
        let record = RoundRecord {
            round: self.round as u64,
            budget: self.budget,
            sum_p: chunked_sum(&p),
            norm2_p: p.iter().map(|x| x * x).sum::<f64>().sqrt(),
            sum_e: chunked_sum(&e),
            max_abs_e: e.iter().fold(0.0, |m: f64, x| m.max(x.abs())),
            in_flight,
            inflight_mass,
            escrow_total: self.escrow_total(),
            stranded: self.stranded,
            live: self.live_count() as u64,
            workers: 1,
            ..self.links.tally
        };
        if let Some(t) = self.telemetry.as_mut() {
            t.record_round(record);
        }
    }

    /// Every agent's report, in node-id order.
    ///
    /// # Panics
    ///
    /// If an agent is still running or crashed.
    pub fn into_reports(self) -> Vec<NodeReport> {
        let reports = self.reports.into_iter();
        reports.map(|r| r.expect("every agent exited")).collect()
    }
}

/// Runs every agent to completion on the serial lockstep schedule, with no
/// faults, and returns the per-node reports in node-id order.
///
/// `specs` must hold one spec per graph node, in node-id order (the shape
/// [`crate::cluster::node_specs`] produces).
pub fn run_lockstep(specs: Vec<NodeSpec>, graph: &Graph) -> Vec<NodeReport> {
    let iteration_cap = specs
        .iter()
        .map(|s| s.max_rounds + s.detect_after)
        .max()
        .unwrap_or(0)
        + 8;
    let mut run = Lockstep::new(specs, graph, FaultPlan::none());
    run.run(iteration_cap);
    assert!(
        run.status.iter().all(|&s| s == Status::Done),
        "lockstep executor stalled: an agent neither advanced nor drained \
         within the iteration cap"
    );
    run.into_reports()
}
