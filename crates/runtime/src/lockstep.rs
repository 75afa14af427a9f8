//! Serial lockstep executor: the whole cluster in one thread, no sockets —
//! and the one place faults are injected into the deployed agents.
//!
//! Every substrate in this crate delivers entries round-aligned: node
//! `i`'s round `r` consumes exactly node `j`'s round-`r` entry on each live
//! link (FIFO per link, one entry per neighbor per round). That makes the
//! trajectory *schedule-independent* — so a global serial schedule that
//! runs a send phase for every agent, then a receive phase for every
//! agent, reproduces the reactor's runs bitwise. This module is that
//! schedule: one [`AgentCore`] block of all `n` agents, stepped in
//! node-id order (block index = node id), the entries they stage moved as
//! values through one in-memory queue per block slot. Nothing is encoded
//! — the byte format is the reactor's business, and `tests/wire_props.rs`
//! pins that it round-trips every entry bit for bit.
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
//! The due-round queues, the message fates, agent status and escrow are
//! driver state; everything an agent knows is in the block. Shutdown
//! mirrors the reactor's: an agent that reaches convergence quorum says
//! goodbye on every live link and lingers in the block's drain state,
//! which closes a slot on the peer's goodbye; this executor closes it once
//! the peer can provably never send again — it has exited, or its own
//! slot back is dead in the block — the lockstep stand-in for the reactor
//! drain's quiet-period timer. The drain assumes reliable delivery, so a
//! plan with faults runs agents that never exit
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

    /// The agent is in the block's care: its state moves with rounds and
    /// with mass booked to it.
    fn running(self) -> bool {
        matches!(self, Status::Active | Status::Draining)
    }
}

/// An entry on a link, due in round `due`.
#[derive(Debug, Clone, Copy)]
struct Queued {
    due: usize,
    entry: BatchEntry,
}

/// The far end of a block slot.
#[derive(Debug, Clone, Copy)]
struct Peer {
    /// The neighbor's node id.
    node: usize,
    /// The neighbor's slot back, as a block slot.
    back: usize,
    /// The neighbor's slot back, as a position in its own row.
    back_slot: u32,
}

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
    /// Per block slot: the neighbor behind it.
    peers: Vec<Peer>,
    /// Per block slot: the entries the neighbor behind it has sent and
    /// its agent has not consumed yet, in arrival order (by due round,
    /// then by send order).
    inbox: Vec<VecDeque<Queued>>,
    sampler: FaultSampler,
    rtt: usize,
    bounces: Vec<Bounce>,
    /// The round's message counters (only the `msgs_*` fields are read).
    tally: RoundRecord,
}

impl Links {
    /// Queues `entry` on block slot `at`, behind every entry due no later
    /// than `due`.
    fn enqueue(&mut self, at: usize, due: usize, entry: BatchEntry) {
        let queue = &mut self.inbox[at];
        let at = queue.partition_point(|m| m.due <= due);
        queue.insert(at, Queued { due, entry });
    }

    /// The front entry of block slot `at`'s queue, if it is due by
    /// `round`.
    fn pop_due(&mut self, at: usize, round: usize) -> Option<BatchEntry> {
        let queue = &mut self.inbox[at];
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

    /// Delivers everything agent `i` of `block` has staged: each entry is
    /// re-addressed to the receiver's slot and queued, due in `due` unless
    /// its fate drops or delays it, or refused if the neighbor has exited,
    /// which is the lockstep form of a closed link.
    fn send_staged(&mut self, block: &mut AgentCore, i: usize, status: &[Status], due: usize) {
        let base = block.slots(i).start;
        block.send(i, |entry| {
            let peer = self.peers[base + entry.slot as usize];
            if status[peer.node].exited() {
                return false;
            }
            self.tally.msgs_sent += 1;
            let entry = BatchEntry {
                slot: peer.back_slot,
                ..entry
            };
            let fate = self.sampler.fate();
            if fate.dropped {
                self.tally.msgs_dropped += 1;
                self.bounce(i, entry.transfer, due);
                return true;
            }
            let due = due + fate.extra_delay;
            self.enqueue(peer.back, due, entry);
            if fate.dup_lag > 0 {
                // The copy carries the stale residual, not the transfer.
                self.tally.msgs_duplicated += 1;
                let copy = BatchEntry {
                    transfer: 0.0,
                    ..entry
                };
                self.enqueue(peer.back, due + fate.dup_lag, copy);
            }
            true
        });
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
/// * **crash** — the agent's `e − p` moves to escrow, it drops out of the
///   block's care and entries reaching it bounce. Neighbors learn of it by silence
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
    /// Every agent, block index = node id. An agent that is not
    /// [running](Status::running) keeps its last state there untouched.
    block: AgentCore,
    status: Vec<Status>,
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
        let p: Vec<f64> = specs.iter().map(|s| s.p).collect();
        let e: Vec<f64> = specs.iter().map(|s| s.e).collect();
        let restarts = plan
            .schedule
            .iter()
            .any(|f| f.kind == NodeFaultKind::Restart);
        let kept = if restarts { specs.clone() } else { Vec::new() };
        let utilities = specs.iter().map(|s| s.utility).collect();
        let block = AgentCore::new(specs.into_iter().map(|spec| {
            let id = spec.id;
            (spec, graph.neighbors(id))
        }));
        // Rows are sorted, so the slot back is a binary search.
        let peers: Vec<Peer> = (0..n)
            .flat_map(|i| graph.neighbors(i).iter().map(move |&j| (i, j)))
            .map(|(i, j)| {
                let back = graph.neighbors(j).binary_search(&i);
                let back_slot = back.expect("graph edges are symmetric");
                Peer {
                    node: j,
                    back: block.slots(j).start + back_slot,
                    back_slot: back_slot as u32,
                }
            })
            .collect();
        let inbox = peers.iter().map(|_| VecDeque::new()).collect();
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
            block,
            status: vec![Status::Active; n],
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
        for i in 0..self.block.len() {
            if self.status[i] != Status::Active {
                continue;
            }
            if !self.block.rounds_remaining(i) {
                // Round budget exhausted without quorum: exit unconverged.
                self.status[i] = Status::Done;
                continue;
            }
            self.stalled[i] = self.links.sampler.stalls();
            if self.stalled[i] {
                continue;
            }
            self.block.begin_round(i);
            let links = &mut self.links;
            links.send_staged(&mut self.block, i, &self.status, self.round);
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
        for i in 0..self.block.len() {
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
            let pruned = self.receive_due(i);
            if self.block.end_round(i) {
                self.links
                    .send_staged(&mut self.block, i, &self.status, round + 1);
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

    /// Agent `i`'s receive pass: every entry due by now on each slot of
    /// the round, in arrival order, or `None`. Returns the peers it
    /// pruned.
    fn receive_due(&mut self, i: usize) -> Vec<usize> {
        let block = &mut self.block;
        let base = block.slots(i).start;
        let mut pruned = Vec::new();
        for slot in 0..block.degree(i) {
            if !block.awaits(i, slot) {
                continue;
            }
            // Nothing due means the peer can no longer be sending this
            // round: its link is gone if it exited, otherwise this is the
            // lockstep analogue of a silent round.
            let peer = self.links.peers[base + slot].node;
            let peer_exited = self.status[peer].exited();
            let mut heard = false;
            while let Some(entry) = self.links.pop_due(base + slot, self.round) {
                block.receive(i, slot, Some(entry), peer_exited);
                heard = true;
            }
            if !heard {
                block.receive(i, slot, None, peer_exited);
                if !block.is_alive(i, slot) {
                    pruned.push(peer);
                }
            }
        }
        pruned
    }

    /// Under faults, entries also reach slots that are not alive. A peer
    /// still running (restarted, or only slow) is re-admitted and heard;
    /// from one that is gone only the mass is kept.
    fn receive_off_round(&mut self, i: usize) {
        let base = self.block.slots(i).start;
        for slot in 0..self.block.degree(i) {
            if self.block.is_alive(i, slot) {
                continue;
            }
            let peer = self.links.peers[base + slot].node;
            while let Some(entry) = self.links.pop_due(base + slot, self.round) {
                if self.status[peer] == Status::Active {
                    self.block.readmit(i, slot);
                    self.block.receive(i, slot, Some(entry), false);
                } else if entry.transfer != 0.0 {
                    self.block.absorb(i, entry.transfer);
                }
            }
        }
    }

    /// What is due at a crashed or departed agent goes back to its senders.
    fn bounce_inbox(&mut self, i: usize) {
        for s in self.block.slots(i) {
            let sender = self.links.peers[s].node;
            while let Some(entry) = self.links.pop_due(s, self.round) {
                self.links.bounce(sender, entry.transfer, self.round);
            }
        }
    }

    /// Phase C: draining agents absorb in-flight entries. The block stages
    /// them and applies the mass in slot order, which makes the absorbed
    /// values independent of *when* each slot closes, so close timing only
    /// affects how many iterations the drain lingers.
    ///
    /// A slot closes once its peer will never send on it again: the peer
    /// is out of the block's care, or the peer's own slot back is dead —
    /// the deterministic stand-in for the reactor drain's quiet-period
    /// timer. No drain kills a slot, so reading that liveness while
    /// earlier agents finish reads what it read when the phase began.
    fn drain_phase(&mut self) {
        let block = &mut self.block;
        for i in 0..block.len() {
            if self.status[i] != Status::Draining {
                continue;
            }
            let base = block.slots(i).start;
            for slot in 0..block.degree(i) {
                while let Some(m) = self.links.inbox[base + slot].pop_front() {
                    block.drain(i, slot, m.entry);
                }
                let peer = self.links.peers[base + slot];
                let (node, back) = (peer.node, peer.back_slot as usize);
                if !self.status[node].running() || !block.is_alive(node, back) {
                    block.close_drain(i, slot);
                }
            }
            if block.drain_done(i) {
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
        if self.status[node].running() {
            self.block.absorb(node, mass);
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
            .filter(|&&j| self.status[j].running())
            .count();
        if heirs == 0 {
            self.stranded += amount;
            return;
        }
        let share = amount / heirs as f64;
        for &j in self.graph.neighbors(i) {
            if self.status[j].running() {
                self.block.absorb(j, share);
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
        let escrowed = self.block.e(i) - self.block.p(i);
        self.block.power_off(i);
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
                self.status[i] = Status::Departed;
                let farewell = self.block.depart(i);
                let mut goodbyes = Vec::new();
                self.block.send(i, |entry| {
                    goodbyes.push(entry);
                    true
                });
                if goodbyes.is_empty() {
                    self.stranded += farewell;
                }
                let base = self.block.slots(i).start;
                for entry in goodbyes {
                    let peer = self.links.peers[base + entry.slot as usize];
                    if self.status[peer.node].running() {
                        let slot = peer.back_slot;
                        let entry = BatchEntry { slot, ..entry };
                        self.block
                            .receive(peer.node, slot as usize, Some(entry), false);
                    } else {
                        self.credit(peer.node, entry.transfer);
                    }
                }
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
            if !self.status[j].running() {
                continue;
            }
            let spare = (-self.block.e(j) - margin).max(0.0).min(need - have);
            have += spare;
            let floor = self.utilities[j].p_min().0;
            let cut = (self.block.p(j) - floor).max(0.0).min(need - have);
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
            self.block.absorb(j, spare);
            self.block.cut_power(j, cut);
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
        self.block.reset(i, &spec);
        self.status[i] = Status::Active;
        self.partitioned = !self.live_connected();
        self.note_event(i, FaultEventKind::Restart, p_min);
        true
    }

    /// `true` when the subgraph of running agents is connected.
    fn live_connected(&self) -> bool {
        let alive: Vec<bool> = self.status.iter().map(|s| s.running()).collect();
        self.graph.is_connected_among(&alive)
    }

    /// Moves the budget to `budget`, splitting the change over the running
    /// agents' residuals so the ledger stays exact.
    pub fn set_budget(&mut self, budget: Watts) {
        let shift = self.budget - budget.0;
        let live = self.status.iter().filter(|s| s.running()).count();
        if live == 0 {
            self.stranded += shift;
        } else {
            let share = shift / live as f64;
            for i in 0..self.block.len() {
                if self.status[i].running() {
                    self.block.absorb(i, share);
                }
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
    /// exited one's final state, `(0, 0)` for a crashed one.
    pub fn node_states(&self) -> Vec<(f64, f64)> {
        let block = &self.block;
        (0..block.len()).map(|i| (block.p(i), block.e(i))).collect()
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
        for (i, &status) in self.status.iter().enumerate() {
            if status == Status::Done {
                continue;
            }
            for m in self.block.slots(i).flat_map(|s| &self.links.inbox[s]) {
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
        let exited = self.status.iter().all(|s| s.exited());
        assert!(exited, "every agent exited");
        self.block.into_reports()
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
