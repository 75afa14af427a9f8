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
//!   each slot every entry due by then, so a late, overtaking network and
//!   a stalling scheduler are the same delivery loop with later due rounds;
//!   crashes, restarts and departures are the management plane acting
//!   between rounds ([`Lockstep`]). Under a benign plan every entry is due
//!   in the round it was sent and nothing is drawn from the plan's RNG, so
//!   [`run_lockstep`] is that loop with no faults.
//!
//! The due-round queues, the entry delays and agent status are driver
//! state; everything an agent knows is in the block, its share of every
//! link included, and a dead node's budget is recovered from those shares
//! alone. Shutdown mirrors the reactor's: an agent that reaches
//! convergence quorum says goodbye on every live link and lingers in the
//! block's drain state, which closes a slot on the peer's goodbye; this
//! executor closes it once the peer can provably never send again — it has
//! exited, or its own slot back is dead in the block — the lockstep
//! stand-in for the reactor drain's quiet-period timer. The drain assumes
//! every link stays up, so a plan with faults runs agents that never exit
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
    /// Powered off by the plan: no core; its `e − p` lives on in its
    /// neighbours' shares of it.
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

    /// The plan powered the agent off: its neighbours hold its mass as
    /// their shares of it, and what it sent that is still on the way is
    /// void, since those shares already count it.
    fn down(self) -> bool {
        matches!(self, Status::Crashed | Status::Departed)
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

/// The network between the agents: the link queues and the plan's sampler
/// (entry delays and stalls).
struct Links {
    /// Per block slot: the neighbor behind it.
    peers: Vec<Peer>,
    /// Per block slot: the entries the neighbor behind it has sent and
    /// its agent has not consumed yet, in arrival order (by due round,
    /// then by send order).
    inbox: Vec<VecDeque<Queued>>,
    sampler: FaultSampler,
    /// The round's message counters (only `msgs_sent` is read).
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

    /// Delivers everything agent `i` of `block` has staged: each entry is
    /// re-addressed to the receiver's slot and queued, due in `due` plus
    /// its drawn delay, or refused if the neighbor has exited, which is
    /// the lockstep form of a closed link. An entry to a crashed neighbor
    /// is taken and never read: its transfer is in the sender's share.
    fn send_staged(&mut self, block: &mut AgentCore, i: usize, status: &[Status], due: usize) {
        let base = block.slots(i).start;
        block.send(i, |entry| {
            let peer = self.peers[base + entry.slot as usize];
            if status[peer.node].exited() {
                return false;
            }
            self.tally.msgs_sent += 1;
            if status[peer.node] != Status::Crashed {
                let entry = BatchEntry {
                    slot: peer.back_slot,
                    ..entry
                };
                let due = due + self.sampler.delay();
                self.enqueue(peer.back, due, entry);
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
/// * **late delivery** — the entry is due some rounds after it was sent,
///   and may overtake others on its link;
/// * **stall** — a live agent sits the round out with probability
///   `1 − activation`: it neither begins nor receives, and its entries
///   wait in its queues;
/// * **crash** — the agent powers off and drops out of the block's care.
///   The plan's crash is the "powered off" notice its neighbours get.
///   Each learns of it by silence ([`NodeSpec::detect_after`]), and once
///   its failure detector has pruned the link it books its share of the
///   peer (`AgentCore::book`); a share that is a debt is booked at the
///   notice. What the dead peer sent that arrives later is void;
/// * **restart** — a crashed agent boots at idle power once its
///   neighbours' unbooked shares of it plus their spare slack and power
///   cuts fund `p_min + margin` (retried every round until they do); both
///   ends of its links open a fresh ledger from its boot state, and a
///   neighbor that pruned it re-admits it on its first entry;
/// * **depart** — the agent powers off as in a crash, and the notice that
///   it is gone for good closes its links at once, so every neighbour
///   books its share of it in that round.
///
/// A prune of a peer that is only slow leaves its share pending, and the
/// peer's next entry re-admits it. Every handler moves mass between
/// ledgers, so `Σe + Σpending + Σin-flight + stranded = Σp − P` holds to
/// rounding after every round ([`Lockstep::conservation_drift`]), where
///
/// * `Σe` and `Σp` run over every node (a dead one holds `(0, 0)`);
/// * `Σpending` is the running agents' unbooked shares of dead peers
///   ([`Lockstep::pending_total`]);
/// * in-flight is the transfers queued on the links whose ends are both
///   up and into agents that have not exited through quorum: a link with
///   a dead end carries nothing, since the survivor's share counts what is
///   on it;
/// * stranded is the mass on links whose both ends are down, taken from
///   the link totals as the second end goes ([`Lockstep::stranded`]).
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
    /// Restarts the headroom could not fund yet.
    pending_restarts: Vec<usize>,
    /// Mass on links whose both ends are down.
    stranded: f64,
    partitioned: bool,
    telemetry: Option<Box<Telemetry>>,
}

impl Lockstep {
    /// Launches one agent per spec on `graph` under `plan`, with `P` read
    /// off the launch ledger `Σp − Σe`. Each link's ledger opens from the
    /// two ends' launch states: an agent's base share is its `e − p` over
    /// its degree.
    ///
    /// `specs` must hold one spec per graph node, in node-id order (the
    /// shape [`crate::cluster::node_specs`] produces).
    ///
    /// # Panics
    ///
    /// If the plan fails [`FaultPlan::validate`], or if it can perturb the
    /// run while an agent can exit: the quorum drain assumes every link
    /// stays up, so faults need `stable_rounds` and `max_rounds` at
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
        let base: Vec<f64> = (0..n)
            .map(|i| (e[i] - p[i]) / graph.neighbors(i).len().max(1) as f64)
            .collect();
        let restarts = plan
            .schedule
            .iter()
            .any(|f| f.kind == NodeFaultKind::Restart);
        let kept = if restarts { specs.clone() } else { Vec::new() };
        let utilities = specs.iter().map(|s| s.utility).collect();
        let mut block = AgentCore::new(specs.into_iter().map(|spec| {
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
        for i in 0..n {
            for (slot, &j) in graph.neighbors(i).iter().enumerate() {
                block.open_link(i, slot, base[j], base[i] + base[j]);
            }
        }
        let inbox = peers.iter().map(|_| VecDeque::new()).collect();
        Lockstep {
            links: Links {
                peers,
                inbox,
                sampler: FaultSampler::new(&plan),
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

    /// Runs one round: the plan's node events for it and the shares they
    /// make due, then the send, receive and drain phases. Returns `false`,
    /// doing nothing, once no agent is running.
    pub fn step(&mut self) -> bool {
        if !self.status.iter().any(|s| s.running()) {
            return false;
        }
        self.round += 1;
        self.links.tally = RoundRecord::default();
        if self.faulty {
            self.apply_schedule();
            self.book_shares();
        }
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
    /// entry, the order the reactor sees.
    fn receive_phase(&mut self) {
        let round = self.round;
        for i in 0..self.block.len() {
            if self.status[i] != Status::Active || self.stalled[i] {
                continue;
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
                if self.status[peer].down() {
                    self.note_event(peer, FaultEventKind::Detect, 0.0);
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
            // lockstep analogue of a silent round. A dead peer's entries
            // are void, so they are silence too.
            let peer = self.links.peers[base + slot].node;
            let peer_exited = self.status[peer].exited();
            let peer_down = self.status[peer].down();
            let mut heard = false;
            while let Some(entry) = self.links.pop_due(base + slot, self.round) {
                if !peer_down {
                    block.receive(i, slot, Some(entry), peer_exited);
                    heard = true;
                }
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
    /// an entry from a dead one is void.
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
                }
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

    /// Every running agent books its share of each dead peer that is due:
    /// once its link to the peer is closed, or at once when the share is a
    /// debt. The shares of a dead peer add up to its `e − p` and what was
    /// in flight on its links, so this is its whole budget returning.
    fn book_shares(&mut self) {
        for i in 0..self.block.len() {
            if !self.status[i].down() {
                continue;
            }
            let base = self.block.slots(i).start;
            for slot in 0..self.block.degree(i) {
                let peer = self.links.peers[base + slot];
                let (k, back) = (peer.node, peer.back_slot as usize);
                if !self.status[k].running() {
                    continue;
                }
                let share = self.block.share(k, back);
                if share != 0.0 && (share > 0.0 || !self.block.is_alive(k, back)) {
                    let booked = self.block.book(k, back);
                    self.note_event(i, FaultEventKind::Settle, booked);
                }
            }
        }
    }

    /// Agent `i` powers off into `status` and returns its `e − p`, which
    /// lives on in its neighbours' shares of it. Nothing reaches it any
    /// more, and the mass on its links to peers already down is stranded:
    /// no running agent holds a share of it.
    fn power_off(&mut self, i: usize, status: Status) -> f64 {
        let mass = self.block.e(i) - self.block.p(i);
        self.block.power_off(i);
        self.status[i] = status;
        let base = self.block.slots(i).start;
        for slot in 0..self.block.degree(i) {
            self.links.inbox[base + slot].clear();
            if self.status[self.links.peers[base + slot].node].down() {
                self.stranded += self.block.link(i, slot);
            }
        }
        self.partitioned = !self.live_connected();
        mass
    }

    /// Node `i` powers off silently; its neighbours learn of it by silence.
    fn crash(&mut self, i: usize) {
        if self.status[i] == Status::Active {
            let mass = self.power_off(i, Status::Crashed);
            self.note_event(i, FaultEventKind::Crash, mass);
        }
    }

    /// Node `i` leaves for good, running or crashed. The notice that it is
    /// gone closes every link its running neighbours hold open to it, so
    /// each books its share at once.
    fn depart(&mut self, i: usize) {
        let mass = match self.status[i] {
            Status::Active => self.power_off(i, Status::Departed),
            Status::Crashed => {
                self.status[i] = Status::Departed;
                0.0
            }
            _ => return,
        };
        let base = self.block.slots(i).start;
        for slot in 0..self.block.degree(i) {
            let peer = self.links.peers[base + slot];
            if self.status[peer.node].running() {
                self.block.close(peer.node, peer.back_slot as usize);
            }
        }
        self.note_event(i, FaultEventKind::Depart, mass);
    }

    /// Restarts `i`, or retries every round until it is admitted.
    fn restart(&mut self, i: usize) {
        if !self.try_restart(i) {
            self.pending_restarts.push(i);
        }
    }

    /// Boots crashed node `i` at its idle power. The boot needs
    /// `p_min + margin` watts of headroom: first the shares of it its
    /// running neighbours have not booked, then each one's spare slack,
    /// and finally — since a converged cluster has none to spare — power
    /// cuts toward their own `p_min`. A donor's `e − p` rises by what it
    /// gives, on its link to `i`, so with the boot the ledger moves by
    /// exactly `p_min` on both sides. Each link then opens afresh: the
    /// neighbour keeps its own share and sees `i`'s boot share. Returns
    /// `false`, deferring, while the headroom is not there.
    fn try_restart(&mut self, i: usize) -> bool {
        if self.status[i] != Status::Crashed {
            // Restarting a running node is a no-op; a departed one is gone.
            return true;
        }
        let p_min = self.utilities[i].p_min().0;
        let margin = self.specs[i].params.margin;
        let need = p_min + margin;
        let base = self.block.slots(i).start;
        let ends: Vec<(usize, usize)> = (base..self.block.slots(i).end)
            .map(|s| self.links.peers[s])
            .map(|peer| (peer.node, peer.back_slot as usize))
            .collect();
        let running = |&(j, _): &(usize, usize)| self.status[j].running();
        let mut have: f64 = -ends
            .iter()
            .filter(|end| running(end))
            .map(|&(j, back)| self.block.share(j, back))
            .sum::<f64>();
        // Pass 1 (read-only): can enough headroom be gathered at all?
        let mut donations: Vec<(usize, usize, f64, f64)> = Vec::new();
        for &(j, back) in ends.iter().filter(|end| running(end)) {
            if have >= need {
                break;
            }
            let spare = (-self.block.e(j) - margin).max(0.0).min(need - have);
            have += spare;
            let floor = self.utilities[j].p_min().0;
            let cut = (self.block.p(j) - floor).max(0.0).min(need - have);
            have += cut;
            if spare > 0.0 || cut > 0.0 {
                donations.push((j, back, spare, cut));
            }
        }
        if have < need {
            return false;
        }
        // Pass 2: apply.
        for (j, back, spare, cut) in donations {
            self.block.absorb(j, spare);
            self.block.cut_power(j, cut);
            self.block.credit_link(j, back, spare + cut, 0.0);
        }
        // A reboot joins a running cluster: no barrier continuation.
        let spec = NodeSpec {
            p: p_min,
            e: p_min - have,
            eta_boost: 1.0,
            ..self.specs[i].clone()
        };
        self.block.reset(i, &spec);
        let boot = -have / ends.len().max(1) as f64;
        for (slot, (j, back)) in ends.into_iter().enumerate() {
            // What the old `i` sent and nobody read is void.
            self.links.inbox[self.links.peers[base + slot].back].clear();
            if self.status[j].running() {
                let held = self.block.link(j, back) - self.block.share(j, back);
                self.block.open_link(j, back, boot, boot + held);
                self.block.open_link(i, slot, held, boot + held);
            } else {
                self.block.open_link(i, slot, 0.0, boot);
            }
        }
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
    /// agents' residuals so the ledger stays exact. The budget change is
    /// broadcast, so each agent books its part on its links in equal
    /// shares and every neighbour sees it do so.
    pub fn set_budget(&mut self, budget: Watts) {
        let shift = self.budget - budget.0;
        let live = self.status.iter().filter(|s| s.running()).count();
        if live == 0 {
            self.stranded += shift;
        } else {
            let share = shift / live as f64;
            for i in 0..self.block.len() {
                if !self.status[i].running() {
                    continue;
                }
                self.block.absorb(i, share);
                let part = share / self.block.degree(i) as f64;
                for s in self.block.slots(i) {
                    let slot = s - self.block.slots(i).start;
                    let peer = self.links.peers[s];
                    self.block.credit_link(i, slot, part, 0.0);
                    self.block
                        .credit_link(peer.node, peer.back_slot as usize, 0.0, part);
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

    /// The pending ledger: the shares of crashed and departed peers that
    /// running agents hold and have not booked yet, a not-yet-detected
    /// crash's whole budget among them. A share is a base share plus a net
    /// flow, so any one of them can have either sign; a dead peer's shares
    /// add up to its `e − p` and what was in flight on its links.
    pub fn pending_total(&self) -> f64 {
        let mut pending = 0.0;
        for k in (0..self.block.len()).filter(|&k| self.status[k].running()) {
            for s in self.block.slots(k) {
                if self.status[self.links.peers[s].node].down() {
                    pending += self.block.share(k, s - self.block.slots(k).start);
                }
            }
        }
        pending
    }

    /// Mass on links whose both ends are down: a dead agent's share of a
    /// peer that died after it, and its own share on that link.
    pub fn stranded(&self) -> f64 {
        self.stranded
    }

    /// `true` while churn has disconnected the running agents. DiBA's
    /// convergence needs a connected graph; a partitioned run stays
    /// feasible, but each component equilibrates on its own.
    pub fn partitioned(&self) -> bool {
        self.partitioned
    }

    /// Entries in flight and the mass they carry: what is queued on links
    /// whose ends are both up, into agents that have not exited through
    /// quorum or their round budget (those queues hold only what their
    /// senders took back).
    fn in_flight(&self) -> (u64, f64) {
        let (mut count, mut mass) = (0, 0.0);
        for (i, &status) in self.status.iter().enumerate() {
            if status == Status::Done || status.down() {
                continue;
            }
            for s in self.block.slots(i) {
                if self.status[self.links.peers[s].node].down() {
                    continue;
                }
                for m in &self.links.inbox[s] {
                    count += 1;
                    mass += m.entry.transfer;
                }
            }
        }
        (count, mass)
    }

    /// The ledger's drift
    /// `|Σe + Σpending + Σin-flight + stranded − (Σp − P)|` (watts), each
    /// term as [`Lockstep`] defines it: zero up to rounding through every
    /// fault.
    pub fn conservation_drift(&self) -> f64 {
        let states = self.node_states();
        let sum_p: f64 = states.iter().map(|s| s.0).sum();
        let sum_e: f64 = states.iter().map(|s| s.1).sum();
        let ledger = sum_e + self.in_flight().1 + self.pending_total() + self.stranded;
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
            pending: self.pending_total(),
            stranded: self.stranded,
            live: self.live_count() as u64,
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

#[cfg(test)]
mod tests {
    use super::*;
    use dpc_alg::faults::LinkFaults;
    use dpc_models::workload::ClusterBuilder;

    /// Agents on `graph` that never exit and prune a silent peer after
    /// `detect_after` rounds, at 170 W per server.
    fn launch(graph: &Graph, detect_after: usize, plan: FaultPlan) -> Lockstep {
        let n = graph.len();
        let cluster = ClusterBuilder::new(n).seed(4).build();
        let problem = PowerBudgetProblem::new(cluster.utilities(), Watts(170.0 * n as f64));
        let rt = RuntimeConfig {
            detect_after,
            stable_rounds: usize::MAX,
            max_rounds: usize::MAX,
            ..RuntimeConfig::default()
        };
        let specs = node_specs(&problem.unwrap(), graph, DibaConfig::default(), &rt);
        Lockstep::new(specs.unwrap(), graph, plan)
    }

    fn assert_books_close(run: &Lockstep) {
        let drift = run.conservation_drift();
        assert!(drift < 1e-9, "drift {drift} W at round {}", run.round());
        let over = run.total_power().0 - run.budget().0;
        assert!(
            over <= 1e-6,
            "Σp over P by {over} W at round {}",
            run.round()
        );
    }

    /// Pitfall (a), seen from inside: a neighbour has booked its share of
    /// the crashed node while an entry the node sent is still queued to
    /// it. The entry is void when it lands, and the books stay closed.
    #[test]
    fn an_entry_from_a_crashed_peer_lands_after_its_share_was_booked() {
        let graph = Graph::ring(6);
        let victim = 2;
        let mut seen = 0;
        for seed in 0..20 {
            let link = LinkFaults {
                reorder: 0.6,
                reorder_max: 8,
            };
            let plan = FaultPlan::with_link(seed, link).and(10, victim, NodeFaultKind::Crash);
            let mut run = launch(&graph, 2, plan);
            for _ in 0..40 {
                run.step();
                assert_books_close(&run);
                let base = run.block.slots(victim).start;
                for slot in 0..run.block.degree(victim) {
                    let peer = run.links.peers[base + slot];
                    let (k, back) = (peer.node, peer.back_slot as usize);
                    let booked = run.status[victim] == Status::Crashed
                        && !run.block.is_alive(k, back)
                        && run.block.share(k, back) == 0.0;
                    if booked && !run.links.inbox[peer.back].is_empty() {
                        seen += 1;
                    }
                }
            }
        }
        assert!(seen > 0, "no entry outlived its sender's booked share");
    }

    /// Pitfall (b): a share can be a debt. One neighbour of a crashed node
    /// holds a large positive share and the other the matching credit; the
    /// debt is booked at the notice, paid past `−margin` by a power cut
    /// that stays in the box, and `e < 0` and `Σp ≤ P` hold throughout.
    #[test]
    fn a_debt_share_is_booked_at_once_within_the_box() {
        let graph = Graph::ring(4);
        // Far-off events make the plan faulty and keep the launch specs;
        // the crash is driven here.
        let plan = FaultPlan::none().and(1_000, 2, NodeFaultKind::Restart);
        let mut run = launch(&graph, 40, plan);
        run.run(50);
        run.crash(0);
        let (debtor, creditor) = (1, 3);
        let slot_of = |run: &Lockstep, k: usize| {
            let row = run.graph.neighbors(k);
            row.binary_search(&0).expect("a neighbour of node 0")
        };
        let (d_slot, c_slot) = (slot_of(&run, debtor), slot_of(&run, creditor));
        let (p, e) = (run.block.p(debtor), run.block.e(debtor));
        let p_min = run.utilities[debtor].p_min().0;
        let margin = run.specs[debtor].params.margin;
        // A debt that takes all of `e`'s headroom and half the power above
        // `p_min`.
        let debt = (-margin - e) + (p - p_min) / 2.0 - run.block.share(debtor, d_slot);
        run.block.credit_link(debtor, d_slot, 0.0, debt);
        run.block.credit_link(creditor, c_slot, 0.0, -debt);
        assert!(run.block.share(debtor, d_slot) > 0.0);
        assert_books_close(&run);
        run.book_shares();
        assert_eq!(run.block.share(debtor, d_slot), 0.0, "the debt is booked");
        let (p_after, e_after) = (run.block.p(debtor), run.block.e(debtor));
        assert!(e_after < 0.0 && e_after <= -margin + 1e-9, "e = {e_after}");
        assert!(p_after < p && p_after >= p_min, "p = {p_after} from {p}");
        assert!(run.block.share(creditor, c_slot) < 0.0, "a credit waits");
        assert_books_close(&run);
        for _ in 0..200 {
            run.step();
            assert_books_close(&run);
            for k in [1, 3] {
                assert!(run.block.e(k) < 0.0, "agent {k} at e = {}", run.block.e(k));
            }
        }
        assert_eq!(
            run.pending_total(),
            0.0,
            "the credit is booked on detection"
        );
    }
}
