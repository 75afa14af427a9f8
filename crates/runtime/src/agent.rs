//! The protocol brain of one DiBA agent, kept apart from any event loop
//! so every driver executes the *same* arithmetic in the same order.
//!
//! Two drivers step an [`AgentCore`]:
//!
//! * the serial lockstep executor ([`crate::lockstep`]) — no threads, no
//!   sockets, the cheap big-N reference, and the fault model's host: lost,
//!   late and duplicated entries, stalls, crashes, restarts and
//!   departures all happen to cores like these;
//! * the reactor shards ([`crate::reactor`]) — thousands of agents per
//!   poller thread in one process, or one agent per process over TCP
//!   ([`crate::reactor::host_node`]), stepped when a round's entries are
//!   buffered.
//!
//! The core is the only place that knows what a round message is and what
//! to do with one. Its message type is the wire's [`BatchEntry`]: it
//! stages outbound entries carrying its *own* slot, and a driver's whole
//! job is delivery — re-address `slot` to the receiver's link index, hand
//! the entry to a queue or a carrier, and report the outcome
//! ([`AgentCore::note_sent`] / [`AgentCore::note_send_closed`]). Inbound,
//! the driver hands each live slot's entry (or its absence) to
//! [`AgentCore::receive`], and after a quorum [`AgentCore::end_round`] to
//! the lame-duck drain, whose open slots and staged mass are core state.
//! What a fault does to an agent from outside its round — mass returned
//! or shifted ([`AgentCore::absorb`]), a restart donor's power cut, a
//! pruned link re-admitted, a graceful departure — is a core method too.
//!
//! The round is a sequence of phases — `begin_round` (compute + stage),
//! send notes, `receive` in slot order, `end_round` (boost decay, trace,
//! quorum) — and every phase touches `(p, e)` exactly the way one
//! sequential per-node loop would. Because each driver calls the phases
//! in the same sequence over the same entries, their `(p, e)`
//! trajectories agree bitwise; the transport-equivalence tests pin this
//! across both.
//!
//! It is also the round the in-process engine, [`dpc_alg::diba::DibaRun`],
//! computes: a node acts on the residual each peer put on the wire last
//! round, applies `e += dp − sent`, sends that as its residual, and adds
//! each incoming transfer in slot order. The one difference left is the
//! continuation schedule: an agent's boost only decays by
//! [`BOOST_DECAY`], while `DibaRun` also halves it when the global max
//! |Δp| stalls, which no agent can see. With no continuation
//! (`eta_boost = 1`) lockstep and `DibaRun` agree bit for bit
//! (`tests/equivalence.rs`).

use crate::node::{NodeReport, NodeSample, NodeSpec};
use crate::wire::{BatchEntry, EntryKind};
use dpc_alg::diba::{node_action_into, NodeParams, NodeScratch, BOOST_DECAY};

/// A link-level FIN is transport state the driver reports (`link_gone`,
/// `close_drain`); it never reaches the core as a message.
const EOF_IS_NOT_AN_ENTRY: &str = "drivers turn an EOF entry into link state, never deliver it";

/// Per-slot link bookkeeping.
#[derive(Clone)]
struct LinkBook {
    alive: bool,
    peer_settled: bool,
    silent: usize,
    /// Last residual heard from the peer.
    heard_e: f64,
    /// Last residual we successfully sent in a data entry (NaN until the
    /// first send, so the first round always sends data).
    sent_e: f64,
    /// The lame-duck drain still listens on this slot.
    drain_open: bool,
}

/// The complete protocol state of one agent, advanced phase by phase.
/// `Clone` so a test can fold a snapshot into a report mid-run.
#[derive(Clone)]
pub struct AgentCore {
    spec: NodeSpec,
    peers: Vec<usize>,
    links: Vec<LinkBook>,
    p: f64,
    e: f64,
    boost: f64,
    streak: usize,
    settled: bool,
    rounds: usize,
    converged: bool,
    msgs_sent: u64,
    msgs_received: u64,
    heartbeats_sent: u64,
    pruned: Vec<usize>,
    trace: Vec<NodeSample>,
    live_slots: Vec<usize>,
    neigh_e: Vec<f64>,
    /// This round's staged entries, `slot` holding the sender's own slot:
    /// one per live slot after `begin_round` (entry `k` carries
    /// `scratch.transfers[k]`), the goodbyes after a quorum `end_round`.
    outbound: Vec<BatchEntry>,
    scratch: NodeScratch,
    /// Mass absorbed during the drain as `(slot, transfer)`, applied in
    /// slot order at the end so the accounting matches a sequential
    /// per-slot drain bitwise regardless of arrival interleaving.
    drained: Vec<(usize, f64)>,
}

impl AgentCore {
    /// Builds the launch state for one agent; `peers[slot]` is the neighbor
    /// node id behind each slot (ascending, matching
    /// [`dpc_topology::Graph::neighbors`]).
    pub fn new(spec: NodeSpec, peers: &[usize]) -> AgentCore {
        let degree = peers.len();
        let links = (0..degree)
            .map(|_| LinkBook {
                alive: true,
                peer_settled: false,
                silent: 0,
                heard_e: spec.e,
                sent_e: f64::NAN,
                drain_open: false,
            })
            .collect();
        AgentCore {
            p: spec.p,
            e: spec.e,
            boost: spec.eta_boost.max(1.0),
            streak: 0,
            settled: false,
            rounds: 0,
            converged: false,
            msgs_sent: 0,
            msgs_received: 0,
            heartbeats_sent: 0,
            pruned: Vec::new(),
            trace: Vec::new(),
            live_slots: Vec::with_capacity(degree),
            neigh_e: Vec::with_capacity(degree),
            outbound: Vec::with_capacity(degree),
            scratch: NodeScratch::with_capacity(degree),
            drained: Vec::new(),
            peers: peers.to_vec(),
            links,
            spec,
        }
    }

    /// Number of neighbor slots.
    pub fn degree(&self) -> usize {
        self.links.len()
    }

    /// Rounds executed so far.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// `true` while the round budget allows another round.
    pub fn rounds_remaining(&self) -> bool {
        self.rounds < self.spec.max_rounds
    }

    /// Whether the link behind `slot` is still alive.
    pub fn is_alive(&self, slot: usize) -> bool {
        self.links[slot].alive
    }

    /// The round's live-slot snapshot (valid between `begin_round` and
    /// `end_round`); the receive pass iterates it in order, skipping slots
    /// that died during the send pass.
    pub fn round_slots(&self) -> &[usize] {
        &self.live_slots
    }

    /// Power (watts).
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Residual estimate (watts).
    pub fn e(&self) -> f64 {
        self.e
    }

    /// Slack mass that reaches the agent outside a round's entries — a
    /// transfer the network bounced, a share of a dead neighbor's escrow,
    /// a budget shift — enters `e`.
    pub fn absorb(&mut self, mass: f64) {
        self.e += mass;
    }

    /// The agent throttles by `watts` to make room for a booting
    /// neighbor: `p` falls and `e` stays, so `e − p` rises by `watts`.
    pub fn cut_power(&mut self, watts: f64) {
        self.p -= watts;
    }

    /// Re-admits the pruned link behind `slot`: an entry arrived on it, so
    /// the peer is sending again (it restarted, or was only slow).
    pub fn readmit(&mut self, slot: usize) {
        let link = &mut self.links[slot];
        link.alive = true;
        link.silent = 0;
    }

    /// Compute pass: assemble the neighbor view, take the node action,
    /// apply `(p, e)`, update the settled streak, and stage one outbound
    /// entry per live slot. Advances the round counter.
    pub fn begin_round(&mut self) {
        self.rounds += 1;

        self.live_slots.clear();
        self.neigh_e.clear();
        for (slot, link) in self.links.iter().enumerate() {
            if link.alive {
                self.live_slots.push(slot);
                self.neigh_e.push(link.heard_e);
            }
        }

        let round_params = NodeParams {
            eta: self.spec.params.eta * self.boost,
            ..self.spec.params
        };
        let dp = node_action_into(
            &self.spec.utility,
            self.p,
            self.e,
            &self.neigh_e,
            &round_params,
            &mut self.scratch,
        );
        // Same accounting (and summation order) as
        // `NodeAction::own_residual_delta`, without the per-round `Vec`.
        let sent_total: f64 = self.scratch.transfers.iter().sum();
        self.p += dp;
        self.e += dp - sent_total;
        self.streak = if dp.abs() < self.spec.settle_tol {
            self.streak + 1
        } else {
            0
        };
        self.settled = self.streak >= self.spec.stable_rounds;

        self.outbound.clear();
        for (k, &slot) in self.live_slots.iter().enumerate() {
            let transfer = self.scratch.transfers[k];
            // A settled sender whose peer already holds this exact
            // residual, with nothing to transfer, says so in a heartbeat:
            // same meaning, and its floats travel as `+0.0`.
            let redundant = self.settled && transfer == 0.0 && self.e == self.links[slot].sent_e;
            self.outbound.push(if redundant {
                BatchEntry {
                    slot: slot as u32,
                    e: 0.0,
                    transfer: 0.0,
                    settled: true,
                    kind: EntryKind::Heartbeat,
                }
            } else {
                BatchEntry {
                    slot: slot as u32,
                    e: self.e,
                    transfer,
                    settled: self.settled,
                    kind: EntryKind::Data,
                }
            });
        }
    }

    /// The staged entries awaiting delivery, each addressed by the
    /// sender's own slot: the round's entries after `begin_round`, the
    /// goodbyes after an `end_round` that returned `true`. The driver
    /// re-addresses `slot` for the receiver and answers each with
    /// [`note_sent`](AgentCore::note_sent) or
    /// [`note_send_closed`](AgentCore::note_send_closed).
    pub fn outbound(&self) -> &[BatchEntry] {
        &self.outbound
    }

    /// The `k`-th staged entry was handed to the link.
    pub fn note_sent(&mut self, k: usize) {
        self.msgs_sent += 1;
        let entry = self.outbound[k];
        match entry.kind {
            EntryKind::Data => self.links[entry.slot as usize].sent_e = entry.e,
            EntryKind::Heartbeat => self.heartbeats_sent += 1,
            EntryKind::Goodbye | EntryKind::Eof => {}
        }
    }

    /// The `k`-th staged entry could not be delivered (link gone). A round
    /// entry's transfer is reclaimed so no slack mass is destroyed, and
    /// the slot is pruned. A quorum goodbye carries no mass and its slot
    /// is already in the drain, which closes it on the link's
    /// end-of-stream, so there is nothing to undo.
    pub fn note_send_closed(&mut self, k: usize) {
        if self.outbound[k].kind == EntryKind::Goodbye {
            return;
        }
        self.e += self.scratch.transfers[k];
        self.prune(self.outbound[k].slot as usize);
    }

    fn prune(&mut self, slot: usize) {
        self.links[slot].alive = false;
        self.pruned.push(self.peers[slot]);
    }

    /// Receive pass, called once per still-alive slot of
    /// [`round_slots`](AgentCore::round_slots), in that order: `entry` is
    /// what the peer sent this round, or `None` when nothing arrived —
    /// because the link is gone (`link_gone`), or because the round
    /// deadline passed on a link that is still up.
    pub fn receive(&mut self, slot: usize, entry: Option<BatchEntry>, link_gone: bool) {
        let link = &mut self.links[slot];
        match entry {
            Some(entry) => {
                self.msgs_received += 1;
                match entry.kind {
                    EntryKind::Data => {
                        link.heard_e = entry.e;
                        self.e += entry.transfer;
                        link.peer_settled = entry.settled;
                        link.silent = 0;
                    }
                    EntryKind::Heartbeat => {
                        link.peer_settled = entry.settled;
                        link.silent = 0;
                    }
                    // A graceful departure: accounted, not pruned.
                    EntryKind::Goodbye => {
                        self.e += entry.transfer;
                        link.alive = false;
                        link.peer_settled = true;
                    }
                    EntryKind::Eof => unreachable!("{EOF_IS_NOT_AN_ENTRY}"),
                }
            }
            // The peer left without a goodbye, so it never absorbed the
            // entry this round already handed to the link: take that
            // transfer back, as `note_send_closed` would have had the
            // closure been known at send time.
            None if link_gone => {
                let k = self.live_slots.iter().position(|&s| s == slot);
                self.e += self.scratch.transfers[k.expect("slot is in this round")];
                self.prune(slot);
            }
            // Silence counts toward `detect_after` pruning.
            None => {
                link.silent += 1;
                if link.silent >= self.spec.detect_after {
                    self.prune(slot);
                }
            }
        }
    }

    /// End-of-round pass: boost decay, trace sampling, quorum check.
    /// Returns `true` when the agent reached convergence quorum (settled
    /// and every neighbor settled or gone): it then stops running rounds,
    /// a goodbye for every live slot is staged in
    /// [`outbound`](AgentCore::outbound), and those slots are open for the
    /// drain.
    pub fn end_round(&mut self) -> bool {
        self.boost = (self.boost * BOOST_DECAY).max(1.0);

        if self.spec.sample_every > 0 && self.rounds.is_multiple_of(self.spec.sample_every) {
            self.trace.push(NodeSample {
                round: self.rounds,
                p: self.p,
                e: self.e,
                msgs_sent: self.msgs_sent,
            });
        }

        let quorum = self.settled && self.links.iter().all(|l| !l.alive || l.peer_settled);
        if quorum {
            self.outbound.clear();
            for (slot, link) in self.links.iter_mut().enumerate() {
                link.drain_open = link.alive;
                if link.alive {
                    self.outbound.push(BatchEntry {
                        slot: slot as u32,
                        e: self.e,
                        transfer: 0.0,
                        settled: false,
                        kind: EntryKind::Goodbye,
                    });
                }
            }
        }
        quorum
    }

    /// A graceful departure: a goodbye for every live slot is staged in
    /// [`outbound`](AgentCore::outbound), the goodbyes together carrying
    /// the agent's `e − p` in equal shares (a receiver books a goodbye's
    /// transfer); `p` and `e` drop to zero and `e − p` is returned. With no
    /// live slot nothing is staged, and the mass is the driver's to book.
    pub fn depart(&mut self) -> f64 {
        let farewell = self.e - self.p;
        let live = self.links.iter().filter(|l| l.alive).count();
        self.outbound.clear();
        for (slot, link) in self.links.iter().enumerate() {
            if link.alive {
                self.outbound.push(BatchEntry {
                    slot: slot as u32,
                    e: self.e,
                    transfer: farewell / live as f64,
                    settled: false,
                    kind: EntryKind::Goodbye,
                });
            }
        }
        self.p = 0.0;
        self.e = 0.0;
        farewell
    }

    /// Drain pass: an in-flight entry arrived on `slot` after the
    /// goodbyes went out. Returns `false`, ignoring the entry, when the
    /// slot is not open. Mass is staged rather than applied (see
    /// `drained`); a heartbeat is counted and never touches `e` (adding
    /// its `+0.0` would flip a `-0.0` residual). A goodbye is the last
    /// thing a peer sends and closes the slot.
    pub fn drain(&mut self, slot: usize, entry: BatchEntry) -> bool {
        if !self.links[slot].drain_open {
            return false;
        }
        self.msgs_received += 1;
        match entry.kind {
            EntryKind::Data => self.drained.push((slot, entry.transfer)),
            EntryKind::Heartbeat => {}
            EntryKind::Goodbye => {
                self.drained.push((slot, entry.transfer));
                self.links[slot].drain_open = false;
            }
            EntryKind::Eof => unreachable!("{EOF_IS_NOT_AN_ENTRY}"),
        }
        true
    }

    /// The drain stops listening on `slot`: its link ended, or the driver
    /// knows the peer can never send on it again.
    pub fn close_drain(&mut self, slot: usize) {
        self.links[slot].drain_open = false;
    }

    /// `true` once every drain slot is closed — and then the staged mass
    /// has been applied in slot order (arrival order within a slot) and
    /// the agent is marked as having exited through convergence quorum:
    /// fold the report.
    pub fn drain_done(&mut self) -> bool {
        if self.links.iter().any(|l| l.drain_open) {
            return false;
        }
        self.drained.sort_by_key(|&(slot, _)| slot);
        for (_, transfer) in self.drained.drain(..) {
            self.e += transfer;
        }
        self.converged = true;
        true
    }

    /// Folds the agent's final state into its report.
    pub fn into_report(self) -> NodeReport {
        NodeReport {
            node: self.spec.id,
            p: self.p,
            e: self.e,
            rounds: self.rounds,
            converged: self.converged,
            msgs_sent: self.msgs_sent,
            msgs_received: self.msgs_received,
            heartbeats_sent: self.heartbeats_sent,
            pruned: self.pruned,
            trace: self.trace,
        }
    }
}
