//! The protocol brain of one DiBA agent, kept apart from any event loop
//! so every driver executes the *same* arithmetic in the same order.
//!
//! Two drivers step an [`AgentCore`]:
//!
//! * the serial lockstep executor ([`crate::lockstep`]) — no threads, no
//!   sockets, the cheap big-N reference;
//! * the reactor shards ([`crate::reactor`]) — thousands of agents per
//!   poller thread in one process, or one agent per process over TCP
//!   ([`crate::reactor::host_node`]), stepped when a round's frames are
//!   buffered.
//!
//! The core exposes the round as phases — `begin_round` (compute + stage
//! outbound frames), send notes, receive handlers in slot order,
//! `end_round` (boost decay, trace, quorum) — and every phase touches
//! `(p, e)` exactly the way one sequential per-node loop would. Because
//! each driver calls the phases in the same sequence over the same frames,
//! their `(p, e)` trajectories agree bitwise; the transport-equivalence
//! tests pin this across both.

use crate::node::{NodeReport, NodeSample, NodeSpec};
use crate::wire::WireMsg;
use dpc_alg::diba::{node_action_into, NodeParams, NodeScratch};
use dpc_alg::message::RoundMsg;

/// Per-slot link bookkeeping.
struct LinkBook {
    alive: bool,
    /// Peer said goodbye (graceful) as opposed to being pruned/broken.
    graceful: bool,
    peer_settled: bool,
    silent: usize,
    /// Last residual heard from the peer.
    heard_e: f64,
    /// Last residual we successfully sent in a `Data` frame (NaN until the
    /// first send, so the first round always sends `Data`).
    sent_e: f64,
}

/// One staged outbound frame of the current round.
pub struct Outbound {
    /// Slot the frame goes to.
    pub slot: usize,
    /// The frame itself (`Data` or `Heartbeat`).
    pub msg: WireMsg,
    /// Slack mass the frame carries (reclaimed if the link is gone).
    transfer: f64,
    /// `true` when the frame is a suppressed-duplicate heartbeat.
    redundant: bool,
}

/// The complete protocol state of one agent, advanced phase by phase.
pub struct AgentCore {
    spec: NodeSpec,
    peers: Vec<usize>,
    links: Vec<LinkBook>,
    p: f64,
    e: f64,
    boost: f64,
    decay: f64,
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
    outbound: Vec<Outbound>,
    scratch: NodeScratch,
    /// Drain-phase frames staged per slot (`Some(transfer)` for mass
    /// carriers, `None` for heartbeats), absorbed in slot order at the
    /// end so the accounting matches a sequential per-slot drain bitwise
    /// regardless of arrival interleaving.
    drained: Vec<Vec<Option<f64>>>,
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
                graceful: false,
                peer_settled: false,
                silent: 0,
                heard_e: spec.e,
                sent_e: f64::NAN,
            })
            .collect();
        AgentCore {
            p: spec.p,
            e: spec.e,
            boost: spec.eta_boost.max(1.0),
            decay: spec.boost_decay.clamp(0.0, 1.0),
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
            drained: (0..degree).map(|_| Vec::new()).collect(),
            peers: peers.to_vec(),
            links,
            spec,
        }
    }

    /// This agent's node id.
    pub fn id(&self) -> usize {
        self.spec.id
    }

    /// Number of neighbor slots.
    pub fn degree(&self) -> usize {
        self.links.len()
    }

    /// Neighbor node id behind `slot`.
    pub fn peer(&self, slot: usize) -> usize {
        self.peers[slot]
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

    /// Compute pass: assemble the neighbor view, take the node action,
    /// apply `(p, e)`, update the settled streak, and stage one outbound
    /// frame per live slot. Advances the round counter.
    pub fn begin_round(&mut self) {
        self.rounds += 1;
        let round = self.rounds as u32;

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
            let redundant = self.settled && transfer == 0.0 && self.e == self.links[slot].sent_e;
            let msg = if redundant {
                WireMsg::Heartbeat {
                    round,
                    settled: true,
                }
            } else {
                WireMsg::Data {
                    round,
                    msg: RoundMsg {
                        e: self.e,
                        transfer,
                    },
                    settled: self.settled,
                }
            };
            self.outbound.push(Outbound {
                slot,
                msg,
                transfer,
                redundant,
            });
        }
    }

    /// Number of frames staged by `begin_round`.
    pub fn outbound_len(&self) -> usize {
        self.outbound.len()
    }

    /// The `k`-th staged frame.
    pub fn outbound(&self, k: usize) -> &Outbound {
        &self.outbound[k]
    }

    /// The `k`-th staged frame was handed to the link.
    pub fn note_sent(&mut self, k: usize) {
        self.msgs_sent += 1;
        let slot = self.outbound[k].slot;
        if self.outbound[k].redundant {
            self.heartbeats_sent += 1;
        } else {
            self.links[slot].sent_e = self.e;
        }
    }

    /// The `k`-th staged frame could not be delivered (link gone): reclaim
    /// the transfer so no slack mass is destroyed, and mark the slot dead.
    pub fn note_send_closed(&mut self, k: usize) {
        let slot = self.outbound[k].slot;
        self.e += self.outbound[k].transfer;
        self.links[slot].alive = false;
        if !self.links[slot].graceful {
            self.pruned.push(self.peers[slot]);
        }
    }

    /// Receive handler: a `Data` frame on `slot`.
    pub fn on_data(&mut self, slot: usize, msg: RoundMsg, peer_settled: bool) {
        self.links[slot].heard_e = msg.e;
        self.e += msg.transfer;
        self.links[slot].peer_settled = peer_settled;
        self.links[slot].silent = 0;
        self.msgs_received += 1;
    }

    /// Receive handler: a `Heartbeat` frame on `slot`.
    pub fn on_heartbeat(&mut self, slot: usize, peer_settled: bool) {
        self.links[slot].peer_settled = peer_settled;
        self.links[slot].silent = 0;
        self.msgs_received += 1;
    }

    /// Receive handler: a `Goodbye` frame on `slot`.
    pub fn on_goodbye(&mut self, slot: usize, msg: RoundMsg) {
        self.e += msg.transfer;
        self.links[slot].alive = false;
        self.links[slot].graceful = true;
        self.links[slot].peer_settled = true;
        self.msgs_received += 1;
    }

    /// Receive handler: nothing arrived on `slot` within the round
    /// deadline. Counts toward `detect_after` pruning.
    pub fn on_timeout(&mut self, slot: usize) {
        self.links[slot].silent += 1;
        if self.links[slot].silent >= self.spec.detect_after {
            self.links[slot].alive = false;
            self.pruned.push(self.peers[slot]);
        }
    }

    /// Receive handler: the link behind `slot` is gone.
    pub fn on_closed(&mut self, slot: usize) {
        self.links[slot].alive = false;
        if !self.links[slot].graceful {
            self.pruned.push(self.peers[slot]);
        }
    }

    /// End-of-round pass: boost decay, trace sampling, quorum check.
    /// Returns `true` when the agent reached convergence quorum (settled
    /// and every neighbor settled or gone) and should say goodbye.
    pub fn end_round(&mut self) -> bool {
        self.boost = (self.boost * self.decay).max(1.0);

        if self.spec.sample_every > 0 && self.rounds.is_multiple_of(self.spec.sample_every) {
            self.trace.push(NodeSample {
                round: self.rounds,
                p: self.p,
                e: self.e,
                msgs_sent: self.msgs_sent,
            });
        }

        self.settled && self.links.iter().all(|l| !l.alive || l.peer_settled)
    }

    /// The goodbye frame announcing this agent's clean departure.
    pub fn goodbye(&self) -> WireMsg {
        WireMsg::Goodbye {
            msg: RoundMsg {
                e: self.e,
                transfer: 0.0,
            },
        }
    }

    /// A goodbye frame was handed to a live link.
    pub fn note_goodbye_sent(&mut self) {
        self.msgs_sent += 1;
    }

    /// Marks the agent as having exited through convergence quorum.
    pub fn mark_converged(&mut self) {
        self.converged = true;
    }

    /// Stages a mass-carrying lame-duck frame (`Data`/`Goodbye`) absorbed
    /// on `slot` during the drain.
    pub fn stage_drain_mass(&mut self, slot: usize, transfer: f64) {
        self.drained[slot].push(Some(transfer));
    }

    /// Stages a drained `Heartbeat` — counted, but carrying no mass (and
    /// never touching `e`, so even a `-0.0` residual survives bit-exact).
    pub fn stage_drain_heartbeat(&mut self, slot: usize) {
        self.drained[slot].push(None);
    }

    /// Applies the staged drain frames in slot order, so the final
    /// residual is independent of arrival interleaving.
    pub fn finish_drain(&mut self) {
        for slot in 0..self.drained.len() {
            for k in 0..self.drained[slot].len() {
                if let Some(transfer) = self.drained[slot][k] {
                    self.e += transfer;
                }
                self.msgs_received += 1;
            }
            self.drained[slot].clear();
        }
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
