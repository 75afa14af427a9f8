//! The protocol brain of the DiBA agents a driver hosts, kept apart from
//! any event loop so every driver executes the *same* arithmetic in the
//! same order.
//!
//! An [`AgentCore`] is a *block* of agents stored as columns. Per agent
//! it holds two records: the spec scalars, and the state a round reads
//! and writes (`p`, `e`, the boost, the settled streak, the round counter,
//! the message counters). Per neighbor slot, over the block's CSR rows
//! (agent `a` owns slots `row[a] .. row[a + 1]`, in
//! [`dpc_topology::Graph::neighbors`] order), it holds the residual last
//! heard, the residual last sent, this round's transfer and the link's
//! ledger (the peer's share of the link and the link's total) as columns,
//! and a record of the link flags (peer settled, silent rounds, alive,
//! drain open, what is staged on it). Pruned peers and trace samples go
//! to flat logs tagged with the agent, drained mass to a flat log chained
//! per slot. So the block owns no per-agent heap state, and while no slot
//! of an agent has died its round hands the contiguous `heard_e` row to
//! the kernel as it is, and the kernel writes the `transfer` row in place.
//!
//! Three drivers step a block:
//!
//! * the serial lockstep executor ([`crate::lockstep`]) holds one block of
//!   all `n` agents — no threads, no sockets, the cheap big-N reference,
//!   and the fault model's host: late entries, stalls, crashes, restarts
//!   and departures all happen to this block;
//! * a reactor shard ([`crate::reactor`]) holds one block of the agents it
//!   hosts and steps an agent once a round's entries are buffered;
//! * a node shard ([`crate::reactor::host_node`]) is a reactor shard whose
//!   block holds one agent.
//!
//! The block is the only place that knows what a round message is and
//! what to do with one. Its message type is the wire's [`BatchEntry`]. A
//! phase stages an agent's outbound entries in the slot columns (what
//! kind, and the transfer), and [`AgentCore::send`] hands each to the
//! driver as an entry carrying the sender's *own* slot; a driver's whole
//! job is delivery — re-address `slot` to the receiver's link index, hand
//! the entry to a queue, a slot FIFO or a carrier, and answer whether the
//! link took it. Inbound, the driver hands each
//! awaited slot's entry (or its absence) to [`AgentCore::receive`], and
//! after a quorum [`AgentCore::end_round`] to the lame-duck drain, whose
//! open slots and staged mass are block state. What a fault does to an
//! agent from outside its round — a budget shift (`AgentCore::absorb`),
//! a restart donor's power cut, a pruned link re-admitted, a powered-off
//! peer's share booked, a reboot (`AgentCore::reset`) — is a block
//! method too.
//!
//! **The link ledger.** An agent's `e − p` moves only by the transfers on
//! its links, plus what is booked from outside a round. So each end of a
//! link can keep the peer's share of it: the peer's base share when the
//! link opened, plus every transfer sent on it, minus every transfer taken
//! from it (the `flow` column). The two ends' shares add up to the link's
//! total (the `link` column) plus what is in flight on it, and an agent's
//! own shares, `link − flow` over its slots, add up to its `e − p`. When a
//! peer powers off, its neighbours' shares of it are its `e − p` and
//! everything in flight to or from it, so each survivor books its own
//! (`book`) and nobody needs to know the dead peer's state. A
//! pruned slot's flow is its pending share: booked on a powered-off
//! notice, live again if the peer is re-admitted.
//!
//! An agent's round is a sequence of phases — `begin_round` (compute +
//! stage), `send`, `receive` in slot order, `end_round` (boost decay,
//! trace, quorum) — and every phase touches `(p, e)` exactly the way one
//! sequential per-node loop would. Because each driver calls the phases in
//! the same sequence over the same entries, their `(p, e)` trajectories
//! agree bitwise; the transport-equivalence tests pin this across them.
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
use dpc_alg::diba::{node_action_slice, NodeParams, BOOST_DECAY};
use dpc_models::QuadraticUtility;
use std::ops::Range;

/// A link-level FIN is transport state the driver reports (`link_gone`,
/// `close_drain`); it never reaches the block as a message.
const EOF_IS_NOT_AN_ENTRY: &str = "drivers turn an EOF entry into link state, never deliver it";

/// What an agent has staged on one slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Staged {
    #[default]
    Nothing,
    Data,
    Heartbeat,
    Goodbye,
}

impl Staged {
    /// The round entry for a slot whose transfer is `transfer`, from a
    /// sender whose residual is `e` and whose last data entry on the slot
    /// carried `sent_e`. A settled sender whose peer already holds this
    /// exact residual, with nothing to transfer, says so in a heartbeat:
    /// same meaning, and its floats travel as `+0.0`.
    #[inline]
    fn round(settled: bool, transfer: f64, e: f64, sent_e: f64) -> Staged {
        match settled && transfer == 0.0 && e == sent_e {
            true => Staged::Heartbeat,
            false => Staged::Data,
        }
    }

    /// A round entry: the slot was alive when the round began.
    fn in_round(self) -> bool {
        matches!(self, Staged::Data | Staged::Heartbeat)
    }
}

/// One slot's link flags, side by side.
#[derive(Clone, Copy, Default)]
struct Flags {
    /// What the agent has staged on the slot; a round entry also marks
    /// the slot as awaited by the agent's receive pass.
    staged: Staged,
    alive: bool,
    peer_settled: bool,
    /// The lame-duck drain still listens on this slot.
    drain_open: bool,
    /// Rounds in a row the peer stayed silent.
    silent: u32,
}

/// One agent's spec scalars, as launched.
#[derive(Clone)]
struct Spec {
    id: usize,
    utility: QuadraticUtility,
    params: NodeParams,
    settle_tol: f64,
    stable_rounds: usize,
    detect_after: usize,
    max_rounds: usize,
    sample_every: usize,
}

/// One agent's protocol state: what a round reads and writes of the
/// agent, side by side.
#[derive(Clone, Default)]
struct State {
    p: f64,
    e: f64,
    boost: f64,
    /// The residual the agent's staged entries carry.
    staged_e: f64,
    streak: usize,
    rounds: usize,
    msgs_sent: u64,
    msgs_received: u64,
    heartbeats_sent: u64,
    /// Slots whose link is dead; zero means the whole row is in the round.
    dead: u32,
    settled: bool,
    converged: bool,
}

/// The complete protocol state of a block of agents, in columns, advanced
/// phase by phase one agent at a time. Agents are addressed by their
/// index in the block, slots by their position in the agent's neighbor
/// row. `Clone` so a test can fold a snapshot into reports mid-run.
#[derive(Clone, Default)]
pub struct AgentCore {
    /// Per agent: the spec scalars.
    spec: Vec<Spec>,
    /// Per agent: the state.
    state: Vec<State>,
    /// CSR row offsets: agent `a`'s slots are `row[a] .. row[a + 1]`.
    row: Vec<usize>,
    // Per slot.
    /// The neighbor node id behind the slot.
    peer: Vec<usize>,
    /// Last residual heard from the peer.
    heard_e: Vec<f64>,
    /// Last residual successfully sent in a data entry (NaN until the
    /// first send, so the first round always sends data).
    sent_e: Vec<f64>,
    /// This round's transfer (0 on a slot out of the round).
    transfer: Vec<f64>,
    /// The peer's share of the link as this end sees it: its base share
    /// when the link opened, plus every transfer sent on the slot, minus
    /// every transfer taken from it. A pruned slot's flow is its pending
    /// share.
    flow: Vec<f64>,
    /// The link's total: the two ends' shares, which a transfer only moves
    /// from one to the other. This end's own share is `link − flow`.
    link: Vec<f64>,
    flags: Vec<Flags>,
    /// One past the index in `drained` of the slot's last entry; 0 when
    /// the slot has none.
    drain_tail: Vec<u32>,
    // Logs, in event order, tagged with the agent.
    pruned: Vec<(u32, usize)>,
    trace: Vec<(u32, NodeSample)>,
    // The drain log, chained per slot.
    /// Mass absorbed during a drain as `(transfer, previous)`, where
    /// `previous` is `drain_tail` of the slot before the entry came: each
    /// slot's entries form a chain in arrival order. They are applied in
    /// slot order when the agent's drain is done, so the accounting
    /// matches a sequential per-slot drain bitwise regardless of arrival
    /// interleaving.
    drained: Vec<(f64, u32)>,
    /// Entries of `drained` not yet applied; the log empties at zero.
    drain_pending: usize,
    // Scratch shared by the block, as long as the longest row.
    /// Live neighbors' residuals, gathered when a slot has died.
    gathered: Vec<f64>,
    /// The transfers to those neighbors.
    live_transfer: Vec<f64>,
    /// One agent's drained mass, in the order it is applied.
    drain_order: Vec<f64>,
}

impl AgentCore {
    /// Builds the launch state of one agent per `(spec, peers)` pair, in
    /// block order; `peers[slot]` is the neighbor node id behind each slot
    /// (ascending, matching [`dpc_topology::Graph::neighbors`]).
    pub fn new<'a>(agents: impl IntoIterator<Item = (NodeSpec, &'a [usize])>) -> AgentCore {
        let mut block = AgentCore {
            row: vec![0],
            ..AgentCore::default()
        };
        for (spec, peers) in agents {
            block.spec.push(Spec {
                id: spec.id,
                utility: spec.utility,
                params: spec.params,
                settle_tol: spec.settle_tol,
                stable_rounds: spec.stable_rounds,
                detect_after: spec.detect_after,
                max_rounds: spec.max_rounds,
                sample_every: spec.sample_every,
            });
            block.peer.extend_from_slice(peers);
            block.row.push(block.peer.len());
            // Room for the new row; `launch` writes its launch state.
            let (n, slots) = (block.spec.len(), block.peer.len());
            block.state.resize(n, State::default());
            let columns = [
                &mut block.heard_e,
                &mut block.sent_e,
                &mut block.transfer,
                &mut block.flow,
                &mut block.link,
            ];
            for column in columns {
                column.resize(slots, 0.0);
            }
            block.flags.resize(slots, Flags::default());
            block.drain_tail.resize(slots, 0);
            block.launch(n - 1, &spec);
        }
        let max_degree = (0..block.len()).map(|a| block.degree(a)).max();
        block.gathered = vec![0.0; max_degree.unwrap_or(0)];
        block.live_transfer = vec![0.0; max_degree.unwrap_or(0)];
        block
    }

    /// Puts agent `a` in its launch state from `spec` (the spec scalars
    /// are the ones it was built with).
    fn launch(&mut self, a: usize, spec: &NodeSpec) {
        self.state[a] = State {
            p: spec.p,
            e: spec.e,
            boost: spec.eta_boost.max(1.0),
            ..State::default()
        };
        for s in self.slots(a) {
            self.heard_e[s] = spec.e;
            self.sent_e[s] = f64::NAN;
            self.transfer[s] = 0.0;
            self.flow[s] = 0.0;
            self.link[s] = 0.0;
            self.flags[s] = Flags {
                alive: true,
                ..Flags::default()
            };
        }
    }

    /// Reboots agent `a` from `spec` — a crashed node restarting: its
    /// state, links and logs are those of a fresh launch, with an empty
    /// link ledger for the driver to open.
    pub(crate) fn reset(&mut self, a: usize, spec: &NodeSpec) {
        let tag = a as u32;
        self.pruned.retain(|&(b, _)| b != tag);
        self.trace.retain(|&(b, _)| b != tag);
        self.take_drained(a);
        self.launch(a, spec);
    }

    /// Number of agents in the block.
    pub(crate) fn len(&self) -> usize {
        self.spec.len()
    }

    /// Agent `a`'s slots as indices into the block's per-slot columns: a
    /// driver that lays its links out in block order addresses them with
    /// the same index.
    #[inline]
    pub(crate) fn slots(&self, a: usize) -> Range<usize> {
        self.row[a]..self.row[a + 1]
    }

    /// Number of agent `a`'s neighbor slots.
    #[inline]
    pub(crate) fn degree(&self, a: usize) -> usize {
        self.row[a + 1] - self.row[a]
    }

    /// Rounds agent `a` has executed so far.
    #[inline]
    pub(crate) fn rounds(&self, a: usize) -> usize {
        self.state[a].rounds
    }

    /// `true` while agent `a`'s round budget allows another round.
    #[inline]
    pub(crate) fn rounds_remaining(&self, a: usize) -> bool {
        self.state[a].rounds < self.spec[a].max_rounds
    }

    /// Whether the link behind agent `a`'s `slot` is still alive.
    #[inline]
    pub fn is_alive(&self, a: usize, slot: usize) -> bool {
        self.flags[self.row[a] + slot].alive
    }

    /// Agent `a`'s round slots (valid between `begin_round` and
    /// `end_round`): the slots alive when the round began.
    pub fn round_slots(&self, a: usize) -> impl Iterator<Item = usize> + '_ {
        let base = self.row[a];
        self.slots(a)
            .filter(|&s| self.flags[s].staged.in_round())
            .map(move |s| s - base)
    }

    /// Whether agent `a`'s receive pass awaits an entry on `slot`: the
    /// slot is in this round and did not die during the send pass.
    #[inline]
    pub(crate) fn awaits(&self, a: usize, slot: usize) -> bool {
        let s = self.row[a] + slot;
        self.flags[s].staged.in_round() && self.flags[s].alive
    }

    /// Agent `a`'s power (watts).
    pub(crate) fn p(&self, a: usize) -> f64 {
        self.state[a].p
    }

    /// Agent `a`'s residual estimate (watts).
    pub(crate) fn e(&self, a: usize) -> f64 {
        self.state[a].e
    }

    /// Slack mass that reaches agent `a` outside a round's entries — a
    /// budget shift, a restart donor's spare slack — enters `e`.
    pub(crate) fn absorb(&mut self, a: usize, mass: f64) {
        self.state[a].e += mass;
    }

    /// Opens the ledger of the link behind agent `a`'s `slot`: the peer's
    /// share of it and the link's total, as the two ends agree on them when
    /// the link comes up.
    pub(crate) fn open_link(&mut self, a: usize, slot: usize, share: f64, link: f64) {
        let s = self.row[a] + slot;
        self.flow[s] = share;
        self.link[s] = link;
    }

    /// The peer's share of the link behind agent `a`'s `slot`, as agent
    /// `a` sees it (its pending share once the slot is pruned).
    pub(crate) fn share(&self, a: usize, slot: usize) -> f64 {
        self.flow[self.row[a] + slot]
    }

    /// The total of the link behind agent `a`'s `slot`.
    pub(crate) fn link(&self, a: usize, slot: usize) -> f64 {
        self.link[self.row[a] + slot]
    }

    /// Mass booked on the link behind agent `a`'s `slot` from outside a
    /// round: `own` to agent `a`'s share, `peer` to the peer's.
    pub(crate) fn credit_link(&mut self, a: usize, slot: usize, own: f64, peer: f64) {
        let s = self.row[a] + slot;
        self.flow[s] += peer;
        self.link[s] += own + peer;
    }

    /// Books the share of the powered-off peer behind agent `a`'s `slot`
    /// into the agent's `e − p` and returns what it booked. A credit
    /// (≤ 0) lands in `e` whole. A debt is paid from `e` up to `−margin`,
    /// then by a power cut down to `p_min`, so `e` stays negative and `p`
    /// in its box; what neither covers stays on the slot for a later
    /// booking.
    pub(crate) fn book(&mut self, a: usize, slot: usize) -> f64 {
        let s = self.row[a] + slot;
        let (p, e) = (self.state[a].p, self.state[a].e);
        let headroom = (-self.spec[a].params.margin - e).max(0.0);
        let shed = (p - self.spec[a].utility.p_min().0).max(0.0);
        let booked = self.flow[s].min(headroom + shed);
        let cut = (booked - headroom).clamp(0.0, shed);
        self.state[a].e = e + booked - cut;
        self.state[a].p = p - cut;
        self.flow[s] -= booked;
        booked
    }

    /// Agent `a` throttles by `watts` to make room for a booting neighbor:
    /// `p` falls and `e` stays, so `e − p` rises by `watts`.
    pub(crate) fn cut_power(&mut self, a: usize, watts: f64) {
        self.state[a].p -= watts;
    }

    /// A crashed agent draws nothing and holds no residual: its `e − p`
    /// lives on in its neighbours' shares of it.
    pub(crate) fn power_off(&mut self, a: usize) {
        self.state[a].p = 0.0;
        self.state[a].e = 0.0;
    }

    /// Re-admits the pruned link behind agent `a`'s `slot`: an entry
    /// arrived on it, so the peer is sending again (it restarted, or was
    /// only slow), and the slot's pending share is a live flow again.
    pub(crate) fn readmit(&mut self, a: usize, slot: usize) {
        let s = self.row[a] + slot;
        if !self.flags[s].alive {
            self.flags[s].alive = true;
            self.state[a].dead -= 1;
        }
        self.flags[s].silent = 0;
    }

    /// Closes the link behind agent `a`'s `slot` without a failure
    /// detection: the peer is known to be gone.
    pub(crate) fn close(&mut self, a: usize, slot: usize) {
        self.kill(a, self.row[a] + slot);
    }

    fn kill(&mut self, a: usize, s: usize) {
        if self.flags[s].alive {
            self.flags[s].alive = false;
            self.state[a].dead += 1;
        }
    }

    fn prune(&mut self, a: usize, s: usize) {
        self.kill(a, s);
        self.pruned.push((a as u32, self.peer[s]));
    }

    /// Compute pass of agent `a`: take the node action on the neighbor
    /// view, apply `(p, e)`, update the settled streak, and stage one
    /// round entry per live slot — those slots are the round's, and its
    /// receive pass awaits them. Advances the agent's round counter.
    #[inline]
    pub fn begin_round(&mut self, a: usize) {
        self.state[a].rounds += 1;
        let slots = self.slots(a);
        let params = NodeParams {
            eta: self.spec[a].params.eta * self.state[a].boost,
            ..self.spec[a].params
        };
        let (p, e) = (self.state[a].p, self.state[a].e);
        let utility = &self.spec[a].utility;
        let heard = &self.heard_e[slots.clone()];
        let transfer = &mut self.transfer[slots.clone()];
        let flags = &mut self.flags[slots.clone()];
        // Same accounting (and summation order) as
        // `NodeAction::own_residual_delta`, without the per-round `Vec`.
        let (dp, sent_total) = if self.state[a].dead == 0 {
            // Every slot alive: the kernel reads the heard row and writes
            // the transfer row as they are.
            let dp = node_action_slice(utility, p, e, heard, &params, transfer);
            (dp, transfer.iter().sum::<f64>())
        } else {
            // The live slots' residuals in order; their transfers go back
            // to the live slots in order, and a dead slot's is zero.
            let mut live = 0;
            for (&h, _) in heard.iter().zip(&*flags).filter(|(_, f)| f.alive) {
                self.gathered[live] = h;
                live += 1;
            }
            let view = &self.gathered[..live];
            let sent = &mut self.live_transfer[..live];
            let dp = node_action_slice(utility, p, e, view, &params, sent);
            let mut sent_iter = sent.iter();
            for (t, f) in transfer.iter_mut().zip(&*flags) {
                *t = match f.alive {
                    true => *sent_iter.next().expect("one transfer per live slot"),
                    false => 0.0,
                };
            }
            (dp, sent.iter().sum::<f64>())
        };
        let e = e + (dp - sent_total);
        self.state[a].p = p + dp;
        self.state[a].e = e;
        let streak = match dp.abs() < self.spec[a].settle_tol {
            true => self.state[a].streak + 1,
            false => 0,
        };
        self.state[a].streak = streak;
        let settled = streak >= self.spec[a].stable_rounds;
        self.state[a].settled = settled;
        self.state[a].staged_e = e;
        let flow = &mut self.flow[slots.clone()];
        let row = flags.iter_mut().zip(&*transfer).zip(&self.sent_e[slots]);
        for (((f, &t), &sent_e), flow) in row.zip(flow) {
            *flow += t;
            f.staged = match f.alive {
                true => Staged::round(settled, t, e, sent_e),
                false => Staged::Nothing,
            };
        }
    }

    /// Hands the entries agent `a` has staged to `deliver`, in slot
    /// order, each addressed by the sender's own slot: a round entry per
    /// round slot after `begin_round`, a goodbye per live slot after an
    /// `end_round` that returned `true`. The driver
    /// re-addresses `slot` for the receiver, hands the entry to the link,
    /// and answers whether the link took it. An entry the link could not
    /// take (it is gone) gives a round entry's transfer back, so no slack
    /// mass is destroyed, and prunes the slot; a quorum goodbye carries no
    /// mass and its slot is already in the drain, which closes it on the
    /// link's end-of-stream, so there is nothing to undo.
    #[inline]
    pub fn send(&mut self, a: usize, mut deliver: impl FnMut(BatchEntry) -> bool) {
        let slots = self.slots(a);
        let e = self.state[a].staged_e;
        let settled = self.state[a].settled;
        let (mut sent, mut beats) = (0, 0);
        for s in slots.clone() {
            let (entry_e, transfer, settled, kind) = match self.flags[s].staged {
                Staged::Nothing => continue,
                Staged::Data => (e, self.transfer[s], settled, EntryKind::Data),
                Staged::Heartbeat => (0.0, 0.0, true, EntryKind::Heartbeat),
                Staged::Goodbye => (e, 0.0, false, EntryKind::Goodbye),
            };
            let entry = BatchEntry {
                slot: (s - slots.start) as u32,
                e: entry_e,
                transfer,
                settled,
                kind,
            };
            if deliver(entry) {
                sent += 1;
                match kind {
                    EntryKind::Data => self.sent_e[s] = e,
                    EntryKind::Heartbeat => beats += 1,
                    EntryKind::Goodbye | EntryKind::Eof => {}
                }
            } else if kind != EntryKind::Goodbye {
                self.state[a].e += self.transfer[s];
                self.flow[s] -= self.transfer[s];
                self.prune(a, s);
            }
        }
        self.state[a].msgs_sent += sent;
        if beats > 0 {
            self.state[a].heartbeats_sent += beats;
        }
    }

    /// Receive pass of agent `a`, one slot at a time: called once per slot
    /// the pass awaits (`AgentCore::awaits`), in slot order. `entry`
    /// is what the peer sent this round, or `None` when nothing arrived —
    /// because the link is gone (`link_gone`), or because the round
    /// deadline passed on a link that is still up.
    #[inline]
    pub fn receive(&mut self, a: usize, slot: usize, entry: Option<BatchEntry>, link_gone: bool) {
        let s = self.row[a] + slot;
        let mass = match entry {
            Some(entry) => {
                self.state[a].msgs_received += 1;
                self.hear(a, s, entry)
            }
            None => self.miss(a, s, link_gone),
        };
        if let Some(mass) = mass {
            self.state[a].e += mass;
        }
    }

    /// The whole receive pass of agent `a`: for each slot the pass
    /// awaits, in slot order, `inbound(slot)` says what arrived — the
    /// entry, or nothing and whether the link is gone — and the block
    /// takes it as [`receive`](AgentCore::receive) does.
    #[inline]
    pub(crate) fn receive_round(
        &mut self,
        a: usize,
        mut inbound: impl FnMut(usize) -> (Option<BatchEntry>, bool),
    ) {
        let slots = self.slots(a);
        // `e` and the count stay in registers through the pass: the same
        // additions, in the same order, as one `receive` per slot.
        let mut e = self.state[a].e;
        let mut heard = 0;
        // No slot died before the pass: every slot is in the round. One
        // that dies in the pass dies on its own turn.
        let full = self.state[a].dead == 0;
        for s in slots.clone() {
            if !(full || self.flags[s].staged.in_round() && self.flags[s].alive) {
                continue;
            }
            let mass = match inbound(s - slots.start) {
                (Some(entry), _) => {
                    heard += 1;
                    self.hear(a, s, entry)
                }
                (None, link_gone) => self.miss(a, s, link_gone),
            };
            if let Some(mass) = mass {
                e += mass;
            }
        }
        self.state[a].e = e;
        self.state[a].msgs_received += heard;
    }

    /// Agent `a` hears `entry` on block slot `s`; returns the mass it
    /// books.
    #[inline(always)]
    fn hear(&mut self, a: usize, s: usize, entry: BatchEntry) -> Option<f64> {
        match entry.kind {
            EntryKind::Data => {
                self.heard_e[s] = entry.e;
                self.flags[s].peer_settled = entry.settled;
                self.flags[s].silent = 0;
                self.flow[s] -= entry.transfer;
                Some(entry.transfer)
            }
            EntryKind::Heartbeat => {
                self.flags[s].peer_settled = entry.settled;
                self.flags[s].silent = 0;
                None
            }
            // A graceful departure: accounted, not pruned.
            EntryKind::Goodbye => {
                self.kill(a, s);
                self.flags[s].peer_settled = true;
                self.flow[s] -= entry.transfer;
                Some(entry.transfer)
            }
            EntryKind::Eof => unreachable!("{EOF_IS_NOT_AN_ENTRY}"),
        }
    }

    /// Nothing arrived on block slot `s` of agent `a` this round; returns
    /// the mass it books.
    #[cold]
    fn miss(&mut self, a: usize, s: usize, link_gone: bool) -> Option<f64> {
        if link_gone {
            // The peer left without a goodbye, so it never absorbed the
            // entry this round already handed to the link: take that
            // transfer back, as a send the link refused would have had
            // the closure been known at send time.
            assert!(self.flags[s].staged.in_round(), "slot is in this round");
            self.prune(a, s);
            self.flow[s] -= self.transfer[s];
            Some(self.transfer[s])
        } else {
            // Silence counts toward `detect_after` pruning.
            self.flags[s].silent = self.flags[s].silent.saturating_add(1);
            if self.flags[s].silent as usize >= self.spec[a].detect_after {
                self.prune(a, s);
            }
            None
        }
    }

    /// End-of-round pass of agent `a`: boost decay, trace sampling, quorum
    /// check. Returns `true` when the agent reached convergence quorum
    /// (settled and every neighbor settled or gone): it then stops running
    /// rounds, a goodbye for every live slot is staged for
    /// [`send`](AgentCore::send), and those slots are open for the drain.
    #[inline]
    pub fn end_round(&mut self, a: usize) -> bool {
        self.state[a].boost = (self.state[a].boost * BOOST_DECAY).max(1.0);

        let every = self.spec[a].sample_every;
        if every > 0 && self.state[a].rounds.is_multiple_of(every) {
            self.sample(a);
        }
        let slots = self.slots(a);
        let quorum = self.state[a].settled
            && slots
                .clone()
                .all(|s| !self.flags[s].alive || self.flags[s].peer_settled);
        if quorum {
            self.stage_goodbyes(a);
            for s in slots {
                self.flags[s].drain_open = self.flags[s].alive;
            }
        }
        quorum
    }

    /// Records agent `a`'s trace sample for this round.
    #[cold]
    fn sample(&mut self, a: usize) {
        let sample = NodeSample {
            round: self.state[a].rounds,
            p: self.state[a].p,
            e: self.state[a].e,
            msgs_sent: self.state[a].msgs_sent,
        };
        self.trace.push((a as u32, sample));
    }

    /// Stages a goodbye on every live slot of agent `a`.
    #[cold]
    fn stage_goodbyes(&mut self, a: usize) {
        self.state[a].staged_e = self.state[a].e;
        for s in self.slots(a) {
            self.flags[s].staged = match self.flags[s].alive {
                true => Staged::Goodbye,
                false => Staged::Nothing,
            };
        }
    }

    /// Drain pass of agent `a`: an in-flight entry arrived on `slot` after
    /// the goodbyes went out. Returns `false`, ignoring the entry, when the
    /// slot is not open. Mass is staged rather than applied (see
    /// `drained`); a heartbeat is counted and never touches `e` (adding
    /// its `+0.0` would flip a `-0.0` residual). A goodbye is the last
    /// thing a peer sends and closes the slot.
    pub fn drain(&mut self, a: usize, slot: usize, entry: BatchEntry) -> bool {
        let s = self.row[a] + slot;
        if !self.flags[s].drain_open {
            return false;
        }
        self.state[a].msgs_received += 1;
        match entry.kind {
            EntryKind::Data => self.stage_drained(s, entry.transfer),
            EntryKind::Heartbeat => {}
            EntryKind::Goodbye => {
                self.stage_drained(s, entry.transfer);
                self.flags[s].drain_open = false;
            }
            EntryKind::Eof => unreachable!("{EOF_IS_NOT_AN_ENTRY}"),
        }
        true
    }

    /// Agent `a`'s drain stops listening on `slot`: its link ended, or the
    /// driver knows the peer can never send on it again.
    pub fn close_drain(&mut self, a: usize, slot: usize) {
        self.flags[self.row[a] + slot].drain_open = false;
    }

    /// `true` once every drain slot of agent `a` is closed — and then its
    /// staged mass has been applied in slot order (arrival order within a
    /// slot) and the agent is marked as having exited through convergence
    /// quorum: its report is final.
    pub fn drain_done(&mut self, a: usize) -> bool {
        if self.slots(a).any(|s| self.flags[s].drain_open) {
            return false;
        }
        self.take_drained(a);
        for &transfer in &self.drain_order {
            self.state[a].e += transfer;
        }
        self.state[a].converged = true;
        true
    }

    /// Appends `transfer` to the drained mass of block slot `s`.
    fn stage_drained(&mut self, s: usize, transfer: f64) {
        self.drained.push((transfer, self.drain_tail[s]));
        self.drain_tail[s] = self.drained.len() as u32;
        self.drain_pending += 1;
    }

    /// Moves agent `a`'s drained mass out of the log into `drain_order`:
    /// slot by slot, each slot's in arrival order.
    fn take_drained(&mut self, a: usize) {
        self.drain_order.clear();
        for s in self.slots(a) {
            let start = self.drain_order.len();
            let mut next = std::mem::take(&mut self.drain_tail[s]);
            while next != 0 {
                let (transfer, previous) = self.drained[next as usize - 1];
                self.drain_order.push(transfer);
                next = previous;
            }
            self.drain_order[start..].reverse();
        }
        self.drain_pending -= self.drain_order.len();
        if self.drain_pending == 0 {
            self.drained.clear();
        }
    }

    /// Folds every agent's state into its report, in block order.
    pub fn into_reports(self) -> Vec<NodeReport> {
        let mut pruned = vec![Vec::new(); self.len()];
        for &(a, peer) in &self.pruned {
            pruned[a as usize].push(peer);
        }
        let mut trace = vec![Vec::new(); self.len()];
        for &(a, sample) in &self.trace {
            trace[a as usize].push(sample);
        }
        let logs = pruned.into_iter().zip(trace).enumerate();
        logs.map(|(a, (pruned, trace))| NodeReport {
            node: self.spec[a].id,
            p: self.state[a].p,
            e: self.state[a].e,
            rounds: self.state[a].rounds,
            converged: self.state[a].converged,
            msgs_sent: self.state[a].msgs_sent,
            msgs_received: self.state[a].msgs_received,
            heartbeats_sent: self.state[a].heartbeats_sent,
            pruned,
            trace,
        })
        .collect()
    }
}
