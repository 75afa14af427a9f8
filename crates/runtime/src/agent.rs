//! The protocol brain of the DiBA agents a driver hosts, kept apart from
//! any event loop so every driver executes the *same* arithmetic in the
//! same order.
//!
//! An [`AgentCore`] is a *block* of agents stored as columns
//! (structure of arrays). Per agent it holds `p`, `e`, the boost, the
//! settled streak, the round counter, the message counters and the spec
//! scalars. Per neighbor slot, over the block's CSR rows (agent `a` owns
//! slots `row[a] .. row[a + 1]`, in [`dpc_topology::Graph::neighbors`]
//! order), it holds the residual last heard, the residual last sent, this
//! round's transfer, and the link flags (peer settled, silent rounds,
//! alive, drain open, what is staged on it). Pruned peers and trace
//! samples go to flat logs tagged with the agent, drained mass to a flat
//! log chained per slot. So the block owns no per-agent heap state, and while no slot of an agent has died its
//! round hands the contiguous `heard_e` row to the kernel as it is.
//!
//! Three drivers step a block:
//!
//! * the serial lockstep executor ([`crate::lockstep`]) holds one block of
//!   all `n` agents — no threads, no sockets, the cheap big-N reference,
//!   and the fault model's host: lost, late and duplicated entries,
//!   stalls, crashes, restarts and departures all happen to this block;
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
//! agent from outside its round — mass returned or shifted
//! ([`AgentCore::absorb`]), a restart donor's power cut, a pruned link
//! re-admitted, a graceful departure, a reboot ([`AgentCore::reset`]) — is
//! a block method too.
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
use dpc_alg::diba::{node_action_into, NodeParams, NodeScratch, BOOST_DECAY};
use dpc_models::QuadraticUtility;
use std::ops::Range;

/// A link-level FIN is transport state the driver reports (`link_gone`,
/// `close_drain`); it never reaches the block as a message.
const EOF_IS_NOT_AN_ENTRY: &str = "drivers turn an EOF entry into link state, never deliver it";

/// What an agent has staged on one slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Staged {
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

/// The complete protocol state of a block of agents, in columns, advanced
/// phase by phase one agent at a time. Agents are addressed by their
/// index in the block, slots by their position in the agent's neighbor
/// row. `Clone` so a test can fold a snapshot into reports mid-run.
#[derive(Clone, Default)]
pub struct AgentCore {
    // Per agent: the spec scalars.
    id: Vec<usize>,
    utility: Vec<QuadraticUtility>,
    params: Vec<NodeParams>,
    settle_tol: Vec<f64>,
    stable_rounds: Vec<usize>,
    detect_after: Vec<usize>,
    max_rounds: Vec<usize>,
    sample_every: Vec<usize>,
    // Per agent: the state.
    p: Vec<f64>,
    e: Vec<f64>,
    boost: Vec<f64>,
    streak: Vec<usize>,
    settled: Vec<bool>,
    rounds: Vec<usize>,
    converged: Vec<bool>,
    msgs_sent: Vec<u64>,
    msgs_received: Vec<u64>,
    heartbeats_sent: Vec<u64>,
    /// Slots whose link is dead; zero means the whole row is in the round.
    dead: Vec<u32>,
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
    peer_settled: Vec<bool>,
    silent: Vec<usize>,
    alive: Vec<bool>,
    /// What the agent has staged on the slot; a round entry also marks
    /// the slot as awaited by the agent's receive pass.
    staged: Vec<Staged>,
    /// The lame-duck drain still listens on this slot.
    drain_open: Vec<bool>,
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
    /// The residual the agent's staged entries carry.
    staged_e: Vec<f64>,
    // Scratch shared by the block.
    /// Live neighbors' residuals, gathered when a slot has died.
    gathered: Vec<f64>,
    scratch: NodeScratch,
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
            block.id.push(spec.id);
            block.utility.push(spec.utility);
            block.params.push(spec.params);
            block.settle_tol.push(spec.settle_tol);
            block.stable_rounds.push(spec.stable_rounds);
            block.detect_after.push(spec.detect_after);
            block.max_rounds.push(spec.max_rounds);
            block.sample_every.push(spec.sample_every);
            block.peer.extend_from_slice(peers);
            block.row.push(block.peer.len());
            // Room for the new row; `launch` writes its launch state.
            let (n, slots) = (block.id.len(), block.peer.len());
            for column in [
                &mut block.p,
                &mut block.e,
                &mut block.boost,
                &mut block.staged_e,
            ] {
                column.resize(n, 0.0);
            }
            for column in [&mut block.streak, &mut block.rounds] {
                column.resize(n, 0);
            }
            for column in [&mut block.settled, &mut block.converged] {
                column.resize(n, false);
            }
            for column in [
                &mut block.msgs_sent,
                &mut block.msgs_received,
                &mut block.heartbeats_sent,
            ] {
                column.resize(n, 0);
            }
            block.dead.resize(n, 0);
            for column in [&mut block.heard_e, &mut block.sent_e, &mut block.transfer] {
                column.resize(slots, 0.0);
            }
            for column in [
                &mut block.peer_settled,
                &mut block.alive,
                &mut block.drain_open,
            ] {
                column.resize(slots, false);
            }
            block.silent.resize(slots, 0);
            block.drain_tail.resize(slots, 0);
            block.staged.resize(slots, Staged::Nothing);
            block.launch(n - 1, &spec);
        }
        let max_degree = (0..block.len()).map(|a| block.degree(a)).max();
        block.scratch = NodeScratch::with_capacity(max_degree.unwrap_or(0));
        block
    }

    /// Puts agent `a` in its launch state from `spec` (the spec scalars
    /// are the ones it was built with).
    fn launch(&mut self, a: usize, spec: &NodeSpec) {
        self.p[a] = spec.p;
        self.e[a] = spec.e;
        self.boost[a] = spec.eta_boost.max(1.0);
        self.streak[a] = 0;
        self.settled[a] = false;
        self.rounds[a] = 0;
        self.converged[a] = false;
        self.msgs_sent[a] = 0;
        self.msgs_received[a] = 0;
        self.heartbeats_sent[a] = 0;
        self.dead[a] = 0;
        for s in self.slots(a) {
            self.heard_e[s] = spec.e;
            self.sent_e[s] = f64::NAN;
            self.transfer[s] = 0.0;
            self.peer_settled[s] = false;
            self.silent[s] = 0;
            self.alive[s] = true;
            self.staged[s] = Staged::Nothing;
            self.drain_open[s] = false;
        }
    }

    /// Reboots agent `a` from `spec` — a crashed node restarting: its
    /// state, links and logs are those of a fresh launch.
    pub fn reset(&mut self, a: usize, spec: &NodeSpec) {
        let tag = a as u32;
        self.pruned.retain(|&(b, _)| b != tag);
        self.trace.retain(|&(b, _)| b != tag);
        self.take_drained(a);
        self.launch(a, spec);
    }

    /// Number of agents in the block.
    pub fn len(&self) -> usize {
        self.id.len()
    }

    /// `true` for a block of no agents.
    pub fn is_empty(&self) -> bool {
        self.id.is_empty()
    }

    /// Agent `a`'s slots as indices into the block's per-slot columns: a
    /// driver that lays its links out in block order addresses them with
    /// the same index.
    #[inline]
    pub fn slots(&self, a: usize) -> Range<usize> {
        self.row[a]..self.row[a + 1]
    }

    /// Number of agent `a`'s neighbor slots.
    #[inline]
    pub fn degree(&self, a: usize) -> usize {
        self.row[a + 1] - self.row[a]
    }

    /// Rounds agent `a` has executed so far.
    #[inline]
    pub fn rounds(&self, a: usize) -> usize {
        self.rounds[a]
    }

    /// `true` while agent `a`'s round budget allows another round.
    #[inline]
    pub fn rounds_remaining(&self, a: usize) -> bool {
        self.rounds[a] < self.max_rounds[a]
    }

    /// Whether the link behind agent `a`'s `slot` is still alive.
    #[inline]
    pub fn is_alive(&self, a: usize, slot: usize) -> bool {
        self.alive[self.row[a] + slot]
    }

    /// Agent `a`'s round slots (valid between `begin_round` and
    /// `end_round`): the slots alive when the round began.
    pub fn round_slots(&self, a: usize) -> impl Iterator<Item = usize> + '_ {
        let base = self.row[a];
        self.slots(a)
            .filter(|&s| self.staged[s].in_round())
            .map(move |s| s - base)
    }

    /// Whether agent `a`'s receive pass awaits an entry on `slot`: the
    /// slot is in this round and did not die during the send pass.
    #[inline]
    pub fn awaits(&self, a: usize, slot: usize) -> bool {
        let s = self.row[a] + slot;
        self.staged[s].in_round() && self.alive[s]
    }

    /// Agent `a`'s power (watts).
    pub fn p(&self, a: usize) -> f64 {
        self.p[a]
    }

    /// Agent `a`'s residual estimate (watts).
    pub fn e(&self, a: usize) -> f64 {
        self.e[a]
    }

    /// Slack mass that reaches agent `a` outside a round's entries — a
    /// transfer the network bounced, a share of a dead neighbor's escrow,
    /// a budget shift — enters `e`.
    pub fn absorb(&mut self, a: usize, mass: f64) {
        self.e[a] += mass;
    }

    /// Agent `a` throttles by `watts` to make room for a booting neighbor:
    /// `p` falls and `e` stays, so `e − p` rises by `watts`.
    pub fn cut_power(&mut self, a: usize, watts: f64) {
        self.p[a] -= watts;
    }

    /// A crashed agent draws nothing and holds no residual: its `e − p`
    /// is the driver's (escrow) from here on.
    pub fn power_off(&mut self, a: usize) {
        self.p[a] = 0.0;
        self.e[a] = 0.0;
    }

    /// Re-admits the pruned link behind agent `a`'s `slot`: an entry
    /// arrived on it, so the peer is sending again (it restarted, or was
    /// only slow).
    pub fn readmit(&mut self, a: usize, slot: usize) {
        let s = self.row[a] + slot;
        if !self.alive[s] {
            self.alive[s] = true;
            self.dead[a] -= 1;
        }
        self.silent[s] = 0;
    }

    fn kill(&mut self, a: usize, s: usize) {
        if self.alive[s] {
            self.alive[s] = false;
            self.dead[a] += 1;
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
        self.rounds[a] += 1;
        let slots = self.slots(a);
        let params = NodeParams {
            eta: self.params[a].eta * self.boost[a],
            ..self.params[a]
        };
        let (p, e) = (self.p[a], self.e[a]);
        let full = self.dead[a] == 0;
        if !full {
            self.gather(a);
        }
        // Every slot alive: the row is the neighbor view as it is.
        let view = if full {
            &self.heard_e[slots.clone()]
        } else {
            &self.gathered[..]
        };
        let dp = node_action_into(&self.utility[a], p, e, view, &params, &mut self.scratch);
        let sent = &self.scratch.transfers;
        // Same accounting (and summation order) as
        // `NodeAction::own_residual_delta`, without the per-round `Vec`.
        let sent_total: f64 = sent.iter().sum();
        let e = e + (dp - sent_total);
        self.p[a] = p + dp;
        self.e[a] = e;
        let streak = match dp.abs() < self.settle_tol[a] {
            true => self.streak[a] + 1,
            false => 0,
        };
        self.streak[a] = streak;
        let settled = streak >= self.stable_rounds[a];
        self.settled[a] = settled;
        self.staged_e[a] = e;
        if !full {
            self.stage_live(a);
            return;
        }
        let staged = &mut self.staged[slots.clone()];
        let transfer = &mut self.transfer[slots.clone()];
        let sent_e = &self.sent_e[slots];
        for (k, &t) in sent.iter().enumerate() {
            transfer[k] = t;
            staged[k] = Staged::round(settled, t, e, sent_e[k]);
        }
    }

    /// Agent `a`'s live neighbors' residuals into `gathered`.
    #[cold]
    fn gather(&mut self, a: usize) {
        self.gathered.clear();
        for s in self.slots(a) {
            if self.alive[s] {
                self.gathered.push(self.heard_e[s]);
            }
        }
    }

    /// `begin_round`'s staging when a slot of agent `a` has died: the
    /// kernel's transfers go to the live slots in order.
    #[cold]
    fn stage_live(&mut self, a: usize) {
        let (e, settled) = (self.staged_e[a], self.settled[a]);
        let mut live = self.scratch.transfers.iter();
        for s in self.slots(a) {
            if !self.alive[s] {
                self.staged[s] = Staged::Nothing;
                self.transfer[s] = 0.0;
                continue;
            }
            let t = *live.next().expect("one transfer per live slot");
            self.transfer[s] = t;
            self.staged[s] = Staged::round(settled, t, e, self.sent_e[s]);
        }
    }

    /// Hands the entries agent `a` has staged to `deliver`, in slot
    /// order, each addressed by the sender's own slot: a round entry per
    /// round slot after `begin_round`, a goodbye per live slot after an
    /// `end_round` that returned `true` or after `depart`. The driver
    /// re-addresses `slot` for the receiver, hands the entry to the link,
    /// and answers whether the link took it. An entry the link could not
    /// take (it is gone) gives a round entry's transfer back, so no slack
    /// mass is destroyed, and prunes the slot; a quorum goodbye carries no
    /// mass and its slot is already in the drain, which closes it on the
    /// link's end-of-stream, so there is nothing to undo.
    #[inline]
    pub fn send(&mut self, a: usize, mut deliver: impl FnMut(BatchEntry) -> bool) {
        let slots = self.slots(a);
        let e = self.staged_e[a];
        let settled = self.settled[a];
        for s in slots.clone() {
            let (entry_e, transfer, settled, kind) = match self.staged[s] {
                Staged::Nothing => continue,
                Staged::Data => (e, self.transfer[s], settled, EntryKind::Data),
                Staged::Heartbeat => (0.0, 0.0, true, EntryKind::Heartbeat),
                Staged::Goodbye => (e, self.transfer[s], false, EntryKind::Goodbye),
            };
            let entry = BatchEntry {
                slot: (s - slots.start) as u32,
                e: entry_e,
                transfer,
                settled,
                kind,
            };
            if deliver(entry) {
                self.msgs_sent[a] += 1;
                match kind {
                    EntryKind::Data => self.sent_e[s] = e,
                    EntryKind::Heartbeat => self.heartbeats_sent[a] += 1,
                    EntryKind::Goodbye | EntryKind::Eof => {}
                }
            } else if kind != EntryKind::Goodbye {
                self.e[a] += self.transfer[s];
                self.prune(a, s);
            }
        }
    }

    /// Receive pass of agent `a`, one slot at a time: called once per slot
    /// the pass [awaits](AgentCore::awaits), in slot order. `entry`
    /// is what the peer sent this round, or `None` when nothing arrived —
    /// because the link is gone (`link_gone`), or because the round
    /// deadline passed on a link that is still up.
    #[inline]
    pub fn receive(&mut self, a: usize, slot: usize, entry: Option<BatchEntry>, link_gone: bool) {
        let s = self.row[a] + slot;
        let mass = match entry {
            Some(entry) => {
                self.msgs_received[a] += 1;
                self.hear(a, s, entry)
            }
            None => self.miss(a, s, link_gone),
        };
        if let Some(mass) = mass {
            self.e[a] += mass;
        }
    }

    /// The whole receive pass of agent `a`: for each slot the pass
    /// awaits, in slot order, `inbound(slot)` says what arrived — the
    /// entry, or nothing and whether the link is gone — and the block
    /// takes it as [`receive`](AgentCore::receive) does.
    #[inline]
    pub fn receive_round(
        &mut self,
        a: usize,
        mut inbound: impl FnMut(usize) -> (Option<BatchEntry>, bool),
    ) {
        let slots = self.slots(a);
        // `e` and the count stay in registers through the pass: the same
        // additions, in the same order, as one `receive` per slot.
        let mut e = self.e[a];
        let mut heard = 0;
        for s in slots.clone() {
            if !(self.staged[s].in_round() && self.alive[s]) {
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
        self.e[a] = e;
        self.msgs_received[a] += heard;
    }

    /// Agent `a` hears `entry` on block slot `s`; returns the mass it
    /// books.
    #[inline(always)]
    fn hear(&mut self, a: usize, s: usize, entry: BatchEntry) -> Option<f64> {
        match entry.kind {
            EntryKind::Data => {
                self.heard_e[s] = entry.e;
                self.peer_settled[s] = entry.settled;
                self.silent[s] = 0;
                Some(entry.transfer)
            }
            EntryKind::Heartbeat => {
                self.peer_settled[s] = entry.settled;
                self.silent[s] = 0;
                None
            }
            // A graceful departure: accounted, not pruned.
            EntryKind::Goodbye => {
                self.kill(a, s);
                self.peer_settled[s] = true;
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
            assert!(self.staged[s].in_round(), "slot is in this round");
            self.prune(a, s);
            Some(self.transfer[s])
        } else {
            // Silence counts toward `detect_after` pruning.
            self.silent[s] += 1;
            if self.silent[s] >= self.detect_after[a] {
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
        self.boost[a] = (self.boost[a] * BOOST_DECAY).max(1.0);

        let every = self.sample_every[a];
        if every > 0 && self.rounds[a].is_multiple_of(every) {
            self.sample(a);
        }
        let slots = self.slots(a);
        let quorum = self.settled[a]
            && slots
                .clone()
                .all(|s| !self.alive[s] || self.peer_settled[s]);
        if quorum {
            self.stage_goodbyes(a, 0.0);
            for s in slots {
                self.drain_open[s] = self.alive[s];
            }
        }
        quorum
    }

    /// Records agent `a`'s trace sample for this round.
    #[cold]
    fn sample(&mut self, a: usize) {
        let sample = NodeSample {
            round: self.rounds[a],
            p: self.p[a],
            e: self.e[a],
            msgs_sent: self.msgs_sent[a],
        };
        self.trace.push((a as u32, sample));
    }

    /// A graceful departure of agent `a`: a goodbye for every live slot is
    /// staged for [`send`](AgentCore::send), the goodbyes together
    /// carrying the agent's `e − p` in equal shares (a receiver books a
    /// goodbye's transfer); `p` and `e` drop to zero and `e − p` is
    /// returned. With no live slot nothing is staged, and the mass is the
    /// driver's to book.
    pub fn depart(&mut self, a: usize) -> f64 {
        let farewell = self.e[a] - self.p[a];
        let live = self.degree(a) - self.dead[a] as usize;
        self.stage_goodbyes(a, farewell / live as f64);
        self.p[a] = 0.0;
        self.e[a] = 0.0;
        farewell
    }

    /// Stages a goodbye carrying `transfer` on every live slot of agent `a`.
    #[cold]
    fn stage_goodbyes(&mut self, a: usize, transfer: f64) {
        self.staged_e[a] = self.e[a];
        for s in self.slots(a) {
            self.staged[s] = Staged::Nothing;
            if self.alive[s] {
                self.staged[s] = Staged::Goodbye;
                self.transfer[s] = transfer;
            }
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
        if !self.drain_open[s] {
            return false;
        }
        self.msgs_received[a] += 1;
        match entry.kind {
            EntryKind::Data => self.stage_drained(s, entry.transfer),
            EntryKind::Heartbeat => {}
            EntryKind::Goodbye => {
                self.stage_drained(s, entry.transfer);
                self.drain_open[s] = false;
            }
            EntryKind::Eof => unreachable!("{EOF_IS_NOT_AN_ENTRY}"),
        }
        true
    }

    /// Agent `a`'s drain stops listening on `slot`: its link ended, or the
    /// driver knows the peer can never send on it again.
    pub fn close_drain(&mut self, a: usize, slot: usize) {
        self.drain_open[self.row[a] + slot] = false;
    }

    /// `true` once every drain slot of agent `a` is closed — and then its
    /// staged mass has been applied in slot order (arrival order within a
    /// slot) and the agent is marked as having exited through convergence
    /// quorum: its report is final.
    pub fn drain_done(&mut self, a: usize) -> bool {
        if self.slots(a).any(|s| self.drain_open[s]) {
            return false;
        }
        self.take_drained(a);
        for &transfer in &self.drain_order {
            self.e[a] += transfer;
        }
        self.converged[a] = true;
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
            node: self.id[a],
            p: self.p[a],
            e: self.e[a],
            rounds: self.rounds[a],
            converged: self.converged[a],
            msgs_sent: self.msgs_sent[a],
            msgs_received: self.msgs_received[a],
            heartbeats_sent: self.heartbeats_sent[a],
            pruned,
            trace,
        })
        .collect()
    }
}
