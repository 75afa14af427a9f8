//! Serial lockstep executor: the whole cluster in one thread, no sockets.
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
//!   pinned against bitwise.
//!
//! Shutdown mirrors the reactor's: an agent that reaches convergence
//! quorum says goodbye on every live link and lingers in the core's drain
//! state, which closes a slot on the peer's goodbye; this executor closes
//! it once the peer can provably never send again — the lockstep stand-in
//! for the reactor drain's quiet-period timer.

use crate::agent::AgentCore;
use crate::node::{NodeReport, NodeSpec};
use crate::wire::BatchEntry;
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
}

/// One queue per (node, slot): the entries that node's neighbor behind
/// that slot has sent and the node has not consumed yet.
type Inboxes = Vec<Vec<VecDeque<BatchEntry>>>;

/// Delivers everything `core` has staged: each entry is re-addressed to
/// the receiver's slot (`peers[k]` = (neighbor id, its slot for this
/// node) behind this node's slot `k`) and queued, unless the neighbor has
/// exited, which is the lockstep form of a closed link.
fn send_staged(
    core: &mut AgentCore,
    peers: &[(usize, usize)],
    status: &[Status],
    inbox: &mut Inboxes,
) {
    for k in 0..core.outbound().len() {
        let entry = core.outbound()[k];
        let (peer, peer_slot) = peers[entry.slot as usize];
        if status[peer] == Status::Done {
            core.note_send_closed(k);
        } else {
            inbox[peer][peer_slot].push_back(BatchEntry {
                slot: peer_slot as u32,
                ..entry
            });
            core.note_sent(k);
        }
    }
}

/// Runs every agent to completion on the serial lockstep schedule and
/// returns the per-node reports in node-id order.
///
/// `specs` must hold one spec per graph node, in node-id order (the shape
/// [`crate::cluster::node_specs`] produces).
pub fn run_lockstep(specs: Vec<NodeSpec>, graph: &Graph) -> Vec<NodeReport> {
    let n = specs.len();
    assert_eq!(n, graph.len(), "one spec per graph node");
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

    let iteration_cap = specs
        .iter()
        .map(|s| s.max_rounds + s.detect_after)
        .max()
        .unwrap_or(0)
        + 8;
    let mut cores: Vec<Option<AgentCore>> = specs
        .into_iter()
        .map(|spec| {
            let id = spec.id;
            Some(AgentCore::new(spec, graph.neighbors(id)))
        })
        .collect();
    let mut status = vec![Status::Active; n];
    let mut inbox: Inboxes = (0..n)
        .map(|i| peers[i].iter().map(|_| VecDeque::new()).collect())
        .collect();
    let mut reports: Vec<Option<NodeReport>> = (0..n).map(|_| None).collect();

    for _iteration in 0..iteration_cap {
        if status.iter().all(|&s| s == Status::Done) {
            break;
        }

        // Phase A: every active agent computes its round and sends one
        // entry per live link (node-id order; order is irrelevant to the
        // values because consumption is round-aligned, but fixing it keeps
        // the executor trivially deterministic).
        for i in 0..n {
            if status[i] != Status::Active {
                continue;
            }
            if !cores[i].as_ref().expect("active core").rounds_remaining() {
                // Round budget exhausted without quorum: exit unconverged.
                let core = cores[i].take().expect("active core");
                reports[i] = Some(core.into_report());
                status[i] = Status::Done;
                continue;
            }
            let core = cores[i].as_mut().expect("active core");
            core.begin_round();
            send_staged(core, &peers[i], &status, &mut inbox);
        }

        // Phase B: every active agent receives one entry per live link in
        // slot order, then checks quorum. A goodbye pushed here by a
        // lower-id agent sits *behind* its round entry in the FIFO, so it
        // is consumed next round — the same order the reactor sees.
        for i in 0..n {
            if status[i] != Status::Active {
                continue;
            }
            let core = cores[i].as_mut().expect("active core");
            for k in 0..core.round_slots().len() {
                let slot = core.round_slots()[k];
                if !core.is_alive(slot) {
                    continue;
                }
                // An empty queue means the peer can no longer be sending
                // this round: its link is gone if it exited, otherwise
                // this is the lockstep analogue of a silent round.
                let peer_exited = status[peers[i][slot].0] == Status::Done;
                core.receive(slot, inbox[i][slot].pop_front(), peer_exited);
            }
            if core.end_round() {
                send_staged(core, &peers[i], &status, &mut inbox);
                status[i] = Status::Draining;
            }
        }

        // Snapshot, per draining agent and slot, whether the peer's
        // reciprocal link is already dead — a dead reverse link means the
        // peer will never send here again, the deterministic stand-in for
        // the reactor drain's quiet-period timer.
        let mut reverse_dead: Vec<Vec<bool>> = (0..n).map(|_| Vec::new()).collect();
        for i in 0..n {
            if status[i] != Status::Draining {
                continue;
            }
            reverse_dead[i] = peers[i]
                .iter()
                .map(|&(peer, peer_slot)| match cores[peer].as_ref() {
                    Some(peer_core) => !peer_core.is_alive(peer_slot),
                    None => true,
                })
                .collect();
        }

        // Phase C: draining agents absorb in-flight entries. The core
        // stages them and applies the mass in slot order, which makes the
        // absorbed values independent of *when* each slot closes, so
        // close timing only affects how many iterations the drain lingers.
        for i in 0..n {
            if status[i] != Status::Draining {
                continue;
            }
            let core = cores[i].as_mut().expect("draining core");
            for slot in 0..peers[i].len() {
                while let Some(entry) = inbox[i][slot].pop_front() {
                    core.drain(slot, entry);
                }
                if status[peers[i][slot].0] == Status::Done || reverse_dead[i][slot] {
                    core.close_drain(slot);
                }
            }
            if core.drain_done() {
                let core = cores[i].take().expect("draining core");
                reports[i] = Some(core.into_report());
                status[i] = Status::Done;
            }
        }
    }

    assert!(
        status.iter().all(|&s| s == Status::Done),
        "lockstep executor stalled: an agent neither advanced nor drained \
         within the iteration cap"
    );
    reports.into_iter().map(|r| r.expect("report")).collect()
}
