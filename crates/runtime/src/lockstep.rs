//! Serial lockstep executor: the whole cluster in one thread, no sockets.
//!
//! Every substrate in this crate delivers frames round-aligned: node `i`'s
//! round `r` consumes exactly node `j`'s round-`r` frame on each live link
//! (FIFO per link, one frame per neighbor per round). That makes the
//! trajectory *schedule-independent* — so a global serial schedule that
//! runs a send phase for every agent, then a receive phase for every
//! agent, reproduces the threaded runs bitwise. This module is that
//! schedule: [`AgentCore`]s stepped in node-id order over per-edge byte
//! queues, messages passing through the [`crate::wire`] scalar payload
//! encoder/decoder.
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
//! quorum says `Goodbye` on every live link and lingers in a drain state,
//! staging in-flight frames per slot and absorbing them in slot order,
//! closing each slot on the peer's `Goodbye` or once the peer can provably
//! never send again — the lockstep stand-in for the reactor drain's
//! quiet-period timer.

use crate::agent::AgentCore;
use crate::error::RuntimeError;
use crate::node::{NodeReport, NodeSpec};
use crate::wire::{decode_payload, encode_payload, WireMsg};
use dpc_topology::Graph;
use std::collections::VecDeque;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// Running rounds.
    Active,
    /// Said goodbye, absorbing in-flight frames.
    Draining,
    /// Report folded.
    Done,
}

/// Encodes `msg` as payload bytes only (queues preserve message
/// boundaries, so no length prefix is needed).
fn encode(msg: &WireMsg) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(32);
    encode_payload(msg, &mut bytes);
    bytes
}

/// Runs every agent to completion on the serial lockstep schedule and
/// returns the per-node reports in node-id order.
///
/// `specs` must hold one spec per graph node, in node-id order (the shape
/// [`crate::cluster::node_specs`] produces).
///
/// # Errors
///
/// [`RuntimeError::Decode`] on a corrupt frame and
/// [`RuntimeError::Protocol`] on a handshake frame mid-run — both
/// impossible for queues this executor alone feeds, but kept so the
/// error surface matches the threaded substrates.
pub fn run_lockstep(specs: Vec<NodeSpec>, graph: &Graph) -> Result<Vec<NodeReport>, RuntimeError> {
    let n = specs.len();
    assert_eq!(n, graph.len(), "one spec per graph node");
    let peers: Vec<Vec<usize>> = (0..n).map(|i| graph.neighbors(i).to_vec()).collect();
    // slot_of[j] maps neighbor id -> slot via binary search (rows sorted).
    let slot_of = |j: usize, id: usize| -> usize {
        peers[j]
            .binary_search(&id)
            .expect("graph edges are symmetric")
    };

    let iteration_cap = specs
        .iter()
        .map(|s| s.max_rounds + s.detect_after)
        .max()
        .unwrap_or(0)
        + 8;
    let mut cores: Vec<Option<AgentCore>> = specs
        .into_iter()
        .enumerate()
        .map(|(i, spec)| Some(AgentCore::new(spec, &peers[i])))
        .collect();
    let mut status = vec![Status::Active; n];
    let mut inbox: Vec<Vec<VecDeque<Vec<u8>>>> = (0..n)
        .map(|i| (0..peers[i].len()).map(|_| VecDeque::new()).collect())
        .collect();
    // Which slots a draining agent still listens on.
    let mut drain_open: Vec<Vec<bool>> = (0..n).map(|_| Vec::new()).collect();
    let mut reports: Vec<Option<NodeReport>> = (0..n).map(|_| None).collect();

    for _iteration in 0..iteration_cap {
        if status.iter().all(|&s| s == Status::Done) {
            break;
        }

        // Phase A: every active agent computes its round and sends one
        // frame per live link (node-id order; order is irrelevant to the
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
            for k in 0..core.outbound_len() {
                let slot = core.outbound(k).slot;
                let peer = peers[i][slot];
                if status[peer] == Status::Done {
                    core.note_send_closed(k);
                } else {
                    inbox[peer][slot_of(peer, i)].push_back(encode(&core.outbound(k).msg));
                    core.note_sent(k);
                }
            }
        }

        // Phase B: every active agent receives one frame per live link in
        // slot order, then checks quorum. A goodbye pushed here by a
        // lower-id agent sits *behind* its round frame in the FIFO, so it
        // is consumed next round — the same order the threaded runs see.
        for i in 0..n {
            if status[i] != Status::Active {
                continue;
            }
            let core = cores[i].as_mut().expect("active core");
            let slots = core.round_slots().to_vec();
            for &slot in &slots {
                if !core.is_alive(slot) {
                    continue;
                }
                let peer = peers[i][slot];
                match inbox[i][slot].pop_front() {
                    Some(bytes) => match decode_payload(&bytes) {
                        Ok(WireMsg::Data {
                            msg,
                            settled: peer_settled,
                            ..
                        }) => core.on_data(slot, msg, peer_settled),
                        Ok(WireMsg::Heartbeat {
                            settled: peer_settled,
                            ..
                        }) => core.on_heartbeat(slot, peer_settled),
                        Ok(WireMsg::Goodbye { msg }) => core.on_goodbye(slot, msg),
                        Ok(other) => {
                            return Err(RuntimeError::Protocol {
                                peer: format!("node {peer}"),
                                got: other.kind(),
                            })
                        }
                        Err(source) => {
                            return Err(RuntimeError::Decode {
                                peer: format!("node {peer}"),
                                source,
                            })
                        }
                    },
                    // An empty queue means the peer can no longer be
                    // sending this round: closed if it exited, otherwise
                    // the lockstep analogue of a silent round.
                    None => {
                        if status[peer] == Status::Done {
                            core.on_closed(slot);
                        } else {
                            core.on_timeout(slot);
                        }
                    }
                }
            }
            if core.end_round() {
                for slot in 0..core.degree() {
                    if core.is_alive(slot) && status[peers[i][slot]] != Status::Done {
                        inbox[peers[i][slot]][slot_of(peers[i][slot], i)]
                            .push_back(encode(&core.goodbye()));
                        core.note_goodbye_sent();
                    }
                }
                drain_open[i] = (0..core.degree()).map(|s| core.is_alive(s)).collect();
                status[i] = Status::Draining;
            }
        }

        // Snapshot, per draining agent and open slot, whether the peer's
        // reciprocal link is already dead — a dead reverse link means the
        // peer will never send here again, the deterministic stand-in for
        // the reactor drain's quiet-period timer.
        let mut reverse_dead: Vec<Vec<bool>> = (0..n).map(|_| Vec::new()).collect();
        for i in 0..n {
            if status[i] != Status::Draining {
                continue;
            }
            reverse_dead[i] = (0..peers[i].len())
                .map(|slot| {
                    let peer = peers[i][slot];
                    match cores[peer].as_ref() {
                        Some(peer_core) => !peer_core.is_alive(slot_of(peer, i)),
                        None => true,
                    }
                })
                .collect();
        }

        // Phase C: draining agents absorb in-flight frames. Staging +
        // slot-ordered `finish_drain` makes the absorbed values
        // independent of *when* each slot closes, so close timing only
        // affects how many iterations the drain lingers.
        for i in 0..n {
            if status[i] != Status::Draining {
                continue;
            }
            let core = cores[i].as_mut().expect("draining core");
            for slot in 0..peers[i].len() {
                if !drain_open[i][slot] {
                    continue;
                }
                while let Some(bytes) = inbox[i][slot].pop_front() {
                    match decode_payload(&bytes) {
                        Ok(WireMsg::Data { msg, .. }) => core.stage_drain_mass(slot, msg.transfer),
                        Ok(WireMsg::Heartbeat { .. }) => core.stage_drain_heartbeat(slot),
                        Ok(WireMsg::Goodbye { msg }) => {
                            core.stage_drain_mass(slot, msg.transfer);
                            drain_open[i][slot] = false;
                            break;
                        }
                        // Anything else ends the drain; a goodbye is the
                        // last frame a peer ever sends, so nothing is left
                        // unread.
                        _ => {
                            drain_open[i][slot] = false;
                            break;
                        }
                    }
                }
                if drain_open[i][slot]
                    && (status[peers[i][slot]] == Status::Done || reverse_dead[i][slot])
                {
                    drain_open[i][slot] = false;
                }
            }
            if drain_open[i].iter().all(|&open| !open) {
                core.finish_drain();
                core.mark_converged();
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
    Ok(reports.into_iter().map(|r| r.expect("report")).collect())
}
