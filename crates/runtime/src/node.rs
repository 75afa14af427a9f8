//! The node actor: one DiBA agent driven over a [`TcpTransport`].
//!
//! The loop is the deployed protocol of the paper's prototype (one message
//! per neighbor per round, neighbor state one round stale), with three
//! runtime additions:
//!
//! * **Silent-peer detection** uses the simulator's
//!   [`FaultPlan::detect_after`](dpc_alg::faults::FaultPlan) semantics — a
//!   neighbor is pruned only after `detect_after` *consecutive* silent
//!   rounds, not on the first late message, so a slow peer is tolerated
//!   and a crashed one is eventually routed around.
//! * **Heartbeat suppression**: once a node is settled and a neighbor
//!   already holds its exact residual (nothing changed since the last
//!   `Data` and the round's transfer is zero), the node sends the 6-byte
//!   `Heartbeat` instead of the 22-byte `Data` — same semantics, fewer
//!   bytes at the converged tail.
//! * **Convergence-quorum shutdown**: a node exits once it has been
//!   settled for the configured streak *and* every remaining neighbor has
//!   declared itself settled (or left). It says `Goodbye` on every live
//!   link first, so neighbors account the departure instead of burning
//!   `detect_after` rounds on silence.

use crate::agent::AgentCore;
use crate::error::RuntimeError;
use crate::tcp::{Delivery, Incoming, TcpTransport};
use crate::wire::WireMsg;
use dpc_alg::diba::NodeParams;
use dpc_models::QuadraticUtility;
use std::time::Duration;

/// Everything one node needs at launch (the per-node slice of the problem
/// plus the runtime knobs). Initial `(p, e)` and [`NodeParams`] come from
/// the same bridge the simulator uses ([`dpc_alg::diba::DibaRun::new`]),
/// so every substrate starts from the identical state.
#[derive(Debug, Clone)]
pub struct NodeSpec {
    /// This node's id.
    pub id: usize,
    /// The local utility function.
    pub utility: QuadraticUtility,
    /// Initial power (watts).
    pub p: f64,
    /// Initial residual estimate (watts).
    pub e: f64,
    /// Resolved algorithm parameters.
    pub params: NodeParams,
    /// Barrier-continuation boost at start (≥ 1; 1 disables).
    pub eta_boost: f64,
    /// Per-round multiplicative decay of the boost.
    pub boost_decay: f64,
    /// A round's power move below this magnitude (watts) counts toward the
    /// settled streak.
    pub settle_tol: f64,
    /// Consecutive sub-tolerance rounds before the node declares itself
    /// settled on the wire.
    pub stable_rounds: usize,
    /// Consecutive silent rounds before a neighbor is pruned as dead.
    pub detect_after: usize,
    /// Hard round budget; the node reports `converged: false` if quorum
    /// never forms.
    pub max_rounds: usize,
    /// Per-link receive deadline each round.
    pub round_timeout: Duration,
    /// Record a trace sample every this many rounds (0 = no trace).
    pub sample_every: usize,
}

/// One trace sample of a node's local state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeSample {
    /// Round the sample was taken after (1-based).
    pub round: usize,
    /// Power (watts).
    pub p: f64,
    /// Residual estimate (watts).
    pub e: f64,
    /// Messages sent so far (cumulative).
    pub msgs_sent: u64,
}

/// What a node came back with.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeReport {
    /// Reporting node id.
    pub node: usize,
    /// Final power (watts).
    pub p: f64,
    /// Final residual estimate (watts).
    pub e: f64,
    /// Rounds executed.
    pub rounds: usize,
    /// `true` when the node exited through convergence quorum (rather
    /// than exhausting `max_rounds`).
    pub converged: bool,
    /// Total messages sent (including heartbeats and goodbyes).
    pub msgs_sent: u64,
    /// Total messages received.
    pub msgs_received: u64,
    /// Heartbeats among the messages sent.
    pub heartbeats_sent: u64,
    /// Neighbors pruned as silent (crash suspicion), in detection order.
    pub pruned: Vec<usize>,
    /// Trace samples (empty unless `sample_every > 0`).
    pub trace: Vec<NodeSample>,
}

/// Runs one node actor to completion over an established transport.
/// [`TcpTransport::handshake`] must have succeeded already.
///
/// The protocol arithmetic lives in [`AgentCore`]; this function is the
/// blocking driver — it moves frames between the core and the transport in
/// the canonical phase order (send pass, receive pass in slot order,
/// quorum goodbyes, slot-sequential lame-duck drain). The serial lockstep
/// executor and the reactor shards drive the identical core through the
/// identical phases, which is what makes cross-substrate runs bitwise
/// comparable.
///
/// # Errors
///
/// Propagates transport failures ([`RuntimeError::Decode`] on corrupt
/// frames, [`RuntimeError::Protocol`] on a handshake message arriving
/// mid-run). Peer disappearances are *not* errors — they are operating
/// conditions handled by pruning.
pub fn run_node(spec: &NodeSpec, transport: &mut TcpTransport) -> Result<NodeReport, RuntimeError> {
    let degree = transport.degree();
    let peers: Vec<usize> = (0..degree).map(|slot| transport.peer(slot)).collect();
    let mut core = AgentCore::new(spec.clone(), &peers);

    while core.rounds_remaining() {
        core.begin_round();

        // Send pass: one frame per live link; the core reclaims the
        // transfer when the link turns out to be gone so no slack mass is
        // destroyed.
        for k in 0..core.outbound_len() {
            let out = core.outbound(k);
            let (slot, msg) = (out.slot, out.msg);
            match transport.send(slot, &msg) {
                Delivery::Sent => core.note_sent(k),
                Delivery::Closed => core.note_send_closed(k),
            }
        }

        // Receive pass: one frame per (still) live link, slot order.
        let slots: Vec<usize> = core.round_slots().to_vec();
        for &slot in &slots {
            if !core.is_alive(slot) {
                continue;
            }
            match transport.recv(slot, spec.round_timeout)? {
                Incoming::Msg(WireMsg::Data {
                    msg,
                    settled: peer_settled,
                    ..
                }) => core.on_data(slot, msg, peer_settled),
                Incoming::Msg(WireMsg::Heartbeat {
                    settled: peer_settled,
                    ..
                }) => core.on_heartbeat(slot, peer_settled),
                Incoming::Msg(WireMsg::Goodbye { msg }) => core.on_goodbye(slot, msg),
                Incoming::Msg(other) => {
                    return Err(RuntimeError::Protocol {
                        peer: transport.peer_label(slot),
                        got: other.kind(),
                    })
                }
                Incoming::Timeout => core.on_timeout(slot),
                Incoming::Closed => core.on_closed(slot),
            }
        }

        // Convergence quorum: we are settled and every neighbor is either
        // settled or gone.
        if core.end_round() {
            for slot in 0..degree {
                if core.is_alive(slot) {
                    let bye = core.goodbye();
                    if transport.send(slot, &bye) == Delivery::Sent {
                        core.note_goodbye_sent();
                    }
                }
            }
            // Lame-duck drain: a neighbor may have sent one more round's
            // frame before it processes our goodbye. Absorb any transfer
            // mass still in flight so the residual invariant survives the
            // shutdown, then leave at the first silence/close per link.
            let drain_timeout = spec.round_timeout.min(Duration::from_millis(100));
            for slot in 0..degree {
                if !core.is_alive(slot) {
                    continue;
                }
                loop {
                    match transport.recv(slot, drain_timeout) {
                        Ok(Incoming::Msg(WireMsg::Data { msg, .. })) => {
                            core.stage_drain_mass(slot, msg.transfer);
                        }
                        Ok(Incoming::Msg(WireMsg::Heartbeat { .. })) => {
                            core.stage_drain_heartbeat(slot);
                        }
                        Ok(Incoming::Msg(WireMsg::Goodbye { msg })) => {
                            core.stage_drain_mass(slot, msg.transfer);
                            break;
                        }
                        // Anything else — silence, closure, a handshake
                        // frame, even a corrupt frame — ends the drain;
                        // we are leaving either way.
                        _ => break,
                    }
                }
            }
            core.finish_drain();
            core.mark_converged();
            break;
        }
    }

    Ok(core.into_report())
}
