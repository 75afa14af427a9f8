//! What goes into and comes out of one DiBA agent: its launch spec and
//! its final report. Every driver builds an [`crate::agent::AgentCore`]
//! block from one [`NodeSpec`] per agent and folds each agent into a
//! [`NodeReport`].
//!
//! The round an agent runs is the one [`dpc_alg::diba::DibaRun`] runs in
//! process; only the continuation differs (the agent decays its boost by
//! [`dpc_alg::diba::BOOST_DECAY`] alone), so a spec with `eta_boost = 1`
//! reproduces `DibaRun`'s trajectory bit for bit.
//!
//! Three runtime behaviours the spec parameterizes (all implemented once,
//! in [`crate::agent::AgentCore`]):
//!
//! * **Silent-peer detection**: a neighbor is pruned only after
//!   `detect_after` *consecutive* silent rounds, not on the first late
//!   message, so a slow peer is tolerated and a crashed one is eventually
//!   routed around — on the reactor, and in the fault model the lockstep
//!   executor runs ([`crate::lockstep::Lockstep`]), where the prune of a
//!   crashed node books the pruning agent's share of it.
//! * **Heartbeat suppression**: once a node is settled and a neighbor
//!   already holds its exact residual (nothing changed since the last
//!   data entry and the round's transfer is zero), the node sends a
//!   heartbeat instead — same semantics, fewer bytes at the converged
//!   tail.
//! * **Convergence-quorum shutdown**: a node exits once it has been
//!   settled for the configured streak *and* every remaining neighbor has
//!   declared itself settled (or left). It says goodbye on every live
//!   link first, so neighbors account the departure instead of burning
//!   `detect_after` rounds on silence.

use dpc_alg::diba::NodeParams;
use dpc_models::QuadraticUtility;

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
    /// Barrier-continuation boost at start (≥ 1; 1 disables), decayed by
    /// [`dpc_alg::diba::BOOST_DECAY`] every round.
    pub eta_boost: f64,
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
