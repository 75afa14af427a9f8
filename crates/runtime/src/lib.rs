//! # dpc-runtime — the deployable node runtime
//!
//! The paper's claim is that DiBA is *fully decentralized*: every server
//! runs an autonomous agent that converges using only neighbor messages.
//! This crate is that claim made operational. Each node is one protocol
//! state machine — a row of an [`agent::AgentCore`] block, which holds
//! every agent a driver hosts — whose message type is the entry of a
//! versioned, length-prefixed binary protocol ([`wire`]). The block owns
//! what a message means — dispatch, quorum, the shutdown drain — and is
//! driven exactly two ways, by drivers that own only delivery: the
//! serial [`lockstep`] executor, which moves entries through in-memory
//! queues, is the reference every bitwise pin compares against, and the
//! sharded epoll [`reactor`], which moves them as bytes, is everything
//! that deploys — a whole cluster in one process ([`run_cluster`], the
//! default), or one agent per OS process over real TCP sockets
//! ([`reactor::host_node`], behind `dpc node`), which is the same shard
//! loop with a node range of one. The per-round math is
//! [`dpc_alg::diba::node_action`] — the same function the in-process
//! round engine executes — so every driver converges to the same
//! allocation (the transport-equivalence tests pin it).
//!
//! Lifecycle: dial-low/accept-high link establishment under one deadline,
//! with a `Hello` / `HelloAck` handshake that validates protocol version,
//! cluster size, and a topology fingerprint
//! ([`dpc_topology::Graph::topology_hash`]); silent
//! peers pruned after `detect_after` consecutive quiet rounds; clean
//! shutdown by convergence quorum with goodbye entries and a
//! conservation-preserving drain. The seeded fault model
//! ([`dpc_alg::faults::FaultPlan`]: late entries, stalls, crashes,
//! restarts, departures) runs on these same agents in the lockstep
//! executor ([`lockstep::Lockstep`]), and a dead node's budget comes back
//! from the shares of it its neighbours keep on their links.
//!
//! ```
//! use dpc_alg::{diba::DibaConfig, problem::PowerBudgetProblem};
//! use dpc_models::{units::Watts, workload::ClusterBuilder};
//! use dpc_runtime::cluster::{run_cluster, RuntimeConfig};
//! use dpc_topology::Graph;
//!
//! let cluster = ClusterBuilder::new(4).seed(7).build();
//! let problem = PowerBudgetProblem::new(cluster.utilities(), Watts(680.0)).unwrap();
//! let outcome = run_cluster(
//!     problem,
//!     Graph::ring(4),
//!     DibaConfig::default(),
//!     &RuntimeConfig::default(),
//! )
//! .unwrap();
//! assert!(outcome.converged);
//! assert!(outcome.total_power() <= Watts(680.0) + Watts(1e-6));
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod agent;
pub mod cluster;
pub mod error;
pub mod lockstep;
pub mod node;
pub mod reactor;
pub mod wire;

pub use cluster::{run_cluster, ClusterOutcome, RuntimeConfig, TransportKind};
pub use error::{HandshakeFailure, RuntimeError};
pub use node::{NodeReport, NodeSpec};
pub use wire::{WireMsg, PROTOCOL_VERSION};
