//! # dpc-topology — communication graphs
//!
//! The decentralized power-capping algorithm communicates only along graph
//! edges; this crate provides the graph type and the topologies the paper
//! evaluates (Fig. 4.1: star for the coordinator-based baselines, ring for
//! DiBA; Fig. 4.10: connected Erdős–Rényi graphs of varying degree).
//!
//! ```
//! use dpc_topology::Graph;
//!
//! let g = Graph::ring_with_chords(100, 10);
//! assert!(g.is_connected());
//! assert!(g.average_degree() > 2.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod builders;
mod graph;
pub mod spectral;

pub use graph::{Graph, GraphError};
pub use spectral::{consensus_spectrum, SpectralInfo};
