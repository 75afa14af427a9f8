//! # dpc — Fast Decentralized Power Capping for Server Clusters
//!
//! A full reproduction of the decentralized power-budgeting system of
//! Azimi, Badiei, Zhan, Li and Reda (HPCA 2017), as presented in Chapter 4
//! of Zhan's dissertation, including the substrates it runs on and the
//! baselines it is compared against:
//!
//! * [`models`] — workloads, throughput curves, DVFS/power model, the
//!   capping feedback controller, and cluster metrics;
//! * [`topology`] — communication graphs (ring, star, chords, random);
//! * [`net`] — the communication-time model behind the scalability study;
//! * [`alg`] — the solvers: **DiBA** (the paper's contribution),
//!   primal-dual decomposition, the exact centralized oracle, uniform and
//!   greedy baselines, the Chapter 3 knapsack and throughput predictors;
//! * [`thermal`] — heat recirculation, CRAC efficiency and the
//!   self-consistent computing/cooling split;
//! * [`sim`] — the dynamic cluster simulator (budget schedules, churn,
//!   step responses);
//! * [`runtime`] — the deployable node runtime: one DiBA agent state
//!   machine speaking a versioned binary wire protocol, hosted in-process
//!   by an epoll reactor and across processes over TCP sockets;
//! * [`repro`] — one function per table and figure of the paper, printed
//!   by `dpc repro --experiment ID|all`, and the fault and hierarchy
//!   sweeps behind `dpc faults` and `dpc hier --bench`;
//! * [`cli`] — the `dpc` operator CLI: each subcommand checks every flag
//!   it accepts, by range or list of choices, before anything runs.
//!
//! # Quickstart
//!
//! ```
//! use dpc::alg::{centralized, diba::{DibaConfig, DibaRun}};
//! use dpc::alg::problem::PowerBudgetProblem;
//! use dpc::models::{units::Watts, workload::ClusterBuilder};
//! use dpc::topology::Graph;
//!
//! # fn main() -> Result<(), dpc::alg::problem::AlgError> {
//! // 100 fully utilized servers, heterogeneous HPC workloads, 17 kW cap.
//! let cluster = ClusterBuilder::new(100).seed(1).build();
//! let problem = PowerBudgetProblem::new(cluster.utilities(), Watts(17_000.0))?;
//!
//! // The centralized optimum…
//! let optimal = problem.total_utility(&centralized::solve(&problem).allocation);
//!
//! // …matched by fully decentralized neighbor gossip on a ring.
//! let mut diba = DibaRun::new(problem, Graph::ring(100), DibaConfig::default())?;
//! diba.run_until_within(optimal, 0.01, 10_000).expect("converges");
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cli;
pub mod repro;
pub mod thermal;

pub use dpc_alg as alg;
pub use dpc_models as models;
pub use dpc_net as net;
pub use dpc_runtime as runtime;
pub use dpc_sim as sim;
pub use dpc_topology as topology;
