//! # dpc-alg — power-budget allocation algorithms
//!
//! The solvers for the cluster power-budgeting problem (Eqs. 4.1–4.3):
//!
//! * [`diba`] — the paper's contribution: fully decentralized allocation
//!   over an arbitrary connected communication graph (Algorithm 4);
//! * [`primal_dual`] — the coordinator-based dual decomposition baseline
//!   (Algorithm 3);
//! * [`centralized`] — the exact KKT water-filling oracle (the CVX stand-in);
//! * [`baselines`] — uniform split and the prior-work throughput/W greedy;
//! * [`knapsack`] — the Chapter 3 multiple-choice knapsack DP (Algorithm 2);
//! * [`predictor`] — the Chapter 3 runtime throughput predictors (Table 3.2);
//! * [`problem`] — the shared problem/allocation types;
//! * [`telemetry`] — round-level recording (residuals, messages, fault
//!   events) with JSONL/CSV/Prometheus sinks;
//! * [`exec`] — the deterministic sharded round engine (scoped fan-out,
//!   barriers, chunked reductions, the [`exec::Threads`] /
//!   [`exec::Precision`] policy knobs);
//! * `fast` — the ring traversal of a DiBA round: the reference
//!   kernel's exact arithmetic over an SoA curve layout in packed 4-lane
//!   blocks, which `DibaRun` runs on ring-dominant graphs.
//!
//! ```
//! use dpc_alg::{centralized, diba::{DibaConfig, DibaRun}, problem::PowerBudgetProblem};
//! use dpc_models::{units::Watts, workload::ClusterBuilder};
//! use dpc_topology::Graph;
//!
//! # fn main() -> Result<(), dpc_alg::problem::AlgError> {
//! let cluster = ClusterBuilder::new(50).seed(7).build();
//! let problem = PowerBudgetProblem::new(cluster.utilities(), Watts(8_400.0))?;
//! let optimal = problem.total_utility(&centralized::solve(&problem).allocation);
//!
//! let mut run = DibaRun::new(problem, Graph::ring(50), DibaConfig::default())?;
//! run.run_until_within(optimal, 0.01, 5_000).expect("converges on a ring");
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod baselines;
pub mod centralized;
pub mod diba;
pub mod exec;
mod fast;
pub mod faults;
pub mod hierarchy;
pub mod knapsack;
pub mod predictor;
pub mod primal_dual;
pub mod problem;
pub mod telemetry;

pub use problem::{AlgError, Allocation, PowerBudgetProblem};
