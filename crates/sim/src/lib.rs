//! # dpc-sim — dynamic cluster simulation
//!
//! Drives a budgeter through time: scheduled budget changes
//! (demand-response), workload churn, and fine-grained step responses —
//! the machinery behind the paper's dynamic experiments (Figs. 4.4–4.7)
//! and the Chapter 3 runtime traces (Figs. 3.14/3.15).
//!
//! ```
//! use dpc_sim::{budgeter::DibaBudgeter, engine::{DynamicSim, SimConfig},
//!               schedule::BudgetSchedule};
//! use dpc_alg::{diba::DibaConfig, problem::PowerBudgetProblem};
//! use dpc_models::{units::{Seconds, Watts}, workload::ClusterBuilder};
//! use dpc_topology::Graph;
//!
//! # fn main() -> Result<(), dpc_alg::problem::AlgError> {
//! let cluster = ClusterBuilder::new(20).seed(1).build();
//! let problem = PowerBudgetProblem::new(cluster.utilities(), Watts(3_400.0))?;
//! let budgeter = DibaBudgeter::new(problem, Graph::ring(20), DibaConfig::default())?;
//! let schedule = BudgetSchedule::constant(Watts(3_400.0));
//! let mut sim = DynamicSim::new(cluster, budgeter, schedule, SimConfig::new(Seconds(5.0)));
//! let series = sim.run()?;
//! assert!(series.budget_respected(Watts(1e-6)));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod budgeter;
pub mod enforcement;
pub mod engine;
pub mod replay;
pub mod schedule;
pub mod series;
pub mod step;

pub use budgeter::{Budgeter, DibaBudgeter, OracleBudgeter, PrimalDualBudgeter, UniformBudgeter};
pub use enforcement::EnforcedCluster;
pub use engine::{DynamicSim, SimConfig};
pub use replay::{
    replay, ReplayConfig, ReplayOutcome, ReplayReport, Scenario, ScenarioEvent, SettleCriterion,
};
pub use schedule::BudgetSchedule;
pub use series::{TimePoint, TimeSeries};
