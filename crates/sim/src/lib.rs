//! # dpc-sim — dynamic cluster simulation
//!
//! Drives a warm DiBA run through time: scheduled budget changes
//! (demand-response), workload churn and phases, fine-grained step
//! responses and typed scenario timelines — the machinery behind the
//! paper's dynamic experiments (Figs. 4.4–4.7) and `dpc simulate` /
//! `dpc replay`.
//!
//! One loop advances the run across events ([`mod@replay`]'s); [`simulate`],
//! [`step::step_response`] and [`replay()`] are front-ends that feed it
//! ticks (changes, then k rounds or a settle to rest) and observe it.
//!
//! ```
//! use dpc_sim::{schedule::BudgetSchedule, simulate, SimConfig};
//! use dpc_alg::diba::{DibaConfig, DibaRun};
//! use dpc_alg::problem::PowerBudgetProblem;
//! use dpc_models::{units::{Seconds, Watts}, workload::ClusterBuilder};
//! use dpc_topology::Graph;
//!
//! # fn main() -> Result<(), dpc_alg::problem::AlgError> {
//! let cluster = ClusterBuilder::new(20).seed(1).build();
//! let problem = PowerBudgetProblem::new(cluster.utilities(), Watts(3_400.0))?;
//! let mut run = DibaRun::new(problem, Graph::ring(20), DibaConfig::default())?;
//! let schedule = BudgetSchedule::constant(Watts(3_400.0));
//! let series = simulate(cluster, &mut run, &schedule, &SimConfig::new(Seconds(5.0)))?;
//! assert!(series.budget_respected(Watts(1e-6)));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod enforcement;
pub mod engine;
pub mod replay;
pub mod schedule;
pub mod series;
pub mod step;

pub use enforcement::EnforcedCluster;
pub use engine::{simulate, SimConfig};
pub use replay::{
    replay, ReplayConfig, ReplayOutcome, ReplayReport, Scenario, ScenarioEvent, SettleCriterion,
};
pub use schedule::BudgetSchedule;
pub use series::{TimePoint, TimeSeries};
