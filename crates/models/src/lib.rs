//! # dpc-models — workload, power and performance models
//!
//! The substrate layer of the `dpc` workspace: everything the power-capping
//! algorithms consume is defined here.
//!
//! * [`units`] — typed watts / celsius / seconds quantities.
//! * [`benchmark`] — the workload catalog (Table 4.1 HPC set, plus the
//!   SPEC CPU2006 / PARSEC sets used by the Chapter 3 experiments).
//! * [`throughput`] — concave quadratic power→throughput utilities and
//!   their synthesis from workload characteristics.
//! * [`fitting`] — least-squares polynomial fitting used to learn utilities
//!   from DVFS sweeps.
//! * [`dvfs`] / [`power`] — p-state ladder and server power model.
//! * [`capping`] — the DVFS feedback power-cap controller (Fig. 2.1).
//! * [`characterization`] — the synthetic measure-and-fit pipeline.
//! * [`workload`] — cluster assembly: N servers with learned utilities.
//! * [`vm`] — VM-churn load composition: a server's curve re-fitted from
//!   its resident VM set (the online-dynamics substrate).
//! * [`pmc`] — synthetic performance-counter signatures.
//! * [`metrics`] — ANP / SNP / slowdown / unfairness.
//!
//! # Quick example
//!
//! ```
//! use dpc_models::workload::ClusterBuilder;
//! use dpc_models::units::Watts;
//!
//! // 100 fully utilized servers with uniformly drawn HPC workloads.
//! let cluster = ClusterBuilder::new(100).seed(1).build();
//! let utilities = cluster.utilities();
//! assert_eq!(utilities.len(), 100);
//! // Every learned curve is concave and nondecreasing on its power box.
//! for u in &utilities {
//!     assert!(u.slope(u.p_max()) >= 0.0);
//!     assert!(u.value(Watts(150.0)) > 0.0);
//! }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod benchmark;
pub mod capping;
pub mod characterization;
pub mod dvfs;
pub mod fitting;
pub mod metrics;
pub mod phases;
pub mod pmc;
pub mod power;
pub mod throughput;
pub mod traces;
pub mod units;
pub mod vm;
pub mod workload;

pub use benchmark::{Benchmark, WorkloadClass, WorkloadSpec};
pub use metrics::MetricSummary;
pub use power::ServerSpec;
pub use throughput::QuadraticUtility;
pub use units::{Celsius, Seconds, Watts};
pub use workload::{Cluster, ClusterBuilder};
