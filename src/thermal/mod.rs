//! Cooling and heat-recirculation substrate.
//!
//! The thermal machinery behind the total power budgeting experiments
//! (Chapter 3): a synthetic heat cross-interference matrix **D** standing in
//! for the paper's CFD simulations, the CRAC coefficient-of-performance
//! model, inlet-temperature evaluation, and the self-consistent split of a
//! total budget into computing and cooling power (Algorithm 1).
//!
//! ```
//! use dpc::thermal::{partition::{self_consistent_partition, uniform_rack_map}, ThermalModel};
//! use dpc::models::units::Watts;
//!
//! let model = ThermalModel::paper_cluster();
//! let map = uniform_rack_map(model.racks());
//! let split = self_consistent_partition(
//!     Watts::from_megawatts(0.72), &model, &map, Watts(1.0), 100,
//! ).unwrap();
//! assert!(split.cooling_fraction() > 0.2 && split.cooling_fraction() < 0.5);
//! ```

mod cooling;
mod layout;
mod matrix;
mod model;
pub mod partition;

pub use model::{ThermalError, ThermalModel};
