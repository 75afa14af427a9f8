//! # dpc-net — communication time models
//!
//! Reproduces the network queueing model the paper used to attribute
//! communication time to each power-budgeting scheme (Table 4.2): measured
//! socket service times (200 µs read / 10 µs write), a serial coordinator
//! drain for the centralized and primal-dual schemes, and parallel
//! point-to-point neighbor rounds for DiBA.
//!
//! ```
//! use dpc_net::{CommModel, Scheme};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let model = CommModel::paper();
//! // A 70-iteration DiBA run on a ring costs ~29 ms regardless of N…
//! assert!(model.diba_total(2, 70).millis() < 35.0);
//! // …while a single coordinator gather/scatter at N=6400 costs >1 s.
//! let mut rng = StdRng::seed_from_u64(1);
//! assert!(model.centralized_total(6400, &mut rng).millis() > 1000.0);
//! assert_eq!(Scheme::Diba.to_string(), "DiBA");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod load;
mod model;
pub mod timing;
pub mod two_tier;

pub use model::{CommModel, Scheme};
pub use timing::LinkTiming;
pub use two_tier::TwoTierNetwork;
