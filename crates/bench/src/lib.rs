//! # dpc-bench — the reproduction harness
//!
//! One function per table and figure of the paper's evaluation (and the
//! Chapter 2/3 substrate experiments), exposed as a library so integration
//! tests can assert on the reproduced shapes, plus the `repro` binary that
//! prints them.
//!
//! Run everything with `cargo run -p dpc-bench --release --bin repro -- all`
//! or a single experiment with e.g. `… -- fig4_3`.
//!
//! [`faultbench`] and [`hierbench`] are the byte-reproducible sweeps behind
//! `dpc faults` and `dpc hier --bench`. Only [`ch4::table4_2`], the paper's
//! own timing table, reads a clock: wall-clock measurement of the system
//! lives in the repository's `benchmark/` harness.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ch3;
pub mod ch4;
pub mod ext;
pub mod faultbench;
pub mod hierbench;
pub mod report;
