//! The repository benchmark: three workloads run through the public
//! entry points of `emca-harness`, end-to-end metrics from untraced
//! runs, per-layer metrics from traced runs timed from this crate.
//! See `README.md` for the workloads, the metrics and how to run it.

pub mod bench;
pub mod inputs;
pub mod json;
pub mod procfs;
pub mod reference;
pub mod report;
pub mod serve;
pub mod sim;
pub mod stats;
