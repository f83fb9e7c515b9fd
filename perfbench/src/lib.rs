//! Benchmark of the BERRY reproduction: three workloads mirroring the
//! system's three real uses — cold pair training (`train`), fault-map
//! voltage sweeps (`sweep`) and served campaign requests (`serve`) — plus
//! a traced run that splits their time across the crates' layers.
//!
//! See `README.md` in this directory for the workloads, every metric and
//! how to run it.

pub mod calib;
pub mod host;
pub mod ledger;
pub mod probe;
pub mod report;
pub mod serve;
pub mod stats;
pub mod sweep;
pub mod trace;
pub mod train;
