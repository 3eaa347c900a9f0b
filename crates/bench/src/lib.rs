//! # dsmpm2-bench — benchmark harness for the DSM-PM2 reproduction
//!
//! The `table3`, `table4`, `micro_pm2`, `fig4_tsp` and `fig5_coloring`
//! binaries each print one table or figure of the paper. [`model_rows()`]
//! holds every virtual-time number of the model, one exact row each; the
//! `model_rows` binary prints them, and a unit test checks them against the
//! committed `model_rows.txt`. The simulator's own wall-clock speed is
//! measured by the `benchmark/` package's layer probes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod model_rows;
pub mod report;
mod transport_probe;

pub use model_rows::{migration_latency, model_rows, rpc_latency};
pub use report::markdown_table;
