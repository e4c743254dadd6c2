//! Host-time benchmark of the DGSF simulator.
//!
//! Three workloads — `rpc_scale`, `paper_repro` and `fleet_observed` — are
//! driven through the public `dgsf` facade from one thread, one at
//! a time. The end-to-end run reports wall, CPU and memory cost next to
//! the simulated (virtual-time) results, and checks every pass's output
//! against a recorded digest. A separate traced run records spans around
//! the calls the benchmark makes into each layer and reports per-layer
//! numbers. See `README.md` in this directory.

pub mod bench;
pub mod decor;
pub mod fleet_observed;
pub mod paper_repro;
pub mod refs;
pub mod rpc_scale;
pub mod spans;
pub mod stats;
pub mod sys;
pub mod wire_probe;
