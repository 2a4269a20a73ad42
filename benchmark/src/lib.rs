//! End-to-end benchmark and per-layer probe for the EdgStr three-tier
//! runtime. See `README.md` for the workloads, the metrics and how they
//! interact, and `../BENCHMARK.json` for the contract the driver reads.

pub mod e2e;
pub mod metrics;
pub mod probe;
pub mod run;
pub mod spans;
pub mod workloads;
