//! The placement stack's one benchmark.
//!
//! Four workloads drive `PlacementService` — alone, or behind the
//! simulator and the Remos-style collector — with fixed, seed-derived
//! schedules of operations on a single thread. An untraced run reports
//! end-to-end latency and capacity; a traced run times the calls into
//! each crate from outside and reports per-layer metrics. Every run
//! checks its answers against fresh solves. See `README.md`.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod exec;
pub mod hist;
pub mod inputs;
pub mod json;
pub mod metrics;
pub mod report;
pub mod trace;
pub mod workload;
