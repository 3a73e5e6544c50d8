//! `wow-perf`: the benchmark of record for the WOW reproduction.
//!
//! Five seeded workloads drive the repository's stack — simulator, overlay
//! kernel, live reactor, vnet — as one system, and report end-to-end
//! metrics (untraced runs) and per-layer metrics (a separate traced run).
//! See `README.md` beside this crate for what each workload and metric is
//! for, and `BENCHMARK.json` at the repository root for the contract.

pub mod compare;
pub mod json;
pub mod kernels;
pub mod metrics;
pub mod runner;
pub mod spanned;
pub mod sys;
pub mod workloads;
pub mod world;

#[global_allocator]
static GLOBAL: sys::CountingAlloc = sys::CountingAlloc;
