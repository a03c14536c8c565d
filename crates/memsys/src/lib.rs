#![warn(missing_docs)]

//! DRAM, bandwidth, and timing models for `cmpsim`.
//!
//! The cache simulator produces *counts* (hits and misses per level); this
//! crate turns counts into *time*:
//!
//! * [`DramConfig`] — a DDR-era DRAM latency model (row hits vs row
//!   conflicts) that yields the average memory latency in bus cycles,
//! * [`MachineConfig`] / [`RunCounts`] — an analytic CPI model with a
//!   finite-bandwidth memory bus and an M/M/1-style queueing correction,
//!   solved to a fixed point.
//!
//! The timing model is what reproduces the paper's Table 2 IPC column and
//! the Figure 8 prefetching study: prefetching converts exposed miss
//! latency into (cheaper) LLC hits *and* extra bus traffic, so its benefit
//! saturates exactly when demand traffic already fills the bus — which is
//! why the parallel versions of SNP and MDS gain less than their serial
//! versions (§4.4).

pub mod dram;
pub mod timing;

pub use dram::DramConfig;
pub use timing::{MachineConfig, RunCounts, TimingBreakdown};
