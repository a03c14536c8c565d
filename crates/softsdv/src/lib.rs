#![warn(missing_docs)]

//! SoftSDV-style virtual platform with DEX time-slice scheduling (§3.2).
//!
//! The paper's SoftSDV exposes N virtual cores to the guest OS while
//! executing on fewer physical processors: VMX lets it run the workload
//! *natively* for a time slice, snapshot the core state, and resume a
//! different virtual core — "a physical processor will execute the work
//! for multiple logical cores in a sequential manner, scheduled by the
//! DEX driver" (§3.3).
//!
//! This crate reproduces that structure in software:
//!
//! * [`DexScheduler`] — round-robin time slicing with per-slice quanta,
//! * [`VirtualPlatform`] — N virtual cores running a
//!   [`Workload`](cmpsim_workloads::Workload)'s thread kernels over the
//!   one physical processor's private caches, emitting the front-side-bus
//!   transaction stream a passive emulator snoops, complete with the
//!   co-simulation *messages* (start/stop, core-id, instructions-retired,
//!   cycles-completed) encoded as reserved-window transactions,
//! * [`FsbListener`] — the consumer interface Dragonhead implements.
//!
//! # Example
//!
//! ```
//! use cmpsim_softsdv::{CountingListener, PlatformConfig, VirtualPlatform};
//! use cmpsim_workloads::{Scale, WorkloadId};
//!
//! let workload = WorkloadId::Plsa.build(Scale::tiny(), 1);
//! let mut platform = VirtualPlatform::new(PlatformConfig::new(2), workload.as_ref());
//! let mut listener = CountingListener::default();
//! let summary = platform.run(&mut listener);
//! assert!(summary.instructions > 0);
//! assert!(listener.data_transactions > 0);
//! ```

pub mod dex;
pub mod platform;

pub use dex::{DexScheduler, SliceDecision};
pub use platform::{
    CoreSummary, CountingListener, FsbListener, HostNoiseConfig, PlatformConfig, RunSummary,
    VirtualPlatform,
};
