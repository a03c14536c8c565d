#![warn(missing_docs)]

//! `cmpsim` — hardware-software co-simulation of data-mining workloads
//! on small, medium, and large-scale CMPs.
//!
//! This crate is the top of the stack: it binds the SoftSDV-style
//! virtual platform ([`cmpsim_softsdv`]) to the Dragonhead cache-emulator
//! model ([`cmpsim_dragonhead`]) exactly as §3.3 of the ISPASS 2007 paper
//! describes — the platform runs the workload on N time-sliced virtual
//! cores and posts control messages on the bus; the passive emulator
//! snoops every transaction, attributes it to a core, and emulates the
//! configured shared LLC in real time.
//!
//! On top of the co-simulation sit the paper's experiments:
//!
//! * [`experiment::Table2Study`] — workload characterization (Table 2),
//! * [`experiment::CacheSizeStudy`] — LLC MPKI vs size on 8/16/32-core
//!   CMPs (Figures 4, 5, 6),
//! * [`experiment::LineSizeStudy`] — line-size sensitivity (Figure 7),
//! * [`experiment::PrefetchStudy`] — hardware-prefetch speedups
//!   (Figure 8),
//! * ablations: sharing category, replacement policy, 64/128-core
//!   projection.
//!
//! # Quickstart
//!
//! Every co-simulation runs the platform once while recording its FSB
//! stream, then replays that stream into the emulated boards — as many
//! LLC configurations as you like from one execution, because the
//! emulator is passive:
//!
//! ```
//! use cmpsim_core::cosim::{CoSimConfig, CoSimulation};
//! use cmpsim_core::{Scale, WorkloadId};
//!
//! let cfg = CoSimConfig::new(2, 1 << 20)?; // 2 cores, 1 MB LLC
//! let sim = CoSimulation::new(cfg);
//! let stream = sim.capture(WorkloadId::Plsa, Scale::tiny(), 1);
//! let report = sim.replay(&stream)?; // validated before it is returned
//! assert!(report.run.instructions > 0);
//! assert!(report.llc.accesses > 0);
//! # Ok::<(), cmpsim_core::CoSimError>(())
//! ```

pub mod capture;
pub mod cosim;
pub mod error;
pub mod experiment;
pub mod grid;
pub mod report;
pub mod telemetry;
pub mod validate;

pub use cmpsim_cache as cache;
pub use cmpsim_dragonhead as dragonhead;
pub use cmpsim_faults as faults;
pub use cmpsim_memsys as memsys;
pub use cmpsim_prefetch as prefetch;
pub use cmpsim_runner as runner;
pub use cmpsim_softsdv as softsdv;
pub use cmpsim_telemetry as tel;
pub use cmpsim_trace as trace;
pub use cmpsim_workloads as workloads;

pub use capture::{CaptureBroker, CaptureCounters, CapturedStream, DecodedChunks, TraceStore};
pub use cmpsim_workloads::{Scale, WorkloadId};
pub use cosim::{replay_shards, set_replay_shards, CoSimConfig, CoSimReport, CoSimulation};
pub use error::CoSimError;
pub use experiment::CmpClass;
pub use validate::Validator;
