#![warn(missing_docs)]

//! Configurable set-associative cache hierarchy simulator for `cmpsim`.
//!
//! This crate is the algorithmic core behind both halves of the paper's
//! infrastructure: the *emulated* shared last-level cache inside Dragonhead
//! (1 MB–256 MB, 64 B–4096 B lines, LRU — §3.1) and the *host-side* private
//! caches that filter the workload's references before they reach the
//! front-side bus (the Pentium 4's 8 KB DL1 + 512 KB L2 used for Table 2).
//!
//! Layers, bottom-up:
//!
//! * [`CacheConfig`] — validated geometry (size, line, associativity) and
//!   policies,
//! * [`SetAssocCache`] — one set-associative cache with pluggable
//!   replacement ([`ReplacementPolicy`]),
//! * [`PrivateHierarchy`] — the host processor's one L1(+L2) stack, which
//!   every time-sliced virtual core shares: it turns memory references
//!   into the FSB transaction stream that a passive LLC emulator observes,
//! * [`CacheStats`] / [`WorkingSetEstimator`] — counters and footprint
//!   measurement.
//!
//! # Example
//!
//! ```
//! use cmpsim_cache::{CacheConfig, SetAssocCache};
//!
//! let cfg = CacheConfig::builder()
//!     .size_bytes(32 * 1024 * 1024)
//!     .line_bytes(64)
//!     .associativity(16)
//!     .build()?;
//! let mut llc = SetAssocCache::new(cfg);
//! llc.access(0, false); // cold miss
//! llc.access(0, false); // hit
//! assert_eq!(llc.stats().hits, 1);
//! assert_eq!(llc.stats().misses, 1);
//! # Ok::<(), cmpsim_cache::ConfigError>(())
//! ```

pub mod cache;
pub mod config;
pub mod hierarchy;
pub mod replacement;
pub mod stats;

pub use cache::{AccessOutcome, EvictedLine, SetAssocCache};
pub use config::{CacheConfig, CacheConfigBuilder, ConfigError, WritePolicy};
pub use hierarchy::{BusEvent, HierarchyConfig, PrivateHierarchy};
pub use replacement::ReplacementPolicy;
pub use stats::{CacheStats, WorkingSetEstimator};
