//! Abstract-workload interval simulator for the eight Intel IA32 processors
//! of the ASPLOS 2011 study.
//!
//! This crate is the hardware substrate of the reproduction: the processors
//! the paper *measured*, rebuilt as models. It provides
//!
//! * [`catalog`]: the eight chips of Table 3 (NetBurst, Core, Bonnell,
//!   Nehalem; 130nm to 32nm) with microarchitectural and electrical model
//!   parameters ([`ProcessorSpec`]),
//! * [`cache`]: real set-associative LRU cache simulation with sampled,
//!   memoized miss-rate estimation, plus a TLB model,
//! * [`interval`]: the per-phase interval performance model,
//! * [`config`]: typed BIOS-style configuration (core count, SMT, clock,
//!   Turbo) validated per chip ([`ChipConfig`]),
//! * [`chip`]: the time-sliced chip simulator ([`ChipSimulator`]) that runs
//!   a workload's threads, meters energy per structure, reacts to Turbo
//!   Boost, and emits the power waveform the sensing rig samples.
//!
//! # Example
//!
//! ```
//! use lhr_uarch::{ChipConfig, ChipSimulator, ProcessorId};
//!
//! let spec = ProcessorId::Atom230.spec();
//! let cfg = ChipConfig::stock(spec);
//! let jess = lhr_workloads::by_name("jess").unwrap();
//! let result = ChipSimulator::new().with_target_slices(60).run(&cfg, jess, 1);
//! assert!(result.time.value() > 0.0);
//! assert!(result.average_power().value() < spec.power.tdp_w);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod catalog;
pub mod chip;
pub mod config;
pub mod interval;
pub mod predictor;

pub use cache::{simulate_miss_rate_reference, Cache, CacheGeometry, MissRateEstimator, Tlb};
pub use catalog::{processors, processors_45nm, CoreParams, MemorySystem, Microarch, PowerParams, ProcessorId, ProcessorSpec};
pub use chip::{phase_value_waits, phase_values_computed, ChipSimulator, RunResult, SimScratch};
pub use config::{ChipConfig, ConfigError};
pub use interval::{phase_performance, Environment, EventRates, PhasePerf};
pub use predictor::{Bimodal, BranchPredictor, BranchWorkload, Gshare};
