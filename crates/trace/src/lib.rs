//! Deterministic synthetic workload traces.
//!
//! The study's benchmarks (SPEC CPU2006, PARSEC, SPECjvm, DaCapo, pjbb2005)
//! cannot ship with this reproduction, so each benchmark is re-expressed as a
//! *trace*: a phase-structured description of what the program does to the
//! machine -- its instruction mix, instruction-level parallelism, memory
//! locality, and branch behaviour -- plus generators that expand those
//! descriptions into concrete, deterministic event streams (memory addresses,
//! branch outcomes) for the structures that need them (caches, TLBs,
//! predictors).
//!
//! Everything here is seeded and reproducible: simulation results must be
//! bit-stable across runs, so no ambient entropy is ever consulted.
//!
//! # Example
//!
//! ```
//! # use std::error::Error;
//! # fn main() -> Result<(), Box<dyn Error>> {
//! use lhr_trace::{InstructionMix, LocalityProfile, Phase, SplitMix64, ThreadTrace};
//!
//! let mix = InstructionMix::builder()
//!     .int_alu(0.45)
//!     .fp(0.05)
//!     .load(0.25)
//!     .store(0.10)
//!     .branch(0.15)
//!     .build()?;
//! let phase = Phase::new("steady", 1.0, mix, 2.2, LocalityProfile::cache_resident(64 << 10))
//!     .with_branch_mispredict_rate(0.05);
//! let trace = ThreadTrace::new(vec![phase], 1_000_000_000)?;
//! assert_eq!(trace.total_instructions(), 1_000_000_000);
//!
//! let mut rng = SplitMix64::new(42);
//! let addrs: Vec<u64> = trace.phases()[0]
//!     .locality()
//!     .address_stream(&mut rng)
//!     .take(1024)
//!     .collect();
//! assert_eq!(addrs.len(), 1024);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod locality;
mod mix;
mod phase;
mod rng;

pub use locality::{AddressStream, LocalityProfile};
pub use mix::{InstructionClass, InstructionMix, MixBuilder, MixError};
pub use phase::{Phase, PhaseError, ThreadTrace};
pub use rng::{normal_from_uniforms, Rng64, SplitMix64, Xoshiro256StarStar};
