//! Crash-safe artifact writes and content checksums for `repro_out/`,
//! re-exported from their home in [`lhr_obs::sealed`] under the paths
//! the end-to-end benchmark imports.

pub use lhr_obs::sealed::{fnv64, write_atomic};
