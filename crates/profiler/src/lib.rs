//! # sqnn-profiler — the profiling harness
//!
//! This crate plays the role of the paper's Radeon Compute Profiler
//! setup: it runs one training epoch of a [`sqnn::Network`] over an
//! [`sqnn_data::EpochPlan`] on a simulated [`gpu_sim::Device`] and
//! records, per iteration, the runtime and hardware counters (and
//! optionally the full per-kernel breakdown).
//!
//! It exploits the paper's key observation 4 — iterations with the same
//! input shape behave identically (absent data-dependent optimizations) —
//! by memoizing iteration profiles per unique `(seq_len, samples)` pair,
//! which is also what makes simulating full epochs cheap.
//!
//! Beyond epoch profiling it provides:
//!
//! * [`Profiler::profile_seq_lens`] — re-profile only a SeqPoint set's
//!   sequence lengths on a new hardware configuration (the paper's
//!   cross-configuration projection flow);
//! * [`parallel::profile_seq_lens_parallel`] — the Section VI-F
//!   observation that SeqPoints are independent iterations and can be
//!   profiled on separate machines concurrently;
//! * [`stream::profile_epoch_streaming`] — sharded streaming ingestion
//!   with saturation early stop: the epoch log is never materialized,
//!   worker shards profile rounds concurrently, and selection runs on
//!   merged streamed counts;
//! * evaluation-phase and autotune-phase cost models (Section IV-C);
//! * [`export`] — SeqPoint kernel-trace bundles for architecture-
//!   simulator hand-off (Section VII-A);
//! * [`report`] — markdown/CSV table rendering for the experiment
//!   drivers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod harness;
mod phases;

pub mod export;
pub mod parallel;
pub mod pipeline;
pub mod report;
pub mod stream;
#[cfg(test)]
mod test_support;

pub use error::ProfileError;
pub use harness::{EpochProfile, IterationProfile, Profiler, StatKind};
pub use phases::PhaseModel;
