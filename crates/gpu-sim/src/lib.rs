//! # gpu-sim — an analytic GPU timing and counter simulator
//!
//! The SeqPoint paper profiles SQNN training on a real AMD Radeon Vega
//! Frontier Edition GPU. This crate is the substitute substrate: a
//! deterministic, analytic model of a Vega-class GPU that prices kernels
//! ([`KernelDesc`]) as they are launched and reports per-kernel and
//! per-iteration runtimes plus the performance counters the paper relies on
//! (vector-ALU instructions, memory-write stalls, load data size).
//! A [`Launcher`] from [`Device::launcher`] prices each kernel into a
//! [`TraceProfile`] as it is emitted, so a caller never has to hold a
//! whole iteration's trace; [`Device::run_trace`] runs a collected trace
//! through the same path. A launcher prices each distinct launch once
//! and reuses that price for every repeat of it.
//! Every emitter names its kernels with a `&'static str`, a literal or
//! one that [`kernel_name`] joins from static parts in a process-wide
//! table, and the [`AutotuneTable`] looks tuned GEMMs up by
//! `(&'static str, shape)`, so emitting and pricing a kernel does not
//! allocate.
//!
//! The model captures exactly the mechanisms the paper attributes iteration
//! heterogeneity to:
//!
//! * **Roofline timing** — each kernel's runtime is the maximum of its
//!   compute time, L2 time, and DRAM time plus a fixed launch overhead, so
//!   small-sequence-length iterations are launch/memory bound and large ones
//!   are compute bound.
//! * **Cache capacity model** — working-set-based L1/L2 hit rates; setting a
//!   cache's size to zero disables it (the paper's configs #4 and #5).
//! * **Occupancy** — kernels with too few workgroups cannot fill all compute
//!   units, which makes CU-count changes (config #3) sequence-length
//!   sensitive.
//! * **Kernel variant selection** — a rocBLAS-like tiled-GEMM variant
//!   library plus an autotune pass picks different kernels for different
//!   shapes, reproducing the paper's observation that *which* kernels run
//!   changes with sequence length (Fig. 5).
//!
//! ## Example
//!
//! ```
//! use gpu_sim::{gemm::GemmShape, AutotuneTable, Device, GpuConfig};
//!
//! # fn main() -> Result<(), gpu_sim::SimError> {
//! let device = Device::new(GpuConfig::vega_fe());
//! let mut tuner = AutotuneTable::new();
//! let kernel = tuner.gemm(device.config(), GemmShape::new(1024, 1024, 4096));
//! let profile = device.run_trace(std::slice::from_ref(&kernel));
//! assert!(profile.total_time_s() > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod autotune;
mod cache;
mod config;
mod counters;
mod device;
mod error;
mod kernel;
mod launcher;
mod names;
mod timing;

pub mod conv;
pub mod elementwise;
pub mod energy;
pub mod gemm;
pub mod memops;
pub mod reduce;
pub mod trace_format;

pub use autotune::{AutotuneTable, KeyHash};
pub use cache::{capture_fraction, CacheModel};
pub use config::{GpuConfig, GpuConfigBuilder, TABLE2_CONFIG_COUNT};
pub use counters::{KernelAgg, KernelCounters, TraceProfile};
pub use device::{Device, JitterModel};
pub use error::SimError;
pub use kernel::{KernelDesc, KernelDescBuilder, KernelKind};
pub use launcher::Launcher;
pub use names::kernel_name;
pub use timing::{kernel_time, KernelTiming};
