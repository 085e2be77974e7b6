//! # sqnn — sequence-based neural networks as kernel emitters
//!
//! The SeqPoint paper profiles two end-to-end MLPerf networks — Google's
//! Neural Machine Translation (GNMT) and Baidu's DeepSpeech2 (DS2) — on a
//! real GPU. This crate is the substitute: layer-level models of those
//! networks (plus a fixed-input CNN for the paper's Fig. 3 contrast and a
//! Transformer for the Section VII-B generality discussion) that *emit the
//! kernel sequence* of one training iteration given an input batch shape.
//!
//! The simulator prices each kernel on a [`gpu_sim::Device`] as it is
//! emitted ([`Network::iteration_profile`]), so profiling a shape never
//! holds its unrolled trace. [`Network::iteration_trace`] collects the
//! same kernels into a trace instead, for export and inspection; running
//! that trace gives the same profile bit for bit.
//!
//! The emitted kernels reproduce the structural facts the paper's analysis
//! rests on:
//!
//! * recurrent layers unroll per time step while attention, convolution,
//!   and classifier layers process whole sequences (key observation 1);
//! * GEMM operand shapes scale with sequence length, matching Table I
//!   (the GNMT classifier runs `M=36549, K=1024, N=64·T`; DS2's runs
//!   `M=29, K=1600, N=64·T`);
//! * which kernels are invoked changes with sequence length through tile
//!   variant selection and size-bucketed dispatch (key observation 2);
//! * an optimizer pass whose cost is independent of sequence length gives
//!   iteration runtime its constant component.
//!
//! ```
//! use gpu_sim::{AutotuneTable, Device, GpuConfig};
//! use sqnn::{models::gnmt, IterationShape};
//!
//! let net = gnmt();
//! let device = Device::new(GpuConfig::vega_fe());
//! let mut tuner = AutotuneTable::new();
//! let shape = IterationShape::new(64, 40);
//! let profile = net.iteration_profile(&shape, &device, &mut tuner);
//! assert!(profile.total_time_s() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod layer;
mod network;
mod shape;
mod trace;

pub mod layers;
pub mod models;

pub use error::ModelError;
pub use layer::Layer;
pub use network::{Network, NetworkBuilder, Optimizer};
pub use shape::{IterationShape, Stream};
pub use trace::TraceCtx;
