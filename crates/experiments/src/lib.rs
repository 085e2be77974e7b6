//! # seqpoint-experiments — regenerating every table and figure
//!
//! One module per artifact of the paper's evaluation (the table below is
//! the index). Each module exposes a `run(&mut Workloads)`
//! function returning a rendered [`sqnn_profiler::report::Table`] plus
//! the headline numbers the paper quotes, so the `repro` binary and the
//! integration tests share one implementation.
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`fig03`] | Fig. 3 — CNN vs SQNN iteration homogeneity |
//! | [`fig04`] | Fig. 4 — architectural statistics across iterations |
//! | [`table1`] | Table I — GEMM dimensions across iterations |
//! | [`fig05`] | Fig. 5 — unique-kernel overlap between iterations |
//! | [`fig06`] | Fig. 6 — kernel runtime distribution by SL |
//! | [`fig07`] | Fig. 7 — sequence-length histograms |
//! | [`fig08`] | Fig. 8 — execution-profile similarity of close SLs |
//! | [`fig09`] | Fig. 9 — runtime vs SL linearity |
//! | [`table2`] | Table II — hardware configurations |
//! | [`projection`] | Figs. 11–12 — training-time projection errors |
//! | [`sensitivity`] | Figs. 13–14 — per-SL throughput-uplift sensitivity |
//! | [`speedup`] | Figs. 15–16 — speedup projection errors |
//! | [`profiling_speedup`] | §VI-F — profiling-time reduction factors |
//! | [`kmeans_ablation`] | §VII-C — k-means vs SL binning |
//! | [`ablations`] | Fig. 10 design choices — representative rule, binning, `e`, `prior` window |
//! | [`extensions`] | §VII-B/E — Transformer and inference binning |
//! | [`streaming`] | extension — sharded online selection vs full epoch |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod context;

pub mod ablations;
pub mod extensions;
pub mod fig03;
pub mod fig04;
pub mod fig05;
pub mod fig06;
pub mod fig07;
pub mod fig08;
pub mod fig09;
pub mod kmeans_ablation;
pub mod larger_datasets;
pub mod profiling_speedup;
pub mod projection;
pub mod sensitivity;
pub mod speedup;
pub mod streaming;
pub mod table1;
pub mod table2;

pub use context::{identification_config, paper_baselines, prior_baseline, Net, Scale, Workloads};
