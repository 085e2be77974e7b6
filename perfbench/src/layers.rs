//! Measuring the program's layers from outside: a pass-through
//! [`RoundExecutor`] that times and counts the graph's calls into its
//! placement, and re-timing of a job's unique shapes through the public
//! `sqnn` and `gpu_sim` entry points.

use std::collections::BTreeSet;
use std::hint::black_box;

use gpu_sim::{AutotuneTable, Device};
use seqpoint_service::spec;
use sqnn::{IterationShape, Network};
use sqnn_data::EpochPlan;
use sqnn_profiler::stream::{RoundExecutor, ShardChunk, ShardReport};
use sqnn_profiler::{IterationProfile, ProfileError, Profiler};

use crate::trace::Tracer;

/// What an in-process job runs on: the one-time set-up `setup_s` times.
pub struct Rig {
    pub network: Network,
    pub device: Device,
    pub profiler: Profiler,
}

/// Build the named bundled model, the Table II config 1 device and a
/// profiler, as `seqpoint stream` and `seqpoint simulate` do.
pub fn set_up(model: &str) -> Result<Rig, String> {
    Ok(Rig {
        network: spec::model_by_name(model).map_err(|e| e.to_string())?,
        device: spec::device_by_config(1).map_err(|e| e.to_string())?,
        profiler: Profiler::new(),
    })
}

/// Wraps the executor the graph would use and records each
/// `execute_round` (the fold) and `profile_shape` (a replay miss).
pub struct Probe<'a, E> {
    pub inner: E,
    pub tracer: &'a Tracer,
    pub job: u64,
    pub rounds: u64,
    pub replay_misses: u64,
}

impl<'a, E: RoundExecutor> Probe<'a, E> {
    pub fn new(inner: E, tracer: &'a Tracer, job: u64) -> Self {
        Probe {
            inner,
            tracer,
            job,
            rounds: 0,
            replay_misses: 0,
        }
    }
}

impl<E: RoundExecutor> RoundExecutor for Probe<'_, E> {
    fn execute_round(&mut self, chunks: &[ShardChunk]) -> Result<Vec<ShardReport>, ProfileError> {
        self.rounds += 1;
        let inner = &mut self.inner;
        self.tracer.span("sqnn_profiler.fold", self.job, || {
            inner.execute_round(chunks)
        })
    }

    fn profile_shape(&mut self, shape: IterationShape) -> Result<IterationProfile, ProfileError> {
        self.replay_misses += 1;
        let inner = &mut self.inner;
        self.tracer.span("sqnn_profiler.replay", self.job, || {
            inner.profile_shape(shape)
        })
    }

    fn seed_shapes(&mut self, shapes: &[IterationProfile]) {
        self.inner.seed_shapes(shapes);
    }
}

/// The distinct `(seq_len, samples)` shapes of a plan, sorted.
pub fn unique_shapes(plan: &EpochPlan) -> Vec<(u32, u32)> {
    let mut shapes: Vec<(u32, u32)> = plan
        .batches()
        .iter()
        .map(|b| (b.seq_len, b.samples))
        .collect();
    shapes.sort_unstable();
    shapes.dedup();
    shapes
}

/// How the program tunes kernels while simulating a job's shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tuner {
    /// A fresh autotune table per shape, as each streamed shape
    /// simulation builds one.
    ColdPerShape,
    /// One table kept warm across shapes, as the offline profiler keeps
    /// one per epoch.
    Warm,
}

/// Re-times trace generation (`Network::iteration_trace`) and trace
/// execution (`Device::run_trace`) outside the jobs, once per shape: a
/// shape is re-timed under the first job that touches it.
pub struct Retimer {
    tuner: Tuner,
    table: AutotuneTable,
    seen: BTreeSet<(u32, u32)>,
    /// Shapes re-timed so far.
    pub shapes: u64,
    /// Kernels their traces held.
    pub kernels: u64,
}

impl Retimer {
    pub fn new(tuner: Tuner) -> Self {
        Retimer {
            tuner,
            table: AutotuneTable::new(),
            seen: BTreeSet::new(),
            shapes: 0,
            kernels: 0,
        }
    }

    /// Re-time the shapes of `job` not re-timed before, recording spans
    /// when the tracer is on (trace execution only then). Returns the
    /// kernels generated.
    pub fn retime(
        &mut self,
        network: &Network,
        device: &Device,
        shapes: &[(u32, u32)],
        tracer: &Tracer,
        job: u64,
    ) -> u64 {
        let mut kernels = 0;
        for &(seq_len, samples) in shapes {
            if !self.seen.insert((seq_len, samples)) {
                continue;
            }
            if self.tuner == Tuner::ColdPerShape {
                self.table = AutotuneTable::new();
            }
            let shape = IterationShape::new(samples, seq_len);
            let table = &mut self.table;
            let trace = tracer.span("sqnn.trace", job, || {
                network.iteration_trace(&shape, device.config(), table)
            });
            kernels += trace.len() as u64;
            if tracer.enabled() {
                let profile =
                    tracer.span("gpu_sim.run", job, || device.run_trace(black_box(&trace)));
                black_box(profile);
            }
            self.shapes += 1;
        }
        self.kernels += kernels;
        kernels
    }
}
