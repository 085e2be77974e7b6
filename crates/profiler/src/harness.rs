use std::collections::HashMap;

use gpu_sim::{AutotuneTable, Device, KernelCounters, TraceProfile};
use seqpoint_core::EpochLog;
use serde::{Deserialize, Serialize};
use sqnn::{IterationShape, Network};
use sqnn_data::EpochPlan;

use crate::phases::PhaseModel;
use crate::ProfileError;

/// Which per-iteration statistic to extract into an [`EpochLog`].
///
/// The paper identifies SeqPoints on runtime but notes any statistic that
/// varies with SL works (Section V-C); the motivation figures use the
/// counter statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum StatKind {
    /// Iteration wall time in seconds.
    Runtime,
    /// Vector-ALU instructions.
    ValuInsts,
    /// Bytes fetched past the L1 ("load data size").
    LoadBytes,
    /// Cycles stalled on memory writes.
    MemWriteStalls,
    /// DRAM traffic in bytes.
    DramBytes,
    /// Energy in joules (first-order model, [`gpu_sim::energy`]).
    EnergyJ,
}

impl StatKind {
    /// Display label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            StatKind::Runtime => "runtime",
            StatKind::ValuInsts => "valu_insts",
            StatKind::LoadBytes => "load_bytes",
            StatKind::MemWriteStalls => "mem_write_stalls",
            StatKind::DramBytes => "dram_bytes",
            StatKind::EnergyJ => "energy_j",
        }
    }

    fn extract(self, time_s: f64, c: &KernelCounters, energy_j: f64) -> f64 {
        match self {
            StatKind::Runtime => time_s,
            StatKind::ValuInsts => c.valu_insts,
            StatKind::LoadBytes => c.load_bytes,
            StatKind::MemWriteStalls => c.mem_write_stall_cycles,
            StatKind::DramBytes => c.dram_bytes,
            StatKind::EnergyJ => energy_j,
        }
    }
}

/// The measured profile of one training iteration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IterationProfile {
    /// The iteration's padded sequence length.
    pub seq_len: u32,
    /// Samples in the batch.
    pub samples: u32,
    /// Wall time in seconds.
    pub time_s: f64,
    /// Summed hardware counters.
    pub counters: KernelCounters,
    /// Energy in joules under the default [`gpu_sim::energy::EnergyModel`].
    pub energy_j: f64,
    /// Number of kernel launches.
    pub launches: u64,
    /// Full per-kernel breakdown (only with
    /// [`Profiler::with_kernel_detail`]).
    pub trace: Option<TraceProfile>,
}

impl IterationProfile {
    /// Extract one statistic.
    pub fn stat(&self, kind: StatKind) -> f64 {
        kind.extract(self.time_s, &self.counters, self.energy_j)
    }
}

/// The measured profile of one training epoch on one configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpochProfile {
    network: String,
    config: String,
    batch_size: u32,
    iterations: Vec<IterationProfile>,
    autotune_s: f64,
    eval_s: f64,
}

impl EpochProfile {
    /// The profiled network's name.
    pub fn network(&self) -> &str {
        &self.network
    }

    /// The hardware configuration's name.
    pub fn config(&self) -> &str {
        &self.config
    }

    /// The nominal batch size.
    pub fn batch_size(&self) -> u32 {
        self.batch_size
    }

    /// Per-iteration profiles in execution order.
    pub fn iterations(&self) -> &[IterationProfile] {
        &self.iterations
    }

    /// Number of iterations.
    pub fn iteration_count(&self) -> usize {
        self.iterations.len()
    }

    /// Total training time (iterations only), in seconds.
    pub fn training_time_s(&self) -> f64 {
        self.iterations.iter().map(|i| i.time_s).sum()
    }

    /// One-time autotune phase cost (Section IV-C2), in seconds.
    pub fn autotune_s(&self) -> f64 {
        self.autotune_s
    }

    /// Per-epoch evaluation-phase cost (Section IV-C1), in seconds.
    pub fn eval_s(&self) -> f64 {
        self.eval_s
    }

    /// Wall time including the non-training phases.
    pub fn total_time_s(&self) -> f64 {
        self.training_time_s() + self.autotune_s + self.eval_s
    }

    /// Samples processed across the epoch.
    pub fn total_samples(&self) -> u64 {
        self.iterations.iter().map(|i| u64::from(i.samples)).sum()
    }

    /// Training throughput in samples per second (the paper's speedup
    /// metric).
    pub fn throughput(&self) -> f64 {
        let t = self.training_time_s();
        if t <= 0.0 {
            return 0.0;
        }
        self.total_samples() as f64 / t
    }

    /// Convert to the [`EpochLog`] the SeqPoint pipeline consumes
    /// (runtime statistic).
    pub fn to_epoch_log(&self) -> EpochLog {
        self.to_epoch_log_of(StatKind::Runtime)
    }

    /// Convert to an [`EpochLog`] over an arbitrary statistic.
    pub fn to_epoch_log_of(&self, kind: StatKind) -> EpochLog {
        EpochLog::from_pairs(self.iterations.iter().map(|i| (i.seq_len, i.stat(kind))))
    }

    /// Mean iteration time of a given sequence length, if observed.
    pub fn mean_time_of(&self, seq_len: u32) -> Option<f64> {
        let (mut n, mut sum) = (0u32, 0.0);
        for i in &self.iterations {
            if i.seq_len == seq_len {
                n += 1;
                sum += i.time_s;
            }
        }
        (n > 0).then(|| sum / f64::from(n))
    }

    /// Per-iteration feature vectors (runtime share per kernel kind) for
    /// the k-means/SimPoint comparators. Requires kernel detail; returns
    /// `None` otherwise.
    pub fn feature_matrix(&self) -> Option<Vec<Vec<f64>>> {
        let kinds = gpu_sim::KernelKind::all();
        self.iterations
            .iter()
            .map(|i| {
                i.trace.as_ref().map(|t| {
                    let shares = t.runtime_shares_by_kind();
                    kinds
                        .iter()
                        .map(|k| shares.get(k).copied().unwrap_or(0.0))
                        .collect()
                })
            })
            .collect()
    }
}

/// The profiling harness. See the crate docs for the role it plays.
///
/// ```
/// use gpu_sim::{Device, GpuConfig};
/// use sqnn::models::ds2;
/// use sqnn_data::{BatchPolicy, Corpus, EpochPlan};
/// use sqnn_profiler::Profiler;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let corpus = Corpus::from_lengths("mini", vec![60, 80, 100, 120], 29);
/// let plan = EpochPlan::new(&corpus, BatchPolicy::sorted_first_epoch(2), 0)?;
/// let profile = Profiler::new().profile_epoch(&ds2(), &plan, &Device::new(GpuConfig::vega_fe()))?;
/// assert_eq!(profile.iteration_count(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    kernel_detail: bool,
    phases: PhaseModel,
}

impl Profiler {
    /// A profiler recording runtimes and counters only.
    pub fn new() -> Self {
        Profiler::default()
    }

    /// Also keep the full per-kernel breakdown per unique iteration shape
    /// (needed for the kernel-distribution figures and k-means features).
    pub fn with_kernel_detail(mut self) -> Self {
        self.kernel_detail = true;
        self
    }

    /// Override the non-training phase model.
    pub fn with_phases(mut self, phases: PhaseModel) -> Self {
        self.phases = phases;
        self
    }

    /// Profile one full training epoch.
    ///
    /// # Errors
    ///
    /// [`ProfileError::EmptyPlan`] if the plan has no iterations.
    pub fn profile_epoch(
        &self,
        network: &Network,
        plan: &EpochPlan,
        device: &Device,
    ) -> Result<EpochProfile, ProfileError> {
        if plan.iterations() == 0 {
            return Err(ProfileError::EmptyPlan);
        }
        let mut tuner = AutotuneTable::new();
        // Key observation 4: iterations with identical shape behave
        // identically; memoize per (seq_len, samples).
        let mut memo: HashMap<(u32, u32), IterationProfile> = HashMap::new();
        let mut iterations = Vec::with_capacity(plan.iterations());
        for batch in plan.batches() {
            let key = (batch.seq_len, batch.samples);
            let profile = match memo.get(&key) {
                Some(p) => p.clone(),
                None => {
                    let shape = IterationShape::new(batch.samples, batch.seq_len);
                    let p = self.run_iteration(network, &shape, device, &mut tuner);
                    memo.insert(key, p.clone());
                    p
                }
            };
            iterations.push(profile);
        }
        let eval_s = self.phases.eval_time_s(network, plan, device, &mut tuner);
        Ok(EpochProfile {
            network: network.name().to_owned(),
            config: device.config().name().to_owned(),
            batch_size: plan.batch_size(),
            iterations,
            autotune_s: tuner.tuning_cost_s(),
            eval_s,
        })
    }

    /// Profile a single training iteration of the given shape.
    pub fn profile_iteration(
        &self,
        network: &Network,
        shape: &IterationShape,
        device: &Device,
    ) -> IterationProfile {
        let mut tuner = AutotuneTable::new();
        self.run_iteration(network, shape, device, &mut tuner)
    }

    /// Profile one iteration per sequence length at a fixed batch size —
    /// the cross-configuration SeqPoint re-profiling flow.
    pub fn profile_seq_lens(
        &self,
        network: &Network,
        batch: u32,
        seq_lens: &[u32],
        device: &Device,
    ) -> Vec<IterationProfile> {
        let mut tuner = AutotuneTable::new();
        seq_lens
            .iter()
            .map(|&sl| {
                self.run_iteration(network, &IterationShape::new(batch, sl), device, &mut tuner)
            })
            .collect()
    }

    fn run_iteration(
        &self,
        network: &Network,
        shape: &IterationShape,
        device: &Device,
        tuner: &mut AutotuneTable,
    ) -> IterationProfile {
        let profile = network.iteration_profile(shape, device, tuner);
        let energy_j =
            gpu_sim::energy::EnergyModel::default().trace_energy_j(device.config(), &profile);
        IterationProfile {
            seq_len: shape.src_len,
            samples: shape.batch,
            time_s: profile.total_time_s(),
            counters: profile.counters(),
            energy_j,
            launches: profile.launches(),
            trace: self.kernel_detail.then_some(profile),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::GpuConfig;
    use sqnn::models::{ds2_with, gnmt_with};
    use sqnn_data::{BatchPolicy, Corpus};

    fn small_net() -> Network {
        gnmt_with(500, 64)
    }

    fn plan(lengths: &[u32], batch: u32) -> EpochPlan {
        let corpus = Corpus::from_lengths("t", lengths.to_vec(), 500);
        EpochPlan::new(&corpus, BatchPolicy::sorted_first_epoch(batch), 0).unwrap()
    }

    #[test]
    fn epoch_profile_covers_every_iteration() {
        let p = plan(&[10, 10, 20, 20, 30, 30], 2);
        let device = Device::new(GpuConfig::vega_fe());
        let profile = Profiler::new()
            .profile_epoch(&small_net(), &p, &device)
            .unwrap();
        assert_eq!(profile.iteration_count(), 3);
        assert_eq!(profile.total_samples(), 6);
        assert!(profile.training_time_s() > 0.0);
        assert!(profile.throughput() > 0.0);
        assert!(profile.autotune_s() > 0.0);
        assert!(profile.eval_s() > 0.0);
    }

    #[test]
    fn memoization_matches_direct_profiling() {
        // Two iterations with the same shape must have identical profiles.
        let p = plan(&[15, 15, 15, 15], 2);
        let device = Device::new(GpuConfig::vega_fe());
        let profile = Profiler::new()
            .profile_epoch(&small_net(), &p, &device)
            .unwrap();
        assert_eq!(profile.iterations()[0], profile.iterations()[1]);
    }

    #[test]
    fn epoch_log_preserves_order_and_stats() {
        let p = plan(&[10, 20, 30, 40], 1);
        let device = Device::new(GpuConfig::vega_fe());
        let profile = Profiler::new()
            .profile_epoch(&small_net(), &p, &device)
            .unwrap();
        let log = profile.to_epoch_log();
        assert_eq!(log.len(), 4);
        // Sorted plan: ascending SLs, ascending runtimes.
        let stats: Vec<f64> = log.records().iter().map(|r| r.stat).collect();
        assert!(stats.windows(2).all(|w| w[0] <= w[1]));
        assert!((log.actual_total() - profile.training_time_s()).abs() < 1e-9);
    }

    #[test]
    fn counter_logs_differ_from_runtime_logs() {
        let p = plan(&[10, 40], 1);
        let device = Device::new(GpuConfig::vega_fe());
        let profile = Profiler::new()
            .profile_epoch(&small_net(), &p, &device)
            .unwrap();
        let runtime = profile.to_epoch_log_of(StatKind::Runtime);
        let valu = profile.to_epoch_log_of(StatKind::ValuInsts);
        assert_ne!(runtime.actual_total(), valu.actual_total());
        assert!(valu.actual_total() > 0.0);
    }

    #[test]
    fn kernel_detail_enables_features() {
        let p = plan(&[10, 40], 1);
        let device = Device::new(GpuConfig::vega_fe());
        let plain = Profiler::new()
            .profile_epoch(&small_net(), &p, &device)
            .unwrap();
        assert!(plain.feature_matrix().is_none());
        let detailed = Profiler::new()
            .with_kernel_detail()
            .profile_epoch(&small_net(), &p, &device)
            .unwrap();
        let features = detailed.feature_matrix().unwrap();
        assert_eq!(features.len(), 2);
        assert_eq!(features[0].len(), gpu_sim::KernelKind::all().len());
        let share_sum: f64 = features[0].iter().sum();
        assert!((share_sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn profile_seq_lens_matches_epoch_means() {
        let p = plan(&[10, 20, 20, 30], 1);
        let device = Device::new(GpuConfig::vega_fe());
        let net = small_net();
        let epoch = Profiler::new().profile_epoch(&net, &p, &device).unwrap();
        let reprofiled = Profiler::new().profile_seq_lens(&net, 1, &[20], &device);
        assert!((reprofiled[0].time_s - epoch.mean_time_of(20).unwrap()).abs() < 1e-12);
    }

    #[test]
    fn ds2_profiles_run_end_to_end() {
        let corpus = Corpus::from_lengths("mini-speech", vec![60, 90, 120, 150], 29);
        let p = EpochPlan::new(&corpus, BatchPolicy::sorted_first_epoch(2), 0).unwrap();
        let device = Device::new(GpuConfig::vega_fe());
        let profile = Profiler::new()
            .profile_epoch(&ds2_with(29, 64), &p, &device)
            .unwrap();
        assert_eq!(profile.iteration_count(), 2);
        assert!(profile.iterations()[1].time_s > profile.iterations()[0].time_s);
    }

    #[test]
    fn empty_plan_is_rejected() {
        let p = EpochPlan::from_batches("e", 1, 1, Vec::new());
        let device = Device::new(GpuConfig::vega_fe());
        assert_eq!(
            Profiler::new().profile_epoch(&small_net(), &p, &device),
            Err(ProfileError::EmptyPlan)
        );
    }

    #[test]
    fn stat_kind_labels_are_distinct() {
        let kinds = [
            StatKind::Runtime,
            StatKind::ValuInsts,
            StatKind::LoadBytes,
            StatKind::MemWriteStalls,
            StatKind::DramBytes,
            StatKind::EnergyJ,
        ];
        let mut labels: Vec<&str> = kinds.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), kinds.len());
    }

    #[test]
    fn energy_stat_is_populated_and_sl_dependent() {
        let p = plan(&[10, 40], 1);
        let device = Device::new(GpuConfig::vega_fe());
        let profile = Profiler::new()
            .profile_epoch(&small_net(), &p, &device)
            .unwrap();
        let short = profile.iterations()[0].stat(StatKind::EnergyJ);
        let long = profile.iterations()[1].stat(StatKind::EnergyJ);
        assert!(short > 0.0);
        assert!(long > short);
    }
}
