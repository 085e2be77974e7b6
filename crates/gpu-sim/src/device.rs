use serde::{Deserialize, Serialize};

use crate::{
    kernel_time, GpuConfig, KernelCounters, KernelDesc, KernelTiming, Launcher, TraceProfile,
};

/// A deterministic model of real-hardware run-to-run variation.
///
/// Real GPUs show small timing jitter (clock ramping, DVFS, contention).
/// The paper's motivation figures (Figs. 3–4) rely on the contrast between
/// CNNs — whose iteration-to-iteration variation is only this noise — and
/// SQNNs, whose variation is dominated by sequence length. Jitter lets
/// experiments show that contrast without sacrificing reproducibility:
/// the perturbation is a pure function of `(seed, kernel name, index)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JitterModel {
    /// Maximum relative perturbation (e.g. `0.02` for ±2%).
    pub amplitude: f64,
    /// Seed for the deterministic hash.
    pub seed: u64,
}

impl JitterModel {
    /// Create a jitter model with the given relative `amplitude` and `seed`.
    pub fn new(amplitude: f64, seed: u64) -> Self {
        JitterModel {
            amplitude: amplitude.clamp(0.0, 0.5),
            seed,
        }
    }

    /// Multiplicative factor in `[1 - amplitude, 1 + amplitude]` for the
    /// `index`-th launch of kernel `name`.
    pub fn factor(&self, name: &str, index: u64) -> f64 {
        self.factor_from(self.name_state(name), index)
    }

    /// The hash state with `name` folded in: the part of a factor that is
    /// the same for every launch of one kernel.
    pub(crate) fn name_state(&self, name: &str) -> u64 {
        let mut h = self.seed ^ 0x9e37_79b9_7f4a_7c15;
        for &b in name.as_bytes() {
            h = splitmix64(h ^ u64::from(b));
        }
        h
    }

    /// [`JitterModel::factor`] from a name's [`JitterModel::name_state`].
    pub(crate) fn factor_from(&self, name_state: u64, index: u64) -> f64 {
        let h = splitmix64(name_state ^ index);
        // Map to [0, 1) then to [1-a, 1+a].
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
        1.0 + self.amplitude * (2.0 * unit - 1.0)
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A simulated GPU: a [`GpuConfig`] plus an optional [`JitterModel`].
///
/// The device executes kernels serially (one queue, as in the paper's
/// profiled TensorFlow/ROCm stack) through a [`Launcher`], which produces
/// a [`TraceProfile`] with per-kernel and total runtimes plus performance
/// counters. [`Device::run_trace`] launches a collected trace;
/// [`Device::launcher`] takes kernels one at a time, as they are emitted.
///
/// ```
/// use gpu_sim::{Device, GpuConfig, KernelDesc, KernelKind};
///
/// let device = Device::new(GpuConfig::vega_fe());
/// let trace = vec![
///     KernelDesc::builder("ew_relu_v4", KernelKind::Elementwise)
///         .flops(1e6).read_bytes(4e6).write_bytes(4e6).workgroups(512.0)
///         .build(),
/// ];
/// let profile = device.run_trace(&trace);
/// assert_eq!(profile.launches(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Device {
    config: GpuConfig,
    jitter: Option<JitterModel>,
}

impl Device {
    /// Create a noise-free device for `config`.
    pub fn new(config: GpuConfig) -> Self {
        Device {
            config,
            jitter: None,
        }
    }

    /// Create a device whose kernel times are perturbed by `jitter`.
    pub fn with_jitter(config: GpuConfig, jitter: JitterModel) -> Self {
        Device {
            config,
            jitter: Some(jitter),
        }
    }

    /// The device's hardware configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.config
    }

    /// The jitter model, if any.
    pub fn jitter(&self) -> Option<&JitterModel> {
        self.jitter.as_ref()
    }

    /// Time a single kernel (without jitter), returning the timing
    /// breakdown and derived counters.
    pub fn run_kernel(&self, kernel: &KernelDesc) -> (KernelTiming, KernelCounters) {
        let timing = kernel_time(&self.config, kernel);
        let counters = KernelCounters::from_timing(&self.config, kernel, &timing);
        (timing, counters)
    }

    /// Start a serial launch stream on this device. Launch `i` of the
    /// stream draws its jitter factor from the kernel's name and `i`, so a
    /// stream fed kernel by kernel equals the same kernels run as a trace.
    pub fn launcher(&self) -> Launcher<'_> {
        Launcher::new(self)
    }

    /// Execute a kernel trace serially and aggregate the results.
    pub fn run_trace(&self, trace: &[KernelDesc]) -> TraceProfile {
        let mut launcher = self.launcher();
        for kernel in trace {
            launcher.launch(kernel);
        }
        launcher.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KernelKind;

    fn trace() -> Vec<KernelDesc> {
        (0..10)
            .map(|i| {
                KernelDesc::builder(format!("k{}", i % 3), KernelKind::Elementwise)
                    .flops(1e7)
                    .read_bytes(4e6)
                    .write_bytes(4e6)
                    .workgroups(256.0)
                    .build()
            })
            .collect()
    }

    #[test]
    fn run_trace_is_deterministic() {
        let d = Device::new(GpuConfig::vega_fe());
        let t = trace();
        assert_eq!(d.run_trace(&t), d.run_trace(&t));
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let j = JitterModel::new(0.02, 42);
        let t = trace();
        let d1 = Device::with_jitter(GpuConfig::vega_fe(), j);
        let d2 = Device::with_jitter(GpuConfig::vega_fe(), j);
        let p1 = d1.run_trace(&t);
        let p2 = d2.run_trace(&t);
        assert_eq!(p1, p2);
        let clean = Device::new(GpuConfig::vega_fe()).run_trace(&t);
        let ratio = p1.total_time_s() / clean.total_time_s();
        assert!(ratio > 0.98 && ratio < 1.02, "ratio = {ratio}");
        // Jitter changes the total relative to the clean run.
        assert_ne!(p1.total_time_s(), clean.total_time_s());
    }

    #[test]
    fn different_seeds_give_different_jitter() {
        let t = trace();
        let a = Device::with_jitter(GpuConfig::vega_fe(), JitterModel::new(0.02, 1)).run_trace(&t);
        let b = Device::with_jitter(GpuConfig::vega_fe(), JitterModel::new(0.02, 2)).run_trace(&t);
        assert_ne!(a.total_time_s(), b.total_time_s());
    }

    #[test]
    fn jitter_factor_range() {
        let j = JitterModel::new(0.1, 7);
        for i in 0..1000 {
            let f = j.factor("kernel", i);
            assert!((0.9..=1.1).contains(&f), "factor {f} out of range");
        }
    }

    #[test]
    fn amplitude_is_clamped() {
        let j = JitterModel::new(5.0, 0);
        assert_eq!(j.amplitude, 0.5);
        let j = JitterModel::new(-1.0, 0);
        assert_eq!(j.amplitude, 0.0);
    }

    #[test]
    fn trace_profile_counts_all_launches() {
        let d = Device::new(GpuConfig::vega_fe());
        let t = trace();
        let p = d.run_trace(&t);
        assert_eq!(p.launches(), 10);
        assert_eq!(p.unique_kernel_count(), 3);
    }
}
