//! Parallel SeqPoint profiling (paper Section VI-F).
//!
//! "Given each SeqPoint is an independent iteration, they can be executed
//! in parallel (on different machines) which further speeds up profiling
//! by 214× and 345×" — this module reproduces that: each sequence length
//! is profiled on its own thread with its own simulated device, and the
//! wall time of the parallel profile equals the *maximum* SeqPoint time
//! rather than the sum.

use gpu_sim::Device;
use sqnn::Network;

use crate::stream::join_shard;
use crate::{IterationProfile, ProfileError, Profiler};

/// Profile one iteration per sequence length concurrently, one thread
/// per SL (each standing for a separate profiling machine).
///
/// Results are returned in the order of `seq_lens`, identical to what
/// [`Profiler::profile_seq_lens`] produces serially.
///
/// # Errors
///
/// [`ProfileError::Executor`] when a profiling thread panics.
pub fn profile_seq_lens_parallel(
    profiler: &Profiler,
    network: &Network,
    batch: u32,
    seq_lens: &[u32],
    device: &Device,
) -> Result<Vec<IterationProfile>, ProfileError> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = seq_lens
            .iter()
            .map(|&sl| {
                let device = device.clone();
                scope.spawn(move || {
                    profiler
                        .profile_seq_lens(network, batch, &[sl], &device)
                        .remove(0)
                })
            })
            .collect();
        // Join every handle before looking at any result: a panicked
        // thread left unjoined would re-panic when the scope closes.
        let joined: Vec<_> = handles.into_iter().map(join_shard).collect();
        joined.into_iter().collect()
    })
}

/// The serial and parallel profiling costs of a SeqPoint set: the sum and
/// the maximum of the per-SL times (Section VI-F's two speedup flavours).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfilingCost {
    /// Total time when SeqPoints run back to back on one machine.
    pub serial_s: f64,
    /// Wall time when each SeqPoint runs on its own machine.
    pub parallel_s: f64,
}

/// Compute the profiling cost of a set of per-SL iteration profiles.
pub fn profiling_cost(profiles: &[IterationProfile]) -> ProfilingCost {
    ProfilingCost {
        serial_s: profiles.iter().map(|p| p.time_s).sum(),
        parallel_s: profiles.iter().map(|p| p.time_s).fold(0.0, f64::max),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::GpuConfig;
    use sqnn::models::gnmt_with;

    #[test]
    fn parallel_matches_serial_results() {
        let net = gnmt_with(200, 32);
        let device = Device::new(GpuConfig::vega_fe());
        let profiler = Profiler::new();
        let sls = [5, 10, 20, 40];
        let serial = profiler.profile_seq_lens(&net, 4, &sls, &device);
        let parallel = profile_seq_lens_parallel(&profiler, &net, 4, &sls, &device).unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn cost_summary_sums_and_maxes() {
        let net = gnmt_with(200, 32);
        let device = Device::new(GpuConfig::vega_fe());
        let profiles = Profiler::new().profile_seq_lens(&net, 4, &[5, 10, 20], &device);
        let cost = profiling_cost(&profiles);
        assert!(cost.serial_s > cost.parallel_s);
        assert!((cost.parallel_s - profiles[2].time_s).abs() < 1e-12);
        let sum: f64 = profiles.iter().map(|p| p.time_s).sum();
        assert!((cost.serial_s - sum).abs() < 1e-12);
    }

    #[test]
    fn empty_set_costs_nothing() {
        let cost = profiling_cost(&[]);
        assert_eq!(cost.serial_s, 0.0);
        assert_eq!(cost.parallel_s, 0.0);
    }
}
