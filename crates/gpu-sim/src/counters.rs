use std::collections::BTreeMap;
use std::ops::{Add, AddAssign};

use serde::{Deserialize, Serialize};

use crate::{GpuConfig, KernelDesc, KernelKind, KernelTiming};

/// Hardware performance counters for one kernel invocation (or a sum over
/// many), mirroring the Radeon Compute Profiler statistics the paper uses
/// in its motivation (Fig. 4): vector-ALU instructions, load data size, and
/// memory-write stalls.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct KernelCounters {
    /// Vector-ALU instructions issued.
    pub valu_insts: f64,
    /// Bytes fetched past the L1 ("load data size").
    pub load_bytes: f64,
    /// Bytes written by stores.
    pub store_bytes: f64,
    /// Bytes exchanged with DRAM.
    pub dram_bytes: f64,
    /// Bytes presented to the L2 interconnect.
    pub l2_bytes: f64,
    /// Cycles stalled on memory writes.
    pub mem_write_stall_cycles: f64,
}

impl KernelCounters {
    /// Derive counters from a kernel's descriptor and its resolved timing.
    pub fn from_timing(cfg: &GpuConfig, kernel: &KernelDesc, timing: &KernelTiming) -> Self {
        // One VALU instruction per lane-wide FMA: flops / (2 * lanes).
        let valu_insts = kernel.flops() / (2.0 * f64::from(cfg.lanes_per_cu())).max(1.0);
        let post_l1 = timing.cache.l2_read_bytes + kernel.write_bytes();
        let requested = kernel.read_bytes() + kernel.write_bytes();
        let write_share = if requested > 0.0 {
            kernel.write_bytes() / requested
        } else {
            0.0
        };
        let exec_s = timing.time_s - timing.launch_s;
        let stall_s = (exec_s - timing.compute_s).max(0.0) * write_share;
        KernelCounters {
            valu_insts,
            load_bytes: timing.cache.l2_read_bytes,
            store_bytes: kernel.write_bytes(),
            dram_bytes: timing.cache.dram_bytes,
            l2_bytes: post_l1,
            mem_write_stall_cycles: stall_s * cfg.gclk_hz(),
        }
    }
}

impl Add for KernelCounters {
    type Output = KernelCounters;

    fn add(mut self, rhs: KernelCounters) -> KernelCounters {
        self += rhs;
        self
    }
}

impl AddAssign for KernelCounters {
    fn add_assign(&mut self, rhs: KernelCounters) {
        self.valu_insts += rhs.valu_insts;
        self.load_bytes += rhs.load_bytes;
        self.store_bytes += rhs.store_bytes;
        self.dram_bytes += rhs.dram_bytes;
        self.l2_bytes += rhs.l2_bytes;
        self.mem_write_stall_cycles += rhs.mem_write_stall_cycles;
    }
}

/// Aggregated statistics for all invocations of one kernel (by name)
/// within a trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelAgg {
    /// The kernel's computation class.
    pub kind: KernelKind,
    /// Number of invocations.
    pub invocations: u64,
    /// Total wall time across invocations, in seconds.
    pub time_s: f64,
    /// Summed counters across invocations.
    pub counters: KernelCounters,
}

/// The result of executing a kernel trace on a [`crate::Device`]: total
/// runtime, summed counters, and a per-kernel-name breakdown.
///
/// This is the simulator's equivalent of one profiled GPU "iteration".
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TraceProfile {
    total_time_s: f64,
    launches: u64,
    counters: KernelCounters,
    by_kernel: BTreeMap<String, KernelAgg>,
}

impl TraceProfile {
    /// Create an empty profile.
    pub fn new() -> Self {
        TraceProfile::default()
    }

    /// A profile from a launch stream's totals and per-kernel aggregates.
    pub(crate) fn from_parts(
        total_time_s: f64,
        launches: u64,
        counters: KernelCounters,
        by_kernel: BTreeMap<String, KernelAgg>,
    ) -> Self {
        TraceProfile {
            total_time_s,
            launches,
            counters,
            by_kernel,
        }
    }

    /// Total wall time of the trace, in seconds.
    pub fn total_time_s(&self) -> f64 {
        self.total_time_s
    }

    /// Total number of kernel launches.
    pub fn launches(&self) -> u64 {
        self.launches
    }

    /// Summed counters over the whole trace.
    pub fn counters(&self) -> KernelCounters {
        self.counters
    }

    /// Per-kernel-name aggregation (deterministically ordered by name).
    pub fn by_kernel(&self) -> &BTreeMap<String, KernelAgg> {
        &self.by_kernel
    }

    /// The set of unique kernel names invoked.
    pub fn unique_kernels(&self) -> impl Iterator<Item = &str> {
        self.by_kernel.keys().map(String::as_str)
    }

    /// Number of unique kernel names invoked.
    pub fn unique_kernel_count(&self) -> usize {
        self.by_kernel.len()
    }

    /// Wall-time totals grouped by [`KernelKind`].
    pub fn time_by_kind(&self) -> BTreeMap<KernelKind, f64> {
        let mut out = BTreeMap::new();
        for agg in self.by_kernel.values() {
            *out.entry(agg.kind).or_insert(0.0) += agg.time_s;
        }
        out
    }

    /// Fraction of total runtime spent in each kernel kind.
    ///
    /// Returns an empty map for an empty trace.
    pub fn runtime_shares_by_kind(&self) -> BTreeMap<KernelKind, f64> {
        let total = self.total_time_s;
        if total <= 0.0 {
            return BTreeMap::new();
        }
        self.time_by_kind()
            .into_iter()
            .map(|(k, t)| (k, t / total))
            .collect()
    }

    /// Fraction of total runtime spent in each unique kernel, keyed by name.
    pub fn runtime_shares_by_kernel(&self) -> BTreeMap<String, f64> {
        let total = self.total_time_s;
        if total <= 0.0 {
            return BTreeMap::new();
        }
        self.by_kernel
            .iter()
            .map(|(name, agg)| (name.clone(), agg.time_s / total))
            .collect()
    }

    /// Merge another profile into this one (e.g. to accumulate a full
    /// epoch out of per-iteration profiles).
    pub fn merge(&mut self, other: &TraceProfile) {
        self.total_time_s += other.total_time_s;
        self.launches += other.launches;
        self.counters += other.counters;
        for (name, agg) in &other.by_kernel {
            match self.by_kernel.get_mut(name) {
                Some(mine) => {
                    mine.invocations += agg.invocations;
                    mine.time_s += agg.time_s;
                    mine.counters += agg.counters;
                }
                None => {
                    self.by_kernel.insert(name.clone(), agg.clone());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_counters(v: f64) -> KernelCounters {
        KernelCounters {
            valu_insts: v,
            load_bytes: v,
            store_bytes: v,
            dram_bytes: v,
            l2_bytes: v,
            mem_write_stall_cycles: v,
        }
    }

    #[test]
    fn empty_profile_has_no_shares() {
        let p = TraceProfile::new();
        assert!(p.runtime_shares_by_kind().is_empty());
        assert_eq!(p.total_time_s(), 0.0);
    }

    #[test]
    fn counters_add_componentwise() {
        let a = dummy_counters(1.0);
        let b = dummy_counters(2.0);
        let c = a + b;
        assert!((c.valu_insts - 3.0).abs() < 1e-12);
        assert!((c.dram_bytes - 3.0).abs() < 1e-12);
    }
}
