use serde::{Deserialize, Serialize};

use crate::SimError;

/// Number of hardware configurations in the paper's Table II.
pub const TABLE2_CONFIG_COUNT: usize = 5;

/// A GPU hardware configuration.
///
/// Defaults model the AMD Radeon Vega Frontier Edition used by the paper:
/// 64 compute units (CUs) at 1.6 GHz, 16 KiB L1 per CU, a 4 MiB shared L2,
/// and 484 GB/s of HBM2 bandwidth. The paper's Table II varies the core
/// clock, CU count, and L1/L2 capacities; [`GpuConfig::table2_configs`]
/// returns those five configurations.
///
/// Construct presets with [`GpuConfig::vega_fe`] or customized instances
/// with [`GpuConfig::builder`]:
///
/// ```
/// use gpu_sim::GpuConfig;
///
/// # fn main() -> Result<(), gpu_sim::SimError> {
/// let cfg = GpuConfig::builder("half-clock")
///     .gclk_ghz(0.8)
///     .cu_count(64)
///     .build()?;
/// assert!(cfg.peak_flops() < GpuConfig::vega_fe().peak_flops());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpuConfig {
    name: String,
    gclk_ghz: f64,
    cu_count: u32,
    l1_kib_per_cu: u32,
    l2_mib: u32,
    dram_gbps: f64,
    lanes_per_cu: u32,
    flops_per_lane_cycle: f64,
    l2_bytes_per_cycle_per_cu: f64,
    launch_overhead_us: f64,
    concurrent_workgroups_per_cu: u32,
}

impl GpuConfig {
    /// The paper's baseline machine (Table II config #1): Vega FE with
    /// 64 CUs at 1.6 GHz, 16 KiB L1 per CU, 4 MiB L2, 484 GB/s HBM2.
    pub fn vega_fe() -> Self {
        GpuConfigBuilder::new("config#1").preset()
    }

    /// The five hardware configurations of the paper's Table II.
    ///
    /// | Config | GCLK | #CU | L1 | L2 |
    /// |---|---|---|---|---|
    /// | #1 | 1.6 GHz | 64 | 16 KiB | 4 MiB |
    /// | #2 | 852 MHz | 64 | 16 KiB | 4 MiB |
    /// | #3 | 1.6 GHz | 16 | 16 KiB | 4 MiB |
    /// | #4 | 1.6 GHz | 64 | 0 KiB | 4 MiB |
    /// | #5 | 1.6 GHz | 64 | 16 KiB | 0 MiB |
    pub fn table2_configs() -> [GpuConfig; TABLE2_CONFIG_COUNT] {
        let build = |name: &str, f: &dyn Fn(GpuConfigBuilder) -> GpuConfigBuilder| {
            f(GpuConfigBuilder::new(name)).preset()
        };
        [
            build("config#1", &|b| b),
            build("config#2", &|b| b.gclk_ghz(0.852)),
            build("config#3", &|b| b.cu_count(16)),
            build("config#4", &|b| b.l1_kib_per_cu(0)),
            build("config#5", &|b| b.l2_mib(0)),
        ]
    }

    /// Start building a custom configuration named `name`.
    pub fn builder(name: impl Into<String>) -> GpuConfigBuilder {
        GpuConfigBuilder::new(name)
    }

    /// The configuration's display name (e.g. `"config#1"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Core (shader) clock in GHz.
    pub fn gclk_ghz(&self) -> f64 {
        self.gclk_ghz
    }

    /// Core clock in Hz.
    pub fn gclk_hz(&self) -> f64 {
        self.gclk_ghz * 1e9
    }

    /// Number of active compute units.
    pub fn cu_count(&self) -> u32 {
        self.cu_count
    }

    /// L1 cache capacity per CU in bytes (0 means the L1 is disabled).
    pub fn l1_bytes(&self) -> f64 {
        f64::from(self.l1_kib_per_cu) * 1024.0
    }

    /// Shared L2 cache capacity in bytes (0 means the L2 is disabled).
    pub fn l2_bytes(&self) -> f64 {
        f64::from(self.l2_mib) * 1024.0 * 1024.0
    }

    /// Whether the per-CU L1 caches are present.
    pub fn l1_enabled(&self) -> bool {
        self.l1_kib_per_cu > 0
    }

    /// Whether the shared L2 cache is present.
    pub fn l2_enabled(&self) -> bool {
        self.l2_mib > 0
    }

    /// DRAM (HBM2) bandwidth in bytes per second.
    pub fn dram_bandwidth(&self) -> f64 {
        self.dram_gbps * 1e9
    }

    /// Aggregate L2 bandwidth in bytes per second. On-chip bandwidth scales
    /// with both the clock and the number of CU-facing ports.
    pub fn l2_bandwidth(&self) -> f64 {
        self.l2_bytes_per_cycle_per_cu * f64::from(self.cu_count) * self.gclk_hz()
    }

    /// Peak single-precision throughput in FLOP/s.
    pub fn peak_flops(&self) -> f64 {
        f64::from(self.cu_count)
            * f64::from(self.lanes_per_cu)
            * self.flops_per_lane_cycle
            * self.gclk_hz()
    }

    /// SIMD lanes per CU (64 for GCN/Vega).
    pub fn lanes_per_cu(&self) -> u32 {
        self.lanes_per_cu
    }

    /// Fixed kernel-launch overhead in seconds.
    pub fn launch_overhead_s(&self) -> f64 {
        self.launch_overhead_us * 1e-6
    }

    /// Number of workgroups the device must have in flight to reach full
    /// throughput (used by the occupancy model).
    pub fn saturating_workgroups(&self) -> f64 {
        f64::from(self.cu_count) * f64::from(self.concurrent_workgroups_per_cu)
    }
}

impl Default for GpuConfig {
    fn default() -> Self {
        GpuConfig::vega_fe()
    }
}

/// Builder for [`GpuConfig`]; see that type's docs for an example.
#[derive(Debug, Clone)]
pub struct GpuConfigBuilder {
    cfg: GpuConfig,
}

impl GpuConfigBuilder {
    /// Create a builder whose defaults are the Vega FE baseline.
    pub fn new(name: impl Into<String>) -> Self {
        GpuConfigBuilder {
            cfg: GpuConfig {
                name: name.into(),
                gclk_ghz: 1.6,
                cu_count: 64,
                l1_kib_per_cu: 16,
                l2_mib: 4,
                dram_gbps: 484.0,
                lanes_per_cu: 64,
                flops_per_lane_cycle: 2.0,
                l2_bytes_per_cycle_per_cu: 16.0,
                launch_overhead_us: 4.0,
                concurrent_workgroups_per_cu: 4,
            },
        }
    }

    /// Set the core clock in GHz.
    pub fn gclk_ghz(mut self, ghz: f64) -> Self {
        self.cfg.gclk_ghz = ghz;
        self
    }

    /// Set the number of active compute units.
    pub fn cu_count(mut self, cus: u32) -> Self {
        self.cfg.cu_count = cus;
        self
    }

    /// Set the per-CU L1 capacity in KiB (0 disables the L1).
    pub fn l1_kib_per_cu(mut self, kib: u32) -> Self {
        self.cfg.l1_kib_per_cu = kib;
        self
    }

    /// Set the shared L2 capacity in MiB (0 disables the L2).
    pub fn l2_mib(mut self, mib: u32) -> Self {
        self.cfg.l2_mib = mib;
        self
    }

    /// Set DRAM bandwidth in GB/s.
    pub fn dram_gbps(mut self, gbps: f64) -> Self {
        self.cfg.dram_gbps = gbps;
        self
    }

    /// Set the fixed kernel-launch overhead in microseconds.
    pub fn launch_overhead_us(mut self, us: f64) -> Self {
        self.cfg.launch_overhead_us = us;
        self
    }

    /// Set SIMD lanes per CU.
    pub fn lanes_per_cu(mut self, lanes: u32) -> Self {
        self.cfg.lanes_per_cu = lanes;
        self
    }

    /// Finish building.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if the clock, CU count, lane
    /// count, or DRAM bandwidth is non-positive, or if the launch overhead
    /// is negative.
    pub fn build(self) -> Result<GpuConfig, SimError> {
        let c = &self.cfg;
        let invalid = |field: &'static str, reason: &str| {
            Err(SimError::InvalidConfig {
                field,
                reason: reason.to_owned(),
            })
        };
        if c.gclk_ghz <= 0.0 || !c.gclk_ghz.is_finite() {
            return invalid("gclk_ghz", "must be positive and finite");
        }
        if c.cu_count == 0 {
            return invalid("cu_count", "must be at least 1");
        }
        if c.lanes_per_cu == 0 {
            return invalid("lanes_per_cu", "must be at least 1");
        }
        if c.dram_gbps <= 0.0 || !c.dram_gbps.is_finite() {
            return invalid("dram_gbps", "must be positive and finite");
        }
        if c.launch_overhead_us < 0.0 || !c.launch_overhead_us.is_finite() {
            return invalid("launch_overhead_us", "must be non-negative and finite");
        }
        Ok(self.cfg)
    }

    /// Finish building one of the fixed presets above without checking
    /// it: their values are constants, which
    /// `presets_pass_the_builders_checks` runs through [`Self::build`].
    fn preset(self) -> GpuConfig {
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_pass_the_builders_checks() {
        let mut presets = GpuConfig::table2_configs().to_vec();
        presets.push(GpuConfig::vega_fe());
        for cfg in presets {
            let rebuilt = GpuConfigBuilder { cfg: cfg.clone() }.build();
            assert_eq!(rebuilt.ok(), Some(cfg));
        }
    }

    #[test]
    fn vega_fe_matches_paper_baseline() {
        let cfg = GpuConfig::vega_fe();
        assert_eq!(cfg.cu_count(), 64);
        assert!((cfg.gclk_ghz() - 1.6).abs() < 1e-12);
        assert_eq!(cfg.l1_bytes() as u64, 16 * 1024);
        assert_eq!(cfg.l2_bytes() as u64, 4 * 1024 * 1024);
        assert!(cfg.l1_enabled());
        assert!(cfg.l2_enabled());
    }

    #[test]
    fn table2_has_five_distinct_configs() {
        let configs = GpuConfig::table2_configs();
        assert_eq!(configs.len(), TABLE2_CONFIG_COUNT);
        // Config #2 halves the clock relative to #1.
        assert!(configs[1].gclk_ghz() < configs[0].gclk_ghz());
        // Config #3 quarters the CU count.
        assert_eq!(configs[2].cu_count(), 16);
        // Config #4 disables the L1; config #5 the L2.
        assert!(!configs[3].l1_enabled());
        assert!(configs[3].l2_enabled());
        assert!(configs[4].l1_enabled());
        assert!(!configs[4].l2_enabled());
        // All names are distinct.
        for i in 0..configs.len() {
            for j in (i + 1)..configs.len() {
                assert_ne!(configs[i].name(), configs[j].name());
            }
        }
    }

    #[test]
    fn peak_flops_scales_with_clock_and_cus() {
        let base = GpuConfig::vega_fe();
        let half_clock = GpuConfig::builder("hc").gclk_ghz(0.8).build().unwrap();
        let quarter_cu = GpuConfig::builder("qc").cu_count(16).build().unwrap();
        assert!((half_clock.peak_flops() / base.peak_flops() - 0.5).abs() < 1e-9);
        assert!((quarter_cu.peak_flops() / base.peak_flops() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn vega_peak_is_about_13_tflops() {
        // 64 CU * 64 lanes * 2 flop * 1.6 GHz = 13.1 TFLOP/s, matching the
        // advertised FP32 throughput of the Vega FE.
        let peak = GpuConfig::vega_fe().peak_flops();
        assert!(peak > 13.0e12 && peak < 13.2e12, "peak = {peak}");
    }

    #[test]
    fn builder_rejects_bad_values() {
        assert!(GpuConfig::builder("x").gclk_ghz(0.0).build().is_err());
        assert!(GpuConfig::builder("x").gclk_ghz(f64::NAN).build().is_err());
        assert!(GpuConfig::builder("x").cu_count(0).build().is_err());
        assert!(GpuConfig::builder("x").dram_gbps(-1.0).build().is_err());
        assert!(GpuConfig::builder("x")
            .launch_overhead_us(-1.0)
            .build()
            .is_err());
        assert!(GpuConfig::builder("x").lanes_per_cu(0).build().is_err());
    }

    #[test]
    fn disabled_caches_report_zero_bytes() {
        let no_l1 = GpuConfig::builder("nl1").l1_kib_per_cu(0).build().unwrap();
        assert_eq!(no_l1.l1_bytes(), 0.0);
        assert!(!no_l1.l1_enabled());
        let no_l2 = GpuConfig::builder("nl2").l2_mib(0).build().unwrap();
        assert_eq!(no_l2.l2_bytes(), 0.0);
        assert!(!no_l2.l2_enabled());
    }

    #[test]
    fn l2_bandwidth_scales_with_clock() {
        let base = GpuConfig::vega_fe();
        let slow = GpuConfig::builder("s").gclk_ghz(0.852).build().unwrap();
        let ratio = slow.l2_bandwidth() / base.l2_bandwidth();
        assert!((ratio - 0.852 / 1.6).abs() < 1e-9);
    }

    #[test]
    fn default_is_vega_fe() {
        assert_eq!(GpuConfig::default(), GpuConfig::vega_fe());
    }
}
