use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use serde::{Deserialize, Serialize};

use crate::gemm::{self, GemmShape, GemmVariant};
use crate::{GpuConfig, KernelDesc};

/// Number of timing trials per variant the autotune pass runs. Framework
/// autotuners measure each candidate once on a truncated instance and
/// keep the winner.
const TUNE_TRIALS: u32 = 1;

/// A per-configuration autotune table mapping GEMM problems to the variant
/// an autotune pass selected, with the accumulated cost of tuning.
///
/// The paper (Section IV-C2) observes that frameworks run an expensive
/// "autotune" phase once per training run to pick the optimal kernel per
/// computation, and that it can be ignored when building representative
/// profiles *because it only runs once*. This table models exactly that:
/// the first time a shape is seen it is tuned (cost recorded), afterwards
/// lookups are free. Choices are keyed by `(flavor, shape)`, with the
/// flavor a `&'static str`, so a lookup neither copies the flavor nor
/// allocates, and hashed with a small multiply-rotate hasher rather than
/// SipHash.
///
/// ```
/// use gpu_sim::{gemm::GemmShape, AutotuneTable, GpuConfig};
///
/// let cfg = GpuConfig::vega_fe();
/// let mut tuner = AutotuneTable::new();
/// let a = tuner.gemm(&cfg, GemmShape::new(1024, 1024, 64));
/// let b = tuner.gemm(&cfg, GemmShape::new(1024, 1024, 64));
/// assert_eq!(a, b);                       // cached decision
/// assert_eq!(tuner.shapes_tuned(), 1);    // tuned only once
/// assert!(tuner.tuning_cost_s() > 0.0);
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct AutotuneTable {
    #[serde(skip)]
    choices: HashMap<(&'static str, GemmShape), &'static GemmVariant, KeyHash>,
    tuning_cost_s: f64,
}

/// The hasher of maps keyed by a GEMM problem, `(flavor, shape)`: a
/// multiply-rotate over each word written (FxHash's step). A key is a
/// static flavor and three dimensions the networks derive from a batch
/// size and a sequence length, a few hundred per table, so SipHash's
/// resistance to crafted collisions buys little and costs most of a
/// lookup. Such a map must not be iterated where its order could reach
/// an output; the autotune table's never is.
#[derive(Debug, Default)]
pub struct KeyHasher(u64);

/// The [`std::hash::BuildHasher`] of the autotune table's multiply-rotate
/// hasher, for any map keyed by a GEMM problem `(flavor, shape)`.
pub type KeyHash = BuildHasherDefault<KeyHasher>;

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.write_u64(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.0 = (self.0.rotate_left(5) ^ i).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }
}

impl AutotuneTable {
    /// Create an empty table.
    pub fn new() -> Self {
        AutotuneTable::default()
    }

    /// Return the tuned GEMM kernel for `shape` with the default (`"nn"`)
    /// flavor, tuning on first sight.
    pub fn gemm(&mut self, cfg: &GpuConfig, shape: GemmShape) -> KernelDesc {
        self.gemm_flavored(cfg, "nn", shape)
    }

    /// Return the tuned GEMM kernel for `shape` with an explicit flavor
    /// (`"nn"`, `"nt"`, `"tn"`, …), tuning on first sight. A lookup of a
    /// tuned problem does not allocate.
    pub fn gemm_flavored(
        &mut self,
        cfg: &GpuConfig,
        flavor: &'static str,
        shape: GemmShape,
    ) -> KernelDesc {
        let variant = *self.choices.entry((flavor, shape)).or_insert_with(|| {
            let best = gemm::best_variant(cfg, shape, flavor);
            self.tuning_cost_s += gemm::tuning_cost_s(cfg, shape, flavor, TUNE_TRIALS);
            best
        });
        gemm::kernel_for(shape, flavor, variant)
    }

    /// Total simulated time spent in autotune measurements so far.
    pub fn tuning_cost_s(&self) -> f64 {
        self.tuning_cost_s
    }

    /// Number of distinct (flavor, shape) problems tuned so far.
    pub fn shapes_tuned(&self) -> usize {
        self.choices.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuning_cost_accumulates_only_for_new_shapes() {
        let cfg = GpuConfig::vega_fe();
        let mut tuner = AutotuneTable::new();
        tuner.gemm(&cfg, GemmShape::new(256, 256, 256));
        let cost_one = tuner.tuning_cost_s();
        tuner.gemm(&cfg, GemmShape::new(256, 256, 256));
        assert_eq!(tuner.tuning_cost_s(), cost_one);
        tuner.gemm(&cfg, GemmShape::new(512, 512, 512));
        assert!(tuner.tuning_cost_s() > cost_one);
        assert_eq!(tuner.shapes_tuned(), 2);
    }

    #[test]
    fn flavors_are_tuned_separately() {
        let cfg = GpuConfig::vega_fe();
        let mut tuner = AutotuneTable::new();
        let s = GemmShape::new(1024, 1024, 1024);
        tuner.gemm_flavored(&cfg, "nn", s);
        tuner.gemm_flavored(&cfg, "nt", s);
        assert_eq!(tuner.shapes_tuned(), 2);
    }

    #[test]
    fn tuned_kernel_is_at_least_as_fast_as_any_fixed_variant() {
        use crate::{gemm::VARIANTS, kernel_time};
        let cfg = GpuConfig::vega_fe();
        let mut tuner = AutotuneTable::new();
        for shape in [
            GemmShape::new(4096, 1024, 6400),
            GemmShape::new(29, 1600, 3776),
            GemmShape::new(1024, 1024, 64),
        ] {
            let tuned = tuner.gemm(&cfg, shape);
            let t_tuned = kernel_time(&cfg, &tuned).time_s;
            for v in VARIANTS {
                let t_v = kernel_time(&cfg, &gemm::kernel_for(shape, "nn", v)).time_s;
                assert!(t_tuned <= t_v + 1e-15, "shape {shape} variant {}", v.label);
            }
        }
    }

    #[test]
    fn different_configs_can_pick_different_variants() {
        // Not asserted to differ for all shapes, but the mechanism must
        // allow it: tuning tables are per-config by construction.
        let base = GpuConfig::vega_fe();
        let tiny = GpuConfig::builder("cu4").cu_count(4).build().unwrap();
        let shape = GemmShape::new(2048, 1024, 2048);
        let mut t1 = AutotuneTable::new();
        let mut t2 = AutotuneTable::new();
        let k1 = t1.gemm(&base, shape);
        let k2 = t2.gemm(&tiny, shape);
        // Both are valid GEMM kernels for the same shape.
        assert_eq!(k1.flops(), k2.flops());
    }
}
