//! rocBLAS-like tiled SGEMM kernel library.
//!
//! Real BLAS libraries ship many GEMM kernels specialized by tile size and
//! pick one per problem shape; which kernel runs therefore changes with
//! the operand shapes — and, for SQNNs, with sequence length. That is the
//! mechanism behind the paper's Fig. 5 ("the types of unique kernels
//! differ based on sequence length"). This module reproduces it with a
//! small variant library and a shape-driven cost model.

use serde::{Deserialize, Serialize};

use crate::{kernel_name, kernel_time, GpuConfig, KernelDesc, KernelKind};

/// A GEMM problem `C[m×n] += A[m×k] · B[k×n]` (column counts in elements,
/// FP32 operands).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct GemmShape {
    /// Rows of `A`/`C`.
    pub m: u64,
    /// Columns of `A` / rows of `B` (the contraction dimension).
    pub k: u64,
    /// Columns of `B`/`C`.
    pub n: u64,
}

impl GemmShape {
    /// Create a GEMM shape. Zero dimensions are permitted and produce an
    /// empty (zero-flop) kernel.
    pub fn new(m: u64, k: u64, n: u64) -> Self {
        GemmShape { m, k, n }
    }

    /// Multiply-accumulate flop count, `2·m·k·n`.
    pub fn flops(&self) -> f64 {
        2.0 * self.m as f64 * self.k as f64 * self.n as f64
    }

    /// Compulsory traffic in bytes: each operand touched once.
    pub fn footprint_bytes(&self) -> f64 {
        4.0 * (self.m * self.k + self.k * self.n + self.m * self.n) as f64
    }
}

impl std::fmt::Display for GemmShape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}x{}x{}", self.m, self.k, self.n)
    }
}

/// One compiled GEMM kernel variant (a tile configuration).
///
/// `Serialize`-only: the `&'static str` label refers into the compiled-in
/// kernel library ([`VARIANTS`]), so a variant cannot be deserialized —
/// it is looked up by label instead.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct GemmVariant {
    /// Variant label embedded in kernel names.
    pub label: &'static str,
    /// Output-tile rows per workgroup.
    pub tile_m: u64,
    /// Output-tile columns per workgroup.
    pub tile_n: u64,
    /// Contraction-slice depth per LDS stage.
    pub tile_k: u64,
    /// Peak-throughput fraction achievable with perfect quantization.
    pub base_efficiency: f64,
}

/// The library's largest tile, first in [`VARIANTS`].
const MACRO_TILE: GemmVariant = GemmVariant {
    label: "128x128x16",
    tile_m: 128,
    tile_n: 128,
    tile_k: 16,
    base_efficiency: 0.92,
};

/// The kernel library: macro tiles for large GEMMs down to skinny and
/// GEMV-like variants for degenerate shapes.
pub const VARIANTS: &[GemmVariant] = &[
    MACRO_TILE,
    GemmVariant {
        label: "128x64x16",
        tile_m: 128,
        tile_n: 64,
        tile_k: 16,
        base_efficiency: 0.90,
    },
    GemmVariant {
        label: "64x64x16",
        tile_m: 64,
        tile_n: 64,
        tile_k: 16,
        base_efficiency: 0.87,
    },
    GemmVariant {
        label: "64x32x16",
        tile_m: 64,
        tile_n: 32,
        tile_k: 16,
        base_efficiency: 0.82,
    },
    GemmVariant {
        label: "32x32x16",
        tile_m: 32,
        tile_n: 32,
        tile_k: 16,
        base_efficiency: 0.74,
    },
    GemmVariant {
        label: "16x16x16",
        tile_m: 16,
        tile_n: 16,
        tile_k: 16,
        base_efficiency: 0.58,
    },
    GemmVariant {
        label: "16x128x16",
        tile_m: 16,
        tile_n: 128,
        tile_k: 16,
        base_efficiency: 0.64,
    },
    GemmVariant {
        label: "128x16x16",
        tile_m: 128,
        tile_n: 16,
        tile_k: 16,
        base_efficiency: 0.64,
    },
    GemmVariant {
        label: "8x64x32",
        tile_m: 8,
        tile_n: 64,
        tile_k: 32,
        base_efficiency: 0.42,
    },
    GemmVariant {
        label: "64x8x32",
        tile_m: 64,
        tile_n: 8,
        tile_k: 32,
        base_efficiency: 0.42,
    },
];

fn div_ceil(a: u64, b: u64) -> u64 {
    if b == 0 {
        return 0;
    }
    a.div_ceil(b)
}

/// Build the kernel descriptor for running `shape` with `variant`.
///
/// `flavor` distinguishes the operand layout / pass (e.g. `"nn"` forward,
/// `"nt"` backward-data, `"tn"` backward-weights) exactly as transpose
/// flavors produce distinct kernels in real BLAS libraries; it becomes part
/// of the kernel name, `gemm_<flavor>_<variant label>`.
pub fn kernel_for(shape: GemmShape, flavor: &'static str, variant: &GemmVariant) -> KernelDesc {
    let GemmShape { m, k, n } = shape;
    let tiles_m = div_ceil(m, variant.tile_m);
    let tiles_n = div_ceil(n, variant.tile_n);
    let (mf, kf, nf) = (m as f64, k as f64, n as f64);

    // Each column of C-tiles re-reads the A panel; each row re-reads B.
    let reads = tiles_n as f64 * (mf * kf * 4.0) + tiles_m as f64 * (kf * nf * 4.0);
    let writes = mf * nf * 4.0;

    // Quantization: wasted lanes in partially filled tiles.
    let quant_m = if tiles_m > 0 {
        mf / (tiles_m * variant.tile_m) as f64
    } else {
        0.0
    };
    let quant_n = if tiles_n > 0 {
        nf / (tiles_n * variant.tile_n) as f64
    } else {
        0.0
    };
    // Short contractions cannot amortize the LDS pipeline.
    let k_ramp = kf / (kf + 32.0);
    let efficiency = (variant.base_efficiency * quant_m * quant_n * k_ramp).max(0.01);

    // L1 working set: the A/B tile slices staged per K-step.
    let l1_ws = 4.0 * (variant.tile_m * variant.tile_k + variant.tile_k * variant.tile_n) as f64;
    // L2 working set: the A and B panels being streamed.
    let l2_ws = 4.0 * (m * k + k * n) as f64;
    let footprint = shape.footprint_bytes();
    let l2_locality = if reads > 0.0 {
        (1.0 - footprint / (reads + writes)).clamp(0.0, 1.0)
    } else {
        0.0
    };

    KernelDesc::builder(
        kernel_name("gemm_", flavor, variant.label),
        KernelKind::Gemm,
    )
    .flops(shape.flops())
    .read_bytes(reads)
    .write_bytes(writes)
    .footprint_bytes(footprint)
    .l1_reuse(0.55, l1_ws)
    .l2_reuse(l2_locality, l2_ws)
    .workgroups((tiles_m * tiles_n) as f64)
    .efficiency(efficiency)
    .build()
}

/// Pick the fastest variant for `shape` on `cfg` by evaluating the timing
/// model for every library variant (what a BLAS autotuner does with real
/// timing runs).
pub fn best_variant(
    cfg: &GpuConfig,
    shape: GemmShape,
    flavor: &'static str,
) -> &'static GemmVariant {
    let mut best = &MACRO_TILE;
    let mut best_t = f64::INFINITY;
    for v in VARIANTS {
        let t = kernel_time(cfg, &kernel_for(shape, flavor, v)).time_s;
        if t < best_t {
            best_t = t;
            best = v;
        }
    }
    best
}

/// Fraction of the full-shape runtime an autotune measurement costs:
/// autotuners time candidates on truncated problem instances (a few
/// K-slices), not the full GEMM.
const MINI_PROBLEM_FACTOR: f64 = 0.25;

/// Total time an autotune pass spends measuring every variant of `shape`
/// (`trials` truncated timing runs per variant), mirroring the paper's
/// "autotune" phase (Section IV-C2): expensive, but one-time.
pub fn tuning_cost_s(cfg: &GpuConfig, shape: GemmShape, flavor: &'static str, trials: u32) -> f64 {
    VARIANTS
        .iter()
        .map(|v| kernel_time(cfg, &kernel_for(shape, flavor, v)).time_s)
        .sum::<f64>()
        * f64::from(trials)
        * MINI_PROBLEM_FACTOR
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flops_formula() {
        let s = GemmShape::new(2, 3, 4);
        assert_eq!(s.flops(), 48.0);
        assert_eq!(s.footprint_bytes(), 4.0 * (6 + 12 + 8) as f64);
    }

    #[test]
    fn large_square_gemm_prefers_large_tiles() {
        let cfg = GpuConfig::vega_fe();
        let v = best_variant(&cfg, GemmShape::new(4096, 4096, 4096), "nn");
        assert!(v.tile_m >= 64 && v.tile_n >= 64, "picked {}", v.label);
    }

    #[test]
    fn skinny_m_gemm_avoids_wide_m_tiles() {
        let cfg = GpuConfig::vega_fe();
        // The DS2 classifier shape: M=29 (vocabulary), huge N. A 128-row
        // tile would waste over 3/4 of each tile; the tuner must pick a
        // narrower variant (either compute-efficient 16/8 rows or a
        // single-tile 32/64 that reads B only once).
        let v = best_variant(&cfg, GemmShape::new(29, 1600, 25728), "nn");
        assert!(v.tile_m <= 64, "picked {}", v.label);
        // And it must differ from the large-square choice.
        let square = best_variant(&cfg, GemmShape::new(4096, 4096, 4096), "nn");
        assert_ne!(v.label, square.label);
    }

    #[test]
    fn variant_choice_depends_on_n() {
        // The same layer at different sequence lengths (N = batch·T) can
        // bind to different kernels — the paper's Fig. 5 mechanism.
        let cfg = GpuConfig::vega_fe();
        let small = best_variant(&cfg, GemmShape::new(4096, 1024, 64), "nn");
        let large = best_variant(&cfg, GemmShape::new(4096, 1024, 12800), "nn");
        assert_ne!(small.label, large.label);
    }

    #[test]
    fn kernel_name_includes_flavor_and_variant() {
        let v = &VARIANTS[0];
        let k = kernel_for(GemmShape::new(128, 128, 128), "nt", v);
        assert_eq!(k.name(), "gemm_nt_128x128x16");
        assert_eq!(k.kind(), KernelKind::Gemm);
    }

    #[test]
    fn perfect_tiles_have_full_quantization() {
        let v = &VARIANTS[0]; // 128x128x16
        let exact = kernel_for(GemmShape::new(256, 512, 256), "nn", v);
        let ragged = kernel_for(GemmShape::new(257, 512, 257), "nn", v);
        assert!(exact.efficiency() > ragged.efficiency());
    }

    #[test]
    fn traffic_exceeds_footprint_for_reuse_shapes() {
        let v = &VARIANTS[2];
        let s = GemmShape::new(1024, 1024, 1024);
        let k = kernel_for(s, "nn", v);
        assert!(k.read_bytes() + k.write_bytes() > k.footprint_bytes());
        assert!(k.l2_locality() > 0.5);
    }

    #[test]
    fn empty_shape_is_harmless() {
        let v = &VARIANTS[0];
        let k = kernel_for(GemmShape::new(0, 128, 128), "nn", v);
        assert_eq!(k.flops(), 0.0);
        let cfg = GpuConfig::vega_fe();
        let t = kernel_time(&cfg, &k);
        assert!(t.time_s >= cfg.launch_overhead_s());
    }

    #[test]
    fn tuning_cost_is_positive_and_scales_with_trials() {
        let cfg = GpuConfig::vega_fe();
        let s = GemmShape::new(512, 512, 512);
        let c1 = tuning_cost_s(&cfg, s, "nn", 1);
        let c3 = tuning_cost_s(&cfg, s, "nn", 3);
        assert!(c1 > 0.0);
        assert!((c3 / c1 - 3.0).abs() < 1e-9);
    }

    #[test]
    fn bigger_gemm_takes_longer() {
        let cfg = GpuConfig::vega_fe();
        let small = kernel_for(GemmShape::new(1024, 1024, 64), "nn", &VARIANTS[2]);
        let large = kernel_for(GemmShape::new(1024, 1024, 6400), "nn", &VARIANTS[2]);
        assert!(kernel_time(&cfg, &large).time_s > kernel_time(&cfg, &small).time_s);
    }
}
