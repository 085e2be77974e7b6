//! Convolution kernels lowered to implicit GEMM (MIOpen-style).
//!
//! DeepSpeech2's front-end is two 2-D convolutions over the spectrogram;
//! their cost scales with the time dimension and therefore with sequence
//! length. Each pass (forward, backward-data, backward-weights) maps to an
//! implicit-GEMM problem and reuses the tiled-GEMM variant library.

use serde::{Deserialize, Serialize};

use crate::gemm::{self, GemmShape};
use crate::{kernel_name, GpuConfig, KernelDesc};

/// A 2-D convolution problem with SAME padding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ConvShape {
    /// Batch size.
    pub batch: u64,
    /// Input channels.
    pub in_c: u64,
    /// Output channels.
    pub out_c: u64,
    /// Input height (frequency bins for DS2).
    pub in_h: u64,
    /// Input width (time frames for DS2).
    pub in_w: u64,
    /// Kernel height.
    pub kh: u64,
    /// Kernel width.
    pub kw: u64,
    /// Vertical stride.
    pub stride_h: u64,
    /// Horizontal stride.
    pub stride_w: u64,
}

impl ConvShape {
    /// Output height under SAME padding.
    pub fn out_h(&self) -> u64 {
        self.in_h.div_ceil(self.stride_h.max(1))
    }

    /// Output width under SAME padding.
    pub fn out_w(&self) -> u64 {
        self.in_w.div_ceil(self.stride_w.max(1))
    }

    /// The implicit-GEMM problem of the forward pass:
    /// `M = out_c`, `K = in_c·kh·kw`, `N = batch·out_h·out_w`.
    pub fn forward_gemm(&self) -> GemmShape {
        GemmShape::new(
            self.out_c,
            self.in_c * self.kh * self.kw,
            self.batch * self.out_h() * self.out_w(),
        )
    }

    /// Bytes of the input activation tensor.
    pub fn input_bytes(&self) -> f64 {
        (self.batch * self.in_c * self.in_h * self.in_w * 4) as f64
    }

    /// Bytes of the weight tensor.
    pub fn weight_bytes(&self) -> f64 {
        (self.out_c * self.in_c * self.kh * self.kw * 4) as f64
    }

    /// Bytes of the output activation tensor.
    pub fn output_bytes(&self) -> f64 {
        (self.batch * self.out_c * self.out_h() * self.out_w() * 4) as f64
    }

    /// Number of learnable parameters.
    pub fn param_count(&self) -> u64 {
        self.out_c * self.in_c * self.kh * self.kw + self.out_c
    }
}

/// Which convolution pass a kernel implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ConvPass {
    /// Forward activation computation.
    Forward,
    /// Gradient with respect to the input (backward-data).
    BackwardData,
    /// Gradient with respect to the weights (backward-weights).
    BackwardWeights,
}

impl ConvPass {
    fn flavor(self) -> &'static str {
        match self {
            ConvPass::Forward => "igemm_fwd",
            ConvPass::BackwardData => "igemm_bwdd",
            ConvPass::BackwardWeights => "igemm_bwdw",
        }
    }

    /// The implicit-GEMM problem for this pass of `shape`.
    pub fn gemm_shape(self, shape: &ConvShape) -> GemmShape {
        let f = shape.forward_gemm();
        match self {
            ConvPass::Forward => f,
            // dX = Wᵀ · dY : M = K_f, K = M_f, N = N_f
            ConvPass::BackwardData => GemmShape::new(f.k, f.m, f.n),
            // dW = dY · im2col(X)ᵀ : M = M_f, K = N_f, N = K_f
            ConvPass::BackwardWeights => GemmShape::new(f.m, f.n, f.k),
        }
    }
}

/// Build the kernel for one pass of a convolution, choosing the best
/// implicit-GEMM tile variant for `cfg`. The kernel is named
/// `conv_gemm_<pass flavor>_<variant label>`.
///
/// The kernel inherits the GEMM traffic model but with the input footprint
/// corrected for im2col expansion (the halo re-reads are served by cache,
/// so the compulsory input traffic is the raw activation tensor, not the
/// expanded matrix) and a higher L1 locality from the halo overlap.
pub fn kernel(cfg: &GpuConfig, shape: &ConvShape, pass: ConvPass) -> KernelDesc {
    let g = pass.gemm_shape(shape);
    let flavor = pass.flavor();
    let variant = gemm::best_variant(cfg, g, flavor);
    let base = gemm::kernel_for(g, flavor, variant);
    // The GEMM model's footprint counts the im2col-expanded matrix; the
    // compulsory traffic is really input + weights + output.
    let footprint = shape.input_bytes() + shape.weight_bytes() + shape.output_bytes();
    let name = kernel_name("conv_gemm_", flavor, variant.label);
    KernelDesc::builder(name, base.kind())
        .flops(base.flops())
        .read_bytes(base.read_bytes())
        .write_bytes(base.write_bytes())
        .footprint_bytes(footprint.min(base.read_bytes() + base.write_bytes()))
        .l1_reuse(0.6, base.l1_working_set())
        .l2_reuse(
            (1.0 - footprint / (base.read_bytes() + base.write_bytes()).max(1.0)).clamp(0.0, 1.0),
            shape.input_bytes() + shape.weight_bytes(),
        )
        .workgroups(base.workgroups())
        .efficiency(base.efficiency() * 0.9) // im2col addressing overhead
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{kernel_time, GpuConfig};

    /// DS2's first conv layer on a T-frame spectrogram (161 freq bins).
    fn ds2_conv1(t_frames: u64) -> ConvShape {
        ConvShape {
            batch: 64,
            in_c: 1,
            out_c: 32,
            in_h: 161,
            in_w: t_frames,
            kh: 41,
            kw: 11,
            stride_h: 2,
            stride_w: 2,
        }
    }

    #[test]
    fn same_padding_output_dims() {
        let s = ds2_conv1(800);
        assert_eq!(s.out_h(), 81);
        assert_eq!(s.out_w(), 400);
    }

    #[test]
    fn forward_gemm_dimensions() {
        let s = ds2_conv1(800);
        let g = s.forward_gemm();
        assert_eq!(g.m, 32);
        assert_eq!(g.k, 41 * 11);
        assert_eq!(g.n, 64 * 81 * 400);
    }

    #[test]
    fn conv_time_scales_with_time_dimension() {
        let cfg = GpuConfig::vega_fe();
        let short = kernel(&cfg, &ds2_conv1(100), ConvPass::Forward);
        let long = kernel(&cfg, &ds2_conv1(800), ConvPass::Forward);
        let t_short = kernel_time(&cfg, &short).time_s;
        let t_long = kernel_time(&cfg, &long).time_s;
        assert!(t_long > 4.0 * t_short, "t_long={t_long}, t_short={t_short}");
    }

    #[test]
    fn backward_passes_have_distinct_kernels() {
        let cfg = GpuConfig::vega_fe();
        let s = ds2_conv1(400);
        let fwd = kernel(&cfg, &s, ConvPass::Forward);
        let bwd_d = kernel(&cfg, &s, ConvPass::BackwardData);
        let bwd_w = kernel(&cfg, &s, ConvPass::BackwardWeights);
        assert_ne!(fwd.name(), bwd_d.name());
        assert_ne!(fwd.name(), bwd_w.name());
        assert_ne!(bwd_d.name(), bwd_w.name());
    }

    #[test]
    fn backward_gemm_shapes_transpose_forward() {
        let s = ds2_conv1(400);
        let f = ConvPass::Forward.gemm_shape(&s);
        let d = ConvPass::BackwardData.gemm_shape(&s);
        let w = ConvPass::BackwardWeights.gemm_shape(&s);
        assert_eq!(f.flops(), d.flops());
        assert_eq!(f.flops(), w.flops());
        assert_eq!(d.m, f.k);
        assert_eq!(w.k, f.n);
    }

    #[test]
    fn param_count_matches_formula() {
        let s = ds2_conv1(100);
        // out_c=32, in_c=1, kh=41, kw=11, plus per-channel bias.
        assert_eq!(s.param_count(), 32 * 41 * 11 + 32);
    }
}
