use gpu_sim::conv::{ConvPass, ConvShape};

use crate::{IterationShape, Layer, TraceCtx};

/// How a convolution's time (width) axis relates to the iteration shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeSpec {
    /// A fixed width — CNN-style image inputs, independent of sequence
    /// length (the homogeneous-iteration case of the paper's Fig. 3).
    Fixed(u64),
    /// Width = `scale · src_len` — DS2's spectrogram front-end, where the
    /// time axis carries the sequence length.
    PerSourceStep(u64),
    /// Width = `scale · dst_len` — decoder-side convolutions (ConvS2S).
    PerTargetStep(u64),
}

/// A 2-D convolution layer with bias and optional fused activation,
/// lowered to implicit GEMM on the device.
#[derive(Debug, Clone)]
pub struct Conv2d {
    name: String,
    in_c: u64,
    out_c: u64,
    in_h: u64,
    kh: u64,
    kw: u64,
    stride_h: u64,
    stride_w: u64,
    time: TimeSpec,
    activation: Option<&'static str>,
}

impl Conv2d {
    /// Create a convolution layer.
    ///
    /// `in_h` is the fixed spatial height (e.g. frequency bins); the width
    /// comes from `time` at emission.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: impl Into<String>,
        in_c: u64,
        out_c: u64,
        in_h: u64,
        (kh, kw): (u64, u64),
        (stride_h, stride_w): (u64, u64),
        time: TimeSpec,
    ) -> Self {
        Conv2d {
            name: name.into(),
            in_c: in_c.max(1),
            out_c: out_c.max(1),
            in_h: in_h.max(1),
            kh: kh.max(1),
            kw: kw.max(1),
            stride_h: stride_h.max(1),
            stride_w: stride_w.max(1),
            time,
            activation: None,
        }
    }

    /// Fuse an element-wise activation (e.g. `"hardtanh"` for DS2).
    pub fn with_activation(mut self, op: &'static str) -> Self {
        self.activation = Some(op);
        self
    }

    /// The concrete convolution problem for an iteration shape.
    pub fn shape_for(&self, shape: &IterationShape) -> ConvShape {
        let in_w = match self.time {
            TimeSpec::Fixed(w) => w,
            TimeSpec::PerSourceStep(scale) => scale * u64::from(shape.src_len),
            TimeSpec::PerTargetStep(scale) => scale * u64::from(shape.dst_len),
        };
        ConvShape {
            batch: u64::from(shape.batch),
            in_c: self.in_c,
            out_c: self.out_c,
            in_h: self.in_h,
            in_w: in_w.max(1),
            kh: self.kh,
            kw: self.kw,
            stride_h: self.stride_h,
            stride_w: self.stride_w,
        }
    }

    /// Output height under SAME padding (for stacking).
    pub fn out_h(&self) -> u64 {
        self.in_h.div_ceil(self.stride_h)
    }

    fn out_elems(&self, shape: &IterationShape) -> u64 {
        let s = self.shape_for(shape);
        s.batch * s.out_c * s.out_h() * s.out_w()
    }
}

impl Layer for Conv2d {
    fn name(&self) -> &str {
        &self.name
    }

    fn param_count(&self) -> u64 {
        self.out_c * self.in_c * self.kh * self.kw + self.out_c
    }

    fn emit_forward(&self, shape: &IterationShape, ctx: &mut TraceCtx<'_>) {
        let conv = self.shape_for(shape);
        ctx.emit_conv(&conv, ConvPass::Forward);
        let elems = self.out_elems(shape);
        ctx.emit_ew("bias_add", elems, 1.0, 2);
        if let Some(op) = self.activation {
            ctx.emit_ew(op, elems, 2.0, 1);
        }
    }

    fn emit_backward(&self, shape: &IterationShape, ctx: &mut TraceCtx<'_>) {
        let conv = self.shape_for(shape);
        let elems = self.out_elems(shape);
        if let Some(op) = self.activation {
            ctx.emit_ew(gpu_sim::kernel_name("", op, "bwd"), elems, 2.0, 2);
        }
        ctx.emit_conv(&conv, ConvPass::BackwardData);
        ctx.emit_conv(&conv, ConvPass::BackwardWeights);
        ctx.emit_reduce("bias_grad", self.out_c, elems / self.out_c.max(1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{AutotuneTable, GpuConfig, KernelDesc};

    fn ds2_conv1() -> Conv2d {
        Conv2d::new(
            "conv1",
            1,
            32,
            161,
            (41, 11),
            (2, 2),
            TimeSpec::PerSourceStep(2),
        )
        .with_activation("hardtanh")
    }

    fn trace(layer: &Conv2d, shape: IterationShape, backward: bool) -> Vec<KernelDesc> {
        let cfg = GpuConfig::vega_fe();
        let mut tuner = AutotuneTable::new();
        let mut ctx = TraceCtx::new(&cfg, &mut tuner);
        if backward {
            layer.emit_backward(&shape, &mut ctx);
        } else {
            layer.emit_forward(&shape, &mut ctx);
        }
        ctx.into_trace()
    }

    #[test]
    fn ds2_front_end_halves_time_axis() {
        // SL = GRU steps: the conv consumes 2·SL frames and its stride-2
        // output matches SL steps.
        let conv = ds2_conv1();
        let s = conv.shape_for(&IterationShape::new(64, 402));
        assert_eq!(s.in_w, 804);
        assert_eq!(s.out_w(), 402);
        assert_eq!(s.out_h(), 81);
    }

    #[test]
    fn fixed_time_is_sl_independent() {
        let conv = Conv2d::new("c", 3, 64, 224, (3, 3), (1, 1), TimeSpec::Fixed(224));
        let a = trace(&conv, IterationShape::new(32, 10), false);
        let b = trace(&conv, IterationShape::new(32, 200), false);
        assert_eq!(a, b);
    }

    #[test]
    fn per_step_time_scales_flops() {
        let conv = ds2_conv1();
        let short: f64 = trace(&conv, IterationShape::new(64, 100), false)
            .iter()
            .map(|k| k.flops())
            .sum();
        let long: f64 = trace(&conv, IterationShape::new(64, 400), false)
            .iter()
            .map(|k| k.flops())
            .sum();
        assert!(
            (long / short - 4.0).abs() < 0.05,
            "ratio = {}",
            long / short
        );
    }

    #[test]
    fn backward_emits_two_conv_passes() {
        let conv = ds2_conv1();
        let bwd = trace(&conv, IterationShape::new(8, 50), true);
        let conv_kernels = bwd.iter().filter(|k| k.name().starts_with("conv_")).count();
        assert_eq!(conv_kernels, 2);
    }

    #[test]
    fn param_count_matches_conv_shape() {
        let conv = ds2_conv1();
        let s = conv.shape_for(&IterationShape::new(1, 1));
        assert_eq!(conv.param_count(), s.param_count());
    }
}
