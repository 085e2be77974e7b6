use crate::{IterationShape, Layer, Stream, TraceCtx};

/// What a [`Dense`] layer's GEMM rows range over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowSpec {
    /// One row per token of the given stream (`rows = batch · seq_len`) —
    /// the classifier/projection case whose GEMM shapes the paper's
    /// Table I reports.
    PerToken(Stream),
    /// One row per sample (`rows = batch`) — CNN-style heads.
    PerSample,
}

impl RowSpec {
    fn rows(self, shape: &IterationShape) -> u64 {
        match self {
            RowSpec::PerToken(stream) => shape.tokens(stream),
            RowSpec::PerSample => u64::from(shape.batch),
        }
    }
}

/// A fully connected layer `Y[out × rows] = W[out × in] · X[in × rows]`
/// with bias and optional fused activation.
#[derive(Debug, Clone)]
pub struct Dense {
    name: String,
    in_features: u64,
    out_features: u64,
    rows: RowSpec,
    activation: Option<&'static str>,
}

impl Dense {
    /// Create a dense layer.
    pub fn new(
        name: impl Into<String>,
        in_features: u64,
        out_features: u64,
        rows: RowSpec,
    ) -> Self {
        Dense {
            name: name.into(),
            in_features: in_features.max(1),
            out_features: out_features.max(1),
            rows,
            activation: None,
        }
    }

    /// Fuse an element-wise activation (by op name, e.g. `"relu"`).
    pub fn with_activation(mut self, op: &'static str) -> Self {
        self.activation = Some(op);
        self
    }

    /// Input feature count.
    pub fn in_features(&self) -> u64 {
        self.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> u64 {
        self.out_features
    }
}

impl Layer for Dense {
    fn name(&self) -> &str {
        &self.name
    }

    fn param_count(&self) -> u64 {
        self.in_features * self.out_features + self.out_features
    }

    fn emit_forward(&self, shape: &IterationShape, ctx: &mut TraceCtx<'_>) {
        let rows = self.rows.rows(shape);
        ctx.emit_gemm("nn", self.out_features, self.in_features, rows);
        ctx.emit_ew("bias_add", rows * self.out_features, 1.0, 2);
        if let Some(op) = self.activation {
            ctx.emit_ew(op, rows * self.out_features, 2.0, 1);
        }
    }

    fn emit_backward(&self, shape: &IterationShape, ctx: &mut TraceCtx<'_>) {
        let rows = self.rows.rows(shape);
        if let Some(op) = self.activation {
            // d/dx of the activation, fused with the incoming gradient.
            ctx.emit_ew(
                gpu_sim::kernel_name("", op, "bwd"),
                rows * self.out_features,
                2.0,
                2,
            );
        }
        // dX = Wᵀ · dY
        ctx.emit_gemm("nt", self.in_features, self.out_features, rows);
        // dW = dY · Xᵀ
        ctx.emit_gemm("tn", self.out_features, rows, self.in_features);
        // db = row-sum of dY
        ctx.emit_reduce("bias_grad", self.out_features, rows);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{AutotuneTable, GpuConfig, KernelKind};

    fn trace_of(layer: &Dense, shape: IterationShape, backward: bool) -> Vec<gpu_sim::KernelDesc> {
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
    fn gnmt_classifier_matches_table1() {
        // Table I (GNMT): GEMM-a is M=36549, K=1024, N = 64·T.
        let classifier = Dense::new("cls", 1024, 36_549, RowSpec::PerToken(Stream::Target));
        let shape = IterationShape::new(64, 94);
        let fwd = trace_of(&classifier, shape, false);
        let gemm = &fwd[0];
        assert_eq!(gemm.kind(), KernelKind::Gemm);
        let expected = 2.0 * 36_549.0 * 1024.0 * (64.0 * 94.0);
        assert!((gemm.flops() - expected).abs() < 1.0);
        // GEMM-b is the backward-data GEMM: M=1024, K=36549, N = 64·T.
        let bwd = trace_of(&classifier, shape, true);
        let dgrad = bwd.iter().find(|k| k.name().contains("_nt_")).unwrap();
        assert!((dgrad.flops() - expected).abs() < 1.0);
    }

    #[test]
    fn per_sample_rows_ignore_sequence_length() {
        let head = Dense::new("head", 256, 10, RowSpec::PerSample);
        let a = trace_of(&head, IterationShape::new(64, 10), false);
        let b = trace_of(&head, IterationShape::new(64, 200), false);
        assert_eq!(a, b);
    }

    #[test]
    fn per_token_rows_scale_with_sequence_length() {
        let proj = Dense::new("proj", 128, 128, RowSpec::PerToken(Stream::Source));
        let short = trace_of(&proj, IterationShape::new(8, 10), false);
        let long = trace_of(&proj, IterationShape::new(8, 100), false);
        assert!(long[0].flops() > short[0].flops());
    }

    #[test]
    fn activation_adds_kernels_both_ways() {
        let plain = Dense::new("p", 64, 64, RowSpec::PerSample);
        let act = Dense::new("a", 64, 64, RowSpec::PerSample).with_activation("relu");
        let shape = IterationShape::new(4, 4);
        assert_eq!(
            trace_of(&act, shape, false).len(),
            trace_of(&plain, shape, false).len() + 1
        );
        assert_eq!(
            trace_of(&act, shape, true).len(),
            trace_of(&plain, shape, true).len() + 1
        );
    }

    #[test]
    fn param_count_includes_bias() {
        let d = Dense::new("d", 100, 50, RowSpec::PerSample);
        assert_eq!(d.param_count(), 100 * 50 + 50);
    }

    #[test]
    fn backward_has_roughly_twice_forward_flops() {
        let d = Dense::new("d", 512, 512, RowSpec::PerToken(Stream::Source));
        let shape = IterationShape::new(32, 20);
        let f: f64 = trace_of(&d, shape, false).iter().map(|k| k.flops()).sum();
        let b: f64 = trace_of(&d, shape, true).iter().map(|k| k.flops()).sum();
        let ratio = b / f;
        assert!((1.8..2.2).contains(&ratio), "ratio = {ratio}");
    }
}
