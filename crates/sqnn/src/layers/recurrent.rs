//! Recurrent layers: LSTM and GRU, unidirectional or bidirectional.
//!
//! These are the layers whose unrolling makes SQNN iterations
//! heterogeneous: the per-step recurrent GEMM and gate kernels are emitted
//! `seq_len` times, so kernel count and runtime scale with the input
//! sequence length (the paper's Fig. 3 and key observation 1).
//!
//! The emission follows the cuDNN/MIOpen RNN decomposition: the
//! input-to-hidden transform of *all* steps is batched into one large GEMM
//! (`N = batch·T`), while the hidden-to-hidden transform is a per-step
//! GEMM (`N = batch`) — which is exactly why SQNN iterations mix a few
//! large shape-varying GEMMs with many small fixed-shape ones.

use crate::{IterationShape, Layer, Stream, TraceCtx};

/// Shared machinery for gated recurrent layers.
#[derive(Debug, Clone)]
struct RecurrentCore {
    name: String,
    gate_label: &'static str,
    gate_bwd_label: &'static str,
    gates: u64,
    input: u64,
    hidden: u64,
    bidirectional: bool,
    stream: Stream,
}

impl RecurrentCore {
    fn directions(&self) -> u64 {
        if self.bidirectional {
            2
        } else {
            1
        }
    }

    fn param_count(&self) -> u64 {
        // Per direction: W_ih [gates·H × E], W_hh [gates·H × H], biases.
        self.directions()
            * (self.gates * self.hidden * (self.input + self.hidden) + 2 * self.gates * self.hidden)
    }

    fn emit_forward(&self, shape: &IterationShape, ctx: &mut TraceCtx<'_>) {
        let t = u64::from(shape.len_of(self.stream));
        let b = u64::from(shape.batch);
        let gh = self.gates * self.hidden;
        for _dir in 0..self.directions() {
            // Input transform for all steps at once: [gh × E] · [E × B·T].
            ctx.emit_gemm("nn", gh, self.input, b * t);
            for _step in 0..t {
                // Recurrent transform: [gh × H] · [H × B].
                ctx.emit_gemm("nn", gh, self.hidden, b);
                // Gate math (sigmoid/tanh) over the gate pre-activations.
                ctx.emit_ew(self.gate_label, b * gh, 6.0, 2);
                // State update (cell/hidden blend).
                ctx.emit_ew("state_update", b * self.hidden, 4.0, 3);
            }
        }
        if self.bidirectional {
            // Concatenate forward/backward hidden sequences.
            ctx.emit_concat(b * t * 2 * self.hidden * 4);
        }
    }

    fn emit_backward(&self, shape: &IterationShape, ctx: &mut TraceCtx<'_>) {
        let t = u64::from(shape.len_of(self.stream));
        let b = u64::from(shape.batch);
        let gh = self.gates * self.hidden;
        for _dir in 0..self.directions() {
            for _step in 0..t {
                // Gate derivative.
                ctx.emit_ew(self.gate_bwd_label, b * gh, 8.0, 3);
                // dh_{t-1} += W_hhᵀ · dgates_t.
                ctx.emit_gemm("nt", self.hidden, gh, b);
            }
            // Weight gradients, batched over time:
            // dW_hh = dGates · Hᵀ, dW_ih = dGates · Xᵀ.
            ctx.emit_gemm("tn", gh, b * t, self.hidden);
            ctx.emit_gemm("tn", gh, b * t, self.input);
            // dX = W_ihᵀ · dGates for all steps.
            ctx.emit_gemm("nt", self.input, gh, b * t);
            // Bias gradients.
            ctx.emit_reduce("bias_grad", gh, b * t);
        }
    }
}

/// A Long Short-Term Memory layer (4 gates), as stacked in GNMT's encoder
/// and decoder.
#[derive(Debug, Clone)]
pub struct Lstm {
    core: RecurrentCore,
}

impl Lstm {
    /// A unidirectional LSTM over `stream` with the given input and hidden
    /// widths.
    pub fn new(name: impl Into<String>, input: u64, hidden: u64, stream: Stream) -> Self {
        Lstm {
            core: RecurrentCore {
                name: name.into(),
                gate_label: "lstm_gates",
                gate_bwd_label: "lstm_gates_bwd",
                gates: 4,
                input: input.max(1),
                hidden: hidden.max(1),
                bidirectional: false,
                stream,
            },
        }
    }

    /// Make the layer bidirectional (GNMT's first encoder layer).
    pub fn bidirectional(mut self) -> Self {
        self.core.bidirectional = true;
        self
    }

    /// Hidden width.
    pub fn hidden(&self) -> u64 {
        self.core.hidden
    }
}

impl Layer for Lstm {
    fn name(&self) -> &str {
        &self.core.name
    }

    fn param_count(&self) -> u64 {
        self.core.param_count()
    }

    fn emit_forward(&self, shape: &IterationShape, ctx: &mut TraceCtx<'_>) {
        self.core.emit_forward(shape, ctx);
    }

    fn emit_backward(&self, shape: &IterationShape, ctx: &mut TraceCtx<'_>) {
        self.core.emit_backward(shape, ctx);
    }
}

/// A Gated Recurrent Unit layer (3 gates), as stacked bidirectionally in
/// DeepSpeech2.
#[derive(Debug, Clone)]
pub struct Gru {
    core: RecurrentCore,
}

impl Gru {
    /// A unidirectional GRU over `stream`.
    pub fn new(name: impl Into<String>, input: u64, hidden: u64, stream: Stream) -> Self {
        Gru {
            core: RecurrentCore {
                name: name.into(),
                gate_label: "gru_gates",
                gate_bwd_label: "gru_gates_bwd",
                gates: 3,
                input: input.max(1),
                hidden: hidden.max(1),
                bidirectional: false,
                stream,
            },
        }
    }

    /// Make the layer bidirectional (all five DS2 GRU layers).
    pub fn bidirectional(mut self) -> Self {
        self.core.bidirectional = true;
        self
    }

    /// Hidden width.
    pub fn hidden(&self) -> u64 {
        self.core.hidden
    }
}

impl Layer for Gru {
    fn name(&self) -> &str {
        &self.core.name
    }

    fn param_count(&self) -> u64 {
        self.core.param_count()
    }

    fn emit_forward(&self, shape: &IterationShape, ctx: &mut TraceCtx<'_>) {
        self.core.emit_forward(shape, ctx);
    }

    fn emit_backward(&self, shape: &IterationShape, ctx: &mut TraceCtx<'_>) {
        self.core.emit_backward(shape, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{AutotuneTable, GpuConfig, KernelDesc};

    fn forward_trace(layer: &dyn Layer, shape: IterationShape) -> Vec<KernelDesc> {
        let cfg = GpuConfig::vega_fe();
        let mut tuner = AutotuneTable::new();
        let mut ctx = TraceCtx::new(&cfg, &mut tuner);
        layer.emit_forward(&shape, &mut ctx);
        ctx.into_trace()
    }

    fn backward_trace(layer: &dyn Layer, shape: IterationShape) -> Vec<KernelDesc> {
        let cfg = GpuConfig::vega_fe();
        let mut tuner = AutotuneTable::new();
        let mut ctx = TraceCtx::new(&cfg, &mut tuner);
        layer.emit_backward(&shape, &mut ctx);
        ctx.into_trace()
    }

    #[test]
    fn kernel_count_unrolls_with_sequence_length() {
        let lstm = Lstm::new("l", 1024, 1024, Stream::Source);
        let t10 = forward_trace(&lstm, IterationShape::new(64, 10)).len();
        let t20 = forward_trace(&lstm, IterationShape::new(64, 20)).len();
        // 3 kernels per step plus 1 batched input GEMM.
        assert_eq!(t10, 3 * 10 + 1);
        assert_eq!(t20, 3 * 20 + 1);
    }

    #[test]
    fn bidirectional_doubles_work_and_concatenates() {
        let uni = Gru::new("g", 800, 800, Stream::Source);
        let bi = Gru::new("g", 800, 800, Stream::Source).bidirectional();
        let shape = IterationShape::new(64, 10);
        let uni_t = forward_trace(&uni, shape);
        let bi_t = forward_trace(&bi, shape);
        assert_eq!(bi_t.len(), uni_t.len() * 2 + 1);
        assert!(bi_t.last().unwrap().name().starts_with("concat"));
        assert_eq!(bi.param_count(), uni.param_count() * 2);
    }

    #[test]
    fn lstm_has_four_gates_gru_three() {
        // Parameter counts encode the gate multiplicity.
        let lstm = Lstm::new("l", 1000, 1000, Stream::Source);
        let gru = Gru::new("g", 1000, 1000, Stream::Source);
        assert_eq!(lstm.param_count(), 4 * 1000 * 2000 + 8 * 1000);
        assert_eq!(gru.param_count(), 3 * 1000 * 2000 + 6 * 1000);
    }

    #[test]
    fn batched_input_gemm_scales_with_t_and_recurrent_does_not() {
        let lstm = Lstm::new("l", 512, 512, Stream::Source);
        let short = forward_trace(&lstm, IterationShape::new(32, 8));
        let long = forward_trace(&lstm, IterationShape::new(32, 64));
        // First kernel is the batched input GEMM: flops scale with T.
        assert!((long[0].flops() / short[0].flops() - 8.0).abs() < 1e-6);
        // Second kernel is a per-step recurrent GEMM: same shape either way.
        assert_eq!(short[1].flops(), long[1].flops());
    }

    #[test]
    fn backward_flops_about_twice_forward() {
        let lstm = Lstm::new("l", 1024, 1024, Stream::Source);
        let shape = IterationShape::new(64, 25);
        let f: f64 = forward_trace(&lstm, shape).iter().map(|k| k.flops()).sum();
        let b: f64 = backward_trace(&lstm, shape).iter().map(|k| k.flops()).sum();
        let ratio = b / f;
        assert!((1.5..2.5).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn target_stream_layers_follow_dst_len() {
        let dec = Lstm::new("dec", 256, 256, Stream::Target);
        let shape = IterationShape::with_lengths(16, 5, 40);
        let trace = forward_trace(&dec, shape);
        assert_eq!(trace.len(), 3 * 40 + 1);
    }
}
