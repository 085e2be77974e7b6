//! Google's Neural Machine Translation model (Wu et al., 2016), as
//! configured by the MLPerf reference the paper profiles:
//!
//! * an encoder of eight LSTM layers, the first bidirectional;
//! * a decoder of eight unidirectional LSTM layers;
//! * an attention network connecting them;
//! * a fully connected classifier over the 36 549-entry vocabulary.
//!
//! Hidden width is 1024 throughout. Source and target embeddings are
//! separate tables. Dropout follows the embedding and every stack.

use crate::layers::{Attention, Dropout, Embedding, Lstm, SoftmaxCrossEntropy};
use crate::{Network, Stream};

/// GNMT's hidden (and embedding) width.
pub const GNMT_HIDDEN: u64 = 1024;

/// The IWSLT'15 vocabulary size used in the paper's Table I.
pub const GNMT_VOCAB: u64 = 36_549;

/// Build GNMT with the paper's configuration.
pub fn gnmt() -> Network {
    gnmt_with(GNMT_VOCAB, GNMT_HIDDEN)
}

/// Build GNMT with a custom vocabulary and hidden width.
///
/// # Panics
///
/// Never panics: degenerate values are lifted to 1 by the layer
/// constructors; the layer list is statically non-empty.
pub fn gnmt_with(vocab: u64, hidden: u64) -> Network {
    let h = hidden.max(1);
    let mut b = Network::builder("gnmt")
        .vocab_size(vocab.min(u64::from(u32::MAX)) as u32)
        // Source embedding + dropout.
        .layer(Embedding::new("src-embed", vocab, h, Stream::Source))
        .layer(Dropout::new("src-embed-drop", h, Stream::Source))
        // Encoder: one bidirectional layer, then seven unidirectional.
        .layer(Lstm::new("enc-lstm-0", h, h, Stream::Source).bidirectional());
    // The bidirectional layer outputs 2H; layer 1 consumes it.
    b = b.layer(Lstm::new("enc-lstm-1", 2 * h, h, Stream::Source));
    for i in 2..8 {
        b = b.layer(Lstm::new(format!("enc-lstm-{i}"), h, h, Stream::Source));
    }
    b = b
        .layer(Dropout::new("enc-drop", h, Stream::Source))
        // Target embedding.
        .layer(Embedding::new("tgt-embed", vocab, h, Stream::Target))
        .layer(Dropout::new("tgt-embed-drop", h, Stream::Target))
        // Decoder: the first layer consumes [embedding; context].
        .layer(Lstm::new("dec-lstm-0", 2 * h, h, Stream::Target));
    for i in 1..8 {
        b = b.layer(Lstm::new(format!("dec-lstm-{i}"), h, h, Stream::Target));
    }
    b = b
        // Attention bridging encoder and decoder.
        .layer(Attention::new("attention", h))
        .layer(Dropout::new("dec-drop", h, Stream::Target))
        // Vocabulary classifier (Table I's GEMM-a/GEMM-b).
        .layer(SoftmaxCrossEntropy::new(
            "classifier",
            h,
            vocab,
            Stream::Target,
        ));
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IterationShape;
    use gpu_sim::{AutotuneTable, Device, GpuConfig};

    #[test]
    fn has_the_paper_layer_structure() {
        let net = gnmt();
        let names: Vec<&str> = net.layers().map(|l| l.name()).collect();
        let enc = names.iter().filter(|n| n.starts_with("enc-lstm")).count();
        let dec = names.iter().filter(|n| n.starts_with("dec-lstm")).count();
        assert_eq!(enc, 8, "encoder must have 8 LSTM layers");
        assert_eq!(dec, 8, "decoder must have 8 LSTM layers");
        assert!(names.contains(&"attention"));
        assert!(names.contains(&"classifier"));
        assert_eq!(net.vocab_size(), 36_549);
    }

    #[test]
    fn parameter_count_is_gnmt_scale() {
        // Published GNMT configurations land in the 150M–300M range
        // (embedding sharing varies); ours must too.
        let params = gnmt().param_count();
        assert!(
            (150_000_000..350_000_000).contains(&params),
            "params = {params}"
        );
    }

    #[test]
    fn runtime_grows_with_sequence_length() {
        let net = gnmt();
        let cfg = GpuConfig::vega_fe();
        let device = Device::new(cfg.clone());
        let mut tuner = AutotuneTable::new();
        let mut t = |sl: u32| {
            device
                .run_trace(&net.iteration_trace(&IterationShape::new(64, sl), &cfg, &mut tuner))
                .total_time_s()
        };
        let (t20, t100, t200) = (t(20), t(100), t(200));
        assert!(t20 < t100 && t100 < t200);
        // Near-linear with a constant offset (paper Fig. 9a): the 200/100
        // ratio must be below 2.3 (attention adds a quadratic term) and
        // above 1.5 (the constant part must not dominate).
        let ratio = t200 / t100;
        assert!((1.5..2.3).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn iteration_is_dominated_by_gemms() {
        let net = gnmt();
        let cfg = GpuConfig::vega_fe();
        let device = Device::new(cfg.clone());
        let mut tuner = AutotuneTable::new();
        let profile =
            device.run_trace(&net.iteration_trace(&IterationShape::new(64, 80), &cfg, &mut tuner));
        let shares = profile.runtime_shares_by_kind();
        let gemm_share = shares
            .get(&gpu_sim::KernelKind::Gemm)
            .copied()
            .unwrap_or(0.0);
        assert!(gemm_share > 0.4, "gemm share = {gemm_share}");
    }

    #[test]
    fn custom_widths_scale_params() {
        let small = gnmt_with(1000, 128);
        assert!(small.param_count() < gnmt().param_count() / 50);
    }
}
