//! A Transformer encoder–decoder (Vaswani et al., 2017) — the
//! Section VII-B extension showing SeqPoint applies to any network whose
//! computation varies with input sequence length, not just RNNs.

use crate::layers::{Dense, Dropout, Embedding, RowSpec, SelfAttention, SoftmaxCrossEntropy};
use crate::{Network, Stream};

/// Build the base Transformer: 6+6 layers, hidden 512, 8 heads, FFN 2048,
/// over the GNMT vocabulary.
pub fn transformer_base() -> Network {
    transformer_with(36_549, 512, 8, 6)
}

/// Build a Transformer with custom dimensions.
pub fn transformer_with(vocab: u64, hidden: u64, heads: u64, layers: u32) -> Network {
    let h = hidden.max(1);
    let ffn = 4 * h;
    let mut b = Network::builder("transformer")
        .vocab_size(vocab.min(u64::from(u32::MAX)) as u32)
        .layer(Embedding::new("src-embed", vocab, h, Stream::Source))
        .layer(Dropout::new("src-drop", h, Stream::Source));
    for i in 0..layers {
        b = b
            .layer(SelfAttention::new(
                format!("enc-attn-{i}"),
                h,
                heads,
                Stream::Source,
            ))
            .layer(
                Dense::new(
                    format!("enc-ffn1-{i}"),
                    h,
                    ffn,
                    RowSpec::PerToken(Stream::Source),
                )
                .with_activation("gelu"),
            )
            .layer(Dense::new(
                format!("enc-ffn2-{i}"),
                ffn,
                h,
                RowSpec::PerToken(Stream::Source),
            ));
    }
    b = b
        .layer(Embedding::new("tgt-embed", vocab, h, Stream::Target))
        .layer(Dropout::new("tgt-drop", h, Stream::Target));
    for i in 0..layers {
        b = b
            .layer(SelfAttention::new(
                format!("dec-attn-{i}"),
                h,
                heads,
                Stream::Target,
            ))
            // Cross-attention approximated as another attention block over
            // the target stream (source/target lengths are equal here).
            .layer(SelfAttention::new(
                format!("dec-xattn-{i}"),
                h,
                heads,
                Stream::Target,
            ))
            .layer(
                Dense::new(
                    format!("dec-ffn1-{i}"),
                    h,
                    ffn,
                    RowSpec::PerToken(Stream::Target),
                )
                .with_activation("gelu"),
            )
            .layer(Dense::new(
                format!("dec-ffn2-{i}"),
                ffn,
                h,
                RowSpec::PerToken(Stream::Target),
            ));
    }
    b = b.layer(SoftmaxCrossEntropy::new(
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
    fn runtime_varies_with_sequence_length() {
        // The property that makes SeqPoint applicable (Section VII-B).
        let net = transformer_base();
        let cfg = GpuConfig::vega_fe();
        let device = Device::new(cfg.clone());
        let mut tuner = AutotuneTable::new();
        let mut t = |sl: u32| {
            device
                .run_trace(&net.iteration_trace(&IterationShape::new(64, sl), &cfg, &mut tuner))
                .total_time_s()
        };
        assert!(t(100) > 1.7 * t(50), "quadratic attention should dominate");
    }

    #[test]
    fn base_configuration_is_sane() {
        let net = transformer_base();
        assert!(net.param_count() > 40_000_000);
        let attn = net.layers().filter(|l| l.name().contains("attn")).count();
        assert_eq!(attn, 6 + 12);
    }
}
