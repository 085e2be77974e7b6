//! A Seq2Seq model with attention (Luong et al., 2014) — the classic
//! 4+4-layer LSTM encoder–decoder the paper's Section VII-B lists among
//! the networks SeqPoint applies to.

use crate::layers::{Attention, Dropout, Embedding, Lstm, SoftmaxCrossEntropy};
use crate::{Network, Stream};

/// Build the classic Seq2Seq: 4-layer LSTM encoder, 4-layer LSTM
/// decoder, attention, hidden 1000, over a 50k vocabulary.
pub fn seq2seq() -> Network {
    seq2seq_with(50_000, 1_000, 4)
}

/// Build a Seq2Seq model with custom dimensions.
pub fn seq2seq_with(vocab: u64, hidden: u64, layers_per_side: u32) -> Network {
    let h = hidden.max(1);
    let mut b = Network::builder("seq2seq")
        .vocab_size(vocab.min(u64::from(u32::MAX)) as u32)
        .layer(Embedding::new("src-embed", vocab, h, Stream::Source))
        .layer(Dropout::new("src-drop", h, Stream::Source));
    for i in 0..layers_per_side {
        b = b.layer(Lstm::new(format!("enc-lstm-{i}"), h, h, Stream::Source));
    }
    b = b
        .layer(Embedding::new("tgt-embed", vocab, h, Stream::Target))
        .layer(Dropout::new("tgt-drop", h, Stream::Target));
    for i in 0..layers_per_side {
        b = b.layer(Lstm::new(format!("dec-lstm-{i}"), h, h, Stream::Target));
    }
    b = b
        .layer(Attention::new("attention", h))
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
    fn structure_is_4_plus_4() {
        let net = seq2seq();
        let enc = net
            .layers()
            .filter(|l| l.name().starts_with("enc-lstm"))
            .count();
        let dec = net
            .layers()
            .filter(|l| l.name().starts_with("dec-lstm"))
            .count();
        assert_eq!(enc, 4);
        assert_eq!(dec, 4);
        // ~4x H² per LSTM, 8 LSTMs, two 50k×1000 embeddings + classifier.
        assert!(net.param_count() > 180_000_000);
    }

    #[test]
    fn runtime_is_sl_dependent() {
        let net = seq2seq_with(2_000, 256, 2);
        let cfg = GpuConfig::vega_fe();
        let device = Device::new(cfg.clone());
        let mut tuner = AutotuneTable::new();
        let mut t = |sl: u32| {
            device
                .run_trace(&net.iteration_trace(&IterationShape::new(64, sl), &cfg, &mut tuner))
                .total_time_s()
        };
        assert!(t(80) > 2.0 * t(20));
    }
}
