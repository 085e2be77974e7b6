//! A ConvS2S-like convolutional sequence-to-sequence model (Gehring et
//! al., 2017) — one of the Section VII-B network families whose
//! computation varies with sequence length through *convolution* rather
//! than recurrence.
//!
//! Encoder and decoder are stacks of 1-D convolutions over the token
//! axis with gated linear units; an attention block connects them and a
//! vocabulary classifier closes the network.

use crate::layers::{Attention, Conv2d, Dropout, Embedding, SoftmaxCrossEntropy, TimeSpec};
use crate::{Network, Stream};

/// Build the base ConvS2S-like model: 8+8 conv layers, hidden 512,
/// kernel width 3, over the GNMT vocabulary.
pub fn conv_s2s() -> Network {
    conv_s2s_with(36_549, 512, 8)
}

/// Build a ConvS2S-like model with custom vocabulary, channel width, and
/// per-side layer count.
pub fn conv_s2s_with(vocab: u64, channels: u64, layers: u32) -> Network {
    let c = channels.max(1);
    let mut b = Network::builder("conv-s2s")
        .vocab_size(vocab.min(u64::from(u32::MAX)) as u32)
        .layer(Embedding::new("src-embed", vocab, c, Stream::Source))
        .layer(Dropout::new("src-drop", c, Stream::Source));
    for i in 0..layers {
        // 1-D conv over the token axis: height 1, kernel 1×3, GLU gate
        // (the 2·c output channels halve through the gate).
        b = b.layer(
            Conv2d::new(
                format!("enc-conv-{i}"),
                c,
                2 * c,
                1,
                (1, 3),
                (1, 1),
                TimeSpec::PerSourceStep(1),
            )
            .with_activation("glu"),
        );
    }
    b = b
        .layer(Embedding::new("tgt-embed", vocab, c, Stream::Target))
        .layer(Dropout::new("tgt-drop", c, Stream::Target));
    for i in 0..layers {
        b = b.layer(
            Conv2d::new(
                format!("dec-conv-{i}"),
                c,
                2 * c,
                1,
                (1, 3),
                (1, 1),
                TimeSpec::PerTargetStep(1),
            )
            .with_activation("glu"),
        );
    }
    b = b
        .layer(Attention::new("attention", c))
        .layer(SoftmaxCrossEntropy::new(
            "classifier",
            c,
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
    fn runtime_scales_with_sequence_length() {
        let net = conv_s2s_with(5_000, 256, 4);
        let cfg = GpuConfig::vega_fe();
        let device = Device::new(cfg.clone());
        let mut tuner = AutotuneTable::new();
        let mut t = |sl: u32| {
            device
                .run_trace(&net.iteration_trace(&IterationShape::new(64, sl), &cfg, &mut tuner))
                .total_time_s()
        };
        let (t25, t100) = (t(25), t(100));
        assert!(
            t100 > 2.5 * t25,
            "conv stack must scale with SL: {t100} vs {t25}"
        );
    }

    #[test]
    fn has_conv_stacks_on_both_sides() {
        let net = conv_s2s();
        let enc = net
            .layers()
            .filter(|l| l.name().starts_with("enc-conv"))
            .count();
        let dec = net
            .layers()
            .filter(|l| l.name().starts_with("dec-conv"))
            .count();
        assert_eq!(enc, 8);
        assert_eq!(dec, 8);
    }

    #[test]
    fn decoder_convs_follow_target_length() {
        let net = conv_s2s_with(1_000, 128, 2);
        let cfg = GpuConfig::vega_fe();
        let mut tuner = AutotuneTable::new();
        let short_tgt =
            net.iteration_trace(&IterationShape::with_lengths(8, 50, 10), &cfg, &mut tuner);
        let long_tgt =
            net.iteration_trace(&IterationShape::with_lengths(8, 50, 100), &cfg, &mut tuner);
        let flops = |t: &[gpu_sim::KernelDesc]| t.iter().map(|k| k.flops()).sum::<f64>();
        assert!(flops(&long_tgt) > flops(&short_tgt) * 1.5);
    }
}
