//! Baidu's DeepSpeech2 (Amodei et al., 2016), as configured by the MLPerf
//! reference the paper profiles:
//!
//! * two 2-D convolutional front-end layers over the spectrogram;
//! * one batch-normalization layer;
//! * five bidirectional GRU layers (hidden 800 per direction);
//! * one fully connected classifier onto the 29-character alphabet,
//!   trained with CTC.
//!
//! The iteration's sequence length is the number of *recurrent* time
//! steps; the stride-2 front-end consumes `2·SL` spectrogram frames
//! (161 frequency bins), so the Table I classifier GEMM is
//! `M = 29, K = 1600, N = 64·SL`.

use crate::layers::{
    BatchNorm, Conv2d, CtcLoss, Dense, Gru, RowSpec, SoftmaxCrossEntropy, TimeSpec,
};
use crate::{Network, Stream};

/// DS2's output alphabet: 26 letters, space, apostrophe, CTC blank.
pub const DS2_ALPHABET: u64 = 29;

const FREQ_BINS: u64 = 161;
const CONV_CHANNELS: u64 = 32;
const GRU_HIDDEN: u64 = 800;

/// Build DeepSpeech2 with the paper's configuration.
pub fn ds2() -> Network {
    ds2_with(DS2_ALPHABET, GRU_HIDDEN)
}

/// Build DeepSpeech2 with a custom alphabet and GRU hidden width.
pub fn ds2_with(alphabet: u64, gru_hidden: u64) -> Network {
    let h = gru_hidden.max(1);
    // conv1: 41×11 kernel, stride 2×2 → freq 161→81, time 2·SL→SL.
    let conv1 = Conv2d::new(
        "conv1",
        1,
        CONV_CHANNELS,
        FREQ_BINS,
        (41, 11),
        (2, 2),
        TimeSpec::PerSourceStep(2),
    )
    .with_activation("hardtanh");
    let conv1_out_h = conv1.out_h(); // 81
                                     // conv2: 21×11 kernel, stride 2×1 → freq 81→41, time SL→SL.
    let conv2 = Conv2d::new(
        "conv2",
        CONV_CHANNELS,
        CONV_CHANNELS,
        conv1_out_h,
        (21, 11),
        (2, 1),
        TimeSpec::PerSourceStep(1),
    )
    .with_activation("hardtanh");
    let conv2_out_h = conv2.out_h(); // 41
    let gru_input = CONV_CHANNELS * conv2_out_h; // 1312 features per step

    let mut b = Network::builder("ds2")
        .vocab_size(alphabet.min(u64::from(u32::MAX)) as u32)
        .layer(conv1)
        .layer(BatchNorm::new(
            "bnorm",
            CONV_CHANNELS,
            CONV_CHANNELS * conv1_out_h,
            Stream::Source,
        ))
        .layer(conv2)
        // Five bidirectional GRUs; layers 1..5 consume the 2·H concat.
        .layer(Gru::new("gru-0", gru_input, h, Stream::Source).bidirectional());
    for i in 1..5 {
        b = b.layer(Gru::new(format!("gru-{i}"), 2 * h, h, Stream::Source).bidirectional());
    }
    b = b
        // Fully connected classifier onto the alphabet: Table I's
        // M=29, K=1600, N=64·SL GEMM.
        .layer(Dense::new(
            "fc",
            2 * h,
            alphabet,
            RowSpec::PerToken(Stream::Source),
        ))
        .layer(CtcLoss::new("ctc", alphabet, Stream::Source));
    b.finish()
}

/// DS2 variant with a per-token softmax classifier instead of CTC (used
/// by ablation experiments that need a like-for-like loss with GNMT).
pub fn ds2_softmax() -> Network {
    let mut b = Network::builder("ds2-softmax").vocab_size(DS2_ALPHABET as u32);
    let conv1 = Conv2d::new(
        "conv1",
        1,
        CONV_CHANNELS,
        FREQ_BINS,
        (41, 11),
        (2, 2),
        TimeSpec::PerSourceStep(2),
    )
    .with_activation("hardtanh");
    let conv1_out_h = conv1.out_h();
    b = b.layer(conv1).layer(BatchNorm::new(
        "bnorm",
        CONV_CHANNELS,
        CONV_CHANNELS * conv1_out_h,
        Stream::Source,
    ));
    let conv2 = Conv2d::new(
        "conv2",
        CONV_CHANNELS,
        CONV_CHANNELS,
        conv1_out_h,
        (21, 11),
        (2, 1),
        TimeSpec::PerSourceStep(1),
    )
    .with_activation("hardtanh");
    let gru_input = CONV_CHANNELS * conv2.out_h();
    b = b.layer(conv2);
    b = b.layer(Gru::new("gru-0", gru_input, GRU_HIDDEN, Stream::Source).bidirectional());
    for i in 1..5 {
        b = b.layer(
            Gru::new(
                format!("gru-{i}"),
                2 * GRU_HIDDEN,
                GRU_HIDDEN,
                Stream::Source,
            )
            .bidirectional(),
        );
    }
    b = b.layer(SoftmaxCrossEntropy::new(
        "classifier",
        2 * GRU_HIDDEN,
        DS2_ALPHABET,
        Stream::Source,
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
        let net = ds2();
        let names: Vec<&str> = net.layers().map(|l| l.name()).collect();
        assert_eq!(names.iter().filter(|n| n.starts_with("conv")).count(), 2);
        assert_eq!(names.iter().filter(|n| n.starts_with("gru")).count(), 5);
        assert!(names.contains(&"bnorm"));
        assert!(names.contains(&"fc"));
        assert!(names.contains(&"ctc"));
        assert_eq!(net.vocab_size(), 29);
    }

    #[test]
    fn classifier_input_width_is_1600() {
        // The Table I K dimension: bidirectional GRU output 2·800.
        let net = ds2();
        let cfg = GpuConfig::vega_fe();
        let mut tuner = AutotuneTable::new();
        let trace = net.iteration_trace(&IterationShape::new(64, 402), &cfg, &mut tuner);
        let expected_flops = 2.0 * 29.0 * 1600.0 * (64.0 * 402.0);
        assert!(
            trace
                .iter()
                .any(|k| (k.flops() - expected_flops).abs() < 1.0),
            "classifier GEMM M=29 K=1600 N=25728 not found"
        );
    }

    #[test]
    fn parameter_count_is_ds2_scale() {
        // Published DS2 configurations are in the 35M–120M range.
        let params = ds2().param_count();
        assert!(
            (30_000_000..130_000_000).contains(&params),
            "params = {params}"
        );
    }

    #[test]
    fn runtime_is_near_linear_in_sl() {
        let net = ds2();
        let cfg = GpuConfig::vega_fe();
        let device = Device::new(cfg.clone());
        let mut tuner = AutotuneTable::new();
        let mut t = |sl: u32| {
            device
                .run_trace(&net.iteration_trace(&IterationShape::new(64, sl), &cfg, &mut tuner))
                .total_time_s()
        };
        let ratio = t(400) / t(200);
        assert!((1.6..2.2).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn softmax_variant_shares_backbone() {
        let a = ds2();
        let b = ds2_softmax();
        // Same recurrent stack: parameter difference is only in the head.
        let diff = a.param_count().abs_diff(b.param_count());
        assert!(diff < 200_000, "diff = {diff}");
    }
}
