//! A fixed-input convolutional network — the paper's Fig. 3 contrast
//! case. Every input is scaled to the same resolution, so every training
//! iteration performs identical computation and the per-iteration
//! statistics are flat (up to hardware jitter).

use crate::layers::{Conv2d, Dense, RowSpec, SoftmaxCrossEntropy, TimeSpec};
use crate::Network;

/// Build the reference CNN: a small VGG-style stack on 224×224 RGB
/// images with a 1000-class head.
pub fn cnn_reference() -> Network {
    cnn_with(224, 1000)
}

/// Build a CNN on `image_size`² inputs with `classes` output classes.
pub fn cnn_with(image_size: u64, classes: u64) -> Network {
    let s = image_size.max(8);
    let b = Network::builder("cnn")
        .vocab_size(classes.min(u64::from(u32::MAX)) as u32)
        .layer(
            Conv2d::new("conv1", 3, 64, s, (3, 3), (1, 1), TimeSpec::Fixed(s))
                .with_activation("relu"),
        )
        .layer(
            Conv2d::new("conv2", 64, 128, s, (3, 3), (2, 2), TimeSpec::Fixed(s))
                .with_activation("relu"),
        )
        .layer(
            Conv2d::new(
                "conv3",
                128,
                256,
                s.div_ceil(2),
                (3, 3),
                (2, 2),
                TimeSpec::Fixed(s.div_ceil(2)),
            )
            .with_activation("relu"),
        )
        .layer(
            Conv2d::new(
                "conv4",
                256,
                256,
                s.div_ceil(4),
                (3, 3),
                (2, 2),
                TimeSpec::Fixed(s.div_ceil(4)),
            )
            .with_activation("relu"),
        )
        // Global-average-pooled features into the head.
        .layer(Dense::new("fc1", 256, 512, RowSpec::PerSample).with_activation("relu"))
        .layer(SoftmaxCrossEntropy::per_sample("head", 512, classes));
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IterationShape;
    use gpu_sim::{AutotuneTable, GpuConfig};

    #[test]
    fn iterations_are_homogeneous() {
        // The defining CNN property for Fig. 3: the trace is identical
        // regardless of the (meaningless) sequence length.
        let net = cnn_reference();
        let cfg = GpuConfig::vega_fe();
        let mut tuner = AutotuneTable::new();
        let a = net.iteration_trace(&IterationShape::new(64, 1), &cfg, &mut tuner);
        let b = net.iteration_trace(&IterationShape::new(64, 500), &cfg, &mut tuner);
        assert_eq!(a, b);
    }

    #[test]
    fn has_convolutions_and_a_head() {
        let net = cnn_reference();
        let convs = net
            .layers()
            .filter(|l| l.name().starts_with("conv"))
            .count();
        assert_eq!(convs, 4);
        assert!(net.param_count() > 1_000_000);
    }
}
