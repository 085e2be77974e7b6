//! Reduction and softmax kernels.
//!
//! Row-wise reductions appear throughout SQNN training: attention-score
//! normalization, loss terms, batch-norm statistics, and the vocabulary
//! softmax. Like real frameworks, the kernel chosen depends on the row
//! width (single-pass for narrow rows, two-pass for wide ones), so the
//! kernel identity varies with sequence length.

use crate::{kernel_name, KernelDesc, KernelKind};

/// Row width at which a single-workgroup-per-row reduction no longer fits
/// and a two-pass kernel is dispatched.
const SINGLE_PASS_WIDTH: u64 = 4096;

/// Build a row-wise reduction kernel (`rows` independent reductions over
/// `width` elements each), named `reduce_<op>_<1p|2p>`.
///
/// ```
/// use gpu_sim::reduce::reduce;
///
/// assert_eq!(reduce("sum", 64, 512).name(), "reduce_sum_1p");
/// assert_eq!(reduce("sum", 64, 100_000).name(), "reduce_sum_2p");
/// ```
pub fn reduce(op: &'static str, rows: u64, width: u64) -> KernelDesc {
    let (r, w) = (rows as f64, width as f64);
    let two_pass = width > SINGLE_PASS_WIDTH;
    let suffix = if two_pass { "2p" } else { "1p" };
    // A two-pass reduction writes and re-reads per-block partials.
    let partials = if two_pass {
        r * (w / SINGLE_PASS_WIDTH as f64).ceil() * 4.0
    } else {
        0.0
    };
    let name = kernel_name("reduce_", op, suffix);
    KernelDesc::builder(name, KernelKind::Reduce)
        .flops(r * w)
        .read_bytes(r * w * 4.0 + partials)
        .write_bytes(r * 4.0 + partials)
        .l1_reuse(0.1, w * 4.0)
        .l2_reuse(if two_pass { 0.3 } else { 0.0 }, partials.max(1.0))
        .workgroups(
            r.max(1.0)
                * if two_pass {
                    (w / SINGLE_PASS_WIDTH as f64).ceil()
                } else {
                    1.0
                },
        )
        .efficiency(0.6)
        .build()
}

/// Build a row-wise softmax kernel over `rows × width` scores.
///
/// Width buckets select among fused kernels (narrow rows fit in LDS) and a
/// two-pass fallback — reproducing how attention softmax (width = encoder
/// length) and vocabulary softmax (width = vocab size) bind to different
/// kernels at different sequence lengths.
pub fn softmax(rows: u64, width: u64) -> KernelDesc {
    let (r, w) = (rows as f64, width as f64);
    let name = if width <= 1024 {
        "softmax_w1k"
    } else if width <= 4096 {
        "softmax_w4k"
    } else {
        "softmax_2pass"
    };
    let passes = if width > 4096 { 3.0 } else { 2.0 };
    KernelDesc::builder(name, KernelKind::Softmax)
        .flops(r * w * 5.0) // max, subtract, exp, accumulate, divide
        .read_bytes(r * w * 4.0 * (passes - 1.0))
        .write_bytes(r * w * 4.0)
        .footprint_bytes(r * w * 8.0)
        .l1_reuse(0.6, w * 4.0)
        .l2_reuse(0.5, r * w * 4.0)
        .workgroups(r.max(1.0))
        .efficiency(0.5)
        .build()
}

/// Batch-norm statistics + normalization over `elems` activations grouped
/// into `channels` (forward). Emitted by the DS2 batch-norm layer.
pub fn batchnorm(elems: u64, channels: u64, backward: bool) -> KernelDesc {
    let e = elems as f64;
    let name = if backward { "bnorm_bwd" } else { "bnorm_fwd" };
    KernelDesc::builder(name, KernelKind::BatchNorm)
        .flops(e * if backward { 8.0 } else { 5.0 })
        .read_bytes(e * 4.0 * if backward { 3.0 } else { 2.0 })
        .write_bytes(e * 4.0 + channels as f64 * 8.0)
        .l1_reuse(0.2, 16.0 * 1024.0)
        .l2_reuse(0.3, e * 4.0)
        .workgroups((e / 1024.0).ceil().max(1.0))
        .efficiency(0.55)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{kernel_time, GpuConfig};

    #[test]
    fn pass_count_selected_by_width() {
        assert_eq!(reduce("sum", 10, 4096).name(), "reduce_sum_1p");
        assert_eq!(reduce("sum", 10, 4097).name(), "reduce_sum_2p");
    }

    #[test]
    fn softmax_buckets_by_width() {
        assert_eq!(softmax(64, 80).name(), "softmax_w1k");
        assert_eq!(softmax(64, 2048).name(), "softmax_w4k");
        assert_eq!(softmax(64, 36549).name(), "softmax_2pass");
    }

    #[test]
    fn two_pass_reads_more() {
        let narrow = reduce("sum", 100, 4096);
        let wide = reduce("sum", 100, 8192);
        let per_elem_narrow = narrow.read_bytes() / (100.0 * 4096.0);
        let per_elem_wide = wide.read_bytes() / (100.0 * 8192.0);
        assert!(per_elem_wide > per_elem_narrow);
    }

    #[test]
    fn softmax_time_grows_with_width() {
        let cfg = GpuConfig::vega_fe();
        let small = kernel_time(&cfg, &softmax(6400, 64)).time_s;
        let large = kernel_time(&cfg, &softmax(6400, 36549)).time_s;
        assert!(large > small);
    }

    #[test]
    fn batchnorm_backward_costs_more() {
        let cfg = GpuConfig::vega_fe();
        let fwd = kernel_time(&cfg, &batchnorm(1 << 22, 32, false)).time_s;
        let bwd = kernel_time(&cfg, &batchnorm(1 << 22, 32, true)).time_s;
        assert!(bwd > fwd);
    }

    #[test]
    fn zero_rows_are_harmless() {
        let k = reduce("sum", 0, 128);
        assert_eq!(k.flops(), 0.0);
        assert_eq!(k.workgroups(), 1.0);
    }
}
