//! Streaming element-wise kernels (activations, gate math, scaling).
//!
//! Element-wise kernels are memory-bound streaming sweeps. Real frameworks
//! emit differently vectorized variants depending on tensor size, so the
//! kernel *name* — and thus the unique-kernel set of an iteration —
//! changes with sequence length, contributing to the paper's Fig. 5.

use crate::{kernel_name, KernelDesc, KernelKind};

/// Elements per workgroup used by the launch-geometry model.
const ELEMS_PER_WORKGROUP: f64 = 1024.0;

/// Vectorization suffix chosen by tensor size, mimicking framework
/// dispatch heuristics (wide loads only pay off for large tensors).
fn vector_suffix(elems: u64) -> &'static str {
    if elems >= 1 << 22 {
        "v4"
    } else if elems >= 1 << 18 {
        "v2"
    } else {
        "v1"
    }
}

/// Build an element-wise map kernel named after `op` (e.g. `"tanh"`,
/// `"sigmoid"`, `"add"`): `elems` output elements, `inputs` input tensors
/// of the same size, `flops_per_elem` arithmetic per element. The kernel
/// is named `ew_<op>_<v1|v2|v4>` by tensor size.
///
/// ```
/// use gpu_sim::elementwise::map;
///
/// let k = map("tanh", 1 << 20, 4.0, 1);
/// assert_eq!(k.name(), "ew_tanh_v2");
/// ```
pub fn map(op: &'static str, elems: u64, flops_per_elem: f64, inputs: u32) -> KernelDesc {
    let e = elems as f64;
    let reads = e * 4.0 * f64::from(inputs);
    let writes = e * 4.0;
    KernelDesc::builder(
        kernel_name("ew_", op, vector_suffix(elems)),
        KernelKind::Elementwise,
    )
    .flops(e * flops_per_elem.max(0.0))
    .read_bytes(reads)
    .write_bytes(writes)
    // Producer→consumer forwarding: in a back-to-back kernel stream most
    // element-wise inputs were just written by the previous kernel, so
    // when the tensor still fits in the L2 the compulsory DRAM traffic is
    // only the output (plus a cold fraction of the input). With the L2
    // disabled (config #5) everything spills to DRAM.
    .footprint_bytes(writes + 0.25 * reads)
    .l2_reuse(0.75, reads)
    .workgroups((e / ELEMS_PER_WORKGROUP).ceil())
    .efficiency(0.85)
    .build()
}

/// A fused dropout kernel: one read, one mask generation, one write.
pub fn dropout(elems: u64) -> KernelDesc {
    let e = elems as f64;
    KernelDesc::builder(
        kernel_name("ew_", "dropout", vector_suffix(elems)),
        KernelKind::Elementwise,
    )
    .flops(e * 3.0)
    .read_bytes(e * 4.0)
    .write_bytes(e * 5.0) // output + packed mask
    .workgroups((e / ELEMS_PER_WORKGROUP).ceil())
    .efficiency(0.85)
    .build()
}

/// An optimizer parameter-update sweep (SGD with momentum): reads the
/// parameter, gradient, and momentum tensors; writes parameter and
/// momentum. Its cost is independent of sequence length, which gives SQNN
/// iteration runtimes their constant component.
pub fn sgd_momentum_update(params: u64) -> KernelDesc {
    let p = params as f64;
    KernelDesc::builder("opt_sgd_momentum", KernelKind::Optimizer)
        .flops(p * 4.0)
        .read_bytes(p * 4.0 * 3.0)
        .write_bytes(p * 4.0 * 2.0)
        .workgroups((p / ELEMS_PER_WORKGROUP).ceil())
        .efficiency(0.85)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{kernel_time, GpuConfig};

    #[test]
    fn name_varies_with_size() {
        assert_eq!(map("tanh", 1 << 16, 1.0, 1).name(), "ew_tanh_v1");
        assert_eq!(map("tanh", 1 << 20, 1.0, 1).name(), "ew_tanh_v2");
        assert_eq!(map("tanh", 1 << 23, 1.0, 1).name(), "ew_tanh_v4");
    }

    #[test]
    fn elementwise_is_memory_bound() {
        let cfg = GpuConfig::vega_fe();
        let k = map("add", 1 << 24, 1.0, 2);
        let t = kernel_time(&cfg, &k);
        assert!(t.memory_bound());
    }

    #[test]
    fn traffic_scales_with_inputs() {
        let one = map("scale", 1000, 1.0, 1);
        let two = map("add", 1000, 1.0, 2);
        assert!(two.read_bytes() > one.read_bytes());
        assert_eq!(one.write_bytes(), two.write_bytes());
    }

    #[test]
    fn small_tensors_benefit_from_l2_forwarding() {
        use crate::{kernel_time, GpuConfig};
        let k = map("relu", 100_000, 1.0, 1); // 400 KB: fits the 4 MiB L2
        let base = GpuConfig::vega_fe();
        let no_l2 = GpuConfig::builder("nl2").l2_mib(0).build().unwrap();
        let with = kernel_time(&base, &k);
        let without = kernel_time(&no_l2, &k);
        assert!(with.cache.dram_bytes < without.cache.dram_bytes);
        // Inputs are never L1-forwarded (kernels run back to back on
        // different CUs), only L2.
        assert_eq!(k.l1_locality(), 0.0);
    }

    #[test]
    fn huge_tensors_see_no_forwarding_benefit() {
        use crate::CacheModel;
        use crate::GpuConfig;
        let k = map("relu", 64 << 20, 1.0, 1); // 256 MB ≫ L2
        let cm = CacheModel::evaluate(&GpuConfig::vega_fe(), &k);
        // Capture fraction ~4/256: nearly all traffic reaches DRAM.
        assert!(cm.dram_bytes > 0.95 * (k.read_bytes() + k.write_bytes()));
    }

    #[test]
    fn optimizer_update_is_sl_independent_shape() {
        let a = sgd_momentum_update(1_000_000);
        let b = sgd_momentum_update(1_000_000);
        assert_eq!(a, b);
        assert_eq!(a.kind(), KernelKind::Optimizer);
    }

    #[test]
    fn dropout_writes_mask() {
        let k = dropout(1 << 10);
        assert!(k.write_bytes() > k.read_bytes());
    }

    #[test]
    fn negative_flops_clamped() {
        let k = map("weird", 100, -3.0, 1);
        assert_eq!(k.flops(), 0.0);
    }
}
