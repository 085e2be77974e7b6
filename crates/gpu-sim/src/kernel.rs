use std::borrow::Cow;

use serde::{Deserialize, Serialize};

/// The broad class of GPU computation a kernel performs.
///
/// The paper's kernel-distribution figures (Figs. 5, 6, 8) group kernels by
/// kind; the profiler also uses kinds to aggregate runtime shares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum KernelKind {
    /// Dense matrix multiply (rocBLAS-like tiled SGEMM).
    Gemm,
    /// Convolution lowered to implicit GEMM (MIOpen-like).
    Conv,
    /// Streaming element-wise map (activations, gate math, scaling).
    Elementwise,
    /// Reduction (sums, norms, loss terms).
    Reduce,
    /// Row-wise softmax (attention scores, vocabulary classifier).
    Softmax,
    /// Batch normalization statistics + normalization.
    BatchNorm,
    /// Data movement: gathers (embedding lookup), copies, transposes, pad.
    Memory,
    /// Optimizer parameter update (SGD/momentum element-wise sweeps).
    Optimizer,
}

impl KernelKind {
    /// Short lowercase label used in reports (e.g. `"gemm"`).
    pub fn label(self) -> &'static str {
        match self {
            KernelKind::Gemm => "gemm",
            KernelKind::Conv => "conv",
            KernelKind::Elementwise => "elementwise",
            KernelKind::Reduce => "reduce",
            KernelKind::Softmax => "softmax",
            KernelKind::BatchNorm => "batchnorm",
            KernelKind::Memory => "memory",
            KernelKind::Optimizer => "optimizer",
        }
    }

    /// All kernel kinds, in report order.
    pub fn all() -> &'static [KernelKind] {
        &[
            KernelKind::Gemm,
            KernelKind::Conv,
            KernelKind::Elementwise,
            KernelKind::Reduce,
            KernelKind::Softmax,
            KernelKind::BatchNorm,
            KernelKind::Memory,
            KernelKind::Optimizer,
        ]
    }
}

impl std::fmt::Display for KernelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A single kernel invocation: everything the timing model needs.
///
/// A `KernelDesc` plays the role a compiled GPU kernel plus its launch
/// dimensions play on real hardware. Its `name` identifies the *kernel
/// code* (e.g. which GEMM tile variant), so two invocations with the same
/// name are "the same kernel" for the paper's unique-kernel analysis
/// (Fig. 5) even if their operand shapes differ.
///
/// The name is held as a `Cow<'static, str>`. Every emitter in this
/// crate names its kernels with a `&'static str` (a literal, or one from
/// [`crate::kernel_name`]'s table), so building, cloning and pricing a
/// descriptor never allocates. A name read back from a file
/// ([`crate::trace_format::read_trace`]) is owned.
///
/// Construct descriptors through [`KernelDesc::builder`] or the domain
/// builders in [`crate::gemm`], [`crate::conv`], [`crate::elementwise`],
/// [`crate::reduce`], and [`crate::memops`]:
///
/// ```
/// use gpu_sim::{KernelDesc, KernelKind};
///
/// let k = KernelDesc::builder("ew_tanh_v4", KernelKind::Elementwise)
///     .flops(1.0e6)
///     .read_bytes(4.0e6)
///     .write_bytes(4.0e6)
///     .workgroups(1024.0)
///     .build();
/// assert_eq!(k.name(), "ew_tanh_v4");
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelDesc {
    name: KernelName,
    kind: KernelKind,
    flops: f64,
    read_bytes: f64,
    write_bytes: f64,
    footprint_bytes: f64,
    l1_locality: f64,
    l1_working_set: f64,
    l2_locality: f64,
    l2_working_set: f64,
    workgroups: f64,
    efficiency: f64,
}

impl KernelDesc {
    /// Start building a kernel descriptor.
    pub fn builder(name: impl Into<Cow<'static, str>>, kind: KernelKind) -> KernelDescBuilder {
        KernelDescBuilder {
            desc: KernelDesc {
                name: KernelName(name.into()),
                kind,
                flops: 0.0,
                read_bytes: 0.0,
                write_bytes: 0.0,
                footprint_bytes: f64::NAN, // defaults to read + write at build()
                l1_locality: 0.0,
                l1_working_set: 0.0,
                l2_locality: 0.0,
                l2_working_set: 0.0,
                workgroups: 1.0,
                efficiency: 0.8,
            },
        }
    }

    /// The kernel-code identity (variant name), e.g. `"gemm_128x128x16"`.
    pub fn name(&self) -> &str {
        &self.name.0
    }

    /// The broad computation class.
    pub fn kind(&self) -> KernelKind {
        self.kind
    }

    /// Floating-point operations performed by the invocation.
    pub fn flops(&self) -> f64 {
        self.flops
    }

    /// Bytes requested by loads (after register/LDS blocking — i.e. the
    /// traffic presented to the L1).
    pub fn read_bytes(&self) -> f64 {
        self.read_bytes
    }

    /// Bytes written by stores.
    pub fn write_bytes(&self) -> f64 {
        self.write_bytes
    }

    /// Compulsory traffic: the unique data touched. DRAM traffic never
    /// drops below this no matter how effective the caches are.
    pub fn footprint_bytes(&self) -> f64 {
        self.footprint_bytes
    }

    /// Fraction of read traffic with L1-capturable (short) reuse distance.
    pub fn l1_locality(&self) -> f64 {
        self.l1_locality
    }

    /// Per-CU working set in bytes for the L1 capture model.
    pub fn l1_working_set(&self) -> f64 {
        self.l1_working_set
    }

    /// Fraction of post-L1 read traffic with L2-capturable reuse distance.
    pub fn l2_locality(&self) -> f64 {
        self.l2_locality
    }

    /// Device-wide working set in bytes for the L2 capture model.
    pub fn l2_working_set(&self) -> f64 {
        self.l2_working_set
    }

    /// Independent workgroups launched (drives the occupancy model).
    pub fn workgroups(&self) -> f64 {
        self.workgroups
    }

    /// Fraction of peak ALU throughput achievable for this kernel's shape
    /// (tile quantization, instruction mix), in `(0, 1]`.
    pub fn efficiency(&self) -> f64 {
        self.efficiency
    }

    /// The name as stored, so a launcher can keep a static name without
    /// copying it.
    pub(crate) fn name_cow(&self) -> &Cow<'static, str> {
        &self.name.0
    }

    /// The bits of every field the timing model and the counters read:
    /// two descriptors with equal pricing bits get bit-identical timings
    /// and counters on any configuration.
    pub(crate) fn pricing_bits(&self) -> [u64; 10] {
        [
            self.flops,
            self.read_bytes,
            self.write_bytes,
            self.footprint_bytes,
            self.l1_locality,
            self.l1_working_set,
            self.l2_locality,
            self.l2_working_set,
            self.workgroups,
            self.efficiency,
        ]
        .map(f64::to_bits)
    }
}

/// A kernel name, serialized as a plain string. (The serde shim has no
/// `Cow` impls, so these two are written out.)
#[derive(Clone, PartialEq)]
struct KernelName(Cow<'static, str>);

impl std::fmt::Debug for KernelName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

impl Serialize for KernelName {
    fn to_value(&self) -> serde::Value {
        self.0.to_value()
    }
}

impl<'de> Deserialize<'de> for KernelName {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        String::from_value(value).map(|name| KernelName(Cow::Owned(name)))
    }
}

/// Builder for [`KernelDesc`]; see that type's docs for an example.
#[derive(Debug, Clone)]
pub struct KernelDescBuilder {
    desc: KernelDesc,
}

impl KernelDescBuilder {
    /// Floating-point operations performed by the invocation.
    pub fn flops(mut self, flops: f64) -> Self {
        self.desc.flops = flops;
        self
    }

    /// Bytes requested by loads.
    pub fn read_bytes(mut self, bytes: f64) -> Self {
        self.desc.read_bytes = bytes;
        self
    }

    /// Bytes written by stores.
    pub fn write_bytes(mut self, bytes: f64) -> Self {
        self.desc.write_bytes = bytes;
        self
    }

    /// Compulsory (unique-data) traffic in bytes. Defaults to
    /// `read_bytes + write_bytes` (a pure streaming kernel).
    pub fn footprint_bytes(mut self, bytes: f64) -> Self {
        self.desc.footprint_bytes = bytes;
        self
    }

    /// L1 reuse fraction and per-CU working set.
    pub fn l1_reuse(mut self, locality: f64, working_set: f64) -> Self {
        self.desc.l1_locality = locality;
        self.desc.l1_working_set = working_set;
        self
    }

    /// L2 reuse fraction and device-wide working set.
    pub fn l2_reuse(mut self, locality: f64, working_set: f64) -> Self {
        self.desc.l2_locality = locality;
        self.desc.l2_working_set = working_set;
        self
    }

    /// Independent workgroups launched.
    pub fn workgroups(mut self, wgs: f64) -> Self {
        self.desc.workgroups = wgs;
        self
    }

    /// Achievable fraction of peak ALU throughput, in `(0, 1]`.
    pub fn efficiency(mut self, eff: f64) -> Self {
        self.desc.efficiency = eff;
        self
    }

    /// Finish building the descriptor.
    ///
    /// All quantities are clamped into their valid ranges rather than
    /// rejected: negative byte/flop counts become 0, localities are clamped
    /// to `[0, 1]`, efficiency to `[0.01, 1]`, and workgroups to at least 1.
    /// The footprint is clamped to at most `read_bytes + write_bytes`.
    pub fn build(self) -> KernelDesc {
        let mut d = self.desc;
        d.flops = d.flops.max(0.0);
        d.read_bytes = d.read_bytes.max(0.0);
        d.write_bytes = d.write_bytes.max(0.0);
        let requested = d.read_bytes + d.write_bytes;
        if d.footprint_bytes.is_nan() {
            d.footprint_bytes = requested;
        }
        d.footprint_bytes = d.footprint_bytes.clamp(0.0, requested);
        d.l1_locality = d.l1_locality.clamp(0.0, 1.0);
        d.l2_locality = d.l2_locality.clamp(0.0, 1.0);
        d.l1_working_set = d.l1_working_set.max(0.0);
        d.l2_working_set = d.l2_working_set.max(0.0);
        d.workgroups = d.workgroups.max(1.0);
        d.efficiency = d.efficiency.clamp(0.01, 1.0);
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_are_streaming() {
        let k = KernelDesc::builder("copy", KernelKind::Memory)
            .read_bytes(1000.0)
            .write_bytes(1000.0)
            .build();
        assert_eq!(k.footprint_bytes(), 2000.0);
        assert_eq!(k.l1_locality(), 0.0);
        assert_eq!(k.l2_locality(), 0.0);
    }

    #[test]
    fn build_clamps_invalid_values() {
        let k = KernelDesc::builder("bad", KernelKind::Elementwise)
            .flops(-5.0)
            .read_bytes(100.0)
            .write_bytes(-10.0)
            .footprint_bytes(1e9)
            .l1_reuse(7.0, -3.0)
            .efficiency(42.0)
            .workgroups(0.0)
            .build();
        assert_eq!(k.flops(), 0.0);
        assert_eq!(k.write_bytes(), 0.0);
        assert_eq!(k.footprint_bytes(), 100.0); // clamped to requested
        assert_eq!(k.l1_locality(), 1.0);
        assert_eq!(k.l1_working_set(), 0.0);
        assert_eq!(k.efficiency(), 1.0);
        assert_eq!(k.workgroups(), 1.0);
    }

    #[test]
    fn kind_labels_are_unique() {
        let mut labels: Vec<&str> = KernelKind::all().iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), KernelKind::all().len());
    }

    #[test]
    fn display_matches_label() {
        assert_eq!(KernelKind::Gemm.to_string(), "gemm");
        assert_eq!(KernelKind::Softmax.to_string(), "softmax");
    }
}
