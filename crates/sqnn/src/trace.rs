use std::cell::Cell;
use std::collections::HashMap;

use gpu_sim::gemm::GemmShape;
use gpu_sim::{
    conv, elementwise, memops, reduce, AutotuneTable, Device, GpuConfig, KernelDesc, KeyHash,
    Launcher, TraceProfile,
};

/// The emission context layers write kernels into: the target hardware
/// configuration (needed for autotuned kernel selection), the autotune
/// table, and where emitted kernels go.
///
/// A context made with [`TraceCtx::new`] collects the kernels into a
/// trace ([`TraceCtx::into_trace`]). One made with [`TraceCtx::running`]
/// launches each kernel on a [`Device`]'s [`Launcher`] as it is emitted
/// and keeps only the aggregate [`TraceProfile`]
/// ([`TraceCtx::into_profile`]), so a shape is profiled without holding
/// its unrolled trace, and each distinct launch is priced once. Both see
/// the same kernels in the same order, and [`Device::run_trace`] goes
/// through a launcher too, so the running profile equals `run_trace` over
/// the collected trace, bit for bit.
///
/// Layers call the `emit_*` helpers rather than constructing
/// [`KernelDesc`]s directly, which keeps kernel naming and the traffic
/// models consistent across the whole network zoo. The helpers take
/// `&'static str` op labels and GEMM flavors, and every kernel name is a
/// `&'static str` (a literal, or one from [`gpu_sim::kernel_name`]'s
/// table), so emitting a kernel allocates nothing per launch.
///
/// A shape unrolls a few dozen distinct GEMM problems once per timestep,
/// so a context builds each problem's tuned descriptor once, on its first
/// emission, and re-emits that descriptor for every repeat. The memo
/// lives as long as the context: the autotune table keeps the variant
/// choices for the whole run, but built descriptors are dropped with the
/// shape that emitted them. Only the memo's storage is kept, for the
/// thread's next context, so a warm thread's contexts allocate nothing
/// for it.
#[derive(Debug)]
pub struct TraceCtx<'a> {
    cfg: &'a GpuConfig,
    tuner: &'a mut AutotuneTable,
    /// Each GEMM problem's descriptor, built once by the tuner.
    gemms: GemmMemo,
    /// Descriptors built through the tuner so far.
    #[cfg(test)]
    gemm_builds: usize,
    sink: Sink<'a>,
}

/// A context's GEMM memo: each problem's tuned descriptor.
type GemmMemo = HashMap<(&'static str, GemmShape), KernelDesc, KeyHash>;

thread_local! {
    /// The GEMM memo of this thread's last finished context, emptied, for
    /// the next one to reuse. Growing a fresh memo for every shape raised
    /// a DS2 epoch's peak RSS by about 4 %.
    static SPARE_GEMMS: Cell<GemmMemo> = const { Cell::new(HashMap::with_hasher(KeyHash::new())) };
}

/// Where a [`TraceCtx`] sends emitted kernels.
#[derive(Debug)]
enum Sink<'a> {
    Trace(Vec<KernelDesc>),
    Running(Launcher<'a>),
}

impl<'a> TraceCtx<'a> {
    /// Create an empty context that collects a trace targeting `cfg`.
    pub fn new(cfg: &'a GpuConfig, tuner: &'a mut AutotuneTable) -> Self {
        TraceCtx::with_sink(cfg, tuner, Sink::Trace(Vec::new()))
    }

    /// Create an empty context that prices every emitted kernel on
    /// `device` straight away, in emission order.
    pub fn running(device: &'a Device, tuner: &'a mut AutotuneTable) -> Self {
        TraceCtx::with_sink(device.config(), tuner, Sink::Running(device.launcher()))
    }

    fn with_sink(cfg: &'a GpuConfig, tuner: &'a mut AutotuneTable, sink: Sink<'a>) -> Self {
        TraceCtx {
            cfg,
            tuner,
            gemms: SPARE_GEMMS.take(),
            #[cfg(test)]
            gemm_builds: 0,
            sink,
        }
    }

    /// The hardware configuration being targeted.
    pub fn config(&self) -> &GpuConfig {
        self.cfg
    }

    /// Number of GEMM descriptors this context has had the tuner build.
    #[cfg(test)]
    pub(crate) fn gemm_builds(&self) -> usize {
        self.gemm_builds
    }

    /// Number of kernels emitted so far.
    pub fn len(&self) -> usize {
        match &self.sink {
            Sink::Trace(kernels) => kernels.len(),
            Sink::Running(launcher) => launcher.launches() as usize,
        }
    }

    /// Whether no kernels have been emitted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Consume the context, returning the emitted trace. A running
    /// context keeps no trace, so it returns an empty one.
    pub fn into_trace(self) -> Vec<KernelDesc> {
        match self.into_sink() {
            Sink::Trace(kernels) => kernels,
            Sink::Running(_) => Vec::new(),
        }
    }

    /// Consume the context, returning the profile of the emitted kernels.
    /// A collecting context priced nothing, so it returns an empty one.
    pub fn into_profile(self) -> TraceProfile {
        match self.into_sink() {
            Sink::Trace(_) => TraceProfile::new(),
            Sink::Running(launcher) => launcher.finish(),
        }
    }

    /// Consume the context, handing its emptied GEMM memo to the thread's
    /// next context, and return its sink.
    fn into_sink(self) -> Sink<'a> {
        let TraceCtx {
            mut gemms, sink, ..
        } = self;
        gemms.clear();
        SPARE_GEMMS.set(gemms);
        sink
    }

    fn push(&mut self, kernel: KernelDesc) {
        match &mut self.sink {
            Sink::Trace(kernels) => kernels.push(kernel),
            Sink::Running(launcher) => launcher.launch(&kernel),
        }
    }

    /// Emit a raw kernel descriptor.
    pub fn emit(&mut self, kernel: KernelDesc) {
        self.push(kernel);
    }

    /// Emit an autotuned GEMM `C[m×n] += A[m×k]·B[k×n]` with layout
    /// `flavor` (`"nn"` forward, `"nt"` backward-data, `"tn"`
    /// backward-weights, `"bnn"`/`"bnt"` strided-batched). The tuner
    /// builds a problem's descriptor on its first emission in this
    /// context; every repeat re-emits that descriptor.
    pub fn emit_gemm(&mut self, flavor: &'static str, m: u64, k: u64, n: u64) {
        let shape = GemmShape::new(m, k, n);
        let kernel = self.gemms.entry((flavor, shape)).or_insert_with(|| {
            #[cfg(test)]
            {
                self.gemm_builds += 1;
            }
            self.tuner.gemm_flavored(self.cfg, flavor, shape)
        });
        match &mut self.sink {
            Sink::Trace(kernels) => kernels.push(kernel.clone()),
            Sink::Running(launcher) => launcher.launch(kernel),
        }
    }

    /// Emit an element-wise map kernel.
    pub fn emit_ew(&mut self, op: &'static str, elems: u64, flops_per_elem: f64, inputs: u32) {
        self.push(elementwise::map(op, elems, flops_per_elem, inputs));
    }

    /// Emit a dropout kernel.
    pub fn emit_dropout(&mut self, elems: u64) {
        self.push(elementwise::dropout(elems));
    }

    /// Emit a row-wise reduction.
    pub fn emit_reduce(&mut self, op: &'static str, rows: u64, width: u64) {
        self.push(reduce::reduce(op, rows, width));
    }

    /// Emit a row-wise softmax.
    pub fn emit_softmax(&mut self, rows: u64, width: u64) {
        self.push(reduce::softmax(rows, width));
    }

    /// Emit a batch-norm kernel.
    pub fn emit_batchnorm(&mut self, elems: u64, channels: u64, backward: bool) {
        self.push(reduce::batchnorm(elems, channels, backward));
    }

    /// Emit an embedding-table gather.
    pub fn emit_gather(&mut self, rows: u64, row_bytes: u64, table_bytes: u64) {
        self.push(memops::gather(rows, row_bytes, table_bytes));
    }

    /// Emit an embedding-gradient scatter-add.
    pub fn emit_scatter_add(&mut self, rows: u64, row_bytes: u64, table_bytes: u64) {
        self.push(memops::scatter_add(rows, row_bytes, table_bytes));
    }

    /// Emit a device copy.
    pub fn emit_copy(&mut self, bytes: u64) {
        self.push(memops::copy(bytes));
    }

    /// Emit a concatenation.
    pub fn emit_concat(&mut self, bytes: u64) {
        self.push(memops::concat(bytes));
    }

    /// Emit a tiled transpose.
    pub fn emit_transpose(&mut self, rows: u64, cols: u64) {
        self.push(memops::transpose(rows, cols));
    }

    /// Emit one convolution pass.
    pub fn emit_conv(&mut self, shape: &conv::ConvShape, pass: conv::ConvPass) {
        self.push(conv::kernel(self.cfg, shape, pass));
    }

    /// Emit an optimizer parameter-update sweep.
    pub fn emit_optimizer(&mut self, params: u64) {
        self.push(elementwise::sgd_momentum_update(params));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_append_kernels() {
        let cfg = GpuConfig::vega_fe();
        let mut tuner = AutotuneTable::new();
        let mut ctx = TraceCtx::new(&cfg, &mut tuner);
        assert!(ctx.is_empty());
        ctx.emit_gemm("nn", 128, 128, 128);
        ctx.emit_ew("tanh", 1024, 4.0, 1);
        ctx.emit_softmax(64, 100);
        ctx.emit_gather(64, 4096, 1 << 20);
        assert_eq!(ctx.len(), 4);
        let trace = ctx.into_trace();
        assert!(trace[0].name().starts_with("gemm_nn_"));
        assert!(trace[1].name().starts_with("ew_tanh"));
    }

    #[test]
    fn gemm_emission_uses_shared_tuner() {
        let cfg = GpuConfig::vega_fe();
        let mut tuner = AutotuneTable::new();
        {
            let mut ctx = TraceCtx::new(&cfg, &mut tuner);
            ctx.emit_gemm("nn", 256, 256, 256);
            ctx.emit_gemm("nn", 256, 256, 256);
        }
        assert_eq!(tuner.shapes_tuned(), 1);
    }

    fn emit_some(ctx: &mut TraceCtx<'_>) {
        ctx.emit_gemm("nn", 128, 128, 128);
        ctx.emit_ew("tanh", 1024, 4.0, 1);
        ctx.emit_gemm("nn", 128, 128, 128);
        ctx.emit_softmax(64, 100);
    }

    #[test]
    fn running_context_prices_what_a_trace_would_hold() {
        let device = Device::with_jitter(GpuConfig::vega_fe(), gpu_sim::JitterModel::new(0.02, 3));
        let (mut traced, mut ran) = (AutotuneTable::new(), AutotuneTable::new());
        let mut ctx = TraceCtx::new(device.config(), &mut traced);
        emit_some(&mut ctx);
        let trace = ctx.into_trace();
        let mut ctx = TraceCtx::running(&device, &mut ran);
        assert!(ctx.is_empty());
        emit_some(&mut ctx);
        assert_eq!(ctx.len(), trace.len());
        assert_eq!(ctx.into_profile(), device.run_trace(&trace));
        assert_eq!(
            ran.tuning_cost_s().to_bits(),
            traced.tuning_cost_s().to_bits()
        );
    }

    /// Emit `problems` in order into a context of each kind, and check
    /// both emit exactly what `tuner.gemm_flavored` returns for each.
    fn assert_emits_tuned(cfg: &GpuConfig, problems: &[(&'static str, GemmShape)]) {
        let mut fresh = AutotuneTable::new();
        let want: Vec<KernelDesc> = problems
            .iter()
            .map(|&(flavor, shape)| fresh.gemm_flavored(cfg, flavor, shape))
            .collect();
        let mut tuner = AutotuneTable::new();
        let mut ctx = TraceCtx::new(cfg, &mut tuner);
        for &(flavor, GemmShape { m, k, n }) in problems {
            ctx.emit_gemm(flavor, m, k, n);
        }
        assert_eq!(ctx.into_trace(), want, "on {}", cfg.name());
        let device = Device::new(cfg.clone());
        let mut tuner = AutotuneTable::new();
        let mut ctx = TraceCtx::running(&device, &mut tuner);
        for &(flavor, GemmShape { m, k, n }) in problems {
            ctx.emit_gemm(flavor, m, k, n);
        }
        assert_eq!(ctx.into_profile(), device.run_trace(&want));
    }

    #[test]
    fn memoized_gemms_are_the_tuners_descriptors_in_order() {
        // Attention's decoder step alternates two shapes under one
        // flavor; the backward pass repeats one shape under two flavors.
        let (scores, context) = (GemmShape::new(40, 1024, 16), GemmShape::new(1024, 40, 16));
        let square = GemmShape::new(1024, 1024, 16);
        let mut problems = Vec::new();
        for _ in 0..3 {
            problems.extend([("bnn", scores), ("bnn", context)]);
            problems.extend([("nt", square), ("tn", square), ("nn", square)]);
        }
        assert_emits_tuned(&GpuConfig::vega_fe(), &problems);
    }

    #[test]
    fn each_context_emits_its_own_configs_choice() {
        let base = GpuConfig::vega_fe();
        let small = GpuConfig::builder("cu4").cu_count(4).build().unwrap();
        let shape = GemmShape::new(512, 512, 512);
        let pick = |cfg: &GpuConfig| AutotuneTable::new().gemm_flavored(cfg, "nn", shape);
        assert_ne!(pick(&base).name(), pick(&small).name());
        // One after the other on one thread, as a profiler's shapes are.
        for cfg in [&base, &small, &base] {
            assert_emits_tuned(cfg, &[("nn", shape), ("nn", shape)]);
        }
    }

    #[test]
    fn mismatched_finish_is_empty() {
        let device = Device::new(GpuConfig::vega_fe());
        let mut tuner = AutotuneTable::new();
        let mut ctx = TraceCtx::running(&device, &mut tuner);
        emit_some(&mut ctx);
        assert!(ctx.into_trace().is_empty());
        let mut ctx = TraceCtx::new(device.config(), &mut tuner);
        emit_some(&mut ctx);
        assert_eq!(ctx.into_profile(), TraceProfile::new());
    }
}
