use gpu_sim::{AutotuneTable, Device, GpuConfig, KernelDesc, TraceProfile};

use crate::{IterationShape, Layer, ModelError, TraceCtx};

/// The optimizer whose parameter-update sweep closes every training
/// iteration. Its cost depends only on the parameter count — never on the
/// sequence length — giving iteration runtimes their constant component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Optimizer {
    /// Plain stochastic gradient descent.
    Sgd,
    /// SGD with momentum (the default; what the paper's MLPerf reference
    /// implementations use).
    #[default]
    SgdMomentum,
}

/// An end-to-end network: an ordered layer stack plus an optimizer.
///
/// A `Network` does not hold tensors — it is a *kernel emitter*: given an
/// iteration's input shape it emits the kernel sequence of the forward
/// pass, the backward pass (reverse layer order), and the optimizer
/// update, exactly the structure the paper's profiled iterations have.
/// [`Network::iteration_profile`] prices each kernel on a device as it is
/// emitted; [`Network::iteration_trace`] collects the kernels instead, for
/// export and inspection.
///
/// ```
/// use gpu_sim::{AutotuneTable, Device, GpuConfig};
/// use sqnn::{models::ds2, IterationShape};
///
/// let net = ds2();
/// let device = Device::new(GpuConfig::vega_fe());
/// let mut tuner = AutotuneTable::new();
/// let shape = IterationShape::new(64, 100);
/// let profile = net.iteration_profile(&shape, &device, &mut tuner);
/// assert!(profile.launches() > 100);
/// let trace = net.iteration_trace(&shape, device.config(), &mut tuner);
/// assert_eq!(device.run_trace(&trace), profile);
/// ```
#[derive(Debug)]
pub struct Network {
    name: String,
    layers: Vec<Box<dyn Layer>>,
    vocab_size: u32,
    optimizer: Optimizer,
}

impl Network {
    /// Start building a network named `name`.
    pub fn builder(name: impl Into<String>) -> NetworkBuilder {
        NetworkBuilder {
            name: name.into(),
            layers: Vec::new(),
            vocab_size: 1,
            optimizer: Optimizer::default(),
        }
    }

    /// The network's name (e.g. `"gnmt"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The vocabulary size the network was configured for.
    pub fn vocab_size(&self) -> u32 {
        self.vocab_size
    }

    /// The optimizer used for parameter updates.
    pub fn optimizer(&self) -> Optimizer {
        self.optimizer
    }

    /// Number of layers.
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }

    /// Iterate over the layers in forward order.
    pub fn layers(&self) -> impl Iterator<Item = &dyn Layer> {
        self.layers.iter().map(Box::as_ref)
    }

    /// Total learnable parameters.
    pub fn param_count(&self) -> u64 {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    /// Emit the full training-iteration trace for `shape`: forward pass,
    /// backward pass in reverse layer order, and one optimizer update per
    /// parameterized layer.
    pub fn iteration_trace(
        &self,
        shape: &IterationShape,
        cfg: &GpuConfig,
        tuner: &mut AutotuneTable,
    ) -> Vec<KernelDesc> {
        let mut ctx = TraceCtx::new(cfg, tuner);
        self.emit(shape, true, &mut ctx);
        ctx.into_trace()
    }

    /// Profile one training iteration of `shape` on `device`, pricing each
    /// kernel as it is emitted. Equals `device.run_trace(&iteration_trace(..))`
    /// bit for bit, without building the trace.
    pub fn iteration_profile(
        &self,
        shape: &IterationShape,
        device: &Device,
        tuner: &mut AutotuneTable,
    ) -> TraceProfile {
        let mut ctx = TraceCtx::running(device, tuner);
        self.emit(shape, true, &mut ctx);
        ctx.into_profile()
    }

    /// Emit a forward-only (inference) trace for `shape` — the
    /// Section VII-E use case.
    pub fn inference_trace(
        &self,
        shape: &IterationShape,
        cfg: &GpuConfig,
        tuner: &mut AutotuneTable,
    ) -> Vec<KernelDesc> {
        let mut ctx = TraceCtx::new(cfg, tuner);
        self.emit(shape, false, &mut ctx);
        ctx.into_trace()
    }

    /// Profile one forward-only (inference) pass of `shape` on `device`,
    /// pricing each kernel as it is emitted; the running counterpart of
    /// [`Network::inference_trace`].
    pub fn inference_profile(
        &self,
        shape: &IterationShape,
        device: &Device,
        tuner: &mut AutotuneTable,
    ) -> TraceProfile {
        let mut ctx = TraceCtx::running(device, tuner);
        self.emit(shape, false, &mut ctx);
        ctx.into_profile()
    }

    /// The one layer order: forward pass, then (when `training`) the
    /// backward pass in reverse layer order and one optimizer update per
    /// parameterized layer.
    fn emit(&self, shape: &IterationShape, training: bool, ctx: &mut TraceCtx<'_>) {
        for layer in &self.layers {
            layer.emit_forward(shape, ctx);
        }
        if !training {
            return;
        }
        for layer in self.layers.iter().rev() {
            layer.emit_backward(shape, ctx);
        }
        for layer in &self.layers {
            let params = layer.param_count();
            if params > 0 {
                ctx.emit_optimizer(params);
            }
        }
    }
}

/// Builder for [`Network`]; see that type's docs.
#[derive(Debug)]
pub struct NetworkBuilder {
    name: String,
    layers: Vec<Box<dyn Layer>>,
    vocab_size: u32,
    optimizer: Optimizer,
}

impl NetworkBuilder {
    /// Append a layer.
    pub fn layer(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Set the vocabulary size metadata.
    pub fn vocab_size(mut self, vocab: u32) -> Self {
        self.vocab_size = vocab.max(1);
        self
    }

    /// Select the optimizer.
    pub fn optimizer(mut self, opt: Optimizer) -> Self {
        self.optimizer = opt;
        self
    }

    /// Finish building.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParameter`] if no layers were added.
    pub fn build(self) -> Result<Network, ModelError> {
        if self.layers.is_empty() {
            return Err(ModelError::invalid(
                "layers",
                "network needs at least one layer",
            ));
        }
        Ok(self.finish())
    }

    /// Finish a builder whose layer list is fixed and non-empty, as every
    /// model in the zoo's is, without the check [`NetworkBuilder::build`]
    /// makes.
    pub(crate) fn finish(self) -> Network {
        Network {
            name: self.name,
            layers: self.layers,
            vocab_size: self.vocab_size,
            optimizer: self.optimizer,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, RowSpec};
    use crate::Stream;

    fn tiny_net() -> Network {
        Network::builder("tiny")
            .vocab_size(100)
            .layer(Dense::new("a", 8, 8, RowSpec::PerToken(Stream::Source)))
            .layer(Dense::new("b", 8, 4, RowSpec::PerSample))
            .build()
            .unwrap()
    }

    #[test]
    fn empty_network_is_rejected() {
        assert!(Network::builder("x").build().is_err());
    }

    #[test]
    fn trace_contains_fwd_bwd_and_optimizer() {
        let net = tiny_net();
        let cfg = GpuConfig::vega_fe();
        let mut tuner = AutotuneTable::new();
        let trace = net.iteration_trace(&IterationShape::new(4, 4), &cfg, &mut tuner);
        let opt_kernels = trace
            .iter()
            .filter(|k| k.kind() == gpu_sim::KernelKind::Optimizer)
            .count();
        assert_eq!(opt_kernels, 2); // one per parameterized layer
        let inference = net.inference_trace(&IterationShape::new(4, 4), &cfg, &mut tuner);
        assert!(inference.len() < trace.len());
    }

    #[test]
    fn each_gemm_problem_is_built_once_per_context() {
        let net = crate::models::gnmt();
        let device = gpu_sim::Device::new(GpuConfig::vega_fe());
        for sl in [20, 120] {
            let shape = IterationShape::new(16, sl);
            // A fresh tuner tunes each distinct (flavor, shape) once.
            let mut tuner = AutotuneTable::new();
            let gemm_launches = net
                .iteration_trace(&shape, device.config(), &mut tuner)
                .iter()
                .filter(|k| k.kind() == gpu_sim::KernelKind::Gemm)
                .count();
            let problems = tuner.shapes_tuned();
            assert!(problems * 10 < gemm_launches, "SL {sl}: {problems}");
            // The tuner is warm now; each new context still builds every
            // problem once.
            for _ in 0..2 {
                let mut ctx = TraceCtx::running(&device, &mut tuner);
                net.emit(&shape, true, &mut ctx);
                assert_eq!(ctx.gemm_builds(), problems, "SL {sl}");
            }
        }
    }

    #[test]
    fn param_count_sums_layers() {
        let net = tiny_net();
        assert_eq!(net.param_count(), (8 * 8 + 8) + (8 * 4 + 4));
    }

    #[test]
    fn optimizer_cost_is_sl_independent() {
        let net = tiny_net();
        let cfg = GpuConfig::vega_fe();
        let mut tuner = AutotuneTable::new();
        let short = net.iteration_trace(&IterationShape::new(4, 2), &cfg, &mut tuner);
        let long = net.iteration_trace(&IterationShape::new(4, 50), &cfg, &mut tuner);
        let opt = |t: &[KernelDesc]| -> Vec<KernelDesc> {
            t.iter()
                .filter(|k| k.kind() == gpu_sim::KernelKind::Optimizer)
                .cloned()
                .collect()
        };
        assert_eq!(opt(&short), opt(&long));
    }

    #[test]
    fn metadata_accessors() {
        let net = tiny_net();
        assert_eq!(net.name(), "tiny");
        assert_eq!(net.vocab_size(), 100);
        assert_eq!(net.layer_count(), 2);
        assert_eq!(net.optimizer(), Optimizer::SgdMomentum);
        assert_eq!(net.layers().count(), 2);
    }
}
