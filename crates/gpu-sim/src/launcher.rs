use std::borrow::Cow;
use std::cell::Cell;
use std::collections::BTreeMap;

use crate::{Device, KernelAgg, KernelCounters, KernelDesc, TraceProfile};

/// One serial stream of kernel launches on a [`Device`], aggregated into a
/// [`TraceProfile`] as they arrive.
///
/// Both ways of profiling go through a launcher: [`Device::run_trace`]
/// launches a collected trace, and a running emission context launches
/// each kernel the moment it is built, so the two share one per-launch
/// path.
///
/// An unrolled iteration launches thousands of kernels but only a few
/// dozen distinct ones, so a launcher prices each distinct launch once.
/// It keeps one slot per kernel name, in first-seen order, holding the
/// name's aggregate and the two descriptors it priced most recently. A
/// launch whose pricing inputs are bitwise equal to one of those two
/// reuses that un-jittered time and counters instead of running the
/// timing model again. Two, not one, because attention alternates two
/// GEMM shapes under one kernel name at every decoder step. A slot is
/// found by the name's address and length first (emitted names are
/// `&'static str`s from a table), then by its text, so an owned name read
/// back from a file, or the same text at another address, joins the same
/// slot. Step blocks repeat in order, so the slot that followed the
/// previous launch's slot last time is tried before any search.
///
/// Jitter is still drawn per launch, keyed by the kernel's name and its
/// launch index, and every sum is taken in launch order, so the profile
/// equals pricing each launch afresh, bit for bit.
///
/// ```
/// use gpu_sim::{Device, GpuConfig, KernelDesc, KernelKind};
///
/// let device = Device::new(GpuConfig::vega_fe());
/// let relu = KernelDesc::builder("ew_relu_v4", KernelKind::Elementwise)
///     .flops(1e6).read_bytes(4e6).write_bytes(4e6).workgroups(512.0)
///     .build();
/// let mut launcher = device.launcher();
/// for _ in 0..3 {
///     launcher.launch(&relu);
/// }
/// assert_eq!(launcher.launches(), 3);
/// assert_eq!(launcher.pricings(), 1);
/// let profile = launcher.finish();
/// assert_eq!(profile, device.run_trace(&vec![relu; 3]));
/// ```
#[derive(Debug)]
pub struct Launcher<'d> {
    device: &'d Device,
    slots: Vec<Slot>,
    /// The previous launch's slot (`usize::MAX` before the first).
    last: usize,
    launches: u64,
    pricings: u64,
    total_time_s: f64,
    counters: KernelCounters,
}

/// Everything a launcher keeps about one kernel name.
#[derive(Debug)]
struct Slot {
    name: Cow<'static, str>,
    agg: KernelAgg,
    /// The jitter hash with the name folded in.
    jitter_state: u64,
    /// The slot launched right after this one last time; the first guess
    /// for the next lookup, since step blocks repeat in order.
    next: usize,
    newest: Option<Priced>,
    older: Option<Priced>,
}

/// One priced descriptor: its pricing inputs and un-jittered results.
#[derive(Debug, Clone, Copy)]
struct Priced {
    key: [u64; 10],
    time_s: f64,
    counters: KernelCounters,
}

thread_local! {
    /// The slot buffer of this thread's last finished launcher, emptied,
    /// for the next one to reuse. Growing a fresh buffer for every shape
    /// raised a DS2 epoch's peak RSS by about 3 %.
    static SPARE_SLOTS: Cell<Vec<Slot>> = const { Cell::new(Vec::new()) };
}

impl<'d> Launcher<'d> {
    pub(crate) fn new(device: &'d Device) -> Self {
        Launcher {
            device,
            slots: SPARE_SLOTS.take(),
            last: usize::MAX,
            launches: 0,
            pricings: 0,
            total_time_s: 0.0,
            counters: KernelCounters::default(),
        }
    }

    /// Execute `kernel` as the next launch of the stream.
    pub fn launch(&mut self, kernel: &KernelDesc) {
        let idx = self.launches;
        let device = self.device;
        let i = self.slot_for(kernel);
        let Some(slot) = self.slots.get_mut(i) else {
            return;
        };
        let key = kernel.pricing_bits();
        let hit = [&slot.newest, &slot.older]
            .into_iter()
            .flatten()
            .find(|p| p.key == key)
            .copied();
        let priced = match hit {
            Some(priced) => priced,
            None => {
                let (timing, counters) = device.run_kernel(kernel);
                let priced = Priced {
                    key,
                    time_s: timing.time_s,
                    counters,
                };
                slot.older = slot.newest.replace(priced);
                self.pricings += 1;
                priced
            }
        };
        let factor = match device.jitter() {
            Some(j) => j.factor_from(slot.jitter_state, idx),
            None => 1.0,
        };
        let time_s = priced.time_s * factor;
        let agg = &mut slot.agg;
        // A first launch sets the sums rather than adding to 0.0, as the
        // profile always has, so even a -0.0 keeps its bits.
        if agg.invocations == 0 {
            agg.time_s = time_s;
            agg.counters = priced.counters;
        } else {
            agg.time_s += time_s;
            agg.counters += priced.counters;
        }
        agg.invocations += 1;
        self.total_time_s += time_s;
        self.counters += priced.counters;
        self.launches += 1;
    }

    /// The index of `kernel`'s slot, opened if its name is new.
    fn slot_for(&mut self, kernel: &KernelDesc) -> usize {
        let name = kernel.name();
        // The address and length settle most lookups without reading the
        // text: `kernel_name` hands out one address per text. The text
        // still decides for the names that bypass that table: owned names
        // from `trace_format::read_trace`, and literal names built without
        // `kernel_name`.
        let same = |slot: &Slot| {
            (slot.name.as_ptr() == name.as_ptr() && slot.name.len() == name.len())
                || slot.name == name
        };
        let guess = self.slots.get(self.last).map_or(0, |slot| slot.next);
        let found = match self.slots.get(guess) {
            Some(slot) if same(slot) => Some(guess),
            _ => self.slots.iter().position(same),
        };
        let i = found.unwrap_or_else(|| {
            self.slots.push(Slot {
                name: kernel.name_cow().clone(),
                agg: KernelAgg {
                    kind: kernel.kind(),
                    invocations: 0,
                    time_s: 0.0,
                    counters: KernelCounters::default(),
                },
                jitter_state: self.device.jitter().map_or(0, |j| j.name_state(name)),
                next: 0,
                newest: None,
                older: None,
            });
            self.slots.len() - 1
        });
        if let Some(prev) = self.slots.get_mut(self.last) {
            prev.next = i;
        }
        self.last = i;
        i
    }

    /// Number of kernels launched so far.
    pub fn launches(&self) -> u64 {
        self.launches
    }

    /// Number of launches the timing model priced; the rest reused a
    /// price their slot kept.
    pub fn pricings(&self) -> u64 {
        self.pricings
    }

    /// End the stream, returning its aggregate profile.
    pub fn finish(self) -> TraceProfile {
        // Inserted one by one: collecting sorts through scratch buffers,
        // and that churn raised a DS2 epoch's peak RSS by about 4 %.
        let mut slots = self.slots;
        let mut by_kernel = BTreeMap::new();
        for slot in slots.drain(..) {
            by_kernel.insert(slot.name.into_owned(), slot.agg);
        }
        SPARE_SLOTS.set(slots);
        TraceProfile::from_parts(self.total_time_s, self.launches, self.counters, by_kernel)
    }
}

#[cfg(test)]
mod tests {
    use std::borrow::Cow;

    use crate::{Device, GpuConfig, JitterModel, KernelDesc, KernelKind, TraceProfile};

    fn kernel(name: impl Into<Cow<'static, str>>, kind: KernelKind, workgroups: f64) -> KernelDesc {
        KernelDesc::builder(name, kind)
            .flops(1e9)
            .read_bytes(1e7)
            .write_bytes(1e6)
            .workgroups(workgroups)
            .build()
    }

    fn launch_all(device: &Device, kernels: &[&KernelDesc]) -> (u64, TraceProfile) {
        let mut launcher = device.launcher();
        for k in kernels {
            launcher.launch(k);
        }
        (launcher.pricings(), launcher.finish())
    }

    fn time(device: &Device, k: &KernelDesc) -> f64 {
        device.run_kernel(k).0.time_s
    }

    #[test]
    fn launches_accumulate_by_name() {
        let d = Device::new(GpuConfig::vega_fe());
        let a = kernel("gemm_a", KernelKind::Gemm, 64.0);
        let b = kernel("ew_b", KernelKind::Elementwise, 256.0);
        let (_, p) = launch_all(&d, &[&a, &a, &b]);
        let (ta, tb) = (time(&d, &a), time(&d, &b));
        let (ca, cb) = (d.run_kernel(&a).1, d.run_kernel(&b).1);
        assert_eq!(p.launches(), 3);
        assert_eq!(p.unique_kernel_count(), 2);
        assert_eq!(p.total_time_s(), ta + ta + tb);
        assert_eq!(p.by_kernel()["gemm_a"].invocations, 2);
        assert_eq!(p.by_kernel()["gemm_a"].kind, KernelKind::Gemm);
        assert_eq!(p.by_kernel()["gemm_a"].time_s, ta + ta);
        assert_eq!(p.by_kernel()["ew_b"].counters, cb);
        assert_eq!(p.counters(), ca + ca + cb);
    }

    #[test]
    fn kind_shares_sum_to_one() {
        let d = Device::new(GpuConfig::vega_fe());
        let a = kernel("a", KernelKind::Gemm, 64.0);
        let b = kernel("b", KernelKind::Reduce, 64.0);
        let c = kernel("c", KernelKind::Softmax, 128.0);
        let (_, p) = launch_all(&d, &[&a, &b, &c]);
        let shares = p.runtime_shares_by_kind();
        let total: f64 = shares.values().sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!((shares[&KernelKind::Gemm] - time(&d, &a) / p.total_time_s()).abs() < 1e-12);
    }

    #[test]
    fn merge_combines_profiles() {
        let d = Device::new(GpuConfig::vega_fe());
        let a = kernel("a", KernelKind::Gemm, 64.0);
        let b = kernel("b", KernelKind::Memory, 64.0);
        let (_, mut p) = launch_all(&d, &[&a]);
        let (_, q) = launch_all(&d, &[&a, &b]);
        let want = p.total_time_s() + q.total_time_s();
        p.merge(&q);
        assert_eq!(p.launches(), 3);
        assert_eq!(p.total_time_s(), want);
        assert_eq!(p.by_kernel()["a"].invocations, 2);
        assert_eq!(p.by_kernel()["b"].invocations, 1);
    }

    #[test]
    fn one_name_with_two_launch_shapes_is_priced_twice() {
        let d = Device::new(GpuConfig::vega_fe());
        let narrow = kernel("gemm_x", KernelKind::Gemm, 8.0);
        let wide = kernel("gemm_x", KernelKind::Gemm, 512.0);
        assert_ne!(time(&d, &narrow), time(&d, &wide));
        let (pricings, p) = launch_all(&d, &[&narrow, &wide, &narrow, &wide]);
        assert_eq!(pricings, 2);
        let (tn, tw) = (time(&d, &narrow), time(&d, &wide));
        assert_eq!(p.by_kernel()["gemm_x"].time_s, tn + tw + tn + tw);
        // A third shape under the same name pushes the oldest price out.
        let third = kernel("gemm_x", KernelKind::Gemm, 64.0);
        let (pricings, _) = launch_all(&d, &[&narrow, &wide, &third, &narrow]);
        assert_eq!(pricings, 4);
    }

    #[test]
    fn the_same_text_at_another_address_joins_one_slot() {
        let d = Device::with_jitter(GpuConfig::vega_fe(), JitterModel::new(0.02, 5));
        let fixed = kernel("ew_relu_v4", KernelKind::Elementwise, 256.0);
        let owned = kernel(String::from("ew_relu_v4"), KernelKind::Elementwise, 256.0);
        let (pricings, mixed) = launch_all(&d, &[&fixed, &owned, &fixed]);
        assert_eq!(pricings, 1);
        assert_eq!(mixed.by_kernel()["ew_relu_v4"].invocations, 3);
        let (_, same) = launch_all(&d, &[&fixed, &fixed, &fixed]);
        assert_eq!(mixed, same);
    }

    #[test]
    fn reused_prices_keep_per_launch_jitter() {
        let d = Device::with_jitter(GpuConfig::vega_fe(), JitterModel::new(0.02, 9));
        let k = kernel("k", KernelKind::Elementwise, 256.0);
        let (pricings, p) = launch_all(&d, &[&k, &k, &k]);
        assert_eq!(pricings, 1);
        let j = d.jitter().copied().unwrap();
        let t = time(&d, &k);
        let want = (0..3).fold(0.0, |sum, i| sum + t * j.factor("k", i));
        assert_eq!(p.total_time_s(), want);
    }
}
