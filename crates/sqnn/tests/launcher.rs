//! What a `gpu_sim::Launcher` prices, driven by whole network iterations.
//!
//! An iteration unrolls a few dozen distinct kernels once per timestep.
//! The launcher prices each distinct launch once per shape, so its
//! pricing count must not grow with the sequence length, and reusing
//! prices must leave the profile bit-identical however the kernels'
//! names are held.

use gpu_sim::trace_format::{read_trace, write_trace};
use gpu_sim::{AutotuneTable, Device, GpuConfig, JitterModel, KernelDesc, TraceProfile};
use sqnn::models::{ds2, gnmt};
use sqnn::IterationShape;

/// `(pricings, launches, profile)` of launching `trace` on `device`.
fn launch_all(device: &Device, trace: &[KernelDesc]) -> (u64, u64, TraceProfile) {
    let mut launcher = device.launcher();
    for kernel in trace {
        launcher.launch(kernel);
    }
    (launcher.pricings(), launcher.launches(), launcher.finish())
}

#[test]
fn pricings_per_shape_do_not_grow_with_sequence_length() {
    let device = Device::new(GpuConfig::vega_fe());
    for (net, batch) in [(gnmt(), 16), (ds2(), 64)] {
        let mut tuner = AutotuneTable::new();
        let counts: Vec<(u32, u64, u64)> = [20, 60, 120]
            .into_iter()
            .map(|sl| {
                let shape = IterationShape::new(batch, sl);
                let trace = net.iteration_trace(&shape, device.config(), &mut tuner);
                let (pricings, launches, _) = launch_all(&device, &trace);
                (sl, pricings, launches)
            })
            .collect();
        let what = format!(
            "{} b{batch}, (SL, pricings, launches): {counts:?}",
            net.name()
        );
        assert!(counts.iter().all(|c| c.1 == counts[0].1), "{what}");
        assert!(counts.iter().all(|c| c.1 * 20 < c.2), "{what}");
    }
}

#[test]
fn owned_names_from_a_trace_file_give_the_same_profile() {
    let device = Device::with_jitter(GpuConfig::vega_fe(), JitterModel::new(0.02, 11));
    let mut tuner = AutotuneTable::new();
    let trace = gnmt().iteration_trace(&IterationShape::new(16, 40), device.config(), &mut tuner);
    let mut file = Vec::new();
    write_trace(&mut file, &trace).unwrap();
    let read = read_trace(file.as_slice()).unwrap();
    assert_eq!(read, trace);
    let (statically_named, _, want) = launch_all(&device, &trace);
    let (owned, _, got) = launch_all(&device, &read);
    assert_eq!(got, want);
    assert_eq!(got.total_time_s().to_bits(), want.total_time_s().to_bits());
    assert_eq!(owned, statically_named);
}
