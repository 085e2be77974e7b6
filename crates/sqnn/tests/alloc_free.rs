//! Heap allocations of a warm `Network::iteration_profile`.
//!
//! With a warm autotune table, emitting and pricing a shape's kernels
//! allocates nothing per launch. What still allocates is the profile's
//! per-kernel map, one name per distinct kernel plus its tree nodes. So
//! the count stays within the distinct kernels plus a small constant, and
//! what the call allocates outside that map is the same at every sequence
//! length. The count does not depend on
//! the machine, so one stray per-launch `format!` fails here by name.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gpu_sim::{AutotuneTable, Device, GpuConfig};
use sqnn::models::{ds2, gnmt};
use sqnn::{IterationShape, Network};

/// Allocations beyond one per distinct kernel that a profile may make.
const SLACK: u64 = 32;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// `System`, counting the allocations each thread makes.
struct Counting;

fn count_one() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; counting touches
// only a const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// What profiling `shape` a second time, once the autotune table has seen
/// it, allocates.
#[derive(Debug)]
struct WarmAllocs {
    /// All allocations of the call.
    total: u64,
    /// Those a copy of the returned per-kernel map makes: one name per
    /// distinct kernel plus the map's nodes.
    map: u64,
    /// Distinct kernels.
    kernels: u64,
}

fn warm_profile_allocs(net: &Network, batch: u32, sl: u32, device: &Device) -> WarmAllocs {
    let shape = IterationShape::new(batch, sl);
    let mut tuner = AutotuneTable::new();
    net.iteration_profile(&shape, device, &mut tuner);
    let before = allocs();
    let profile = net.iteration_profile(&shape, device, &mut tuner);
    let total = allocs() - before;
    let before = allocs();
    let map = profile.by_kernel().clone();
    let map_allocs = allocs() - before;
    WarmAllocs {
        total,
        map: map_allocs,
        kernels: map.len() as u64,
    }
}

#[test]
fn warm_iteration_profile_allocates_per_kernel_not_per_launch() {
    let device = Device::new(GpuConfig::vega_fe());
    for (net, batch) in [(gnmt(), 16), (ds2(), 64)] {
        let counts: Vec<(u32, WarmAllocs)> = [20, 60, 120]
            .into_iter()
            .map(|sl| (sl, warm_profile_allocs(&net, batch, sl, &device)))
            .collect();
        let what = format!("{} b{batch}, by SL: {counts:?}", net.name());
        for (_, c) in &counts {
            assert!(c.total <= c.kernels + SLACK, "{what}");
        }
        // The distinct kernels, and so the map, vary a little with SL;
        // everything else the call allocates must not.
        let rest: Vec<u64> = counts.iter().map(|(_, c)| c.total - c.map).collect();
        assert!(rest.iter().all(|&r| r == rest[0]), "{what}");
    }
}
