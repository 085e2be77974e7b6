//! Kernel-name identity across the model zoo.
//!
//! Every emitted kernel name is a `&'static str`, and each name text has
//! exactly one: `gpu_sim::kernel_name` reuses the string of any triple
//! that joined to the same text, even when its parts are literals at
//! other addresses (the same flavor written in two layer files, say). So
//! a name's address identifies its kernel, as well as its text does.

use std::collections::{BTreeMap, BTreeSet};

use gpu_sim::{AutotuneTable, GpuConfig};
use sqnn::models::{cnn_reference, conv_s2s, ds2, ds2_softmax, gnmt, seq2seq, transformer_base};
use sqnn::IterationShape;

#[test]
fn every_emitted_name_text_has_one_address() {
    let cfg = GpuConfig::vega_fe();
    let mut addresses: BTreeMap<String, BTreeSet<usize>> = BTreeMap::new();
    let zoo = [
        gnmt(),
        ds2(),
        ds2_softmax(),
        transformer_base(),
        conv_s2s(),
        seq2seq(),
        cnn_reference(),
    ];
    for net in &zoo {
        let mut tuner = AutotuneTable::new();
        for sl in [20, 120] {
            let shape = IterationShape::new(16, sl);
            for kernel in net.iteration_trace(&shape, &cfg, &mut tuner) {
                let name = kernel.name();
                addresses
                    .entry(name.to_owned())
                    .or_default()
                    .insert(name.as_ptr() as usize);
            }
        }
    }
    let split: Vec<_> = addresses.iter().filter(|(_, at)| at.len() > 1).collect();
    assert!(
        split.is_empty(),
        "name texts at several addresses: {split:?}"
    );
    assert!(addresses.len() > 50, "only {} names", addresses.len());
}
