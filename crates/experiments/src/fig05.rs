//! Fig. 5 — the types of unique kernels differ based on sequence length.
//!
//! For pairs of iterations at different SLs, the paper breaks the union
//! of unique kernel names into `common`, `only-in-1`, and `only-in-2`
//! and finds up to ~20% of unique kernels present in only one iteration
//! (different GEMM tile variants, vectorization widths, softmax buckets).

use std::collections::BTreeSet;

use gpu_sim::{AutotuneTable, Device};
use sqnn::IterationShape;
use sqnn_profiler::report::Table;

use crate::{Net, Workloads};

/// Kernel-overlap breakdown for one iteration pair.
#[derive(Debug, Clone)]
pub struct OverlapRow {
    /// Which network.
    pub net: Net,
    /// The two sequence lengths compared.
    pub pair: (u32, u32),
    /// Share of the union present in both iterations, percent.
    pub common_pct: f64,
    /// Share present only in the first, percent.
    pub only_in_1_pct: f64,
    /// Share present only in the second, percent.
    pub only_in_2_pct: f64,
}

/// Result of the Fig. 5 experiment.
#[derive(Debug, Clone)]
pub struct Fig05 {
    /// One row per iteration pair.
    pub rows: Vec<OverlapRow>,
    /// Rendered table.
    pub table: Table,
}

fn kernel_names(w: &Workloads, net: Net, sl: u32) -> BTreeSet<String> {
    let device = Device::new(w.config(0).clone());
    let mut tuner = AutotuneTable::new();
    w.network(net)
        .iteration_profile(&IterationShape::new(64, sl), &device, &mut tuner)
        .unique_kernels()
        .map(str::to_owned)
        .collect()
}

/// Run the experiment over the paper's style of pairs: two GNMT pairs and
/// two DS2 pairs spanning each network's SL range.
pub fn run(w: &mut Workloads) -> Fig05 {
    let pairs = [
        (Net::Gnmt, (24, 90)),
        (Net::Gnmt, (120, 190)),
        (Net::Ds2, (60, 210)),
        (Net::Ds2, (210, 400)),
    ];
    let mut table = Table::new(
        "Fig. 5 — unique-kernel overlap between iteration pairs (config #1)",
        [
            "network",
            "pair (SLs)",
            "common %",
            "only-in-1 %",
            "only-in-2 %",
        ],
    );
    let mut rows = Vec::new();
    for (net, (a, b)) in pairs {
        let ka = kernel_names(w, net, a);
        let kb = kernel_names(w, net, b);
        let union = ka.union(&kb).count() as f64;
        let common = ka.intersection(&kb).count() as f64;
        let only1 = ka.difference(&kb).count() as f64;
        let only2 = kb.difference(&ka).count() as f64;
        let row = OverlapRow {
            net,
            pair: (a, b),
            common_pct: common / union * 100.0,
            only_in_1_pct: only1 / union * 100.0,
            only_in_2_pct: only2 / union * 100.0,
        };
        table.push_row([
            net.label().to_owned(),
            format!("sl-{a} vs sl-{b}"),
            format!("{:.1}", row.common_pct),
            format!("{:.1}", row.only_in_1_pct),
            format!("{:.1}", row.only_in_2_pct),
        ]);
        rows.push(row);
    }
    Fig05 { rows, table }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn some_kernels_are_exclusive_to_one_iteration() {
        let mut w = Workloads::quick();
        let r = run(&mut w);
        assert_eq!(r.rows.len(), 4);
        for row in &r.rows {
            let sum = row.common_pct + row.only_in_1_pct + row.only_in_2_pct;
            assert!((sum - 100.0).abs() < 1e-9);
            // Most kernels are shared …
            assert!(row.common_pct > 50.0, "common = {}", row.common_pct);
        }
        // … but at least one pair shows exclusive kernels (the paper
        // reports up to ~20%).
        let max_excl = r
            .rows
            .iter()
            .map(|x| x.only_in_1_pct + x.only_in_2_pct)
            .fold(0.0, f64::max);
        assert!(max_excl > 3.0, "max exclusive share = {max_excl}");
    }
}
