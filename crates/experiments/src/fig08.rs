//! Fig. 8 — execution profile with varying sequence length (GNMT).
//!
//! The key similarity observation: SLs close to each other (87 vs 89,
//! 192 vs 197) have nearly identical kernel runtime distributions, while
//! distant SLs differ — the basis for binning contiguous SL ranges.

use std::collections::BTreeMap;

use gpu_sim::{AutotuneTable, Device};
use sqnn::IterationShape;
use sqnn_profiler::report::Table;

use crate::{Net, Workloads};

/// The paper's four sequence lengths.
pub const SLS: [u32; 4] = [87, 89, 192, 197];

/// Result of the Fig. 8 experiment.
#[derive(Debug, Clone)]
pub struct Fig08 {
    /// Per-SL runtime share per kernel group (group → share% per SL).
    pub shares: BTreeMap<String, Vec<f64>>,
    /// L1 distance between the close pair (87, 89) share vectors.
    pub close_pair_distance: f64,
    /// L1 distance between the far pair (89, 192) share vectors.
    pub far_pair_distance: f64,
    /// Rendered table.
    pub table: Table,
}

/// Run the experiment.
pub fn run(w: &mut Workloads) -> Fig08 {
    let device = Device::new(w.config(0).clone());
    let mut tuner = AutotuneTable::new();
    let net = w.network(Net::Gnmt);

    // Collect kernel-group shares (top-2 GEMM kernels by global time,
    // plus scalar ops) for each SL.
    let mut per_sl: Vec<BTreeMap<String, f64>> = Vec::new();
    for &sl in &SLS {
        let profile = net.iteration_profile(&IterationShape::new(64, sl), &device, &mut tuner);
        let total = profile.total_time_s();
        let mut groups: BTreeMap<String, f64> = BTreeMap::new();
        for (name, agg) in profile.by_kernel() {
            use gpu_sim::KernelKind as K;
            let group = match agg.kind {
                K::Gemm => format!("gemm:{name}"),
                K::Elementwise | K::Optimizer => "scalar-op".to_owned(),
                K::Reduce | K::Softmax => "reduce".to_owned(),
                _ => "other".to_owned(),
            };
            *groups.entry(group).or_insert(0.0) += agg.time_s / total * 100.0;
        }
        per_sl.push(groups);
    }

    // Keep the two globally largest GEMM groups; fold the rest.
    let mut gemm_totals: BTreeMap<String, f64> = BTreeMap::new();
    for groups in &per_sl {
        for (g, &v) in groups {
            if g.starts_with("gemm:") {
                *gemm_totals.entry(g.clone()).or_insert(0.0) += v;
            }
        }
    }
    let mut ranked: Vec<(String, f64)> = gemm_totals.into_iter().collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    let top: Vec<String> = ranked.iter().take(2).map(|(g, _)| g.clone()).collect();

    let mut shares: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for groups in &per_sl {
        let mut folded: BTreeMap<String, f64> = BTreeMap::new();
        for (g, &v) in groups {
            let key = if g.starts_with("gemm:") {
                match top.iter().position(|t| t == g) {
                    Some(0) => "GEMM-group-1".to_owned(),
                    Some(_) => "GEMM-group-2".to_owned(),
                    None => "other".to_owned(),
                }
            } else {
                g.clone()
            };
            *folded.entry(key).or_insert(0.0) += v;
        }
        for key in [
            "GEMM-group-1",
            "GEMM-group-2",
            "scalar-op",
            "reduce",
            "other",
        ] {
            shares
                .entry(key.to_owned())
                .or_default()
                .push(folded.get(key).copied().unwrap_or(0.0));
        }
    }

    let l1 = |a: usize, b: usize| -> f64 { shares.values().map(|v| (v[a] - v[b]).abs()).sum() };
    let close = l1(0, 1);
    let far = l1(1, 2);

    let mut table = Table::new(
        "Fig. 8 — GNMT kernel-group runtime share (%) by sequence length",
        ["group", "SL 87", "SL 89", "SL 192", "SL 197"],
    );
    for (group, vals) in &shares {
        table.push_row([
            group.clone(),
            format!("{:.1}", vals[0]),
            format!("{:.1}", vals[1]),
            format!("{:.1}", vals[2]),
            format!("{:.1}", vals[3]),
        ]);
    }
    Fig08 {
        shares,
        close_pair_distance: close,
        far_pair_distance: far,
        table,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn close_sls_have_similar_profiles() {
        let mut w = Workloads::quick();
        let r = run(&mut w);
        // 87 vs 89 must be much closer than 89 vs 192.
        assert!(
            r.close_pair_distance < r.far_pair_distance / 2.0 + 1e-9,
            "close = {}, far = {}",
            r.close_pair_distance,
            r.far_pair_distance
        );
        assert!(
            r.close_pair_distance < 2.0,
            "close = {}",
            r.close_pair_distance
        );
        // Shares per SL sum to ~100%.
        for i in 0..4 {
            let total: f64 = r.shares.values().map(|v| v[i]).sum();
            assert!((total - 100.0).abs() < 0.5, "sum = {total}");
        }
    }
}
