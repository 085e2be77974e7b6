//! Fig. 6 — kernel runtime distribution differs based on sequence length.
//!
//! For two iterations per network, the paper plots the runtime share of
//! the dominant GEMM kernels against the rest (GNMT: GEMM-1/GEMM-2/
//! scalar-op/reduce/others; DS2: GEMM-1/GEMM-2/rest) and shows the shares
//! shifting with SL.

use std::collections::BTreeMap;

use gpu_sim::{AutotuneTable, Device};
use sqnn::IterationShape;
use sqnn_profiler::report::Table;

use crate::{Net, Workloads};

/// Runtime shares of one iteration, grouped into the paper's categories.
#[derive(Debug, Clone)]
pub struct ShareRow {
    /// Which network.
    pub net: Net,
    /// The iteration's sequence length.
    pub seq_len: u32,
    /// Share of the single most expensive GEMM kernel, percent.
    pub gemm1_pct: f64,
    /// Share of the second most expensive GEMM kernel, percent.
    pub gemm2_pct: f64,
    /// Share of element-wise ("scalar-op") kernels, percent.
    pub scalar_pct: f64,
    /// Share of reduce/softmax kernels, percent.
    pub reduce_pct: f64,
    /// Everything else, percent.
    pub rest_pct: f64,
}

/// Result of the Fig. 6 experiment.
#[derive(Debug, Clone)]
pub struct Fig06 {
    /// Two rows per network.
    pub rows: Vec<ShareRow>,
    /// Rendered table.
    pub table: Table,
}

fn shares(w: &Workloads, net: Net, sl: u32) -> ShareRow {
    let device = Device::new(w.config(0).clone());
    let mut tuner = AutotuneTable::new();
    let profile =
        w.network(net)
            .iteration_profile(&IterationShape::new(64, sl), &device, &mut tuner);
    let total = profile.total_time_s();
    // Rank GEMM kernels by time; group the rest by kind.
    let mut gemm_times: Vec<f64> = Vec::new();
    let mut scalar = 0.0;
    let mut reduce = 0.0;
    let mut rest = 0.0;
    let mut by_kind: BTreeMap<&str, f64> = BTreeMap::new();
    for (name, agg) in profile.by_kernel() {
        use gpu_sim::KernelKind as K;
        match agg.kind {
            K::Gemm | K::Conv => gemm_times.push(agg.time_s),
            K::Elementwise | K::Optimizer => scalar += agg.time_s,
            K::Reduce | K::Softmax | K::BatchNorm => reduce += agg.time_s,
            _ => rest += agg.time_s,
        }
        *by_kind.entry(name.as_str()).or_insert(0.0) += agg.time_s;
    }
    gemm_times.sort_by(|a, b| b.total_cmp(a));
    let gemm1 = gemm_times.first().copied().unwrap_or(0.0);
    let gemm2 = gemm_times.get(1).copied().unwrap_or(0.0);
    let gemm_rest: f64 = gemm_times.iter().skip(2).sum();
    ShareRow {
        net,
        seq_len: sl,
        gemm1_pct: gemm1 / total * 100.0,
        gemm2_pct: gemm2 / total * 100.0,
        scalar_pct: scalar / total * 100.0,
        reduce_pct: reduce / total * 100.0,
        rest_pct: (rest + gemm_rest) / total * 100.0,
    }
}

/// Run the experiment: GNMT at SLs 24/190 and DS2 at SLs 60/400.
pub fn run(w: &mut Workloads) -> Fig06 {
    let picks = [
        (Net::Gnmt, 24),
        (Net::Gnmt, 190),
        (Net::Ds2, 60),
        (Net::Ds2, 400),
    ];
    let mut table = Table::new(
        "Fig. 6 — kernel runtime distribution by sequence length (config #1)",
        [
            "network",
            "SL",
            "GEMM-1 %",
            "GEMM-2 %",
            "scalar-op %",
            "reduce %",
            "rest %",
        ],
    );
    let mut rows = Vec::new();
    for (net, sl) in picks {
        let row = shares(w, net, sl);
        table.push_row([
            net.label().to_owned(),
            sl.to_string(),
            format!("{:.1}", row.gemm1_pct),
            format!("{:.1}", row.gemm2_pct),
            format!("{:.1}", row.scalar_pct),
            format!("{:.1}", row.reduce_pct),
            format!("{:.1}", row.rest_pct),
        ]);
        rows.push(row);
    }
    Fig06 { rows, table }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_shift_with_sequence_length() {
        let mut w = Workloads::quick();
        let r = run(&mut w);
        assert_eq!(r.rows.len(), 4);
        for row in &r.rows {
            let sum =
                row.gemm1_pct + row.gemm2_pct + row.scalar_pct + row.reduce_pct + row.rest_pct;
            assert!((sum - 100.0).abs() < 0.5, "sum = {sum}");
        }
        // The distribution must differ between the two GNMT iterations
        // (the paper: "contributions … differ significantly based on SL").
        let (a, b) = (&r.rows[0], &r.rows[1]);
        let l1 = (a.gemm1_pct - b.gemm1_pct).abs()
            + (a.gemm2_pct - b.gemm2_pct).abs()
            + (a.scalar_pct - b.scalar_pct).abs()
            + (a.reduce_pct - b.reduce_pct).abs();
        assert!(l1 > 5.0, "distribution shift = {l1}");
    }
}
