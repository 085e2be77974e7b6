//! Section VII extensions: SeqPoint beyond the two evaluation networks.
//!
//! * **VII-B (other SQNNs)** — any network whose computation varies with
//!   SL benefits; demonstrated on a Transformer.
//! * **VII-E (inference)** — the SL-binning methodology applied to a
//!   forward-only serving log.

use gpu_sim::{AutotuneTable, Device};
use seqpoint_core::{EpochLog, SeqPointPipeline};
use sqnn::models::{conv_s2s_with, seq2seq_with, transformer_base};
use sqnn::{IterationShape, Network};
use sqnn_data::{BatchPolicy, Corpus, EpochPlan};
use sqnn_profiler::report::{fmt_f, Table};
use sqnn_profiler::Profiler;

use crate::Workloads;

/// Result of one extension run.
#[derive(Debug, Clone)]
pub struct ExtensionRow {
    /// Workload label.
    pub workload: String,
    /// Iterations (or requests) in the profiled log.
    pub iterations: usize,
    /// SeqPoints selected.
    pub seqpoints: usize,
    /// Self projection error, %.
    pub self_error_pct: f64,
}

/// Result of the Section VII extensions.
#[derive(Debug, Clone)]
pub struct Extensions {
    /// One row per extension workload.
    pub rows: Vec<ExtensionRow>,
    /// Rendered table.
    pub table: Table,
}

/// Run both extensions.
pub fn run(w: &mut Workloads) -> Extensions {
    let mut rows = Vec::new();

    // VII-B: every network family the paper lists benefits — attention
    // (Transformer), convolution (ConvS2S), and plain RNN (Seq2Seq).
    let vii_b: Vec<(&str, Network)> = vec![
        ("transformer (training, VII-B)", transformer_base()),
        ("conv-s2s (training, VII-B)", conv_s2s_with(36_549, 512, 8)),
        ("seq2seq (training, VII-B)", seq2seq_with(36_549, 1_000, 4)),
    ];
    // ConvS2S's kernel-variant switch points make runtime vs SL locally
    // discontinuous, so the headline 0.05% target can need k beyond the
    // evaluation cap; 0.25% keeps the representative sets small while
    // still comfortably inside the paper's accuracy regime.
    let vii_b_config = seqpoint_core::SeqPointConfig {
        error_threshold_pct: 0.25,
        ..crate::identification_config()
    };
    for (label, net) in vii_b {
        let corpus = Corpus::iwslt15_like(w.scale().gnmt_sentences / 2, w.scale().seed + 1);
        let plan = EpochPlan::new(&corpus, BatchPolicy::bucketed(64, 16), w.scale().seed)
            .expect("corpus is non-empty");
        let device = Device::new(w.config(0).clone());
        let profile = Profiler::new()
            .profile_epoch(&net, &plan, &device)
            .expect("plan is non-empty");
        let log = profile.to_epoch_log();
        let analysis = SeqPointPipeline::with_config(vii_b_config)
            .run(&log)
            .expect("vii-b log converges");
        rows.push(ExtensionRow {
            workload: label.to_owned(),
            iterations: log.len(),
            seqpoints: analysis.seqpoints().len(),
            self_error_pct: analysis.self_error_pct(),
        });
    }

    // VII-E: GNMT inference serving log (forward-only, small batch).
    {
        let net = w.network(crate::Net::Gnmt);
        let corpus =
            Corpus::iwslt15_like((w.scale().gnmt_sentences / 8).max(200), w.scale().seed + 2);
        let device = Device::new(w.config(0).clone());
        let mut tuner = AutotuneTable::new();
        let mut log = EpochLog::new();
        // Requests with the same SL have identical latency (key
        // observation 4 applies to inference too): memoize per SL.
        let mut memo: std::collections::HashMap<u32, f64> = std::collections::HashMap::new();
        for &sl in corpus.lengths().iter() {
            let t = *memo.entry(sl).or_insert_with(|| {
                // Requests served one by one (batch 1), forward pass only.
                net.inference_profile(&IterationShape::new(1, sl), &device, &mut tuner)
                    .total_time_s()
            });
            log.push(sl, t);
        }
        let analysis = SeqPointPipeline::with_config(crate::identification_config())
            .run(&log)
            .expect("inference log converges");
        rows.push(ExtensionRow {
            workload: "gnmt (inference, VII-E)".to_owned(),
            iterations: log.len(),
            seqpoints: analysis.seqpoints().len(),
            self_error_pct: analysis.self_error_pct(),
        });
    }

    let mut table = Table::new(
        "Section VII — SeqPoint beyond the evaluation networks",
        ["workload", "iterations", "seqpoints", "self error %"],
    );
    for r in &rows {
        table.push_row([
            r.workload.clone(),
            r.iterations.to_string(),
            r.seqpoints.to_string(),
            fmt_f(r.self_error_pct, 3),
        ]);
    }
    Extensions { rows, table }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seqpoint_generalizes_beyond_rnns() {
        let mut w = Workloads::quick();
        let r = run(&mut w);
        assert_eq!(r.rows.len(), 4);
        for row in &r.rows {
            assert!(
                row.self_error_pct <= 1.0,
                "{}: error = {}",
                row.workload,
                row.self_error_pct
            );
            // Representatives stay a small fraction of the epoch even at
            // quick scale (47-iteration epochs for the VII-B rows).
            assert!(
                row.seqpoints * 3 < row.iterations,
                "{}: {} points for {} iterations",
                row.workload,
                row.seqpoints,
                row.iterations
            );
        }
        // All three VII-B families are covered.
        for family in ["transformer", "conv-s2s", "seq2seq"] {
            assert!(
                r.rows.iter().any(|x| x.workload.starts_with(family)),
                "missing {family}"
            );
        }
    }
}
