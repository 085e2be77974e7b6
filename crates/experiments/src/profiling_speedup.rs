//! Section VI-F — profiling speedups.
//!
//! The payoff: instead of profiling a whole epoch, profile only the
//! SeqPoints. Serial speedup = epoch time ÷ Σ SeqPoint iteration times;
//! parallel speedup (one machine per SeqPoint) = epoch time ÷ max
//! SeqPoint iteration time. The paper reports 40×/72× serial and
//! 214×/345× parallel for GNMT/DS2, and 3–6× fewer iterations than
//! `prior`'s 50.

use gpu_sim::Device;
use seqpoint_core::SeqPointPipeline;
use sqnn_profiler::parallel::{profile_seq_lens_parallel, profiling_cost};
use sqnn_profiler::report::{fmt_duration, fmt_f, Table};
use sqnn_profiler::Profiler;

use crate::{Net, Workloads};

/// Profiling-cost summary for one network.
#[derive(Debug, Clone)]
pub struct ProfilingSpeedupNet {
    /// Which network.
    pub net: Net,
    /// SeqPoints identified.
    pub seqpoints: usize,
    /// Iterations in the epoch.
    pub epoch_iterations: usize,
    /// Full-epoch profiling cost (training + eval + autotune), seconds.
    pub epoch_time_s: f64,
    /// Serial SeqPoint profiling cost, seconds.
    pub serial_s: f64,
    /// Parallel SeqPoint profiling cost (max iteration), seconds.
    pub parallel_s: f64,
    /// Epoch ÷ serial.
    pub serial_speedup: f64,
    /// Epoch ÷ parallel.
    pub parallel_speedup: f64,
    /// `prior`'s 50 iterations ÷ SeqPoint count.
    pub iterations_vs_prior: f64,
}

/// Result of the Section VI-F experiment.
#[derive(Debug, Clone)]
pub struct ProfilingSpeedup {
    /// Per-network summaries.
    pub nets: Vec<ProfilingSpeedupNet>,
    /// Rendered table.
    pub table: Table,
}

/// Run the experiment.
pub fn run(w: &mut Workloads) -> ProfilingSpeedup {
    let mut table = Table::new(
        "Section VI-F — profiling speedups from SeqPoint",
        [
            "network",
            "seqpoints",
            "epoch time",
            "serial seqpoint time",
            "parallel seqpoint time",
            "serial speedup",
            "parallel speedup",
            "iterations vs prior(50)",
        ],
    );
    let mut nets = Vec::new();
    for net in Net::both() {
        let (epoch_time, iterations, log) = {
            let p = w.profile(net, 0);
            (p.total_time_s(), p.iteration_count(), p.to_epoch_log())
        };
        let analysis = SeqPointPipeline::with_config(crate::identification_config())
            .run(&log)
            .expect("epoch logs are non-empty and defaults converge");
        let sls = analysis.seqpoints().seq_lens();
        let device = Device::new(w.config(0).clone());
        let profiles = profile_seq_lens_parallel(
            &Profiler::new(),
            w.network(net),
            w.plan(net).batch_size(),
            &sls,
            &device,
        )
        .expect("profiling threads do not panic");
        let cost = profiling_cost(&profiles);
        let row = ProfilingSpeedupNet {
            net,
            seqpoints: sls.len(),
            epoch_iterations: iterations,
            epoch_time_s: epoch_time,
            serial_s: cost.serial_s,
            parallel_s: cost.parallel_s,
            serial_speedup: epoch_time / cost.serial_s,
            parallel_speedup: epoch_time / cost.parallel_s,
            iterations_vs_prior: 50.0 / sls.len() as f64,
        };
        table.push_row([
            net.label().to_owned(),
            row.seqpoints.to_string(),
            fmt_duration(row.epoch_time_s),
            fmt_duration(row.serial_s),
            fmt_duration(row.parallel_s),
            format!("{}x", fmt_f(row.serial_speedup, 1)),
            format!("{}x", fmt_f(row.parallel_speedup, 1)),
            format!("{}x fewer", fmt_f(row.iterations_vs_prior, 1)),
        ]);
        nets.push(row);
    }
    ProfilingSpeedup { nets, table }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiling_reductions_are_order_of_magnitude() {
        let mut w = Workloads::quick();
        let r = run(&mut w);
        for n in &r.nets {
            // Tens of iterations stand in for the whole epoch.
            assert!(
                n.serial_speedup > 3.0,
                "{}: serial speedup = {}",
                n.net.label(),
                n.serial_speedup
            );
            assert!(n.parallel_speedup > n.serial_speedup);
            assert!(n.seqpoints < n.epoch_iterations);
            // The paper: 1/3 (GNMT) to 1/6 (DS2) of prior's iterations.
            assert!(n.iterations_vs_prior > 1.0);
        }
    }
}
