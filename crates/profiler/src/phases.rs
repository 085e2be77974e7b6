use gpu_sim::{AutotuneTable, Device};
use serde::{Deserialize, Serialize};
use sqnn::{IterationShape, Network};
use sqnn_data::EpochPlan;

/// Model of the non-training computations around an epoch
/// (paper Section IV-C).
///
/// * **Evaluation phase** — after every epoch the network runs inference
///   over a small held-out set. The paper measures it at 2–3% of total
///   time and argues it can be ignored by representative profiles; this
///   model makes that claim checkable instead of assumed.
/// * **Autotune phase** — frameworks time candidate kernels per unique
///   shape once per training run. Its cost is accumulated by the
///   [`AutotuneTable`] during profiling; the paper ignores it because it
///   is one-time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PhaseModel {
    /// Held-out evaluation set size as a fraction of the training set
    /// (default 3%).
    pub eval_fraction: f64,
    /// Whether the evaluation phase is modelled at all.
    pub eval_enabled: bool,
}

impl Default for PhaseModel {
    fn default() -> Self {
        PhaseModel {
            eval_fraction: 0.03,
            eval_enabled: true,
        }
    }
}

impl PhaseModel {
    /// A model with the evaluation phase disabled.
    pub fn disabled() -> Self {
        PhaseModel {
            eval_fraction: 0.0,
            eval_enabled: false,
        }
    }

    /// Estimate the evaluation-phase time for one epoch: forward-only
    /// inference over `eval_fraction · samples` inputs at the plan's
    /// dominant sequence lengths.
    pub fn eval_time_s(
        &self,
        network: &Network,
        plan: &EpochPlan,
        device: &Device,
        tuner: &mut AutotuneTable,
    ) -> f64 {
        if !self.eval_enabled || self.eval_fraction <= 0.0 {
            return 0.0;
        }
        let eval_batches = ((plan.iterations() as f64) * self.eval_fraction)
            .ceil()
            .max(1.0) as usize;
        // Evaluate at a spread of the epoch's sequence lengths (first,
        // middle, last of the unique set) and average.
        let lens = plan.unique_seq_lens();
        let (Some(&first), Some(&middle), Some(&last)) =
            (lens.first(), lens.get(lens.len() / 2), lens.last())
        else {
            return 0.0;
        };
        let picks = [first, middle, last];
        let mean_t: f64 = picks
            .iter()
            .map(|&sl| {
                let shape = IterationShape::new(plan.batch_size(), sl);
                network
                    .inference_profile(&shape, device, tuner)
                    .total_time_s()
            })
            .sum::<f64>()
            / picks.len() as f64;
        mean_t * eval_batches as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::GpuConfig;
    use sqnn::models::gnmt_with;
    use sqnn_data::{BatchPolicy, Corpus};

    fn setup() -> (Network, EpochPlan, Device) {
        let corpus = Corpus::from_lengths("t", (1..=40).map(|i| i * 3).collect::<Vec<_>>(), 100);
        let plan = EpochPlan::new(&corpus, BatchPolicy::shuffled(4), 0).unwrap();
        (gnmt_with(100, 32), plan, Device::new(GpuConfig::vega_fe()))
    }

    #[test]
    fn eval_phase_is_a_few_percent_of_training() {
        let (net, plan, device) = setup();
        let profile = crate::Profiler::new()
            .profile_epoch(&net, &plan, &device)
            .unwrap();
        let share = profile.eval_s() / profile.total_time_s();
        // "it only takes up to 2-3% of the total training time"
        assert!(share > 0.0 && share < 0.06, "share = {share}");
    }

    #[test]
    fn disabled_model_costs_nothing() {
        let (net, plan, device) = setup();
        let mut tuner = AutotuneTable::new();
        let t = PhaseModel::disabled().eval_time_s(&net, &plan, &device, &mut tuner);
        assert_eq!(t, 0.0);
    }

    #[test]
    fn eval_time_scales_with_fraction() {
        let (net, plan, device) = setup();
        let mut tuner = AutotuneTable::new();
        // The plan has 10 iterations: fractions 0.1 and 1.0 give 1 and 10
        // evaluation batches respectively.
        let small = PhaseModel {
            eval_fraction: 0.1,
            eval_enabled: true,
        }
        .eval_time_s(&net, &plan, &device, &mut tuner);
        let large = PhaseModel {
            eval_fraction: 1.0,
            eval_enabled: true,
        }
        .eval_time_s(&net, &plan, &device, &mut tuner);
        assert!(large > small * 2.0);
    }
}
