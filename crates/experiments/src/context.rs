use std::collections::HashMap;

use gpu_sim::{Device, GpuConfig};
use seqpoint_core::{BaselineKind, SeqPointConfig};
use sqnn::models::{ds2, gnmt};
use sqnn::Network;
use sqnn_data::{BatchPolicy, Corpus, EpochPlan};
use sqnn_profiler::{EpochProfile, Profiler};

/// The SeqPoint identification thresholds used by the evaluation: the
/// paper's `n = 10` and initial `k = 5`, with a 0.05% error target. The
/// paper does not publish its `e`. At paper scale (the full `repro`
/// without `--quick`) this target gives 5 SeqPoints for DS2 and 41 for
/// GNMT, against the published 8 and 15, so it does not reproduce the
/// paper's counts. Choosing `e`, and checking the counts against the
/// paper, is the paper-fidelity gate still open in ROADMAP.md (item 2).
pub fn identification_config() -> SeqPointConfig {
    SeqPointConfig {
        error_threshold_pct: 0.05,
        // Generous bin headroom: reduced-scale test epochs sometimes need
        // k beyond 64 to reach the 0.05% target (refinement stops as soon
        // as the threshold is met, so paper-scale counts are unaffected).
        max_k: 256,
        ..SeqPointConfig::default()
    }
}

/// The `prior` baseline as evaluated: 50 contiguous iterations after a
/// fixed warmup. The warmup stands for the first minutes of training
/// (data-pipeline spin-up plus the autotune pass) — 150 iterations at
/// paper scale, clamped to a third of short test epochs.
pub fn prior_baseline(epoch_iterations: usize) -> BaselineKind {
    BaselineKind::Prior {
        warmup: 150.min(epoch_iterations / 3),
        window: 50,
    }
}

/// The four baselines plus the order the paper's figures use.
pub fn paper_baselines(epoch_iterations: usize) -> Vec<BaselineKind> {
    vec![
        BaselineKind::Worst,
        BaselineKind::Frequent,
        BaselineKind::Median,
        prior_baseline(epoch_iterations),
    ]
}

/// Which evaluation network a result refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Net {
    /// Google's Neural Machine Translation on the IWSLT'15-like corpus.
    Gnmt,
    /// DeepSpeech2 on the LibriSpeech-100h-like corpus.
    Ds2,
}

impl Net {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Net::Gnmt => "GNMT",
            Net::Ds2 => "DS2",
        }
    }

    /// Both evaluation networks.
    pub fn both() -> [Net; 2] {
        [Net::Ds2, Net::Gnmt]
    }
}

/// Experiment scale: dataset sizes and the RNG seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// IWSLT'15-like sentence count (paper: ~133k).
    pub gnmt_sentences: usize,
    /// LibriSpeech-like utterance count (paper: ~28.5k).
    pub ds2_utterances: usize,
    /// Seed for corpora and batching.
    pub seed: u64,
}

impl Scale {
    /// The paper-equivalent scale.
    pub fn paper() -> Self {
        Scale {
            gnmt_sentences: 133_000,
            ds2_utterances: 28_539,
            seed: 20,
        }
    }

    /// A reduced scale for tests and quick runs (same SL ranges, fewer
    /// iterations). DS2 keeps enough utterances that its epoch is still
    /// several times larger than a SeqPoint set — the ratio the
    /// profiling-speedup experiment measures.
    pub fn quick() -> Self {
        Scale {
            gnmt_sentences: 6_000,
            ds2_utterances: 8_000,
            seed: 20,
        }
    }
}

/// Shared experiment state: the two networks, their epoch plans, the
/// Table II configurations, and a cache of epoch profiles keyed by
/// `(network, config)`.
///
/// Profiles are computed lazily — experiments only pay for the
/// configurations they actually touch — and with kernel detail, so every
/// figure can be derived from the same profile set.
#[derive(Debug)]
pub struct Workloads {
    scale: Scale,
    gnmt: Network,
    ds2: Network,
    gnmt_corpus: Corpus,
    ds2_corpus: Corpus,
    gnmt_plan: EpochPlan,
    ds2_plan: EpochPlan,
    configs: [GpuConfig; 5],
    profiles: HashMap<(Net, usize), EpochProfile>,
}

impl Workloads {
    /// Build workloads at the given scale.
    pub fn new(scale: Scale) -> Self {
        let gnmt_corpus = Corpus::iwslt15_like(scale.gnmt_sentences, scale.seed);
        let ds2_corpus = Corpus::sampled(
            "librispeech100-like",
            &Corpus::librispeech_length_model(),
            scale.ds2_utterances,
            29,
            scale.seed,
        );
        // GNMT uses length-bucketed batching; DS2 sorts its first epoch
        // (both per the paper's Section VI-E discussion).
        let gnmt_plan = EpochPlan::new(&gnmt_corpus, BatchPolicy::bucketed(64, 16), scale.seed)
            .expect("corpus is non-empty");
        let ds2_plan = EpochPlan::new(&ds2_corpus, BatchPolicy::sorted_first_epoch(64), scale.seed)
            .expect("corpus is non-empty");
        Workloads {
            scale,
            gnmt: gnmt(),
            ds2: ds2(),
            gnmt_corpus,
            ds2_corpus,
            gnmt_plan,
            ds2_plan,
            configs: GpuConfig::table2_configs(),
            profiles: HashMap::new(),
        }
    }

    /// Paper-scale workloads.
    pub fn paper() -> Self {
        Workloads::new(Scale::paper())
    }

    /// Quick-scale workloads for tests.
    pub fn quick() -> Self {
        Workloads::new(Scale::quick())
    }

    /// The scale in use.
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// The network model for `net`.
    pub fn network(&self, net: Net) -> &Network {
        match net {
            Net::Gnmt => &self.gnmt,
            Net::Ds2 => &self.ds2,
        }
    }

    /// The epoch plan for `net`.
    pub fn plan(&self, net: Net) -> &EpochPlan {
        match net {
            Net::Gnmt => &self.gnmt_plan,
            Net::Ds2 => &self.ds2_plan,
        }
    }

    /// The corpus behind `net`'s epoch plan.
    pub fn corpus(&self, net: Net) -> &Corpus {
        match net {
            Net::Gnmt => &self.gnmt_corpus,
            Net::Ds2 => &self.ds2_corpus,
        }
    }

    /// A steady-state epoch plan for `net`: uniformly shuffled batches
    /// of `batch_size`, as every epoch after the first looks (DS2 only
    /// sorts its first epoch; GNMT reshuffles bucket order). This is the
    /// regime the streaming/online selection path targets.
    pub fn steady_state_plan(&self, net: Net, batch_size: u32) -> EpochPlan {
        EpochPlan::new(
            self.corpus(net),
            BatchPolicy::shuffled(batch_size),
            self.scale.seed,
        )
        .expect("corpora are non-empty")
    }

    /// The Table II configurations (index 0 = config #1).
    pub fn configs(&self) -> &[GpuConfig; 5] {
        &self.configs
    }

    /// One Table II configuration by zero-based index.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= 5`.
    pub fn config(&self, idx: usize) -> &GpuConfig {
        &self.configs[idx]
    }

    /// The (cached) full-epoch profile of `net` on configuration `idx`,
    /// with kernel detail.
    pub fn profile(&mut self, net: Net, idx: usize) -> &EpochProfile {
        let key = (net, idx);
        if !self.profiles.contains_key(&key) {
            let device = Device::new(self.configs[idx].clone());
            let profiler = Profiler::new().with_kernel_detail();
            let profile = profiler
                .profile_epoch(self.network(net), self.plan(net), &device)
                .expect("plans are non-empty");
            self.profiles.insert(key, profile);
        }
        self.profiles.get(&key).expect("just inserted")
    }

    /// Re-profile single iterations of the given sequence lengths on
    /// configuration `idx`, returning mean iteration time per SL.
    pub fn reprofile_seq_lens(&self, net: Net, idx: usize, seq_lens: &[u32]) -> HashMap<u32, f64> {
        let device = Device::new(self.configs[idx].clone());
        let batch = self.plan(net).batch_size();
        let profiles =
            Profiler::new().profile_seq_lens(self.network(net), batch, seq_lens, &device);
        profiles
            .into_iter()
            .map(|p| (p.seq_len, p.time_s))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_workloads_build_and_profile() {
        let mut w = Workloads::quick();
        assert_eq!(w.configs().len(), 5);
        let iterations = w.plan(Net::Ds2).iterations();
        let p = w.profile(Net::Ds2, 0);
        assert_eq!(p.iteration_count(), iterations);
        assert!(p.training_time_s() > 0.0);
        // Cached: second call returns the same profile.
        let t = w.profile(Net::Ds2, 0).training_time_s();
        assert_eq!(t, w.profile(Net::Ds2, 0).training_time_s());
    }

    #[test]
    fn reprofiling_matches_epoch_times_for_full_batches() {
        let mut w = Workloads::quick();
        let sl = {
            let p = w.profile(Net::Gnmt, 0);
            // Pick an SL whose every occurrence is a full batch (a partial
            // last batch at the same SL would skew the epoch mean).
            p.iterations()
                .iter()
                .find(|i| {
                    i.samples == 64
                        && p.iterations()
                            .iter()
                            .all(|j| j.seq_len != i.seq_len || j.samples == 64)
                })
                .expect("some SL with only full batches")
                .seq_len
        };
        let re = w.reprofile_seq_lens(Net::Gnmt, 0, &[sl]);
        let epoch_mean = w.profile(Net::Gnmt, 0).mean_time_of(sl).unwrap();
        let rel = ((re[&sl] - epoch_mean) / epoch_mean).abs();
        assert!(rel < 1e-9, "rel = {rel}");
    }
}
