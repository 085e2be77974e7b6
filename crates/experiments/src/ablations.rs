//! Ablations of the methodology's design choices.
//!
//! The paper fixes three choices without ablating them: the
//! closest-to-average representative (Fig. 10, step 3), equal-width SL
//! bins, and a user-set error target `e`. This module measures each
//! against alternatives, plus the `prior` baseline's sensitivity to its
//! warmup and window, on the identification configuration of both
//! networks. Every row reports the selection's self error: the Eq.-1
//! projection of total training time against the measured epoch.
//!
//! * representative rule at `k = 10`: closest-to-average (the paper),
//!   the member with the median statistic, or the most frequent member;
//! * binning at `k ∈ {5, 10, 20}`: equal-width SL ranges (the paper) or
//!   equal-population (quantile) bins;
//! * `e` sweep: [`identification_config`](crate::identification_config)
//!   with only `error_threshold_pct` changed, reporting the `k` the
//!   refinement settles on and the SeqPoints it selects;
//! * `prior` at several (warmup, window) pairs.

use seqpoint_core::binning::{bin_profiles, Bin};
use seqpoint_core::stats::relative_error_pct;
use seqpoint_core::{
    BaselineKind, SeqPoint, SeqPointConfig, SeqPointPipeline, SeqPointSet, SlProfile,
};
use sqnn_profiler::report::{fmt_f, Table};

use crate::{Net, Workloads};

/// How a bin's representative sequence length is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepresentativeRule {
    /// The SL whose statistic is closest to the bin's weighted average —
    /// the paper's rule (Fig. 10, step 3).
    ClosestToAverage,
    /// The member SL with the median statistic.
    MedianStat,
    /// The member SL observed most often.
    MostFrequent,
}

impl RepresentativeRule {
    /// Every rule, the paper's first.
    pub const ALL: [RepresentativeRule; 3] = [
        RepresentativeRule::ClosestToAverage,
        RepresentativeRule::MedianStat,
        RepresentativeRule::MostFrequent,
    ];
}

/// Select one SeqPoint per non-empty bin under the given rule.
pub fn select_with_rule(bins: &[Bin], rule: RepresentativeRule) -> SeqPointSet {
    let pick: fn(&Bin) -> Option<&SlProfile> = match rule {
        RepresentativeRule::ClosestToAverage => return SeqPointSet::select(bins),
        RepresentativeRule::MedianStat => |bin| {
            let mut sorted: Vec<&SlProfile> = bin.profiles.iter().collect();
            sorted.sort_by(|a, b| a.mean_stat.total_cmp(&b.mean_stat));
            sorted.get(sorted.len() / 2).copied()
        },
        RepresentativeRule::MostFrequent => |bin| {
            bin.profiles
                .iter()
                .max_by(|a, b| a.count.cmp(&b.count).then(b.seq_len.cmp(&a.seq_len)))
        },
    };
    let points = bins
        .iter()
        .filter_map(|bin| {
            let repr = pick(bin)?;
            Some(SeqPoint {
                seq_len: repr.seq_len,
                stat: repr.mean_stat,
                weight: bin.weight(),
            })
        })
        .collect();
    SeqPointSet::from_points(points)
}

/// Split profiles into `k` equal-*population* bins (quantiles over
/// iterations) instead of the paper's equal-width SL ranges.
pub fn quantile_bins(profiles: &[SlProfile], k: u32) -> Vec<Bin> {
    if profiles.is_empty() || k == 0 {
        return Vec::new();
    }
    let total: u64 = profiles.iter().map(|p| p.count).sum();
    let per_bin = (total as f64 / f64::from(k)).max(1.0);
    let mut bins: Vec<Bin> = Vec::new();
    let mut current: Vec<SlProfile> = Vec::new();
    let mut filled = 0.0;
    for p in profiles {
        current.push(*p);
        filled += p.count as f64;
        if filled >= per_bin && bins.len() + 1 < k as usize {
            push_bin(&mut bins, std::mem::take(&mut current));
            filled = 0.0;
        }
    }
    push_bin(&mut bins, current);
    bins
}

/// Close `profiles` into a bin spanning their SLs, unless it is empty.
fn push_bin(bins: &mut Vec<Bin>, profiles: Vec<SlProfile>) {
    let (Some(first), Some(last)) = (profiles.first(), profiles.last()) else {
        return;
    };
    let (lo, hi) = (first.seq_len, last.seq_len);
    bins.push(Bin { lo, hi, profiles });
}

/// The bin count of the representative-rule study.
const RULE_K: u32 = 10;
/// The bin counts of the binning study.
const BINNING_K: [u32; 3] = [5, 10, 20];
/// The error targets of the `e` sweep, in %.
const E_SWEEP_PCT: [f64; 7] = [0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0];
/// The (warmup, window) pairs of the `prior` study.
const PRIOR_WINDOWS: [(usize, usize); 4] = [(10, 50), (50, 50), (150, 50), (10, 200)];

/// Run the ablations on config 0 of both networks: one row per network,
/// study and variant, with the bin count, the representative iterations
/// profiled (SeqPoints, or `prior`'s window) and the self error.
pub fn run(w: &mut Workloads) -> Table {
    let mut table = Table::new(
        "Design-choice ablations — representative rule, binning, e, prior window",
        ["network", "study", "variant", "k", "points", "self error %"],
    );
    for net in Net::both() {
        let log = w.profile(net, 0).to_epoch_log();
        let profiles = log.sl_profiles();
        let actual = log.actual_total();
        let mut row = |study: &str, variant: String, k: String, points: usize, error: f64| {
            table.push_row([
                net.label().to_owned(),
                study.to_owned(),
                variant,
                k,
                points.to_string(),
                fmt_f(error, 4),
            ]);
        };
        let mut selection = |study, variant: String, k: u32, set: SeqPointSet| {
            let error = relative_error_pct(set.project_total(), actual);
            row(study, variant, k.to_string(), set.len(), error);
        };

        if let Ok(bins) = bin_profiles(&profiles, RULE_K) {
            for rule in RepresentativeRule::ALL {
                let set = select_with_rule(&bins, rule);
                selection("representative", format!("{rule:?}"), RULE_K, set);
            }
        }

        for k in BINNING_K {
            if let Ok(bins) = bin_profiles(&profiles, k) {
                let set = SeqPointSet::select(&bins);
                selection("binning", "equal-width".into(), k, set);
            }
            let set = SeqPointSet::select(&quantile_bins(&profiles, k));
            selection("binning", "quantile".into(), k, set);
        }

        for e in E_SWEEP_PCT {
            let config = SeqPointConfig {
                error_threshold_pct: e,
                ..crate::identification_config()
            };
            let Ok(a) = SeqPointPipeline::with_config(config).run(&log) else {
                continue;
            };
            let (k, points) = (a.k().to_string(), a.seqpoints().len());
            row("e sweep", format!("e={e}%"), k, points, a.self_error_pct());
        }

        for (warmup, window) in PRIOR_WINDOWS {
            let Ok(sel) = (BaselineKind::Prior { warmup, window }).select(&log) else {
                continue;
            };
            let pred = sel.project_total_with(|sl| log.mean_stat_of(sl).unwrap_or(f64::NAN));
            let variant = format!("warmup={warmup} window={window}");
            let points = sel.seq_lens().len();
            row(
                "prior",
                variant,
                "-".to_owned(),
                points,
                relative_error_pct(pred, actual),
            );
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqpoint_core::EpochLog;

    fn log() -> EpochLog {
        EpochLog::from_pairs((0..300).map(|i| {
            let sl = 5 + (i * 13) % 140;
            (sl, 0.2 + f64::from(sl) * 0.012)
        }))
    }

    fn self_error(set: &SeqPointSet, log: &EpochLog) -> f64 {
        relative_error_pct(set.project_total(), log.actual_total())
    }

    #[test]
    fn all_rules_cover_every_iteration() {
        let l = log();
        let bins = bin_profiles(&l.sl_profiles(), 8).unwrap();
        for rule in RepresentativeRule::ALL {
            let set = select_with_rule(&bins, rule);
            assert_eq!(set.total_weight() as usize, l.len(), "{rule:?}");
        }
    }

    #[test]
    fn closest_to_average_is_at_least_as_accurate_as_alternatives_here() {
        let l = log();
        let bins = bin_profiles(&l.sl_profiles(), 8).unwrap();
        let paper = self_error(
            &select_with_rule(&bins, RepresentativeRule::ClosestToAverage),
            &l,
        );
        let median = self_error(&select_with_rule(&bins, RepresentativeRule::MedianStat), &l);
        let frequent = self_error(
            &select_with_rule(&bins, RepresentativeRule::MostFrequent),
            &l,
        );
        assert!(paper <= median + 1e-9, "paper {paper} vs median {median}");
        assert!(
            paper <= frequent + 1e-9,
            "paper {paper} vs frequent {frequent}"
        );
    }

    #[test]
    fn quantile_bins_partition_and_balance() {
        let l = log();
        let profiles = l.sl_profiles();
        let bins = quantile_bins(&profiles, 6);
        assert!(bins.len() <= 6);
        let total: u64 = bins.iter().map(|b| b.weight()).sum();
        assert_eq!(total as usize, l.len());
        // Populations are balanced within a factor ~3 (far tighter than
        // equal-width bins on a skewed distribution).
        let weights: Vec<u64> = bins.iter().map(|b| b.weight()).collect();
        let (min, max) = (
            *weights.iter().min().unwrap(),
            *weights.iter().max().unwrap(),
        );
        assert!(max <= min * 3, "weights = {weights:?}");
    }

    #[test]
    fn quantile_bins_edge_cases() {
        assert!(quantile_bins(&[], 4).is_empty());
        let one = vec![SlProfile {
            seq_len: 7,
            count: 5,
            mean_stat: 1.0,
        }];
        let bins = quantile_bins(&one, 4);
        assert_eq!(bins.len(), 1);
        assert_eq!(bins[0].weight(), 5);
    }

    /// The quick-scale GNMT rows. The self errors of the representative,
    /// binning and `e` = 1 / 0.1 / 0.01 % rows, with those rows' `k` and
    /// SeqPoints, are the numbers the criterion ablation bench printed
    /// before this artifact replaced it; the bench printed `prior` to two
    /// decimals (1.73, 14.64, 40.97, 10.09).
    #[test]
    fn quick_gnmt_rows_match_the_bench_numbers() {
        let csv = run(&mut Workloads::quick()).to_csv();
        assert_eq!(csv.lines().count(), 1 + 2 * (3 + 6 + 7 + 4));
        let gnmt: Vec<&str> = csv.lines().filter(|l| l.starts_with("GNMT,")).collect();
        assert_eq!(
            gnmt,
            [
                "GNMT,representative,ClosestToAverage,10,6,0.8032",
                "GNMT,representative,MedianStat,10,6,1.5990",
                "GNMT,representative,MostFrequent,10,6,24.0824",
                "GNMT,binning,equal-width,5,4,1.3549",
                "GNMT,binning,quantile,5,5,1.2450",
                "GNMT,binning,equal-width,10,6,0.8032",
                "GNMT,binning,quantile,10,9,0.8114",
                "GNMT,binning,equal-width,20,9,0.8059",
                "GNMT,binning,quantile,20,16,4.0671",
                "GNMT,e sweep,e=0.01%,39,15,0.0048",
                "GNMT,e sweep,e=0.02%,39,15,0.0048",
                "GNMT,e sweep,e=0.05%,30,12,0.0311",
                "GNMT,e sweep,e=0.1%,28,12,0.0787",
                "GNMT,e sweep,e=0.2%,15,7,0.1737",
                "GNMT,e sweep,e=0.5%,15,7,0.1737",
                "GNMT,e sweep,e=1%,10,6,0.8032",
                "GNMT,prior,warmup=10 window=50,-,50,1.7274",
                "GNMT,prior,warmup=50 window=50,-,44,14.6376",
                "GNMT,prior,warmup=150 window=50,-,1,40.9651",
                "GNMT,prior,warmup=10 window=200,-,84,10.0864",
            ]
        );
    }
}
