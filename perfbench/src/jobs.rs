//! Fixed job lists derived from the workload seed. A run ends after its
//! list, never after a time limit, so the jobs a run completes (and with
//! them every accuracy figure and count) do not depend on the clock.

/// Seed streams, so warm-up jobs never coincide with timed ones.
pub const TIMED: u64 = 0;
pub const WARMUP: u64 = 1;
const REPEAT_PICK: u64 = 2;

/// In serve-gnmt, every this-many-th submission resubmits an earlier
/// spec, which the daemon answers from its result cache.
pub const REPEAT_EVERY: usize = 4;

/// SplitMix64 of (workload seed, stream, index).
fn mix(workload_seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = workload_seed
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `count` distinct job seeds of one stream. Seeds stay below 2^32 so
/// they cross the service's JSON wire exactly.
pub fn seeds(workload_seed: u64, stream: u64, count: usize) -> Vec<u64> {
    let mut out: Vec<u64> = Vec::with_capacity(count);
    let mut index = 0;
    while out.len() < count {
        let seed = mix(workload_seed, stream, index) >> 32;
        index += 1;
        if !out.contains(&seed) {
            out.push(seed);
        }
    }
    out
}

/// One serve-gnmt submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Submission {
    /// The spec's corpus/shuffle seed.
    pub seed: u64,
    /// For a resubmission, the position of the earlier submission whose
    /// spec it repeats.
    pub repeat_of: Option<usize>,
}

/// The serve-gnmt submission list: positions `3, 7, 11, …` resubmit a
/// spec submitted earlier in the list; all others carry a fresh seed.
pub fn serve_list(workload_seed: u64, count: usize) -> Vec<Submission> {
    let fresh = seeds(workload_seed, TIMED, count);
    let mut out: Vec<Submission> = Vec::with_capacity(count);
    for (position, &seed) in fresh.iter().enumerate() {
        if position % REPEAT_EVERY == REPEAT_EVERY - 1 {
            let pick =
                (mix(workload_seed, REPEAT_PICK, position as u64) % position as u64) as usize;
            let original = out[pick].repeat_of.unwrap_or(pick);
            out.push(Submission {
                seed: out[original].seed,
                repeat_of: Some(original),
            });
        } else {
            out.push(Submission {
                seed,
                repeat_of: None,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_list_and_other_seeds_differ() {
        assert_eq!(seeds(5, TIMED, 30), seeds(5, TIMED, 30));
        assert_ne!(seeds(5, TIMED, 30), seeds(6, TIMED, 30));
        assert_eq!(serve_list(5, 120), serve_list(5, 120));
        assert_ne!(serve_list(5, 120), serve_list(6, 120));
        // A longer list extends a shorter one: job i is the same job
        // whatever the run length.
        assert_eq!(seeds(5, TIMED, 30)[..10], seeds(5, TIMED, 10)[..]);
    }

    #[test]
    fn streams_and_jobs_are_distinct() {
        let timed = seeds(9, TIMED, 200);
        let warm = seeds(9, WARMUP, 4);
        for (i, seed) in timed.iter().enumerate() {
            assert!(*seed < 1 << 32);
            assert!(!timed[..i].contains(seed));
            assert!(!warm.contains(seed));
        }
    }

    #[test]
    fn serve_repeats_come_at_the_fixed_share() {
        for workload_seed in [0, 1, 77, u64::MAX] {
            let list = serve_list(workload_seed, 120);
            let repeats: Vec<usize> = (0..list.len())
                .filter(|&i| list[i].repeat_of.is_some())
                .collect();
            assert_eq!(repeats.len(), 120 / REPEAT_EVERY);
            for (i, job) in list.iter().enumerate() {
                match job.repeat_of {
                    Some(original) => {
                        assert_eq!(i % REPEAT_EVERY, REPEAT_EVERY - 1);
                        assert!(original < i);
                        assert_eq!(list[original].repeat_of, None);
                        assert_eq!(job.seed, list[original].seed);
                    }
                    None => {
                        let earlier_fresh = list[..i]
                            .iter()
                            .filter(|j| j.repeat_of.is_none())
                            .any(|j| j.seed == job.seed);
                        assert!(!earlier_fresh, "fresh spec repeated at {i}");
                    }
                }
            }
        }
    }
}
