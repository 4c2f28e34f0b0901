//! Order statistics for timings: the median, and the highest tail
//! percentile that still has enough samples beyond it to repeat from
//! run to run. Every summary carries its sample count.

/// Percentile levels a tail may be reported at, lowest first.
pub const TAIL_LADDER: [f64; 6] = [0.50, 0.75, 0.90, 0.95, 0.99, 0.999];

/// Fewest samples that must lie strictly beyond a reported tail
/// percentile; fewer and the percentile is one or two outliers.
pub const MIN_BEYOND: usize = 10;

/// A median plus a tail percentile of one set of samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// How many samples the summary covers.
    pub count: usize,
    /// The 50th percentile.
    pub median: f64,
    /// The tail level actually reported (for example `0.99`).
    pub tail_level: f64,
    /// The sample at `tail_level`.
    pub tail: f64,
}

/// The 1-based nearest rank of quantile `q` among `n` sorted samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank quantile of already sorted samples.
///
/// # Panics
///
/// When `sorted` is empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    sorted[rank(sorted.len(), q) - 1]
}

/// The highest level in [`TAIL_LADDER`], at most `cap`, with at least
/// [`MIN_BEYOND`] of `n` samples beyond it; the median when no level
/// qualifies.
pub fn tail_level(n: usize, cap: f64) -> f64 {
    TAIL_LADDER
        .iter()
        .copied()
        .rfind(|&q| q <= cap && n.saturating_sub(rank(n, q)) >= MIN_BEYOND)
        .unwrap_or(0.50)
}

/// Summarizes `samples` (any order), reporting the tail at the highest
/// level [`tail_level`] allows under `cap`. `None` when there are no
/// samples.
pub fn summarize(samples: &[f64], cap: f64) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let level = tail_level(sorted.len(), cap);
    Some(Summary {
        count: sorted.len(),
        median: quantile(&sorted, 0.50),
        tail_level: level,
        tail: quantile(&sorted, level),
    })
}

/// The median of `samples`, or `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    summarize(samples, 0.50).map(|s| s.median)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn fifty_samples_never_report_p99() {
        let s = summarize(&ramp(50), 0.999).expect("non-empty");
        assert_eq!(s.count, 50);
        assert!(s.tail_level < 0.99, "reported p{}", s.tail_level * 100.0);
        // p75 leaves 12 samples beyond; p90 would leave only 5.
        assert_eq!(s.tail_level, 0.75);
        assert_eq!(s.tail, 38.0);
        assert_eq!(s.median, 25.0);
    }

    #[test]
    fn every_reported_tail_has_ten_samples_beyond() {
        for n in 1..3000 {
            let level = tail_level(n, 0.999);
            let beyond = n - rank(n, level);
            if level > 0.50 {
                assert!(beyond >= MIN_BEYOND, "n={n} p{level}: {beyond} beyond");
            }
            // And it is the highest such level.
            for &q in TAIL_LADDER.iter().filter(|&&q| q > level) {
                assert!(n - rank(n, q) < MIN_BEYOND, "n={n}: p{q} also qualifies");
            }
        }
    }

    #[test]
    fn a_thousand_samples_reach_p99_and_the_cap_holds() {
        assert_eq!(tail_level(1000, 0.999), 0.99);
        assert_eq!(tail_level(1000, 0.95), 0.95);
        assert_eq!(tail_level(10_000, 0.999), 0.999);
    }

    #[test]
    fn small_sets_fall_back_to_the_median() {
        let s = summarize(&[3.0, 1.0, 2.0], 0.99).expect("non-empty");
        assert_eq!(
            (s.count, s.tail_level, s.tail, s.median),
            (3, 0.50, 2.0, 2.0)
        );
        assert!(summarize(&[], 0.99).is_none());
    }
}
