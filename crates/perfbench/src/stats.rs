//! Order statistics, the exactness digest and the small numeric helpers
//! every workload shares.

/// Median, quartiles and extremes of one timed quantity.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// The median — the value a metric reports.
    pub median: f64,
    /// First quartile.
    pub p25: f64,
    /// Third quartile.
    pub p75: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Sample count.
    pub n: usize,
}

impl Summary {
    /// Summarises `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let (p25, p75) = quartiles(&sorted);
        Some(Summary {
            median: median_sorted(&sorted),
            p25,
            p75,
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            n: sorted.len(),
        })
    }

    /// A summary of one exact value (counts, virtual-time ratios).
    pub fn exact(value: f64) -> Summary {
        Summary {
            median: value,
            p25: value,
            p75: value,
            min: value,
            max: value,
            n: 1,
        }
    }

    /// Interquartile range as a share of the median (0 when the median
    /// is 0) — the spread `--compare` holds against a metric's bound.
    pub fn rel_iqr(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.p75 - self.p25) / self.median.abs()
        }
    }
}

fn median_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// First and third quartile by the rule of Python's
/// `statistics.quantiles(values, n=4)` (exclusive method), so a spread
/// computed here agrees with one computed by a driver written in
/// Python. A single sample is its own quartiles.
fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    if n < 2 {
        return (sorted[0], sorted[0]);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Nearest-rank percentile of `samples` (`pct` in 0..=100); 0 when empty.
pub fn percentile(samples: &[f64], pct: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Geometric mean; 1.0 for an empty input.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (log_sum, n) = values
        .into_iter()
        .fold((0.0f64, 0usize), |(s, n), v| (s + v.ln(), n + 1));
    if n == 0 {
        1.0
    } else {
        (log_sum / n as f64).exp()
    }
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Incremental FNV-1a (64-bit): the exactness digest over every report
/// a workload produces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest so far.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// SplitMix64: the harness's own seed → input-draw generator (job mix,
/// arrivals). The libraries never see it, only what it generated.
#[derive(Clone, Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A draw in `0..bound` (`bound` ≥ 1).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound.max(1)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]).expect("non-empty");
        assert_eq!((s.p25, s.median, s.p75), (1.5, 3.0, 4.5));
        assert_eq!((s.min, s.max, s.n), (1.0, 5.0, 5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&ten).expect("non-empty");
        assert_eq!((s.p25, s.median, s.p75), (2.75, 5.5, 8.25));
        assert!((s.rel_iqr() - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[1.0, 2.0]).expect("non-empty");
        assert_eq!((s.p25, s.median, s.p75), (0.75, 1.5, 2.25));
    }

    #[test]
    fn degenerate_summaries() {
        assert_eq!(Summary::of(&[]), None);
        let one = Summary::of(&[7.0]).expect("non-empty");
        assert_eq!(one, Summary::exact(7.0));
        assert_eq!(one.rel_iqr(), 0.0);
        assert_eq!(Summary::exact(0.0).rel_iqr(), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn geomean_and_ratio() {
        assert!((geomean([2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean([]), 1.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }

    #[test]
    fn fnv_matches_the_reference_vectors() {
        let mut h = Fnv::default();
        assert_eq!(h.value(), 0xcbf2_9ce4_8422_2325);
        h.update(b"a");
        assert_eq!(h.value(), 0xaf63_dc4c_8601_ec8c);
        let mut split = Fnv::default();
        split.update(b"foo");
        split.update(b"bar");
        let mut whole = Fnv::default();
        whole.update(b"foobar");
        assert_eq!(split, whole);
        assert_eq!(whole.value(), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn splitmix_is_deterministic_and_shuffles_in_place() {
        let mut a = SplitMix::new(7);
        let mut b = SplitMix::new(7);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut items: Vec<u32> = (0..12).collect();
        a.shuffle(&mut items);
        let mut sorted = items.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..12).collect::<Vec<u32>>());
        assert!((0..100).all(|_| a.below(3) < 3));
    }
}
