//! Seeded randomness and the summary statistics the benchmark reports.

/// SplitMix64: a tiny, seedable generator. Inputs depend only on the
/// seed, so the same seed replays the same query order and draws.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`), by rejection so no index is favoured.
    pub fn below(&mut self, n: usize) -> usize {
        let n = n as u64;
        let zone = u64::MAX - u64::MAX % n;
        loop {
            let x = self.next_u64();
            if x < zone {
                return (x % n) as usize;
            }
        }
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// Milliseconds in `d`.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `v / n`, or 0 when there is nothing to divide by.
pub fn per(v: f64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        v / n as f64
    }
}

/// Nearest-rank position of the `p`-th percentile in a sorted sample
/// of `n` values: the 1-based rank `ceil(p/100 * n)`, at least 1.
pub fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// How many samples lie beyond the `p`-th percentile of `n` values.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The `p`-th percentile (nearest rank) of `values`; `None` if empty.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// The median: the mean of the two middle values for an even count.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// The geometric mean of positive values; `None` if empty.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

/// The geometric mean of the middle 80%: the lowest and highest tenth
/// are dropped first. Unlike a median it moves smoothly when a sample
/// mixes two modes in changing proportions; unlike a plain mean, one
/// stall does not move it.
pub fn trimmed_geomean(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 10;
    geomean(&sorted[cut..sorted.len() - cut])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence_other_seed_other_order() {
        let draws = |seed| {
            let mut rng = Rng::new(seed);
            (0..64).map(|_| rng.below(111)).collect::<Vec<_>>()
        };
        assert_eq!(draws(7), draws(7));
        assert_ne!(draws(7), draws(8));
        let order = |seed| {
            let mut items: Vec<u32> = (0..111).collect();
            Rng::new(seed).shuffle(&mut items);
            items
        };
        assert_eq!(order(1), order(1));
        assert_ne!(order(1), order(2));
        let mut sorted = order(3);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..111).collect::<Vec<_>>(), "a permutation");
    }

    #[test]
    fn below_stays_in_range() {
        let mut rng = Rng::new(0);
        assert!((0..1000).all(|_| rng.below(3) < 3));
    }

    #[test]
    fn median_percentile_geomean_on_known_inputs() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 50.0), Some(50.0));
        assert_eq!(percentile(&hundred, 90.0), Some(90.0));
        assert_eq!(percentile(&hundred, 99.0), Some(99.0));
        assert_eq!(percentile(&[5.0], 90.0), Some(5.0));
        let g = geomean(&[1.0, 10.0, 100.0]).unwrap();
        assert!((g - 10.0).abs() < 1e-9);
        let mut skewed = vec![10.0; 18];
        skewed.extend([0.001, 1e6]);
        let t = trimmed_geomean(&skewed).unwrap();
        assert!((t - 10.0).abs() < 1e-9, "the extremes are trimmed");
        assert_eq!(trimmed_geomean(&[]), None);
    }

    #[test]
    fn percentile_tail_counts() {
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(beyond(99, 90.0), 9);
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(110, 90.0), 11);
    }
}
