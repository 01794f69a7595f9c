//! Small numeric helpers: a seeded RNG, medians, percentiles with a
//! stated sample count, and metric-name validation.

/// SplitMix64: the benchmark's only randomness, so a seed fixes every
/// generated input and schedule.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x005e_ed0f_be4c_4da7)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Exponential inter-arrival gap with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }
}

/// Median of the values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// A percentile together with the sample count it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    pub value: f64,
    pub samples: usize,
}

/// Minimum number of samples that must lie beyond a reported percentile.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Smallest sample count at which percentile `q` (in `(0, 1)`) leaves at
/// least [`MIN_TAIL_SAMPLES`] samples beyond it.
pub fn samples_needed(q: f64) -> usize {
    (MIN_TAIL_SAMPLES as f64 / (1.0 - q)).ceil() as usize
}

/// Nearest-rank percentile `q` of `values`, or `None` when fewer than
/// [`MIN_TAIL_SAMPLES`] samples would lie beyond it.
pub fn percentile(values: &[f64], q: f64) -> Option<Percentile> {
    let n = values.len();
    if n == 0 || n < samples_needed(q) {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(Percentile {
        value: v[rank - 1],
        samples: n,
    })
}

/// Percentile `q` per window of consecutive samples, median over the
/// windows. Each window holds just enough samples for `q` to leave
/// [`MIN_TAIL_SAMPLES`] beyond it (1000 for p99), so a stall confined to
/// one window moves one window's value, not the result. Samples after the
/// last full window are dropped; `None` without a full window.
pub fn windowed_percentile(values: &[f64], q: f64) -> Option<Percentile> {
    let w = samples_needed(0.99).max(samples_needed(q));
    let per_window: Vec<f64> = values
        .chunks_exact(w)
        .filter_map(|c| percentile(c, q).map(|p| p.value))
        .collect();
    if per_window.is_empty() {
        return None;
    }
    Some(Percentile {
        value: median(&per_window),
        samples: per_window.len() * w,
    })
}

/// Whether a metric name fits the benchmark contract: 1 to 64 of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(ok_char)
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_need_ten_samples_beyond_them() {
        assert_eq!(samples_needed(0.5), 20);
        assert_eq!(samples_needed(0.99), 1000);
        let few: Vec<f64> = (0..999).map(f64::from).collect();
        assert!(percentile(&few, 0.99).is_none());
        let enough: Vec<f64> = (0..1000).map(f64::from).collect();
        let p = percentile(&enough, 0.99).expect("1000 samples support p99");
        assert_eq!(p.samples, 1000);
        assert_eq!(p.value, 989.0);
        // Exactly ten samples lie beyond the reported value.
        assert_eq!(enough.iter().filter(|&&v| v > p.value).count(), 10);
        assert!(percentile(&enough[..19], 0.5).is_none());
        assert_eq!(percentile(&enough[..20], 0.5).map(|p| p.value), Some(9.0));
    }

    #[test]
    fn windowed_percentile_takes_the_median_window() {
        let mut v: Vec<f64> = (0..3000).map(|i| f64::from(i % 1000)).collect();
        assert!(windowed_percentile(&v[..999], 0.99).is_none());
        let p = windowed_percentile(&v, 0.99).expect("three windows");
        assert_eq!(p.samples, 3000);
        assert_eq!(p.value, 989.0);
        // A stall confined to one window does not move the result.
        for x in &mut v[..1000] {
            *x += 1e6;
        }
        assert_eq!(windowed_percentile(&v, 0.99).map(|p| p.value), Some(989.0));
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn rng_is_deterministic_per_seed() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Rng::new(8);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn metric_names_are_checked() {
        assert!(valid_metric_name("p99_ms.high"));
        assert!(valid_metric_name("eval.matrices_s.lockstep"));
        assert!(!valid_metric_name(".hidden"));
        assert!(!valid_metric_name("has space"));
        assert!(!valid_metric_name(""));
    }
}
