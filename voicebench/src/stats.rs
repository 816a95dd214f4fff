//! Exact order statistics: latency percentiles with the tail guard, and
//! the median/quartile summary the comparison uses.

/// Fewest samples that must lie strictly beyond a reported tail
/// percentile; with fewer, the percentile is one or two unlucky samples
/// and does not repeat from run to run.
pub const MIN_BEYOND: usize = 10;

/// Exact samples of one latency distribution (any integer unit).
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<u64>,
    sorted: bool,
}

/// One percentile of a [`Samples`] set, with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The nearest-rank order statistic.
    pub value: u64,
    /// Samples in the set.
    pub count: usize,
    /// Samples strictly greater than `value`.
    pub beyond: usize,
}

impl Samples {
    /// Record one sample.
    pub fn push(&mut self, value: u64) {
        self.values.push(value);
        self.sorted = false;
    }

    /// Whether no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.values.sort_unstable();
            self.sorted = true;
        }
    }

    /// The `p`-th percentile (0 < p ≤ 100) by nearest rank; `None` when
    /// empty.
    pub fn percentile(&mut self, p: f64) -> Option<Percentile> {
        if self.values.is_empty() {
            return None;
        }
        self.sort();
        let count = self.values.len();
        let rank = ((p / 100.0) * count as f64).ceil().clamp(1.0, count as f64) as usize;
        let value = self.values[rank - 1];
        let beyond = count - self.values.partition_point(|&v| v <= value);
        Some(Percentile {
            value,
            count,
            beyond,
        })
    }

    /// A percentile that is only reported when at least [`MIN_BEYOND`]
    /// samples lie beyond it.
    pub fn guarded(&mut self, p: f64) -> Result<Percentile, String> {
        match self.percentile(p) {
            Some(found) if found.beyond >= MIN_BEYOND => Ok(found),
            Some(found) => Err(format!(
                "p{p} rests on {} samples beyond it (of {}); at least {MIN_BEYOND} are needed",
                found.beyond, found.count
            )),
            None => Err(format!("p{p} of an empty sample set")),
        }
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.values.iter().copied().max().unwrap_or(0)
    }
}

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile, computed exactly like
/// Python's `statistics.quantiles(values, n=4)` (the default exclusive
/// method); `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_counts_samples_beyond() {
        let mut samples = Samples::default();
        for v in 1..=1000u64 {
            samples.push(v);
        }
        let p99 = samples.percentile(99.0).unwrap();
        assert_eq!(p99.value, 990);
        assert_eq!(p99.count, 1000);
        assert_eq!(p99.beyond, 10);
        assert!(samples.guarded(99.0).is_ok());
        assert_eq!(samples.percentile(50.0).unwrap().value, 500);
        assert_eq!(samples.max(), 1000);
    }

    #[test]
    fn guard_refuses_a_thin_tail() {
        let mut samples = Samples::default();
        for v in 1..=999u64 {
            samples.push(v);
        }
        // 999 samples: p99 is sample 990, with only 9 beyond it.
        let err = samples.guarded(99.0).unwrap_err();
        assert!(err.contains("9 samples beyond"), "{err}");
        // Ties at the percentile value do not count as beyond it.
        let mut tied = Samples::default();
        for _ in 0..2000 {
            tied.push(7);
        }
        assert_eq!(tied.percentile(99.0).unwrap().beyond, 0);
        assert!(tied.guarded(99.0).is_err());
        assert!(Samples::default().guarded(50.0).is_err());
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
