//! Exact order statistics over raw samples.
//!
//! Every percentile the benchmark reports comes from here: the samples
//! are kept, sorted, and the requested rank is read off. Nothing goes
//! through a bucketed histogram, whose quantiles are bucket bounds.

/// Raw samples of one quantity, in recording order.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn new() -> Self {
        Samples::default()
    }

    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// The nearest-rank `q`-quantile (`0 < q <= 1`): the smallest sample
    /// such that at least `q` of all samples are less than or equal to
    /// it. Always one of the recorded values; 0 for no samples.
    pub fn quantile(&self, q: f64) -> f64 {
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        quantile_sorted(&sorted, q)
    }

    /// The lower median (nearest-rank 0.5 quantile).
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }
}

/// Nearest-rank quantile of an ascending slice; 0 for an empty one.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn of(values: &[f64]) -> Samples {
        let mut s = Samples::new();
        for &v in values {
            s.push(v);
        }
        s
    }

    #[test]
    fn nearest_rank_on_fixed_vectors() {
        let s = of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(s.quantile(0.5), 3.0);
        assert_eq!(s.quantile(0.2), 1.0);
        assert_eq!(s.quantile(0.21), 2.0);
        assert_eq!(s.quantile(0.99), 5.0);
        assert_eq!(s.quantile(1.0), 5.0);
        assert_eq!(of(&[7.0]).quantile(0.99), 7.0);
        assert_eq!(of(&[]).quantile(0.5), 0.0);
        assert_eq!(of(&[1.0, 2.0]).median(), 1.0);
    }

    #[test]
    fn p99_of_a_thousand_is_the_990th_value() {
        // 1..=1000 shuffled deterministically.
        let values: Vec<f64> = (0..1000u64)
            .map(|i| ((i * 7919) % 1000 + 1) as f64)
            .collect();
        let s = of(&values);
        assert_eq!(s.len(), 1000);
        assert_eq!(s.quantile(0.99), 990.0);
        assert_eq!(s.median(), 500.0);
    }

    #[test]
    fn samples_inside_one_power_of_two_bucket_stay_distinct() {
        // Every value lies in [1024, 2048): a log2 histogram reports one
        // bucket bound (2047 or 2048) for both p50 and p99.
        let values: Vec<f64> = (0..100).map(|i| 1024.0 + 10.0 * i as f64).collect();
        let s = of(&values);
        assert_eq!(s.median(), 1024.0 + 10.0 * 49.0);
        assert_eq!(s.quantile(0.99), 1024.0 + 10.0 * 98.0);
        assert!(s.median() < s.quantile(0.99));
    }
}
