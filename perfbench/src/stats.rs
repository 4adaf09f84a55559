//! Sample summaries: nearest-rank percentiles that refuse to report a
//! percentile with fewer than ten samples beyond it.

use std::time::Duration;

/// A set of duration samples in nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<u64>);

impl Samples {
    pub fn new() -> Samples {
        Samples(Vec::new())
    }

    pub fn push(&mut self, d: Duration) {
        self.0.push(d.as_nanos() as u64);
    }

    pub fn push_ns(&mut self, ns: u64) {
        self.0.push(ns);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn total_ns(&self) -> u64 {
        self.0.iter().sum()
    }

    /// Nearest-rank quantile in milliseconds, or an error when fewer than
    /// ten samples lie beyond it.
    pub fn quantile_ms(&self, q: f64, what: &str) -> Result<f64, String> {
        let n = self.0.len();
        // Nearest rank, with a tolerance so 0.9 × 100 is rank 90, not 91.
        let rank = ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1));
        if n == 0 || n - rank < 10 {
            return Err(format!(
                "{what}: p{} needs ten samples beyond it, have {n} samples",
                (q * 100.0).round()
            ));
        }
        let mut v = self.0.clone();
        v.sort_unstable();
        Ok(v[rank - 1] as f64 / 1e6)
    }

    pub fn mean_ms(&self) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        self.total_ns() as f64 / self.0.len() as f64 / 1e6
    }
}

/// Median of a non-empty slice of seconds.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_need_ten_samples_beyond() {
        let mut s = Samples::new();
        for i in 1..=100u64 {
            s.push_ns(i * 1_000_000);
        }
        assert_eq!(s.quantile_ms(0.5, "x").unwrap(), 50.0);
        assert_eq!(s.quantile_ms(0.9, "x").unwrap(), 90.0);
        assert!(s.quantile_ms(0.99, "x").is_err());
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
