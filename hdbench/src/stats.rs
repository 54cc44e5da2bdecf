//! Order statistics for the benchmark's timings.

use std::fmt;

/// A percentile read off a sample set, with the number of samples it
/// was read from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    /// The nearest-rank value.
    pub value: f64,
    /// Samples the value was read from.
    pub samples: usize,
}

/// Why a percentile was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TooFewSamples {
    /// Samples available.
    pub samples: usize,
    /// Samples that lie beyond the requested rank.
    pub beyond: usize,
}

impl fmt::Display for TooFewSamples {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "only {} of {} samples lie beyond the rank (at least {MIN_BEYOND} needed)",
            self.beyond, self.samples
        )
    }
}

/// Fewest samples that must lie beyond a percentile's rank for the
/// percentile to be reported at all.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `q`-quantile (`0 < q < 1`) of `samples`.
///
/// Refuses when fewer than [`MIN_BEYOND`] samples lie beyond the rank:
/// a p99 needs at least 1000 samples, a median at least 20.
pub fn percentile(samples: &[f64], q: f64) -> Result<Percentile, TooFewSamples> {
    assert!(q > 0.0 && q < 1.0, "quantile {q} outside (0, 1)");
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(TooFewSamples { samples: n, beyond });
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(Percentile {
        value: sorted[rank - 1],
        samples: n,
    })
}

/// The median of a small set of repeated measurements (set-up times,
/// per-round rates), where no tail is read. Averages the middle pair
/// of an even-sized set.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Median, p90 and p99 of a latency distribution, each refusing on too
/// few samples.
#[derive(Clone, Copy, Debug)]
pub struct Latency {
    /// Median.
    pub p50: Percentile,
    /// 90th percentile.
    pub p90: Percentile,
    /// 99th percentile.
    pub p99: Percentile,
}

impl Latency {
    /// Reads the percentiles off `samples`.
    pub fn of(samples: &[f64]) -> Result<Latency, TooFewSamples> {
        Ok(Latency {
            p50: percentile(samples, 0.50)?,
            p90: percentile(samples, 0.90)?,
            p99: percentile(samples, 0.99)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_reports_its_sample_count() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p50 = percentile(&samples, 0.5).unwrap();
        assert_eq!(p50.value, 500.0);
        assert_eq!(p50.samples, 1000);
        let p99 = percentile(&samples, 0.99).unwrap();
        assert_eq!(p99.value, 990.0);
        assert_eq!(p99.samples, 1000);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut samples: Vec<f64> = (0..200).map(|i| ((i * 37) % 200) as f64).collect();
        let a = percentile(&samples, 0.9).unwrap();
        samples.reverse();
        assert_eq!(percentile(&samples, 0.9).unwrap(), a);
        assert_eq!(a.value, 179.0);
    }

    #[test]
    fn percentile_refuses_fewer_than_ten_samples_beyond() {
        let samples: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(
            percentile(&samples, 0.99),
            Err(TooFewSamples {
                samples: 999,
                beyond: 9
            })
        );
        let samples: Vec<f64> = (0..1000).map(f64::from).collect();
        assert!(percentile(&samples, 0.99).is_ok());
        assert!(percentile(&samples[..19], 0.5).is_err());
        assert!(percentile(&samples[..20], 0.5).is_ok());
        assert!(percentile(&[], 0.5).is_err());
        assert!(Latency::of(&samples[..500]).is_err());
    }

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
