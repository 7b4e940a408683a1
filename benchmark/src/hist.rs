//! A fixed-bucket log-linear histogram of nanosecond timings.
//!
//! Values below 128 ns get a bucket each; above that every power-of-two
//! range is cut into 128 equal buckets, so a bucket is never wider than
//! 1/128 (0.78 %) of the values it holds. Recording is an index
//! computation and an increment, with no allocation after [`Hist::new`].
//!
//! [`Hist::quantile`] interpolates inside the bucket the rank falls in,
//! and **refuses** (`None`) a percentile that has fewer than
//! [`MIN_BEYOND`] samples beyond it: a p99 needs 1 000 samples, a median
//! twenty. A tail read off three samples is noise, and a benchmark that
//! gates on it rejects good changes.

/// Sub-buckets per power of two (`2^SUB_BITS`).
const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
/// Buckets: `SUB` exact ones, then `SUB` for each exponent `7..=63`.
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: f64 = 10.0;

/// The histogram.
#[derive(Clone)]
pub struct Hist {
    counts: Box<[u64]>,
    count: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist::new()
    }
}

fn bucket_of(ns: u64) -> usize {
    if ns < SUB as u64 {
        return ns as usize;
    }
    let exp = 63 - ns.leading_zeros();
    let sub = (ns >> (exp - SUB_BITS)) as usize & (SUB - 1);
    (exp - SUB_BITS + 1) as usize * SUB + sub
}

/// Lowest value of bucket `idx` and the bucket's width.
fn bucket_range(idx: usize) -> (u64, u64) {
    if idx < SUB {
        return (idx as u64, 1);
    }
    let shift = (idx / SUB - 1) as u32;
    (((SUB + idx % SUB) as u64) << shift, 1 << shift)
}

impl Hist {
    /// An empty histogram.
    pub fn new() -> Hist {
        Hist {
            counts: vec![0; BUCKETS].into_boxed_slice(),
            count: 0,
        }
    }

    /// Records one timing.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.count += 1;
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &Hist) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The `q`-quantile in ns (`0 < q < 1`), or `None` when fewer than
    /// [`MIN_BEYOND`] samples lie beyond it.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!(q > 0.0 && q < 1.0, "quantile {q} is outside (0, 1)");
        let n = self.count as f64;
        if n * (1.0 - q) < MIN_BEYOND {
            return None;
        }
        let target = q * n;
        let mut before = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c > 0 && (before + c) as f64 >= target {
                let (lo, width) = bucket_range(idx);
                let inside = (target - before as f64) / c as f64;
                return Some(lo as f64 + inside * width as f64);
            }
            before += c;
        }
        unreachable!("the cumulative count reaches q * count");
    }

    /// [`Hist::quantile`] in microseconds.
    pub fn quantile_us(&self, q: f64) -> Option<f64> {
        self.quantile(q).map(|ns| ns / 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_contiguous_and_narrow() {
        let mut expected_lo = 0u64;
        for idx in 0..BUCKETS {
            let (lo, width) = bucket_range(idx);
            assert_eq!(lo, expected_lo, "bucket {idx} leaves a gap");
            assert_eq!(bucket_of(lo), idx);
            assert_eq!(bucket_of(lo + (width - 1)), idx);
            if idx >= SUB {
                assert!(width as f64 / lo as f64 <= 1.0 / SUB as f64);
            }
            expected_lo = lo.wrapping_add(width);
        }
        assert_eq!(expected_lo, 0, "the last bucket ends at 2^64");
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantile_error_stays_within_one_percent() {
        // A spread of magnitudes: 1 µs .. 10 s, log-uniform by stride.
        let mut values: Vec<u64> = (0..50_000u64)
            .map(|i| (1_000.0 * 1.000_322_f64.powi(i as i32)) as u64)
            .collect();
        let mut h = Hist::new();
        for &v in &values {
            h.record(v);
        }
        values.sort_unstable();
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999] {
            let exact = values[((q * values.len() as f64).ceil() as usize).max(1) - 1] as f64;
            let got = h.quantile(q).expect("enough samples");
            assert!(
                (got - exact).abs() / exact <= 0.01,
                "q={q}: {got} vs exact {exact}"
            );
        }
        assert_eq!(h.count(), 50_000);
    }

    #[test]
    fn merge_equals_recording_everything_in_one() {
        let (mut a, mut b, mut all) = (Hist::new(), Hist::new(), Hist::new());
        for i in 0..4_000u64 {
            let v = 500 + i * i % 90_000;
            if i % 3 == 0 { &mut a } else { &mut b }.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        for q in [0.1, 0.5, 0.99] {
            assert_eq!(a.quantile(q), all.quantile(q));
        }
    }

    #[test]
    fn refuses_a_percentile_with_fewer_than_ten_samples_beyond_it() {
        let mut h = Hist::new();
        assert_eq!(h.quantile(0.5), None, "empty");
        for i in 0..19 {
            h.record(1_000 + i);
        }
        assert_eq!(h.quantile(0.5), None, "19 samples leave 9.5 beyond p50");
        h.record(2_000);
        assert!(h.quantile(0.5).is_some(), "20 samples leave 10 beyond p50");
        for i in 0..979 {
            h.record(3_000 + i);
        }
        assert_eq!(h.count(), 999);
        assert_eq!(h.quantile(0.99), None, "999 samples leave 9.99 beyond p99");
        h.record(9_000);
        assert!(h.quantile(0.99).is_some(), "1 000 samples back a p99");
        assert_eq!(h.quantile(0.999), None);
    }
}
