//! Streaming log-linear histogram for span-duration and registry-latency
//! quantiles.
//!
//! [`LogHistogram`] buckets `u64` samples (nanoseconds, in practice) into
//! HDR-style log-linear bins: values below [`SUBBUCKETS`] get one bin
//! each; above that, every power-of-two octave is split into
//! [`SUBBUCKETS`] linear sub-bins. Bucket width is therefore at most
//! `value / SUBBUCKETS`, so a quantile read back as the bucket midpoint is
//! within `1 / (2·SUBBUCKETS)` ≈ 3.2 % of the exact sample — bounded
//! error at a fixed ~8 KB of memory per histogram, no matter how many
//! samples stream through. Exact `min`/`max` are tracked on the side and
//! clamp the estimates, so p0/p100 are always exact.

/// Linear sub-bins per power-of-two octave (and the one-bin-per-value
/// range at the bottom).
pub const SUBBUCKETS: usize = 16;

const SUB_BITS: u32 = SUBBUCKETS.trailing_zeros(); // 4
/// Bins: SUBBUCKETS singleton bins + (64 − SUB_BITS) octaves × SUBBUCKETS.
const N_BUCKETS: usize = SUBBUCKETS + (64 - SUB_BITS as usize) * SUBBUCKETS;

/// A fixed-memory streaming histogram over `u64` samples.
#[derive(Clone, Debug)]
pub struct LogHistogram {
    counts: Vec<u64>,
    total: u64,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

/// Index of the bucket holding `v`.
fn bucket_index(v: u64) -> usize {
    if v < SUBBUCKETS as u64 {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros(); // floor(log2 v) >= SUB_BITS
    let shift = exp - SUB_BITS;
    let sub = ((v >> shift) as usize) & (SUBBUCKETS - 1);
    SUBBUCKETS + (exp - SUB_BITS) as usize * SUBBUCKETS + sub
}

/// Midpoint of the value range bucket `i` covers.
fn bucket_mid(i: usize) -> u64 {
    if i < SUBBUCKETS {
        return i as u64;
    }
    let octave = (i - SUBBUCKETS) / SUBBUCKETS;
    let sub = ((i - SUBBUCKETS) % SUBBUCKETS) as u64;
    let exp = octave as u32 + SUB_BITS;
    let width = 1u64 << (exp - SUB_BITS);
    let lo = (1u64 << exp) + sub * width;
    lo + width / 2
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            counts: vec![0; N_BUCKETS],
            total: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_index(v)] += 1;
        self.total += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Estimated `q`-quantile (`q` in `[0, 1]`): the midpoint of the
    /// bucket holding the `⌈q·n⌉`-th smallest sample, clamped to the
    /// exact observed `[min, max]`. Returns 0 on an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        // Rank 1 is exactly the observed min and rank n exactly the max.
        if target == 1 {
            return self.min;
        }
        if target >= self.total {
            return self.max;
        }
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return bucket_mid(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// (p50, p95, p99) in one pass-friendly call.
    pub fn percentiles(&self) -> (u64, u64, u64) {
        (self.quantile(0.50), self.quantile(0.95), self.quantile(0.99))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exact quantile with the same convention the histogram targets:
    /// the `⌈q·n⌉`-th smallest sample.
    fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
        let n = sorted.len() as f64;
        let rank = ((q * n).ceil() as usize).max(1);
        sorted[rank - 1]
    }

    fn check_against_exact(values: &[u64], rel_tol: f64) {
        let mut h = LogHistogram::new();
        for &v in values {
            h.record(v);
        }
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        for q in [0.01, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 1.0] {
            let exact = exact_quantile(&sorted, q);
            let est = h.quantile(q);
            let err = (est as f64 - exact as f64).abs();
            let bound = rel_tol * exact as f64 + 1.0; // +1 absorbs integer rounding
            assert!(
                err <= bound,
                "q={q}: estimate {est} vs exact {exact} (err {err} > {bound})"
            );
        }
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.percentiles(), (0, 0, 0));
    }

    #[test]
    fn single_sample_is_exact_everywhere() {
        let mut h = LogHistogram::new();
        h.record(123_456_789);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 123_456_789);
        }
    }

    #[test]
    fn small_values_are_exact() {
        // Below SUBBUCKETS every value has its own bin: zero error.
        let values: Vec<u64> = (0..SUBBUCKETS as u64).flat_map(|v| [v; 3]).collect();
        check_against_exact(&values, 0.0);
    }

    #[test]
    fn uniform_ramp_within_bound() {
        // 1..=10_000: quantiles spread across ~10 octaves.
        let values: Vec<u64> = (1..=10_000).collect();
        check_against_exact(&values, 0.05);
    }

    #[test]
    fn log_spaced_heavy_tail_within_bound() {
        // Geometric-ish distribution across 30 octaves (deterministic —
        // no RNG available in this dependency-free crate).
        let mut values = Vec::new();
        for e in 0..30u32 {
            for k in 1..=7u64 {
                values.push((1u64 << e) + k * ((1u64 << e) / 8 + 1));
            }
        }
        check_against_exact(&values, 0.05);
    }

    #[test]
    fn bimodal_distribution_within_bound() {
        let mut values: Vec<u64> = (100..200).collect();
        values.extend((1_000_000..1_000_100).map(|v| v as u64));
        check_against_exact(&values, 0.05);
    }

    #[test]
    fn quantiles_are_monotone_in_q() {
        let mut h = LogHistogram::new();
        for v in [1u64, 5, 9, 100, 1000, 5000, 10_000, 1 << 30] {
            h.record(v);
        }
        let mut last = 0;
        for i in 0..=100 {
            let q = i as f64 / 100.0;
            let v = h.quantile(q);
            assert!(v >= last, "quantile not monotone at q={q}");
            last = v;
        }
    }

    #[test]
    fn extremes_clamp_to_exact_min_max() {
        let mut h = LogHistogram::new();
        for v in [17u64, 900, 1_000_003] {
            h.record(v);
        }
        assert!(h.quantile(0.0) >= 17);
        assert_eq!(h.quantile(1.0), 1_000_003);
    }

    #[test]
    fn bucket_index_covers_u64_range() {
        for v in [0u64, 1, 15, 16, 17, 1 << 10, (1 << 10) + 3, u64::MAX] {
            let i = bucket_index(v);
            assert!(i < N_BUCKETS, "v={v} index {i}");
            if v >= SUBBUCKETS as u64 {
                // The midpoint stays within a factor of the bucket width.
                let mid = bucket_mid(i);
                let width = (v >> SUB_BITS).max(1);
                assert!(
                    mid.abs_diff(v) <= width,
                    "v={v} mid={mid} width={width}"
                );
            } else {
                assert_eq!(bucket_mid(i), v);
            }
        }
    }
}
