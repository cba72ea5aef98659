//! Quantiles: an exact one over sorted samples and a log-linear histogram
//! for the per-record latencies (millions of samples per run, merged from
//! worker threads, constant memory).

/// Quantile `q` in `[0, 1]` of an ascending slice, linearly interpolated
/// between the two nearest ranks. Empty input yields 0.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Sorts `values` and returns their median.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    quantile(values, 0.5)
}

/// The quartile of `values` on the favourable side: the upper one of rates,
/// the lower one of times. Interference on a shared host only ever slows a
/// chunk of a run down, and by a varying amount, so this tracks what the
/// code does when left alone and repeats far better than the median does
/// (measured on the reference box: see the README's noise section).
pub fn fast_quartile(values: &mut [f64], higher_is_better: bool) -> f64 {
    values.sort_by(f64::total_cmp);
    quantile(values, if higher_is_better { 0.75 } else { 0.25 })
}

/// Sub-buckets per octave: 64 keeps the bucket width under 1.6 % of the
/// value, and quantiles interpolate inside the bucket.
const SUB: u64 = 64;
const SUB_BITS: u32 = 6;

/// Log-linear histogram of nanosecond durations.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            counts: vec![0; ((64 - SUB_BITS as usize) + 1) * SUB as usize],
            total: 0,
        }
    }
}

impl Histogram {
    fn index(ns: u64) -> usize {
        if ns < SUB {
            return ns as usize;
        }
        let e = 63 - ns.leading_zeros();
        let sub = (ns >> (e - SUB_BITS)) & (SUB - 1);
        ((e - SUB_BITS + 1) as u64 * SUB + sub) as usize
    }

    /// Lower bound and width of bucket `idx`.
    fn bounds(idx: usize) -> (u64, u64) {
        let (octave, sub) = (idx as u64 / SUB, idx as u64 % SUB);
        if octave == 0 {
            return (sub, 1);
        }
        let shift = octave - 1;
        ((SUB + sub) << shift, 1 << shift)
    }

    pub fn record(&mut self, ns: u64) {
        self.counts[Self::index(ns)] += 1;
        self.total += 1;
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    pub fn total(&self) -> u64 {
        self.total
    }

    /// Quantile `q` in nanoseconds, interpolated inside the bucket that
    /// holds the rank. Empty histogram yields 0.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * self.total as f64;
        let mut below = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c > 0 && (below + c) as f64 >= rank {
                let (lo, width) = Self::bounds(idx);
                let inside = ((rank - below as f64) / c as f64).clamp(0.0, 1.0);
                return lo as f64 + width as f64 * inside;
            }
            below += c;
        }
        let (lo, width) = Self::bounds(self.counts.len() - 1);
        lo as f64 + width as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert!((quantile(&v, 0.25) - 1.75).abs() < 1e-12);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
        assert_eq!(median(&mut [9.0, 1.0, 5.0]), 5.0);
        let mut v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(fast_quartile(&mut v, true), 4.0);
        assert_eq!(fast_quartile(&mut v, false), 2.0);
    }

    #[test]
    fn histogram_buckets_tile_the_range() {
        // Every bucket starts where the previous one ends, and a value
        // lands in the bucket whose bounds contain it.
        let mut next = 0u64;
        for idx in 0..Histogram::default().counts.len() {
            let (lo, width) = Histogram::bounds(idx);
            assert_eq!(lo, next, "bucket {idx}");
            assert_eq!(Histogram::index(lo), idx);
            assert_eq!(Histogram::index(lo + (width - 1)), idx);
            next = lo.saturating_add(width);
        }
        assert_eq!(
            Histogram::index(u64::MAX),
            Histogram::default().counts.len() - 1
        );
    }

    #[test]
    fn histogram_quantiles_track_exact_within_bucket_width() {
        let mut h = Histogram::default();
        let mut exact = Vec::new();
        let mut x = 12_345u64;
        for _ in 0..200_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let ns = 500 + (x >> 44); // 500 ns .. ~1 ms
            h.record(ns);
            exact.push(ns as f64);
        }
        exact.sort_by(f64::total_cmp);
        for q in [0.5, 0.9, 0.99] {
            let (a, b) = (h.quantile(q), quantile(&exact, q));
            assert!((a - b).abs() / b < 0.02, "q{q}: hist {a} exact {b}");
        }
        let mut merged = Histogram::default();
        merged.merge(&h);
        merged.merge(&h);
        assert_eq!(merged.total(), 2 * h.total());
        assert!((merged.quantile(0.5) - h.quantile(0.5)).abs() < 1.0);
    }
}
