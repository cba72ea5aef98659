//! Latency accounting: weighted per-record latency samples (Flink-style,
//! Fig. 8) and per-epoch completion latencies (Timely-style, Fig. 9).

use std::sync::Mutex;

/// Sorted-order cache for distribution queries.
///
/// `sorted` holds the first `clean_len` samples ordered by latency. Queries
/// fold any samples recorded since the last rebuild into the cache, so a
/// burst of `quantile`/`median` calls between inserts sorts at most once —
/// previously every call cloned and re-sorted the full sample vector.
#[derive(Debug, Default)]
struct SortCache {
    sorted: Vec<(u64, f64)>,
    clean_len: usize,
}

/// Collects weighted latency samples and answers distribution queries.
#[derive(Debug, Default)]
pub struct LatencyRecorder {
    /// `(latency_ns, weight)` samples; weight is a record count.
    samples: Vec<(u64, f64)>,
    /// Lazily maintained sorted view (interior mutability keeps the query
    /// methods `&self`; the mutex is uncontended in practice — recorders
    /// live on one thread).
    cache: Mutex<SortCache>,
}

impl Clone for LatencyRecorder {
    fn clone(&self) -> Self {
        Self {
            samples: self.samples.clone(),
            cache: Mutex::new(SortCache::default()),
        }
    }
}

impl LatencyRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `weight` records experiencing `latency_ns`.
    pub fn record(&mut self, latency_ns: u64, weight: f64) {
        if weight > 0.0 {
            self.samples.push((latency_ns, weight));
        }
    }

    /// Runs `f` over the samples sorted by latency, refreshing the cache
    /// first if samples arrived since the last query.
    fn with_sorted<R>(&self, f: impl FnOnce(&[(u64, f64)]) -> R) -> R {
        let mut cache = self.cache.lock().expect("latency cache poisoned");
        if cache.clean_len < self.samples.len() {
            let from = cache.clean_len;
            cache.sorted.extend_from_slice(&self.samples[from..]);
            cache.sorted.sort_unstable_by_key(|&(l, _)| l);
            cache.clean_len = self.samples.len();
        }
        f(&cache.sorted)
    }

    /// Number of sample entries (not total weight).
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// The raw `(latency_ns, weight)` samples in recording order.
    pub fn samples(&self) -> &[(u64, f64)] {
        &self.samples
    }

    /// `true` when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Total record weight observed.
    pub fn total_weight(&self) -> f64 {
        self.samples.iter().map(|&(_, w)| w).sum()
    }

    /// Weighted quantile (`q` in `[0, 1]`) of the latency distribution.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.samples.is_empty() {
            return None;
        }
        let total = self.total_weight();
        let threshold = total * q.clamp(0.0, 1.0);
        self.with_sorted(|sorted| {
            let mut acc = 0.0;
            for &(l, w) in sorted {
                acc += w;
                if acc >= threshold {
                    return Some(l);
                }
            }
            sorted.last().map(|&(l, _)| l)
        })
    }

    /// Median latency.
    pub fn median(&self) -> Option<u64> {
        self.quantile(0.5)
    }

    /// Weighted mean latency in nanoseconds.
    pub fn mean(&self) -> Option<f64> {
        let total = self.total_weight();
        if total <= 0.0 {
            return None;
        }
        Some(self.samples.iter().map(|&(l, w)| l as f64 * w).sum::<f64>() / total)
    }

    /// Fraction of weight with latency strictly above `threshold_ns`.
    pub fn fraction_above(&self, threshold_ns: u64) -> f64 {
        let total = self.total_weight();
        if total <= 0.0 {
            return 0.0;
        }
        let above: f64 = self
            .samples
            .iter()
            .filter(|&&(l, _)| l > threshold_ns)
            .map(|&(_, w)| w)
            .sum();
        above / total
    }
}

/// Tracks per-epoch completion latency (Timely-style, §5.5).
///
/// Source time is divided into fixed epochs (1 s of data in the paper).
/// An epoch completes when every record emitted during it has left the
/// dataflow; its latency is `completion_time - epoch_end_time`. The tracker
/// is fed the global *frontier* — the oldest source-emission time still
/// present in any queue or window buffer (the head of some run).
#[derive(Debug, Clone)]
pub struct EpochTracker {
    epoch_ns: u64,
    /// Next epoch index awaiting completion.
    next_epoch: u64,
    /// `(epoch_index, latency_ns)` for completed epochs.
    completed: Vec<(u64, u64)>,
}

impl EpochTracker {
    /// Creates a tracker with the given epoch length.
    ///
    /// # Panics
    ///
    /// Panics if `epoch_ns` is zero.
    pub fn new(epoch_ns: u64) -> Self {
        assert!(epoch_ns > 0, "epoch length must be positive");
        Self {
            epoch_ns,
            next_epoch: 0,
            completed: Vec::new(),
        }
    }

    /// Advances the tracker: at time `now_ns` the oldest unprocessed source
    /// timestamp is `frontier_ns` (`None` when the dataflow is fully
    /// drained). Completes every epoch that ends strictly before the
    /// frontier — and before `now_ns`, since an epoch cannot complete before
    /// its own data finished being emitted.
    pub fn advance(&mut self, now_ns: u64, frontier_ns: Option<u64>) {
        let frontier = frontier_ns.unwrap_or(now_ns);
        loop {
            let epoch_end = (self.next_epoch + 1) * self.epoch_ns;
            if epoch_end <= frontier && epoch_end <= now_ns {
                let latency = now_ns - epoch_end;
                self.completed.push((self.next_epoch, latency));
                self.next_epoch += 1;
            } else {
                break;
            }
        }
    }

    /// Completed epochs as `(epoch_index, latency_ns)`.
    pub fn completed(&self) -> &[(u64, u64)] {
        &self.completed
    }

    /// Latencies of completed epochs as a recorder (weight 1 per epoch).
    pub fn recorder(&self) -> LatencyRecorder {
        let mut r = LatencyRecorder::new();
        for &(_, l) in &self.completed {
            r.record(l, 1.0);
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_weighted() {
        let mut r = LatencyRecorder::new();
        r.record(100, 9.0);
        r.record(1_000, 1.0);
        assert_eq!(r.median(), Some(100));
        assert_eq!(r.quantile(0.95), Some(1_000));
        assert!((r.mean().unwrap() - 190.0).abs() < 1e-9);
        assert!((r.fraction_above(100) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn empty_recorder() {
        let r = LatencyRecorder::new();
        assert!(r.is_empty());
        assert_eq!(r.median(), None);
        assert_eq!(r.mean(), None);
        assert_eq!(r.fraction_above(0), 0.0);
    }

    #[test]
    fn repeated_quantiles_are_identical_and_track_inserts() {
        // Regression: quantile used to clone + re-sort the sample vector on
        // every call; the sorted order is now cached. Repeated calls must
        // return identical values, and the cache must fold in samples
        // recorded between calls (matching a freshly built recorder).
        let mut r = LatencyRecorder::new();
        let latencies = [900u64, 100, 500, 300, 700, 200, 800, 400, 600, 1_000];
        let mut fresh = LatencyRecorder::new();
        for (i, &l) in latencies.iter().enumerate() {
            r.record(l, 1.0 + (i % 3) as f64);
            fresh.record(l, 1.0 + (i % 3) as f64);
            // Query after every insert: the cache is rebuilt mid-stream.
            for q in [0.1, 0.5, 0.9, 0.99] {
                let a = r.quantile(q);
                assert_eq!(a, r.quantile(q), "repeated call differs at q={q}");
                // A recorder that never answered a query agrees.
                let clean: LatencyRecorder = fresh.clone();
                assert_eq!(a, clean.quantile(q), "cache diverged at q={q}");
            }
        }
        assert_eq!(r.quantile(0.0), Some(100));
        assert_eq!(r.quantile(1.0), Some(1_000));
        // Cloning drops the cache but not the samples.
        let c = r.clone();
        assert_eq!(c.median(), r.median());
    }

    #[test]
    fn epochs_complete_behind_frontier() {
        let mut t = EpochTracker::new(1_000);
        // At t=2500 the frontier is at 2100: epochs 0 ([0,1000)) and 1 are
        // fully drained.
        t.advance(2_500, Some(2_100));
        assert_eq!(t.completed().len(), 2);
        assert_eq!(t.completed()[0], (0, 1_500));
        assert_eq!(t.completed()[1], (1, 500));
        // No double-completion.
        t.advance(2_600, Some(2_100));
        assert_eq!(t.completed().len(), 2);
    }

    #[test]
    fn drained_dataflow_completes_up_to_now() {
        let mut t = EpochTracker::new(1_000);
        t.advance(3_000, None);
        // Epochs 0,1,2 end at 1000,2000,3000 <= now.
        assert_eq!(t.completed().len(), 3);
        assert_eq!(t.completed()[2], (2, 0));
    }

    #[test]
    fn epoch_cannot_complete_before_it_ends() {
        let mut t = EpochTracker::new(1_000);
        t.advance(500, None);
        assert!(t.completed().is_empty());
    }

    #[test]
    fn recorder_from_epochs() {
        let mut t = EpochTracker::new(1_000);
        t.advance(2_500, Some(2_100));
        let r = t.recorder();
        assert_eq!(r.total_weight(), 2.0);
        assert_eq!(r.quantile(1.0), Some(1_500));
    }
}
