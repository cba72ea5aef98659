//! The runtime data plane allocates nothing per batch in steady state.
//!
//! Batch buffers come from the job's free-list (`BatchPool`) and go back to
//! it once the consumer has processed them, so moving a batch from a source
//! through a stateless map into a keyed count does not touch the heap. A
//! process-wide counting allocator watches every thread of a 3-operator
//! keyed chain (src → map → keyed count, parallelism 2 behind the source,
//! 1024-record batches, 64-batch channels) for a window after a 0.5 s
//! warm-up, once paced at 2 M rec/s and once unpaced, and bounds the
//! allocations to fewer than one per 100 batches the two operators process.
//! A per-batch allocation anywhere on the path costs at least one per batch
//! and fails by a factor of 100.
//!
//! The bound is not zero because the pool starts empty and grows on demand.
//! When a consumer is descheduled for longer than ever before, its queue
//! grows deeper than ever before. Every buffer beyond the pool's old
//! high-water mark is then a fresh allocation, sized for a whole batch. No
//! buffer is lost: at this size the pool never drops one. On a 2-CPU
//! machine the paced window (about 11 700 batches) allocates 0–28 times,
//! the unpaced one (70 000–440 000 batches) 0–91 times.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ds2_core::deployment::Deployment;
use ds2_core::graph::GraphBuilder;
use ds2_runtime::{JobSpec, Logic, RunningJob, StateEntry, StateValue};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

const KEYS: u64 = 1024;

/// Stateless pass-through that counts the batches it is handed.
struct Map {
    batches: Arc<AtomicU64>,
}

impl Logic<u64> for Map {
    fn process(&mut self, r: u64, out: &mut Vec<u64>) {
        out.push(r);
    }

    fn process_batch(&mut self, batch: &mut Vec<u64>, out: &mut Vec<u64>) {
        out.append(batch);
        self.batches.fetch_add(1, Ordering::Relaxed);
    }
}

/// Dense per-key counts (the keyed state), counting its batches too.
struct KeyedCount {
    counts: Vec<u64>,
    batches: Arc<AtomicU64>,
}

impl Logic<u64> for KeyedCount {
    fn process(&mut self, r: u64, _out: &mut Vec<u64>) {
        self.counts[(r & (KEYS - 1)) as usize] += 1;
    }

    fn process_batch(&mut self, batch: &mut Vec<u64>, _out: &mut Vec<u64>) {
        for r in batch.drain(..) {
            self.counts[(r & (KEYS - 1)) as usize] += 1;
        }
        self.batches.fetch_add(1, Ordering::Relaxed);
    }

    fn drain_state(&mut self) -> Vec<StateEntry> {
        (0..)
            .zip(std::mem::take(&mut self.counts))
            .filter(|&(_, c)| c > 0)
            .map(|(k, c)| (k, Box::new(c) as Box<dyn StateValue>))
            .collect()
    }
}

/// Allocations and processed batches over `window`, after a 0.5 s warm-up,
/// of the keyed chain with its source offering `rate` records/s.
fn measure(rate: f64, window: Duration) -> (u64, u64) {
    let mut b = GraphBuilder::new();
    let s = b.operator("src");
    let m = b.operator("map");
    let c = b.operator("count");
    b.connect(s, m);
    b.connect(m, c);
    let g = b.build().unwrap();

    let batches = Arc::new(AtomicU64::new(0));
    let mut spec: JobSpec<u64> = JobSpec::new(g.clone());
    spec.batch_size = 1024;
    spec.channel_capacity = 64;
    spec.source(s, rate, |n| n & (KEYS - 1), |&r| r);
    let map_batches = Arc::clone(&batches);
    spec.operator(
        m,
        move || {
            Box::new(Map {
                batches: Arc::clone(&map_batches),
            })
        },
        |&r| r,
    );
    let count_batches = Arc::clone(&batches);
    spec.operator(
        c,
        move || {
            Box::new(KeyedCount {
                counts: vec![0; KEYS as usize],
                batches: Arc::clone(&count_batches),
            })
        },
        |&r| r,
    );

    let mut deployment = Deployment::uniform(&g, 2);
    deployment.set(s, 1);
    let job = RunningJob::deploy(spec, deployment);
    std::thread::sleep(Duration::from_millis(500));
    let a0 = ALLOCATIONS.load(Ordering::SeqCst);
    let b0 = batches.load(Ordering::SeqCst);
    std::thread::sleep(window);
    let a1 = ALLOCATIONS.load(Ordering::SeqCst);
    let b1 = batches.load(Ordering::SeqCst);
    job.shutdown();
    (a1 - a0, b1 - b0)
}

#[test]
fn steady_state_data_plane_allocates_less_than_once_per_100_batches() {
    for (rate, window) in [
        (2e6, Duration::from_millis(1500)),
        (1e12, Duration::from_millis(1000)),
    ] {
        let (allocations, batches) = measure(rate, window);
        eprintln!("rate {rate:e}: {allocations} allocations over {batches} batches");
        assert!(
            batches >= 2_000,
            "rate {rate:e}: only {batches} batches processed in {window:?}"
        );
        assert!(
            allocations * 100 < batches,
            "rate {rate:e}: {allocations} allocations over {batches} batches"
        );
    }
}
