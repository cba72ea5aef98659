//! The real cost of the §4.1 instrumentation primitives, measured on this
//! machine: per-record counter updates (the hot path every operator
//! instance executes) and the per-window read.

use criterion::{criterion_group, criterion_main, Criterion};
use ds2_metrics::counters::{InstanceCounters, SharedCounters};

fn bench_counters(c: &mut Criterion) {
    let shared = SharedCounters::new();
    c.bench_function("shared_counters_per_record", |b| {
        b.iter(|| {
            shared.add_records_in(std::hint::black_box(1));
            shared.add_processing(std::hint::black_box(1_000));
            shared.add_records_out(std::hint::black_box(2));
        })
    });

    c.bench_function("instance_counters_per_record", |b| {
        let mut counters = InstanceCounters::new(0);
        b.iter(|| {
            counters.add_records_in(std::hint::black_box(1));
            counters.add_processing(std::hint::black_box(1_000));
            counters.add_records_out(std::hint::black_box(2));
        })
    });

    c.bench_function("shared_counters_window_read", |b| {
        let shared = SharedCounters::new();
        shared.add_records_in(1_000_000);
        shared.add_processing(5_000_000);
        let start = shared.totals();
        b.iter(|| {
            let now = shared.totals();
            std::hint::black_box(now.window_since(&start, 0, 1_000_000_000))
        })
    });
}

criterion_group!(benches, bench_counters);
criterion_main!(benches);
