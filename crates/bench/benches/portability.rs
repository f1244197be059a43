//! §3.8 portability claim, measured for real: the native RMA kernel with
//! update marks against atomics and plain copies on host threads (wall
//! clock, not simulation).

use bench::water_workload;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sw26010::LanePool;
use swgmx::kernels::{run_rma_native, WriteStrategy};

fn bench_portability(c: &mut Criterion) {
    let w = water_workload(12_000, 13);
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4);
    let pool = LanePool::with_threads(threads);
    let mut g = c.benchmark_group("host_write_strategies");
    g.sample_size(10);
    for strategy in WriteStrategy::ALL {
        g.bench_with_input(
            BenchmarkId::new(strategy.name(), threads),
            &strategy,
            |b, &strategy| {
                b.iter(|| run_rma_native(&w.psys, &w.half, &w.params, &pool, strategy).energies)
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_portability);
criterion_main!(benches);
