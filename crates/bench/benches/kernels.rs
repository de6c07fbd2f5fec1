//! Criterion microbenches for the ε-neighborhood kernels (host wall time
//! of the simulated launches — complements the modeled device times of
//! `repro table2`).

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use gpu_sim::memory::{DeviceAppendBuffer, DeviceCounter};
use gpu_sim::Device;
use hybrid_dbscan_core::kernels::{
    GpuCalcGlobal, GpuCalcShared, NeighborCountKernel, NeighborPair,
};
use spatial::presort::spatial_sort;
use spatial::{GridIndex, MemberStoreN, PointStore};

/// Conservative result-set capacity: per-cell neighborhood bound.
fn capacity_bound(grid: &GridIndex) -> usize {
    grid.non_empty_cells()
        .iter()
        .map(|&h| {
            let m = grid.range_of(h).len();
            let (adj, n) = grid.neighbor_cells(h);
            let nb: usize = adj[..n].iter().map(|&a| grid.range_of(a).len()).sum();
            m * nb
        })
        .sum()
}

fn bench_kernels(c: &mut Criterion) {
    let device = Device::k20c();
    let mut group = c.benchmark_group("kernels");
    group.sample_size(10);

    for (name, spec) in [
        ("SW1", datasets::spec::SW1),
        ("SDSS1", datasets::spec::SDSS1),
    ] {
        let data = spatial_sort(&spec.generate(0.002).points);
        let eps = 0.3;
        let grid = GridIndex::build(&data, eps);
        let store = PointStore::from_points(&data);
        let members = MemberStoreN::gather(store.view(), grid.lookup());
        let bound = capacity_bound(&grid) + 64;

        group.bench_with_input(BenchmarkId::new("global", name), &data, |b, _data| {
            b.iter_batched(
                || DeviceAppendBuffer::<NeighborPair>::new(&device, bound).unwrap(),
                |result| {
                    let kernel = GpuCalcGlobal {
                        points: store.view(),
                        grid: grid.cells_view(),
                        members: members.view(),
                        geom: grid.geometry(),
                        eps,
                        batch: 0,
                        n_batches: 1,
                        result: &result,
                        skip_dense_at: None,
                    };
                    device.launch(kernel.launch_config(256), &kernel).unwrap()
                },
                BatchSize::LargeInput,
            );
        });

        group.bench_with_input(BenchmarkId::new("shared", name), &data, |b, _data| {
            b.iter_batched(
                || DeviceAppendBuffer::<NeighborPair>::new(&device, bound).unwrap(),
                |result| {
                    let kernel = GpuCalcShared {
                        grid: grid.cells_view(),
                        members: members.view(),
                        geom: grid.geometry(),
                        eps,
                        schedule: grid.non_empty_cells(),
                        result: &result,
                    };
                    device.launch(kernel.launch_config(256), &kernel).unwrap()
                },
                BatchSize::LargeInput,
            );
        });

        group.bench_with_input(BenchmarkId::new("count", name), &data, |b, _data| {
            b.iter(|| {
                let counter = DeviceCounter::new(&device).unwrap();
                let kernel = NeighborCountKernel {
                    points: store.view(),
                    grid: grid.cells_view(),
                    members: members.view(),
                    geom: grid.geometry(),
                    eps,
                    stride: 100,
                    counter: &counter,
                };
                device.launch(kernel.launch_config(256), &kernel).unwrap()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
