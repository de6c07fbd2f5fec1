//! Criterion benches for the multi-clustering pipeline and table reuse:
//! wall time of the actually-concurrent executions (the modeled totals
//! are covered by `repro figure4`/`figure5`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gpu_sim::Device;
use hybrid_dbscan_core::hybrid::{HybridConfig, HybridDbscan};
use hybrid_dbscan_core::pipeline::{MultiClusterPipeline, PipelineConfig};
use hybrid_dbscan_core::reuse::TableReuse;
use hybrid_dbscan_core::scenario::Variant;

fn bench_pipeline(c: &mut Criterion) {
    let device = Device::k20c();
    let data = datasets::spec::SDSS1.generate(0.002).points;
    let variants: Vec<Variant> = [0.2, 0.35, 0.5, 0.65, 0.8]
        .iter()
        .map(|&e| Variant::new(e, 4))
        .collect();

    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    for consumers in [1usize, 3] {
        group.bench_with_input(
            BenchmarkId::new("consumers", consumers),
            &consumers,
            |b, &consumers| {
                let pipeline = MultiClusterPipeline::new(
                    &device,
                    PipelineConfig {
                        consumers,
                        concurrent: true,
                        ..Default::default()
                    },
                );
                b.iter(|| pipeline.run(&data, &variants).unwrap())
            },
        );
    }
    group.finish();
}

fn bench_reuse(c: &mut Criterion) {
    let device = Device::k20c();
    let data = datasets::spec::SDSS1.generate(0.002).points;
    let hybrid = HybridDbscan::new(&device, HybridConfig::default());
    let handle = hybrid.build_table(&data, 0.4).unwrap();
    let minpts: Vec<usize> = (1..=16).map(|k| k * 8).collect();

    let mut group = c.benchmark_group("table-reuse");
    group.sample_size(10);
    group.bench_function("measure-variants", |b| {
        b.iter(|| TableReuse::cluster_variants(&handle, &minpts))
    });
    for threads in [1usize, 4, 16] {
        group.bench_with_input(BenchmarkId::new("threads", threads), &threads, |b, &t| {
            b.iter(|| TableReuse::run_concurrent(&handle, &minpts, t))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pipeline, bench_reuse);
criterion_main!(benches);
