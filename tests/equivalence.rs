//! End-to-end equivalence: every path through the system — reference
//! R-tree DBSCAN, grid DBSCAN, Hybrid-DBSCAN with either kernel, batched
//! or not, pipelined or not — must produce the *same clustering* for the
//! same `(ε, minpts)`.

use hybrid_dbscan::core::batch::BatchConfig;
use hybrid_dbscan::core::dbscan::{
    dbscan_algorithm1, Clustering, Dbscan, GridSource, KdTreeSource,
};
use hybrid_dbscan::core::hybrid::{HybridConfig, HybridDbscan, HybridError, KernelChoice};
use hybrid_dbscan::core::pipeline::{MultiClusterPipeline, PipelineConfig};
use hybrid_dbscan::core::reference::ReferenceDbscan;
use hybrid_dbscan::core::reuse::cluster_variants;
use hybrid_dbscan::core::scenario::Variant;
use hybrid_dbscan::datasets::spec;
use hybrid_dbscan::gpu_sim::Device;
use hybrid_dbscan::spatial::{GridIndex, Point2};
use rayon::prelude::*;

fn small(name: &str) -> Vec<Point2> {
    spec::by_name(name).unwrap().generate(0.001).points
}

#[test]
fn hybrid_labels_identical_to_reference_across_datasets() {
    let device = Device::k20c();
    let hybrid = HybridDbscan::new(&device, HybridConfig::default());
    for (name, eps) in [("SW1", 0.3), ("SDSS1", 0.4), ("SDSS2", 0.2)] {
        let data = small(name);
        for minpts in [2, 4, 16] {
            let h = hybrid.run(&data, eps, minpts).unwrap();
            let r = ReferenceDbscan::new(eps, minpts).run(&data);
            assert_eq!(
                h.clustering.labels(),
                r.clustering.labels(),
                "{name} eps={eps} minpts={minpts}"
            );
        }
    }
}

#[test]
fn shared_kernel_hybrid_matches_global_kernel_hybrid() {
    let device = Device::k20c();
    let data = small("SW1");
    let global = HybridDbscan::new(&device, HybridConfig::default());
    let shared = HybridDbscan::new(
        &device,
        HybridConfig {
            kernel: KernelChoice::Shared,
            ..HybridConfig::default()
        },
    );
    let g = global.run(&data, 0.5, 4).unwrap();
    let s = shared.run(&data, 0.5, 4).unwrap();
    assert_eq!(g.clustering.labels(), s.clustering.labels());
    assert_eq!(g.gpu.result_pairs, s.gpu.result_pairs);
}

#[test]
fn heavy_batching_does_not_change_results() {
    let device = Device::k20c();
    let data = small("SDSS1");
    let eps = 0.35;
    let baseline = HybridDbscan::new(&device, HybridConfig::default())
        .run(&data, eps, 4)
        .unwrap();
    // Tiny static buffers force many batches.
    let many = HybridDbscan::new(
        &device,
        HybridConfig {
            batch: BatchConfig {
                static_threshold: 0,
                static_buffer_items: 5000,
                ..BatchConfig::default()
            },
            ..HybridConfig::default()
        },
    )
    .run(&data, eps, 4)
    .unwrap();
    assert!(
        many.gpu.n_batches >= 10,
        "got {} batches",
        many.gpu.n_batches
    );
    assert_eq!(baseline.clustering.labels(), many.clustering.labels());
    assert_eq!(baseline.gpu.result_pairs, many.gpu.result_pairs);
}

#[test]
fn pipeline_counts_match_individual_runs() {
    let device = Device::k20c();
    let data = small("SW1");
    let variants: Vec<Variant> = [0.2, 0.4, 0.6, 0.8]
        .iter()
        .map(|&e| Variant::new(e, 4))
        .collect();
    let pipeline = MultiClusterPipeline::new(&device, PipelineConfig::default());
    let report = pipeline.run(&data, &variants).unwrap();

    let hybrid = HybridDbscan::new(&device, HybridConfig::default());
    for (v, &count) in variants.iter().zip(&report.cluster_counts) {
        let single = hybrid.run(&data, v.eps, v.minpts).unwrap();
        assert_eq!(count, single.clustering.num_clusters(), "eps = {}", v.eps);
    }
}

#[test]
fn table_reuse_matches_fresh_tables() {
    let device = Device::k20c();
    let data = small("SDSS1");
    let eps = 0.4;
    let minpts = [2usize, 4, 8, 32, 128];
    let handle = HybridDbscan::new(&device, HybridConfig::default())
        .build_table(&data, eps)
        .unwrap();
    let report = cluster_variants(&handle, &minpts);
    // The shared-handle fan-out: every minpts clusters the one handle at
    // once, sharing its core-level forest.
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(4)
        .build()
        .unwrap();
    let shared: Vec<Clustering> = pool.install(|| {
        minpts
            .par_iter()
            .map(|&m| HybridDbscan::cluster_with_table(&handle, m).0)
            .collect()
    });
    let hybrid = HybridDbscan::new(&device, HybridConfig::default());
    for ((&m, &count), shared) in minpts.iter().zip(&report.cluster_counts).zip(&shared) {
        let fresh = hybrid.run(&data, eps, m).unwrap();
        assert_eq!(count, fresh.clustering.num_clusters(), "minpts = {m}");
        assert_eq!(
            shared.labels(),
            fresh.clustering.labels(),
            "minpts = {m}: shared handle vs fresh table"
        );
    }
}

#[test]
fn literal_algorithm1_agrees_on_every_index() {
    let data = small("SW1");
    let eps = 0.5;
    let grid = GridIndex::build(&data, eps);
    let gs = GridSource::new(&grid, &data);
    let ks = KdTreeSource::build(&data, eps);
    let a = dbscan_algorithm1(&gs, 4).to_clustering();
    let b = dbscan_algorithm1(&ks, 4).to_clustering();
    let c = Dbscan::new(4).run(&gs);
    assert_eq!(a.labels(), b.labels());
    assert_eq!(a.labels(), c.labels());
}

#[test]
fn persisted_table_clusters_identically() {
    // Save the GPU-built table, reload it, rebuild a handle-equivalent
    // clustering: the roundtrip must be lossless end to end.
    use hybrid_dbscan::core::dbscan::{Dbscan, TableSource};
    use hybrid_dbscan::core::table::NeighborTable;

    let device = Device::k20c();
    let data = small("SW1");
    let hybrid = HybridDbscan::new(&device, HybridConfig::default());
    let handle = hybrid.build_table(&data, 0.4).unwrap();

    let mut blob = Vec::new();
    handle.table.save(&mut blob).unwrap();
    let reloaded = NeighborTable::load(&mut blob.as_slice()).unwrap();

    let a =
        Dbscan::new(4).run_with_order(&TableSource::new(&handle.table), Some(&handle.visit_order));
    let b = Dbscan::new(4).run_with_order(&TableSource::new(&reloaded), Some(&handle.visit_order));
    assert_eq!(a.labels(), b.labels());
}

#[test]
fn gdbscan_comparator_agrees_with_reference_structure() {
    use hybrid_dbscan::core::gdbscan::g_dbscan;
    let device = Device::k20c();
    let data = small("SDSS1");
    let (eps, minpts) = (0.4, 4);
    let g = g_dbscan(&device, &data, eps, minpts).unwrap();
    let r = ReferenceDbscan::new(eps, minpts).run(&data);
    assert_eq!(g.clustering.num_clusters(), r.clustering.num_clusters());
    assert_eq!(g.clustering.noise_count(), r.clustering.noise_count());
}

/// The `InvalidInput` reason of a run that must be rejected.
fn rejection<T>(run: Result<T, HybridError>, who: &str) -> String {
    match run {
        Err(HybridError::InvalidInput(why)) => why,
        Err(e) => panic!("{who}: expected InvalidInput, got {e}"),
        Ok(_) => panic!("{who}: a bad input was accepted"),
    }
}

#[test]
fn on_gpu_baselines_reject_bad_input_like_the_hybrid_build() {
    use hybrid_dbscan::core::cuda_dclust::cuda_dclust;
    use hybrid_dbscan::core::gdbscan::g_dbscan;
    let good: Vec<Point2> = small("SW1").into_iter().take(50).collect();
    let mut nan_x = good.clone();
    nan_x[17] = Point2::new(f64::NAN, nan_x[17].y());
    let cases: [(&str, &[Point2], f64); 4] = [
        ("empty data", &[], 0.4),
        ("eps 0", &good, 0.0),
        ("eps NaN", &good, f64::NAN),
        ("NaN x", &nan_x, 0.4),
    ];
    let device = Device::k20c();
    let free = device.available_bytes();
    let hybrid = HybridDbscan::new(&device, HybridConfig::default());
    for (name, data, eps) in cases {
        let want = rejection(hybrid.build_table(data, eps), name);
        let g = rejection(g_dbscan(&device, data, eps, 4), name);
        assert_eq!(g, want, "g-dbscan, {name}");
        let c = rejection(cuda_dclust(&device, data, eps, 4, 8), name);
        assert_eq!(c, want, "cuda-dclust, {name}");
        assert_eq!(device.available_bytes(), free, "{name}");
    }
}

#[test]
fn device_memory_fully_released_after_many_runs() {
    let device = Device::k20c();
    let hybrid = HybridDbscan::new(&device, HybridConfig::default());
    let data = small("SDSS1");
    for eps in [0.2, 0.4, 0.6] {
        let _ = hybrid.run(&data, eps, 4).unwrap();
        assert_eq!(device.used_bytes(), 0, "leak after eps = {eps}");
    }
}
