//! Bit pins of the table build: for small fixed inputs, the neighbor-table
//! fingerprint, the clustering fingerprint and the bits of the modeled
//! GPU-phase time. Every 2-D kernel and backend, a multi-batch plan, and
//! the 3-D/4-D grid and tree builds are covered, plus the estimation
//! kernels' sample count `e_b` of the 3-D builds and the CUDA-DClust
//! comparator's clustering and modeled time; a change to how the index
//! or the kernels are organized must leave all of them untouched.
//!
//! The one exception is the sparse-layout 2-D grid, whose modeled time
//! depends on the width of the device-resident cell keys; only its
//! fingerprints are pinned.

use hybrid_dbscan::core::backend::IndexBackend;
use hybrid_dbscan::core::batch::BatchConfig;
use hybrid_dbscan::core::cuda_dclust::cuda_dclust;
use hybrid_dbscan::core::hybrid::{HybridConfig, HybridDbscan, KernelChoice};
use hybrid_dbscan::core::nd::{build_table_nd, cluster_table_nd};
use hybrid_dbscan::core::{clustering_fingerprint, table_fingerprint};
use hybrid_dbscan::datasets::{lattice_nd, spec};
use hybrid_dbscan::gpu_sim::Device;
use hybrid_dbscan::spatial::presort::spatial_sort_permutation;
use hybrid_dbscan::spatial::{GridIndex, GridLayout, Point2};

const MINPTS: usize = 4;

/// (table fingerprint, clustering fingerprint, modeled-time bits).
type Pin = (u64, u64, u64);

fn dataset(name: &str, scale: f64) -> Vec<Point2> {
    spec::by_name(name).unwrap().generate(scale).points
}

/// Static buffers far below |R|: the build runs several pipelined batches.
fn tiny_batches() -> BatchConfig {
    BatchConfig {
        alpha: 0.05,
        sample_fraction: 0.05,
        static_threshold: 0,
        static_buffer_items: 6000,
        n_streams: 3,
    }
}

/// The grid layout the auto rule picks for `data` at `eps`.
fn layout(data: &[Point2], eps: f64) -> GridLayout {
    let sorted = spatial_sort_permutation(data).apply(data);
    GridIndex::build(&sorted, eps).layout()
}

fn planar(data: &[Point2], eps: f64, config: HybridConfig) -> (Pin, usize) {
    let h = HybridDbscan::new(&Device::k20c(), config)
        .build_table(data, eps)
        .expect("2-D build");
    let (clustering, _) = HybridDbscan::cluster_with_table(&h, MINPTS);
    (
        (
            table_fingerprint(&h.table),
            clustering_fingerprint(&clustering),
            h.gpu.modeled_time.as_secs().to_bits(),
        ),
        h.gpu.n_batches,
    )
}

fn nd<const D: usize>(n: usize, eps: f64, backend: IndexBackend) -> Pin {
    let data = lattice_nd::<D>(n, 1.0, 0.25, 0x5eed + D as u64);
    let h = build_table_nd(
        &Device::k20c(),
        &data,
        eps,
        backend,
        &BatchConfig::default(),
        256,
    )
    .expect("N-D build");
    (
        table_fingerprint(&h.table),
        clustering_fingerprint(&cluster_table_nd(&h, MINPTS)),
        h.modeled_time.as_secs().to_bits(),
    )
}

fn config(kernel: KernelChoice, backend: IndexBackend) -> HybridConfig {
    HybridConfig {
        kernel,
        backend,
        ..HybridConfig::default()
    }
}

/// Compare every pin before failing, so one run reports all drift.
fn check(results: &[(&str, Pin, Pin)]) {
    let mut drift = Vec::new();
    for (name, got, want) in results {
        if got != want {
            drift.push(format!(
                "{name}: got ({:#018x}, {:#018x}, {:#018x}), pinned ({:#018x}, {:#018x}, {:#018x})",
                got.0, got.1, got.2, want.0, want.1, want.2
            ));
        }
    }
    assert!(drift.is_empty(), "pinned bits moved:\n{}", drift.join("\n"));
}

#[test]
fn planar_builds_keep_their_bits() {
    let sw = dataset("SW1", 0.0005);
    let sdss = dataset("SDSS1", 0.0005);
    assert_eq!(layout(&sw, 0.2), GridLayout::Dense);
    assert_eq!(layout(&sdss, 0.5), GridLayout::Dense);
    let global = planar(&sw, 0.2, config(KernelChoice::Global, IndexBackend::Grid)).0;
    let shared = planar(&sw, 0.2, config(KernelChoice::Shared, IndexBackend::Grid)).0;
    let tree = planar(&sw, 0.2, config(KernelChoice::Global, IndexBackend::Tree)).0;
    let (batched, n_batches) = planar(
        &sdss,
        0.5,
        HybridConfig {
            batch: tiny_batches(),
            ..HybridConfig::default()
        },
    );
    assert!(n_batches > 1, "the tiny plan must run several batches");
    check(&[
        (
            "2-D global",
            global,
            (0x946b7e7861e7cf3d, 0x83536ade6c54c14e, 0x3f5384ee5d274710),
        ),
        (
            "2-D shared",
            shared,
            (0x946b7e7861e7cf3d, 0x83536ade6c54c14e, 0x3f54b5c4d44829ed),
        ),
        (
            "2-D tree",
            tree,
            (0x946b7e7861e7cf3d, 0x83536ade6c54c14e, 0x3f53f0b05684688a),
        ),
        (
            "2-D multi-batch",
            batched,
            (0x8dbd9fead58da6d8, 0x867357c3308ee0a4, 0x3f5cc8ac1ce746b4),
        ),
    ]);
}

#[test]
fn nd_builds_keep_their_bits() {
    check(&[
        (
            "3-D grid",
            nd::<3>(600, 2.0, IndexBackend::Grid),
            (0x0ab42e1e45c6b03e, 0xb63037d1f507e6a4, 0x3f44181e4b136d29),
        ),
        (
            "3-D tree",
            nd::<3>(600, 2.0, IndexBackend::Tree),
            (0x0ab42e1e45c6b03e, 0xb63037d1f507e6a4, 0x3f44540a2a063fd0),
        ),
        (
            "4-D grid",
            nd::<4>(400, 1.5, IndexBackend::Grid),
            (0x3328043e7eceeffd, 0x95d623f7eaf3e9a4, 0x3f433d0b3b669c5a),
        ),
    ]);
}

#[test]
fn nd_estimates_keep_their_counts() {
    let e_b = |backend| {
        let data = lattice_nd::<3>(600, 1.0, 0.25, 0x5eed + 3);
        build_table_nd(
            &Device::k20c(),
            &data,
            2.0,
            backend,
            &BatchConfig::default(),
            256,
        )
        .expect("3-D build")
        .e_b
    };
    assert_eq!(
        (e_b(IndexBackend::Grid), e_b(IndexBackend::Tree)),
        (834, 834),
        "3-D estimation counts moved"
    );
}

/// CUDA-DClust's chains claim points with racing compare-and-swaps, so
/// on a pool of several threads which chain wins a point — and with it
/// the collision searches, hence the modeled time — varies from run to
/// run. On one thread the blocks run in block order and both are fixed.
#[test]
fn cuda_dclust_keeps_its_bits() {
    let sw = dataset("SW1", 0.0005);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    let r = pool
        .install(|| cuda_dclust(&Device::k20c(), &sw, 0.2, MINPTS, 8))
        .expect("CUDA-DClust run");
    let got = (
        clustering_fingerprint(&r.clustering),
        r.report.modeled_time.as_secs().to_bits(),
    );
    let want: (u64, u64) = (0x83536ade6c54c14e, 0x3f79a6481bc3dde6);
    assert_eq!(
        got, want,
        "CUDA-DClust bits moved: got ({:#018x}, {:#018x})",
        got.0, got.1
    );
}

#[test]
fn sparse_planar_grid_keeps_its_answers() {
    // Tight clumps spread over a wide extent: the cell count dwarfs the
    // dense budget, so the grid is built sparse.
    let data: Vec<Point2> = (0..400)
        .map(|i| {
            let t = i as f64;
            let clump = (i % 8) as f64;
            Point2::new(
                clump * 97.0 + (t * 0.618).fract() * 0.9,
                clump * 53.0 + (t * 0.414).fract() * 0.9,
            )
        })
        .collect();
    let eps = 0.3;
    assert_eq!(layout(&data, eps), GridLayout::Sparse);
    let (got, _) = planar(&data, eps, HybridConfig::default());
    let want: (u64, u64) = (0xfb29c035541a4de2, 0x1ebb964e685e62cd);
    assert_eq!((got.0, got.1), want, "sparse 2-D fingerprints moved");
}
