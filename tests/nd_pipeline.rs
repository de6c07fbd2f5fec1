//! The d > 2 table build through the shared stage pipeline: a jittered
//! 3-D lattice built by `build_table_nd` must give one table regardless
//! of the ε-search backend, the batch plan, or the pool size, and that
//! table must hold exactly the brute-force ε-neighborhoods.

use hybrid_dbscan::core::backend::IndexBackend;
use hybrid_dbscan::core::batch::BatchConfig;
use hybrid_dbscan::core::nd::{build_table_nd, cluster_table_nd, NdTableHandle};
use hybrid_dbscan::core::{clustering_fingerprint, table_fingerprint};
use hybrid_dbscan::datasets::lattice_nd;
use hybrid_dbscan::gpu_sim::Device;
use hybrid_dbscan::spatial::distance::brute_force_neighbors;
use hybrid_dbscan::spatial::PointN;

const EPS: f64 = 2.0;
const MINPTS: usize = 4;

fn lattice() -> Vec<PointN<3>> {
    lattice_nd::<3>(1500, 1.0, 0.25, 0x3d)
}

fn build(data: &[PointN<3>], backend: IndexBackend, cfg: &BatchConfig) -> NdTableHandle {
    build_table_nd(&Device::k20c(), data, EPS, backend, cfg, 256).expect("build_table_nd")
}

/// Static buffers far below |R|: the build runs many pipelined batches.
fn tiny_batches() -> BatchConfig {
    BatchConfig {
        alpha: 0.05,
        sample_fraction: 0.05,
        static_threshold: 0,
        static_buffer_items: 4000,
        n_streams: 3,
    }
}

/// Everything a build promises to keep bitwise: table, clustering, plan
/// facts, and the modeled time.
fn fingerprint(h: &NdTableHandle) -> (u64, u64, u64, usize, usize, u64) {
    (
        table_fingerprint(&h.table),
        clustering_fingerprint(&cluster_table_nd(h, MINPTS)),
        h.e_b,
        h.n_batches,
        h.result_pairs,
        h.modeled_time.as_secs().to_bits(),
    )
}

#[test]
fn backends_build_identical_tables() {
    let data = lattice();
    let cfg = BatchConfig::default();
    let grid = build(&data, IndexBackend::Grid, &cfg);
    let tree = build(&data, IndexBackend::Tree, &cfg);
    let auto = build(&data, IndexBackend::Auto, &cfg);
    assert_eq!(auto.backend.reason, "auto");
    let fp = table_fingerprint(&grid.table);
    assert_eq!(fp, table_fingerprint(&tree.table));
    assert_eq!(fp, table_fingerprint(&auto.table));
    let labels = clustering_fingerprint(&cluster_table_nd(&grid, MINPTS));
    assert_eq!(
        labels,
        clustering_fingerprint(&cluster_table_nd(&tree, MINPTS))
    );
}

#[test]
fn sampled_rows_match_brute_force() {
    let data = lattice();
    let h = build(&data, IndexBackend::Auto, &BatchConfig::default());
    // Table ids are positions in the spatially sorted order.
    let sorted: Vec<PointN<3>> = h.perm.iter().map(|&i| data[i as usize]).collect();
    for k in (0..sorted.len()).step_by(53) {
        let want = brute_force_neighbors(&sorted, &sorted[k], EPS);
        assert_eq!(h.table.neighbors(k as u32), &want[..], "row {k}");
    }
}

#[test]
fn multi_batch_matches_single_batch() {
    let data = lattice();
    let one = build(&data, IndexBackend::Tree, &BatchConfig::default());
    let many = build(&data, IndexBackend::Tree, &tiny_batches());
    assert!(many.n_batches > 3, "test must exercise batching");
    assert_eq!(
        table_fingerprint(&one.table),
        table_fingerprint(&many.table)
    );
    assert_eq!(one.result_pairs, many.result_pairs);
    assert_eq!(
        clustering_fingerprint(&cluster_table_nd(&one, MINPTS)),
        clustering_fingerprint(&cluster_table_nd(&many, MINPTS))
    );
}

#[test]
fn one_and_two_threads_give_identical_builds() {
    let data = lattice();
    let at = |threads: usize, backend: IndexBackend| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool view")
            .install(|| fingerprint(&build(&data, backend, &tiny_batches())))
    };
    for backend in [IndexBackend::Grid, IndexBackend::Tree] {
        assert_eq!(at(1, backend), at(2, backend), "{backend:?}");
    }
}
