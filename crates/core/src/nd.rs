//! Dimension-generic neighbor-table construction (d > 2).
//!
//! The N-D entry points: [`build_table_nd`] configures a
//! [`HybridDbscan`] and runs its dimension-generic
//! [`HybridDbscan::build_table`], so N-D builds share every stage with
//! 2-D — the pre-sort, backend selection, index, kernels, plan, the
//! stream-pipelined batches with exact-|R| replanning on overflow, and
//! the overlapped 3-stream modeled time.

use crate::backend::{BackendDecision, IndexBackend};
use crate::batch::BatchConfig;
use crate::dbscan::Clustering;
use crate::hybrid::{cluster_sorted_table, HybridConfig, HybridDbscan, HybridError};
use crate::table::NeighborTable;
use gpu_sim::device::Device;
use gpu_sim::time::SimDuration;
use spatial::PointN;

/// The finished `D`-dimensional table plus the facts the bench and
/// differential layers consume.
pub struct NdTableHandle {
    pub table: NeighborTable,
    /// `perm[k]` = original id at sorted position `k`; table ids are in
    /// sorted order.
    pub perm: Vec<u32>,
    /// `visit_order[i]` = sorted position of original id `i`.
    pub visit_order: Vec<u32>,
    pub backend: BackendDecision,
    pub e_b: u64,
    pub n_batches: usize,
    pub result_pairs: usize,
    /// Modeled GPU-phase time: uploads + estimation + pinned allocation +
    /// the overlapped 3-stream batch schedule.
    pub modeled_time: SimDuration,
}

/// Build the ε-neighbor table for `D`-dimensional `data` on the simulated
/// device with the `requested` index backend; every backend yields the
/// same table (see [`HybridDbscan::build_table`]).
pub fn build_table_nd<const D: usize>(
    device: &Device,
    data: &[PointN<D>],
    eps: f64,
    requested: IndexBackend,
    batch_cfg: &BatchConfig,
    block_dim: u32,
) -> Result<NdTableHandle, HybridError> {
    let config = HybridConfig {
        backend: requested,
        block_dim,
        batch: *batch_cfg,
        ..HybridConfig::default()
    };
    let h = HybridDbscan::new(device, config).build_table(data, eps)?;
    Ok(NdTableHandle {
        table: h.table,
        perm: h.perm,
        visit_order: h.visit_order,
        backend: h.gpu.backend,
        e_b: h.gpu.e_b,
        n_batches: h.gpu.n_batches,
        result_pairs: h.gpu.result_pairs,
        modeled_time: h.gpu.modeled_time,
    })
}

/// Host DBSCAN over an ND table, labels returned in caller order — the
/// same walk as [`HybridDbscan::cluster_with_table`].
pub fn cluster_table_nd(handle: &NdTableHandle, minpts: usize) -> Clustering {
    cluster_sorted_table(&handle.table, &handle.perm, &handle.visit_order, minpts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::{clustering_fingerprint, table_fingerprint};
    use spatial::distance::brute_force_neighbors;
    use spatial::nd::{apply_permutation_nd, spatial_sort_permutation_nd};

    fn nd_points<const D: usize>(n: usize, extent: f64) -> Vec<PointN<D>> {
        (0..n)
            .map(|i| {
                let t = i as f64;
                PointN::from_coords(std::array::from_fn(|k| {
                    (t * (0.433 + 0.239 * k as f64)).fract() * extent
                }))
            })
            .collect()
    }

    fn build<const D: usize>(
        data: &[PointN<D>],
        eps: f64,
        backend: IndexBackend,
        cfg: &BatchConfig,
    ) -> NdTableHandle {
        let device = Device::k20c();
        build_table_nd(&device, data, eps, backend, cfg, 256).unwrap()
    }

    #[test]
    fn backends_agree_and_match_brute_force_in_3d_and_4d() {
        let cfg = BatchConfig::default();
        let d3 = nd_points::<3>(400, 4.0);
        let d4 = nd_points::<4>(250, 3.0);

        let g3 = build(&d3, 0.8, IndexBackend::Grid, &cfg);
        let t3 = build(&d3, 0.8, IndexBackend::Tree, &cfg);
        assert_eq!(g3.e_b, t3.e_b);
        assert_eq!(table_fingerprint(&g3.table), table_fingerprint(&t3.table));

        let g4 = build(&d4, 0.7, IndexBackend::Grid, &cfg);
        let t4 = build(&d4, 0.7, IndexBackend::Tree, &cfg);
        assert_eq!(table_fingerprint(&g4.table), table_fingerprint(&t4.table));

        // Table neighborhoods equal the brute-force oracle (ids mapped
        // through the sort permutation).
        let sorted = apply_permutation_nd(&spatial_sort_permutation_nd(&d3), &d3);
        for i in (0..sorted.len()).step_by(37) {
            let got = g3.table.neighbors(i as u32);
            let want = brute_force_neighbors(&sorted, &sorted[i], 0.8);
            assert_eq!(got, &want[..], "point {i}");
        }
    }

    #[test]
    fn multi_batch_matches_single_batch() {
        let data = nd_points::<3>(500, 4.0);
        let one = build(&data, 0.8, IndexBackend::Tree, &BatchConfig::default());
        let tiny = BatchConfig {
            alpha: 0.05,
            sample_fraction: 0.05,
            static_threshold: 0,
            static_buffer_items: 2000,
            n_streams: 3,
        };
        let many = build(&data, 0.8, IndexBackend::Tree, &tiny);
        assert!(many.n_batches > 1, "test must exercise batching");
        assert_eq!(
            table_fingerprint(&one.table),
            table_fingerprint(&many.table)
        );
        assert_eq!(one.result_pairs, many.result_pairs);
    }

    #[test]
    fn auto_resolves_and_clusterings_agree() {
        let data = nd_points::<3>(400, 3.0);
        let cfg = BatchConfig::default();
        let auto = build(&data, 0.7, IndexBackend::Auto, &cfg);
        assert_eq!(auto.backend.reason, "auto");
        let grid = build(&data, 0.7, IndexBackend::Grid, &cfg);
        assert_eq!(
            table_fingerprint(&grid.table),
            table_fingerprint(&auto.table)
        );
        let ca = cluster_table_nd(&auto, 4);
        let cg = cluster_table_nd(&grid, 4);
        assert_eq!(clustering_fingerprint(&ca), clustering_fingerprint(&cg));
    }

    #[test]
    fn overflow_recovery_replans() {
        let data = nd_points::<3>(300, 2.0);
        // Tiny static buffers force overflow on the first pass.
        let tiny = BatchConfig {
            alpha: 0.05,
            sample_fraction: 1.0,
            static_threshold: 0,
            static_buffer_items: 64,
            n_streams: 3,
        };
        let h = build(&data, 0.8, IndexBackend::Tree, &tiny);
        let reference = build(&data, 0.8, IndexBackend::Tree, &BatchConfig::default());
        assert_eq!(
            table_fingerprint(&h.table),
            table_fingerprint(&reference.table)
        );
    }
}
