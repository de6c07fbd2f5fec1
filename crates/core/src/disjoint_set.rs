//! Disjoint-set (union-find) DBSCAN over the neighbor table.
//!
//! The paper's host DBSCAN is Algorithm 1, a seed expansion. Related work
//! it cites — Patwary et al.'s PDSDBSCAN [9] — clusters with a
//! disjoint-set formulation instead: every core point unions with the
//! core points in its ε-neighborhood, and border points attach to an
//! adjacent cluster afterwards. Core memberships are exactly DBSCAN's
//! (density-connectivity is an equivalence closure); which adjacent
//! cluster a border point joins is DBSCAN's own order-dependence.
//!
//! The union-find is the crate's one, the core-level forest (`levels`)
//! that table handles also build: built here from the table alone and
//! read at `minpts` in table id order. The rules make the labels a pure function of `(table, minpts)`: every
//! component is rooted at its smallest table id, clusters are numbered
//! by ascending root, and a border point joins the smallest adjacent
//! cluster. That is Algorithm 1's answer over the table in its own id
//! order, reached by a different algorithm, which is what lets it serve
//! as an oracle for the seed expansion.

use crate::dbscan::Clustering;
use crate::levels::CoreForest;
use crate::table::NeighborTable;

/// DBSCAN over a neighbor table using the disjoint-set formulation.
/// Returns labels in *table* id space.
///
/// Equal to [`crate::dbscan::Dbscan`] run over the table in its own id
/// order; against the caller's visit order, border points may attach to
/// a different (still adjacent) cluster.
///
/// # Panics
///
/// If `minpts` is 0, like [`crate::dbscan::Dbscan::new`].
pub fn dbscan_disjoint_set(table: &NeighborTable, minpts: usize) -> Clustering {
    assert!(minpts >= 1, "minpts must be at least 1");
    CoreForest::build(table).snapshot_in_table_order(table, minpts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dbscan::{Dbscan, TableSource};
    use crate::hybrid::{HybridConfig, HybridDbscan};
    use crate::kernels::test_support::mixed_points;
    use gpu_sim::Device;

    fn table_for(data: &[spatial::Point2], eps: f64) -> crate::hybrid::TableHandle {
        let device = Device::k20c();
        HybridDbscan::new(&device, HybridConfig::default())
            .build_table(data, eps)
            .unwrap()
    }

    #[test]
    fn matches_sequential_dbscan_up_to_borders() {
        let data = mixed_points(500);
        for (eps, minpts) in [(0.5, 4), (0.9, 8), (0.3, 2)] {
            let handle = table_for(&data, eps);
            let union_find = dbscan_disjoint_set(&handle.table, minpts);
            let sequential = Dbscan::new(minpts).run(&TableSource::new(&handle.table));

            // Same number of clusters and identical core memberships.
            assert_eq!(
                union_find.num_clusters(),
                sequential.num_clusters(),
                "eps={eps}"
            );
            for i in 0..handle.table.num_points() as u32 {
                let core = handle.table.neighbor_count(i) >= minpts;
                if core {
                    // Same-cluster relation over (arbitrary) core pairs:
                    // spot-check against a fixed partner core point.
                    assert!(union_find.labels()[i as usize].is_clustered());
                }
                // Noise agreement is exact: a point is noise iff no
                // adjacent core exists.
                assert_eq!(
                    union_find.labels()[i as usize].is_noise(),
                    sequential.labels()[i as usize].is_noise(),
                    "noise disagreement at {i} (eps={eps}, minpts={minpts})"
                );
            }

            // Core same-cluster relation matches exactly.
            let cores: Vec<u32> = (0..handle.table.num_points() as u32)
                .filter(|&i| handle.table.neighbor_count(i) >= minpts)
                .collect();
            for w in cores.windows(2) {
                let same_p =
                    union_find.labels()[w[0] as usize] == union_find.labels()[w[1] as usize];
                let same_s =
                    sequential.labels()[w[0] as usize] == sequential.labels()[w[1] as usize];
                assert_eq!(same_p, same_s, "core pair {:?} disagrees", w);
            }
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let data = mixed_points(400);
        let handle = table_for(&data, 0.6);
        let a = dbscan_disjoint_set(&handle.table, 4);
        let b = dbscan_disjoint_set(&handle.table, 4);
        assert_eq!(
            a.labels(),
            b.labels(),
            "union-find result must be deterministic"
        );
    }

    #[test]
    fn all_noise_and_all_one_cluster_extremes() {
        let data = mixed_points(200);
        let handle = table_for(&data, 0.4);
        let none = dbscan_disjoint_set(&handle.table, 10_000);
        assert_eq!(none.num_clusters(), 0);
        assert_eq!(none.noise_count(), 200);
        let all = dbscan_disjoint_set(&handle.table, 1);
        assert_eq!(all.noise_count(), 0, "minpts=1 makes everything core");
    }

    #[test]
    #[should_panic(expected = "minpts must be at least 1")]
    fn zero_minpts_panics() {
        let handle = table_for(&mixed_points(50), 0.4);
        dbscan_disjoint_set(&handle.table, 0);
    }
}
