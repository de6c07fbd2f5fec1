//! Disjoint-set (union-find) DBSCAN over the neighbor table — a parallel
//! host-side clustering extension.
//!
//! The paper's host DBSCAN is sequential per variant (parallelism comes
//! from running *variants* concurrently). Related work it cites — Patwary
//! et al.'s PDSDBSCAN [9] — instead parallelizes a *single* clustering
//! with a disjoint-set formulation: every core point unions with the core
//! points in its ε-neighborhood; border points attach to any adjacent
//! core point afterwards. Cluster memberships of core points are exactly
//! DBSCAN's (density-connectivity is an equivalence closure); border
//! points land on *some* adjacent cluster, which is within DBSCAN's own
//! order-dependence.
//!
//! With the neighbor table already materialized by the GPU, this turns
//! the last sequential stage of Hybrid-DBSCAN into a data-parallel pass —
//! the natural "future work" composition of the two papers.
//!
//! ## Determinism
//!
//! All three phases run on the rayon pool, yet the output is a pure
//! function of `(table, minpts)` at every thread count: union with
//! smaller-root-wins converges each component to its minimum member
//! regardless of CAS interleaving; border points attach to the *minimum*
//! adjacent root (not the first found); and the final labels number
//! clusters by sorted root id. This is relied on by the thread-count
//! equivalence suite (see DESIGN.md, "Threading model & determinism
//! policy").

use crate::dbscan::{Clustering, PointLabel};
use crate::table::NeighborTable;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};

/// A lock-free concurrent union-find with path halving, as in PDSDBSCAN
/// and the standard wait-free union-find constructions: `parent[i]` is
/// updated by CAS; roots are identified by `parent[i] == i`.
pub struct ConcurrentUnionFind {
    parent: Vec<AtomicU32>,
}

impl ConcurrentUnionFind {
    pub fn new(n: usize) -> Self {
        ConcurrentUnionFind {
            parent: (0..n as u32).map(AtomicU32::new).collect(),
        }
    }

    pub fn len(&self) -> usize {
        self.parent.len()
    }

    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Find with path halving; safe under concurrency.
    pub fn find(&self, mut x: u32) -> u32 {
        loop {
            let p = self.parent[x as usize].load(Ordering::Acquire);
            if p == x {
                return x;
            }
            let gp = self.parent[p as usize].load(Ordering::Acquire);
            if gp == p {
                return p;
            }
            // Path halving: point x at its grandparent (best effort).
            let _ = self.parent[x as usize].compare_exchange_weak(
                p,
                gp,
                Ordering::AcqRel,
                Ordering::Relaxed,
            );
            x = gp;
        }
    }

    /// Union by id (smaller root wins), lock-free.
    pub fn union(&self, a: u32, b: u32) {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        loop {
            if ra == rb {
                return;
            }
            // Attach the larger root under the smaller (deterministic
            // orientation keeps the structure converging).
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            match self.parent[hi as usize].compare_exchange(
                hi,
                lo,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return,
                Err(_) => {
                    ra = self.find(lo);
                    rb = self.find(hi);
                }
            }
        }
    }
}

/// Parallel DBSCAN over a neighbor table using the disjoint-set
/// formulation. Returns labels in *table* id space.
///
/// Equivalent to [`crate::dbscan::Dbscan`] on core-point memberships and
/// noise; border points may attach to a different (still adjacent)
/// cluster than the sequential visit order would pick.
///
/// # Panics
///
/// If `minpts` is 0, like [`crate::dbscan::Dbscan::new`].
pub fn dbscan_disjoint_set(table: &NeighborTable, minpts: usize) -> Clustering {
    assert!(minpts >= 1, "minpts must be at least 1");
    let n = table.num_points();
    let is_core: Vec<bool> = (0..n as u32)
        .into_par_iter()
        .map(|i| table.neighbor_count(i) >= minpts)
        .collect();

    // Phase 1: union every core point with its core neighbors.
    let uf = ConcurrentUnionFind::new(n);
    (0..n as u32).into_par_iter().for_each(|i| {
        if !is_core[i as usize] {
            return;
        }
        for &j in table.neighbors(i) {
            if is_core[j as usize] {
                uf.union(i, j);
            }
        }
    });

    // Phase 2: border points attach to the smallest-rooted adjacent core
    // (deterministic choice, independent of scheduling).
    let attach: Vec<u32> = (0..n as u32)
        .into_par_iter()
        .map(|i| {
            if is_core[i as usize] {
                return uf.find(i);
            }
            table
                .neighbors(i)
                .iter()
                .filter(|&&j| is_core[j as usize])
                .map(|&j| uf.find(j))
                .min()
                .unwrap_or(u32::MAX)
        })
        .collect();

    // Phase 3: compact root ids to dense cluster labels, numbering
    // clusters by their smallest member for determinism.
    let mut roots: Vec<u32> = attach.iter().copied().filter(|&r| r != u32::MAX).collect();
    roots.sort_unstable();
    roots.dedup();
    let labels: Vec<PointLabel> = attach
        .par_iter()
        .map(|&r| {
            if r == u32::MAX {
                PointLabel::NOISE
            } else {
                let k = roots.binary_search(&r).expect("root indexed");
                PointLabel::cluster(k as u32)
            }
        })
        .collect();
    Clustering::from_labels(labels)
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
    fn union_find_basic() {
        let uf = ConcurrentUnionFind::new(10);
        assert_eq!(uf.len(), 10);
        uf.union(1, 2);
        uf.union(2, 3);
        assert_eq!(uf.find(1), uf.find(3));
        assert_ne!(uf.find(1), uf.find(4));
        uf.union(3, 4);
        assert_eq!(uf.find(4), uf.find(1));
    }

    #[test]
    fn union_find_concurrent_chain() {
        let n = 10_000;
        let uf = ConcurrentUnionFind::new(n);
        // Union a chain from many pool tasks: everything must end
        // connected.
        rayon::scope(|s| {
            for t in 0..4 {
                let uf = &uf;
                s.spawn(move |_| {
                    for i in (t..n - 1).step_by(4) {
                        uf.union(i as u32, (i + 1) as u32);
                    }
                });
            }
        });
        let root = uf.find(0);
        for i in 0..n as u32 {
            assert_eq!(uf.find(i), root, "node {i} disconnected");
        }
        assert_eq!(root, 0, "smallest id wins as root");
    }

    #[test]
    fn matches_sequential_dbscan_up_to_borders() {
        let data = mixed_points(500);
        for (eps, minpts) in [(0.5, 4), (0.9, 8), (0.3, 2)] {
            let handle = table_for(&data, eps);
            let parallel = dbscan_disjoint_set(&handle.table, minpts);
            let sequential = Dbscan::new(minpts).run(&TableSource::new(&handle.table));

            // Same number of clusters and identical core memberships.
            assert_eq!(
                parallel.num_clusters(),
                sequential.num_clusters(),
                "eps={eps}"
            );
            for i in 0..handle.table.num_points() as u32 {
                let core = handle.table.neighbor_count(i) >= minpts;
                if core {
                    // Same-cluster relation over (arbitrary) core pairs:
                    // spot-check against a fixed partner core point.
                    assert!(parallel.labels()[i as usize].is_clustered());
                }
                // Noise agreement is exact: a point is noise iff no
                // adjacent core exists.
                assert_eq!(
                    parallel.labels()[i as usize].is_noise(),
                    sequential.labels()[i as usize].is_noise(),
                    "noise disagreement at {i} (eps={eps}, minpts={minpts})"
                );
            }

            // Core same-cluster relation matches exactly.
            let cores: Vec<u32> = (0..handle.table.num_points() as u32)
                .filter(|&i| handle.table.neighbor_count(i) >= minpts)
                .collect();
            for w in cores.windows(2) {
                let same_p = parallel.labels()[w[0] as usize] == parallel.labels()[w[1] as usize];
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
            "parallel result must be deterministic"
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
