//! The crate's one union-find: a table's core-level forest, from which
//! every `minpts` clustering of the table is read off a single pass
//! (scenario S3 as one sweep, after the union-find DBSCAN of Wang, Gu
//! and Shun, arXiv:1912.06255).
//!
//! Let `c(i)` be the neighbor count of point `i` (itself included). The
//! core set at `minpts = m` is `{i : c(i) ≥ m}`, so core sets are nested:
//! `core(m) ⊆ core(m′)` for `m′ < m`. Two core points are directly
//! connected at `m` iff they are neighbors and `w(i, j) = min(c(i), c(j))
//! ≥ m`. The maximum spanning forest under `w` therefore answers every
//! level at once: its edges of weight `≥ m` connect exactly the
//! components of `core(m)` (Kruskal's invariant). [`CoreForest::build`]
//! finds that forest with one pass over `T`, visiting points by
//! descending count, which is Kruskal's edge order; a snapshot then
//! unions a prefix of its edges and assigns border points, without
//! re-scanning `T` for core points.
//!
//! A snapshot is bitwise equal to Algorithm 1 visiting the points in the
//! same order: the caller's ([`CoreForest::snapshot`], which table
//! handles use) or the table's ([`CoreForest::snapshot_in_table_order`],
//! which is [`crate::disjoint_set::dbscan_disjoint_set`]). Algorithm 1
//! opens a cluster at the first visited core point of each component,
//! and a border point joins the first opened cluster with a core point
//! among its neighbors. The snapshot roots every component at its first
//! visited point, numbers clusters by ascending root, and gives each
//! border point the smallest adjacent cluster number. Both assume a
//! symmetric table, which every ε-ball table is.

use crate::dbscan::{Clustering, PointLabel};
use crate::table::NeighborTable;

/// The maximum spanning forest of a table under `w(i, j) = min(c(i),
/// c(j))`, in table (sorted) id space. A pure function of `T`: it is
/// built serially in a fixed visit order.
pub(crate) struct CoreForest {
    /// `c(i)`: neighbor count of each point.
    count: Vec<u32>,
    /// The largest `c(j)` over each point's neighbors: a non-core point
    /// whose value is below `m` has no core neighbor at `m`.
    max_neighbor: Vec<u32>,
    /// Forest edges in non-increasing weight order.
    edges: Vec<[u32; 2]>,
    /// `weights[e]` = `w` of `edges[e]`.
    weights: Vec<u32>,
}

/// Root of `x` with path halving.
pub(crate) fn find(parent: &mut [u32], mut x: u32) -> u32 {
    while parent[x as usize] != x {
        let grand = parent[parent[x as usize] as usize];
        parent[x as usize] = grand;
        x = grand;
    }
    x
}

impl CoreForest {
    /// One pass over `T`: visit points by descending `c`, ties by id, and
    /// union each with its already-visited neighbors. An edge that merges
    /// two trees is a forest edge of weight `c` of the later point.
    pub(crate) fn build(table: &NeighborTable) -> Self {
        let n = table.num_points();
        let count: Vec<u32> = (0..n as u32)
            .map(|i| table.neighbor_count(i) as u32)
            .collect();
        // Counting sort by descending count, stable in id.
        let max_count = count.iter().copied().max().unwrap_or(0) as usize;
        let mut start = vec![0u32; max_count + 2];
        for &c in &count {
            start[max_count - c as usize + 1] += 1;
        }
        for b in 1..start.len() {
            start[b] += start[b - 1];
        }
        let mut order = vec![0u32; n];
        for (i, &c) in count.iter().enumerate() {
            let slot = &mut start[max_count - c as usize];
            order[*slot as usize] = i as u32;
            *slot += 1;
        }

        // Visit order as one key: j was visited before i iff key[j] > key[i].
        let key: Vec<u64> = (0..n)
            .map(|i| (u64::from(count[i]) << 32) | u64::from(u32::MAX - i as u32))
            .collect();
        let mut parent: Vec<u32> = (0..n as u32).collect();
        let mut size = vec![1u32; n];
        let mut max_neighbor = vec![0u32; n];
        let mut edges = Vec::new();
        let mut weights = Vec::new();
        let mut earlier = vec![0u32; max_count];
        for &i in &order {
            let row = table.neighbors(i);
            let ki = key[i as usize];
            // Gather the visited neighbors without a branch per entry.
            let (mut best, mut k) = (0, 0);
            for &j in row {
                let kj = key[j as usize];
                best = best.max(kj);
                earlier[k] = j;
                k += usize::from(kj > ki);
            }
            max_neighbor[i as usize] = (best >> 32) as u32;
            // i is still a singleton; `ri` tracks its root as it merges.
            let mut ri = i;
            for &j in &earlier[..k] {
                if parent[j as usize] == ri {
                    continue;
                }
                let rj = find(&mut parent, j);
                if rj != ri {
                    let (small, large) = if size[ri as usize] < size[rj as usize] {
                        (ri, rj)
                    } else {
                        (rj, ri)
                    };
                    parent[small as usize] = large;
                    size[large as usize] += size[small as usize];
                    ri = large;
                    edges.push([i, j]);
                    weights.push(count[i as usize]);
                }
            }
        }
        CoreForest {
            count,
            max_neighbor,
            edges,
            weights,
        }
    }

    /// The clustering at `minpts`, labels in caller order: equal to
    /// [`crate::hybrid::cluster_sorted_table`] on the same arguments.
    /// `perm` and `visit_order` are the handle's (sorted position →
    /// original id and back).
    pub(crate) fn snapshot(
        &self,
        table: &NeighborTable,
        perm: &[u32],
        visit_order: &[u32],
        minpts: usize,
    ) -> Clustering {
        self.labels_at(
            table,
            minpts,
            |i| perm[i as usize],
            visit_order.iter().copied(),
        )
        .unpermute(perm)
    }

    /// The clustering at `minpts`, labels in table id order: equal to
    /// Algorithm 1 over `table` in its own id order.
    pub(crate) fn snapshot_in_table_order(
        &self,
        table: &NeighborTable,
        minpts: usize,
    ) -> Clustering {
        self.labels_at(table, minpts, |i| i, 0..self.count.len() as u32)
    }

    /// The snapshot body, labels in table id order. `rank(i)` is point
    /// `i`'s position in the visit order and `visit` lists the points in
    /// that order.
    fn labels_at(
        &self,
        table: &NeighborTable,
        minpts: usize,
        rank: impl Fn(u32) -> u32,
        visit: impl Iterator<Item = u32>,
    ) -> Clustering {
        let n = self.count.len();
        let core = |i: u32| self.count[i as usize] as usize >= minpts;
        // Union the edges of weight ≥ minpts, the later-ranked root under
        // the earlier: every root is its component's first visited point.
        let mut parent: Vec<u32> = (0..n as u32).collect();
        let level = self.weights.partition_point(|&w| w as usize >= minpts);
        for &[a, b] in &self.edges[..level] {
            let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
            if ra != rb {
                if rank(ra) < rank(rb) {
                    parent[rb as usize] = ra;
                } else {
                    parent[ra as usize] = rb;
                }
            }
        }
        // Clusters numbered by ascending root rank: walking the visit
        // order meets each root before its members.
        let mut labels = vec![PointLabel::NOISE; n];
        let mut n_clusters = 0u32;
        for i in visit {
            if core(i) {
                let root = find(&mut parent, i);
                labels[i as usize] = if root == i {
                    n_clusters += 1;
                    PointLabel::cluster(n_clusters - 1)
                } else {
                    labels[root as usize]
                };
            }
        }
        // A border point joins the smallest adjacent cluster number.
        for i in 0..n as u32 {
            if core(i) || (self.max_neighbor[i as usize] as usize) < minpts {
                continue;
            }
            let first = table
                .neighbors(i)
                .iter()
                .filter(|&&j| core(j))
                .filter_map(|&j| labels[j as usize].cluster_id())
                .min();
            if let Some(k) = first {
                labels[i as usize] = PointLabel::cluster(k);
            }
        }
        Clustering::new(labels, n_clusters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dbscan::{Dbscan, TableSource};
    use crate::hybrid::{cluster_sorted_table, HybridConfig, HybridDbscan, TableHandle};
    use crate::kernels::test_support::mixed_points;
    use gpu_sim::Device;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use spatial::Point2;

    fn handle(data: &[Point2], eps: f64) -> TableHandle {
        HybridDbscan::new(&Device::k20c(), HybridConfig::default())
            .build_table(data, eps)
            .unwrap()
    }

    /// Every level from 1 to one past the largest count, and `usize::MAX`,
    /// read in caller order and in table order.
    fn assert_snapshots_equal_seed_expansion(h: &TableHandle, case: &str) {
        let forest = CoreForest::build(&h.table);
        let max_count = *forest.count.iter().max().unwrap() as usize;
        for m in (1..=max_count + 1).chain([usize::MAX]) {
            let got = forest.snapshot(&h.table, &h.perm, &h.visit_order, m);
            let want = cluster_sorted_table(&h.table, &h.perm, &h.visit_order, m);
            // Labels and cluster count.
            assert_eq!(got, want, "{case}: minpts {m}");
            let got = forest.snapshot_in_table_order(&h.table, m);
            let want = Dbscan::new(m).run(&TableSource::new(&h.table));
            assert_eq!(got, want, "{case}: minpts {m}, table order");
        }
    }

    /// Clumps along x with a contested bridge point between each facing
    /// pair of tips: a border point of either cluster, so the visit order
    /// decides it (the family of `tests/border_differential.rs`).
    fn contested(seed: u64) -> Vec<Point2> {
        let mut rng = StdRng::seed_from_u64(seed);
        let clumps = rng.random_range(3..7usize);
        let mut data = Vec::new();
        for c in 0..clumps {
            let cx = 2.9 * c as f64;
            for _ in 0..rng.random_range(10..20usize) {
                data.push(Point2::new(
                    cx + rng.random_range(-0.1..0.1),
                    rng.random_range(-0.1..0.1),
                ));
            }
            if c > 0 {
                data.push(Point2::new(cx - 0.5, 0.0));
            }
            if c + 1 < clumps {
                data.push(Point2::new(cx + 0.5, 0.0));
                data.push(Point2::new(cx + 1.45, rng.random_range(-0.25..0.25)));
            }
        }
        for _ in 0..rng.random_range(0..5usize) {
            data.push(Point2::new(rng.random_range(-20.0..20.0), 50.0));
        }
        for i in (1..data.len()).rev() {
            data.swap(i, rng.random_range(0..i + 1));
        }
        data
    }

    #[test]
    fn snapshots_equal_seed_expansion_on_mixed_points() {
        let data = mixed_points(600);
        for eps in [0.3, 0.6, 0.9] {
            assert_snapshots_equal_seed_expansion(&handle(&data, eps), &format!("eps {eps}"));
        }
    }

    #[test]
    fn snapshots_equal_seed_expansion_on_contested_borders() {
        for seed in 1..7 {
            let h = handle(&contested(seed), 1.0);
            assert_snapshots_equal_seed_expansion(&h, &format!("seed {seed}"));
        }
    }

    #[test]
    fn caller_order_decides_the_border() {
        // Clump A, a bridge within ε of one member of each clump, clump
        // B; at minpts 5 the bridge is a border of both clusters.
        let mut data: Vec<Point2> = (0..5)
            .map(|i| Point2::new(-0.8 + 0.2 * i as f64, 0.0))
            .collect();
        data.push(Point2::new(0.85, 0.0));
        data.extend((0..5).map(|i| Point2::new(1.7 + 0.2 * i as f64, 0.0)));
        let reversed: Vec<Point2> = data.iter().rev().copied().collect();
        for points in [&data, &reversed] {
            let h = handle(points, 0.85);
            assert_snapshots_equal_seed_expansion(&h, "two clumps");
            let labels = CoreForest::build(&h.table)
                .snapshot(&h.table, &h.perm, &h.visit_order, 5)
                .labels()
                .to_vec();
            // The clump first in caller order claims the bridge.
            assert_eq!(labels[5], labels[0]);
            assert_eq!(labels[0], PointLabel::cluster(0));
            assert_ne!(labels[5], labels[6]);
        }
    }
}
