//! Neighbor sources: the seam between DBSCAN and the index/table that
//! answers its ε-neighborhood queries.

use crate::table::NeighborTable;
use spatial::{GridIndex, PackedKdTree, Point2, PointStore, RTree};

/// Supplies the ε-neighborhood of each point by id.
///
/// Implementations must be consistent: `neighbors_of(p)` contains `p`
/// itself (distance 0 ≤ ε) and exactly the ids within the closed ε-ball.
/// Order is unspecified; DBSCAN's cluster memberships do not depend on it.
pub trait NeighborSource: Sync {
    /// Append the ids of every point within ε of point `id` to `out`
    /// (which the caller has cleared).
    fn neighbors_of(&self, id: u32, out: &mut Vec<u32>);

    /// Total number of points in the database.
    fn num_points(&self) -> usize;
}

/// Neighbor source backed by the grid index (ε is the grid's cell width).
pub struct GridSource<'a> {
    grid: &'a GridIndex,
    data: &'a [Point2],
}

impl<'a> GridSource<'a> {
    pub fn new(grid: &'a GridIndex, data: &'a [Point2]) -> Self {
        GridSource { grid, data }
    }
}

impl NeighborSource for GridSource<'_> {
    fn neighbors_of(&self, id: u32, out: &mut Vec<u32>) {
        self.grid
            .query_visit(self.data, &self.data[id as usize], |n| out.push(n));
    }

    fn num_points(&self) -> usize {
        self.data.len()
    }
}

/// Neighbor source backed by an R-tree (the reference implementation's
/// index; ε is supplied per-source). Query centers are read from the
/// point array the tree was built over.
pub struct RTreeSource<'a> {
    tree: &'a RTree,
    data: &'a [Point2],
    eps: f64,
}

impl<'a> RTreeSource<'a> {
    pub fn new(tree: &'a RTree, data: &'a [Point2], eps: f64) -> Self {
        RTreeSource { tree, data, eps }
    }
}

impl NeighborSource for RTreeSource<'_> {
    fn neighbors_of(&self, id: u32, out: &mut Vec<u32>) {
        self.tree
            .query_eps_visit(&self.data[id as usize], self.eps, |n, _| out.push(n));
    }

    fn num_points(&self) -> usize {
        self.tree.len()
    }
}

/// Neighbor source backed by the packed kd-tree, queried on the host
/// (ablation comparator). Owns the tree and the SoA coordinates it scans.
pub struct KdTreeSource {
    tree: PackedKdTree<2>,
    points: PointStore,
    eps: f64,
}

impl KdTreeSource {
    /// Index `data` (ids are input indices) for ε-queries at `eps`.
    pub fn build(data: &[Point2], eps: f64) -> Self {
        let points = PointStore::from_points(data);
        let tree = PackedKdTree::build(points.view());
        KdTreeSource { tree, points, eps }
    }
}

impl NeighborSource for KdTreeSource {
    fn neighbors_of(&self, id: u32, out: &mut Vec<u32>) {
        let v = self.points.view();
        self.tree
            .query_eps_visit(v, &v.get(id as usize), self.eps, |n| out.push(n));
    }

    fn num_points(&self) -> usize {
        self.points.len()
    }
}

/// Neighbor source backed by the precomputed neighbor table `T` — the
/// Hybrid-DBSCAN fast path: a lookup instead of an index search.
pub struct TableSource<'a> {
    table: &'a NeighborTable,
}

impl<'a> TableSource<'a> {
    pub fn new(table: &'a NeighborTable) -> Self {
        TableSource { table }
    }
}

impl NeighborSource for TableSource<'_> {
    fn neighbors_of(&self, id: u32, out: &mut Vec<u32>) {
        out.extend_from_slice(self.table.neighbors(id));
    }

    fn num_points(&self) -> usize {
        self.table.num_points()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatial::distance::brute_force_neighbors;

    fn data() -> Vec<Point2> {
        (0..60)
            .map(|i| {
                let t = i as f64 * 0.37;
                Point2::new((t * 1.7).sin() * 5.0 + t * 0.1, (t * 0.9).cos() * 5.0)
            })
            .collect()
    }

    fn sorted(mut v: Vec<u32>) -> Vec<u32> {
        v.sort_unstable();
        v
    }

    #[test]
    fn all_index_sources_agree_with_brute_force() {
        let data = data();
        let eps = 1.2;
        let grid = GridIndex::build(&data, eps);
        let rtree = RTree::bulk_load(&data);

        let gs = GridSource::new(&grid, &data);
        let rs = RTreeSource::new(&rtree, &data, eps);
        let ks = KdTreeSource::build(&data, eps);

        for id in 0..data.len() as u32 {
            let expected = brute_force_neighbors(&data, &data[id as usize], eps);
            for (name, src) in [
                ("grid", &gs as &dyn NeighborSource),
                ("rtree", &rs),
                ("kdtree", &ks),
            ] {
                let mut out = Vec::new();
                src.neighbors_of(id, &mut out);
                assert_eq!(sorted(out), expected, "{name} disagrees at id {id}");
            }
        }
    }

    #[test]
    fn sources_report_point_count() {
        let data = data();
        let grid = GridIndex::build(&data, 1.0);
        assert_eq!(GridSource::new(&grid, &data).num_points(), 60);
        let rtree = RTree::bulk_load(&data);
        assert_eq!(RTreeSource::new(&rtree, &data, 1.0).num_points(), 60);
    }

    #[test]
    fn every_source_includes_self() {
        let data = data();
        let grid = GridIndex::build(&data, 0.5);
        let gs = GridSource::new(&grid, &data);
        for id in [0u32, 17, 59] {
            let mut out = Vec::new();
            gs.neighbors_of(id, &mut out);
            assert!(
                out.contains(&id),
                "point {id} missing from its own neighborhood"
            );
        }
    }
}
