//! R-tree index (Guttman 1984), the index of the paper's *reference
//! implementation* (sequential DBSCAN on the CPU, per Gowanlock et al. 2016).
//!
//! Two construction paths are provided:
//!
//! * [`RTree::bulk_load`] — Sort-Tile-Recursive (STR) packing, used by the
//!   reference implementation because it yields well-shaped leaves in
//!   `O(n log n)`;
//! * [`RTree::insert`] — classic one-at-a-time insertion with the quadratic
//!   split heuristic, exercised by the test suite to validate structural
//!   invariants under incremental growth.
//!
//! Range queries count visited nodes, which the experiment harness uses to
//! explain *why* the R-tree search dominates sequential DBSCAN's runtime
//! (Table I of the paper).

use crate::aabb::Aabb;
use crate::point::Point2;
use std::sync::atomic::{AtomicU64, Ordering};

/// Maximum entries per node. 16 keeps interior nodes cache-line friendly
/// while matching typical R-tree configurations for point data.
const MAX_ENTRIES: usize = 16;
/// Minimum fill on split (Guttman recommends 30-50% of M).
const MIN_ENTRIES: usize = 6;

/// Search-effort counters, cumulative over the lifetime of the tree.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RTreeStats {
    /// Range queries answered.
    pub queries: u64,
    /// Tree nodes (interior + leaf) visited during queries.
    pub nodes_visited: u64,
    /// Exact point-distance evaluations performed.
    pub distance_calcs: u64,
}

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        bbox: Aabb,
        /// (point id, point) pairs.
        entries: Vec<(u32, Point2)>,
    },
    Interior {
        bbox: Aabb,
        children: Vec<Node>,
    },
}

impl Node {
    fn bbox(&self) -> Aabb {
        match self {
            Node::Leaf { bbox, .. } | Node::Interior { bbox, .. } => *bbox,
        }
    }

    fn recompute_bbox(&mut self) {
        match self {
            Node::Leaf { bbox, entries } => {
                *bbox = Aabb::from_points(entries.iter().map(|(_, p)| p));
            }
            Node::Interior { bbox, children } => {
                *bbox = children.iter().fold(Aabb::EMPTY, |b, c| b.union(&c.bbox()));
            }
        }
    }
}

/// An R-tree over 2-D points.
pub struct RTree {
    root: Node,
    size: usize,
    height: usize,
    // Atomic so concurrent readers (e.g. parallel DBSCAN consumers) can
    // share the tree; counters are best-effort under concurrency.
    queries: AtomicU64,
    nodes_visited: AtomicU64,
    distance_calcs: AtomicU64,
}

impl RTree {
    /// An empty tree.
    pub fn new() -> Self {
        RTree {
            root: Node::Leaf {
                bbox: Aabb::EMPTY,
                entries: Vec::new(),
            },
            size: 0,
            height: 1,
            queries: AtomicU64::new(0),
            nodes_visited: AtomicU64::new(0),
            distance_calcs: AtomicU64::new(0),
        }
    }

    /// Bulk-load with Sort-Tile-Recursive packing. Point ids are the input
    /// indices.
    pub fn bulk_load(data: &[Point2]) -> Self {
        if data.is_empty() {
            return Self::new();
        }
        let mut entries: Vec<(u32, Point2)> = data
            .iter()
            .copied()
            .enumerate()
            .map(|(i, p)| (i as u32, p))
            .collect();

        // STR: sort by x, carve into vertical slabs of ~sqrt(n/M) leaves,
        // sort each slab by y, pack runs of MAX_ENTRIES into leaves.
        let n_leaves = data.len().div_ceil(MAX_ENTRIES);
        let n_slabs = (n_leaves as f64).sqrt().ceil() as usize;
        let slab_size = data.len().div_ceil(n_slabs);

        entries.sort_by(|a, b| {
            a.1.x()
                .total_cmp(&b.1.x())
                .then(a.1.y().total_cmp(&b.1.y()))
        });

        let mut leaves: Vec<Node> = Vec::with_capacity(n_leaves);
        for slab in entries.chunks_mut(slab_size.max(1)) {
            slab.sort_by(|a, b| {
                a.1.y()
                    .total_cmp(&b.1.y())
                    .then(a.1.x().total_cmp(&b.1.x()))
            });
            for run in slab.chunks(MAX_ENTRIES) {
                let mut leaf = Node::Leaf {
                    bbox: Aabb::EMPTY,
                    entries: run.to_vec(),
                };
                leaf.recompute_bbox();
                leaves.push(leaf);
            }
        }

        // Pack upward until a single root remains.
        let mut height = 1;
        let mut level = leaves;
        while level.len() > 1 {
            let mut parents = Vec::with_capacity(level.len().div_ceil(MAX_ENTRIES));
            let mut level_iter = level.into_iter().peekable();
            while level_iter.peek().is_some() {
                let children: Vec<Node> = level_iter.by_ref().take(MAX_ENTRIES).collect();
                let mut parent = Node::Interior {
                    bbox: Aabb::EMPTY,
                    children,
                };
                parent.recompute_bbox();
                parents.push(parent);
            }
            level = parents;
            height += 1;
        }

        RTree {
            root: level.pop().expect("non-empty input yields a root"),
            size: data.len(),
            height,
            queries: AtomicU64::new(0),
            nodes_visited: AtomicU64::new(0),
            distance_calcs: AtomicU64::new(0),
        }
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.size
    }

    pub fn is_empty(&self) -> bool {
        self.size == 0
    }

    /// Height of the tree (a single leaf has height 1).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Cumulative search statistics.
    pub fn stats(&self) -> RTreeStats {
        RTreeStats {
            queries: self.queries.load(Ordering::Relaxed),
            nodes_visited: self.nodes_visited.load(Ordering::Relaxed),
            distance_calcs: self.distance_calcs.load(Ordering::Relaxed),
        }
    }

    /// Insert a point with an explicit id (Guttman insertion, quadratic
    /// split).
    pub fn insert(&mut self, id: u32, p: Point2) {
        if let Some((left, right)) = Self::insert_rec(&mut self.root, id, p) {
            // Root split: grow the tree by one level.
            self.root = {
                let mut new_root = Node::Interior {
                    bbox: Aabb::EMPTY,
                    children: vec![left, right],
                };
                new_root.recompute_bbox();
                new_root
            };
            self.height += 1;
        }
        self.size += 1;
    }

    /// Recursive insertion; returns `Some((left, right))` when `node` had
    /// to split, with the two replacement halves.
    fn insert_rec(node: &mut Node, id: u32, p: Point2) -> Option<(Node, Node)> {
        match node {
            Node::Leaf { entries, .. } => {
                entries.push((id, p));
                if entries.len() > MAX_ENTRIES {
                    let split = Self::split_leaf(std::mem::take(entries));
                    return Some(split);
                }
                node.recompute_bbox();
                None
            }
            Node::Interior { children, .. } => {
                // Choose the child whose bbox needs least enlargement
                // (ties: smaller area).
                let target = Aabb::from_point(p);
                let best = (0..children.len())
                    .min_by(|&a, &b| {
                        let (ba, bb) = (children[a].bbox(), children[b].bbox());
                        ba.enlargement(&target)
                            .total_cmp(&bb.enlargement(&target))
                            .then(ba.area().total_cmp(&bb.area()))
                    })
                    .expect("interior nodes are never empty");

                if let Some((l, r)) = Self::insert_rec(&mut children[best], id, p) {
                    children[best] = l;
                    children.push(r);
                    if children.len() > MAX_ENTRIES {
                        let split = Self::split_interior(std::mem::take(children));
                        return Some(split);
                    }
                }
                node.recompute_bbox();
                None
            }
        }
    }

    /// Guttman quadratic split for leaf entries.
    fn split_leaf(entries: Vec<(u32, Point2)>) -> (Node, Node) {
        let boxes: Vec<Aabb> = entries.iter().map(|(_, p)| Aabb::from_point(*p)).collect();
        let (ga, gb) = Self::quadratic_assign(&boxes);
        let (mut ea, mut eb) = (Vec::new(), Vec::new());
        for (i, e) in entries.into_iter().enumerate() {
            if ga.contains(&i) {
                ea.push(e);
            } else {
                debug_assert!(gb.contains(&i));
                eb.push(e);
            }
        }
        let mut la = Node::Leaf {
            bbox: Aabb::EMPTY,
            entries: ea,
        };
        let mut lb = Node::Leaf {
            bbox: Aabb::EMPTY,
            entries: eb,
        };
        la.recompute_bbox();
        lb.recompute_bbox();
        (la, lb)
    }

    /// Guttman quadratic split for interior children.
    fn split_interior(children: Vec<Node>) -> (Node, Node) {
        let boxes: Vec<Aabb> = children.iter().map(|c| c.bbox()).collect();
        let (ga, gb) = Self::quadratic_assign(&boxes);
        let (mut ca, mut cb) = (Vec::new(), Vec::new());
        for (i, c) in children.into_iter().enumerate() {
            if ga.contains(&i) {
                ca.push(c);
            } else {
                debug_assert!(gb.contains(&i));
                cb.push(c);
            }
        }
        let mut na = Node::Interior {
            bbox: Aabb::EMPTY,
            children: ca,
        };
        let mut nb = Node::Interior {
            bbox: Aabb::EMPTY,
            children: cb,
        };
        na.recompute_bbox();
        nb.recompute_bbox();
        (na, nb)
    }

    /// Quadratic-cost seed picking + assignment over a set of boxes.
    /// Returns the two index groups; each has at least `MIN_ENTRIES`.
    fn quadratic_assign(boxes: &[Aabb]) -> (Vec<usize>, Vec<usize>) {
        let n = boxes.len();
        debug_assert!(n >= 2);

        // PickSeeds: the pair wasting the most area if grouped together.
        let (mut s1, mut s2, mut worst) = (0, 1, f64::NEG_INFINITY);
        for i in 0..n {
            for j in (i + 1)..n {
                let waste = boxes[i].union(&boxes[j]).area() - boxes[i].area() - boxes[j].area();
                if waste > worst {
                    worst = waste;
                    s1 = i;
                    s2 = j;
                }
            }
        }

        let mut ga = vec![s1];
        let mut gb = vec![s2];
        let mut bbox_a = boxes[s1];
        let mut bbox_b = boxes[s2];
        let mut remaining: Vec<usize> = (0..n).filter(|&i| i != s1 && i != s2).collect();

        while let Some(pos) = {
            if remaining.is_empty() {
                None
            } else if ga.len() + remaining.len() == MIN_ENTRIES {
                // Must give everything to A to satisfy minimum fill.
                ga.append(&mut remaining);
                None
            } else if gb.len() + remaining.len() == MIN_ENTRIES {
                gb.append(&mut remaining);
                None
            } else {
                // PickNext: entry with the greatest preference difference.
                Some(
                    (0..remaining.len())
                        .max_by(|&x, &y| {
                            let dx = (bbox_a.enlargement(&boxes[remaining[x]])
                                - bbox_b.enlargement(&boxes[remaining[x]]))
                            .abs();
                            let dy = (bbox_a.enlargement(&boxes[remaining[y]])
                                - bbox_b.enlargement(&boxes[remaining[y]]))
                            .abs();
                            dx.total_cmp(&dy)
                        })
                        .expect("remaining is non-empty"),
                )
            }
        } {
            let i = remaining.swap_remove(pos);
            let ea = bbox_a.enlargement(&boxes[i]);
            let eb = bbox_b.enlargement(&boxes[i]);
            let to_a = ea < eb
                || (ea == eb && bbox_a.area() < bbox_b.area())
                || (ea == eb && bbox_a.area() == bbox_b.area() && ga.len() <= gb.len());
            if to_a {
                bbox_a = bbox_a.union(&boxes[i]);
                ga.push(i);
            } else {
                bbox_b = bbox_b.union(&boxes[i]);
                gb.push(i);
            }
        }
        (ga, gb)
    }

    /// Ids of every indexed point within the closed ε-ball around `q`,
    /// in visit order. Updates the search statistics.
    pub fn query_eps(&self, q: &Point2, eps: f64) -> Vec<u32> {
        let mut out = Vec::new();
        self.query_eps_visit(q, eps, |id, _| out.push(id));
        out
    }

    /// Visitor-based range query; the visitor receives `(id, point)`.
    pub fn query_eps_visit(&self, q: &Point2, eps: f64, mut visit: impl FnMut(u32, Point2)) {
        let eps_sq = eps * eps;
        let query_box = Aabb::eps_box(*q, eps);
        self.queries.fetch_add(1, Ordering::Relaxed);
        let mut visited = 0u64;
        let mut dists = 0u64;

        let mut stack = vec![&self.root];
        while let Some(node) = stack.pop() {
            visited += 1;
            match node {
                Node::Leaf { entries, .. } => {
                    for (id, p) in entries {
                        dists += 1;
                        if p.distance_sq(q) <= eps_sq {
                            visit(*id, *p);
                        }
                    }
                }
                Node::Interior { children, .. } => {
                    for c in children {
                        let b = c.bbox();
                        // Prune on the bounding square first (cheap), then
                        // on the exact ball/box distance.
                        if b.intersects(&query_box) && b.min_dist_sq(*q) <= eps_sq {
                            stack.push(c);
                        }
                    }
                }
            }
        }
        self.nodes_visited.fetch_add(visited, Ordering::Relaxed);
        self.distance_calcs.fetch_add(dists, Ordering::Relaxed);
    }

    /// Validate structural invariants (tests/debugging): bounding boxes
    /// tight, fill bounds respected below the root, uniform leaf depth.
    pub fn check_invariants(&self) {
        fn rec(node: &Node, is_root: bool, depth: usize, leaf_depth: &mut Option<usize>) {
            match node {
                Node::Leaf { bbox, entries } => {
                    assert!(is_root || !entries.is_empty(), "empty non-root leaf");
                    assert!(entries.len() <= MAX_ENTRIES, "leaf overfull");
                    for (_, p) in entries {
                        assert!(bbox.contains(*p), "leaf bbox not covering entry");
                    }
                    match leaf_depth {
                        Some(d) => assert_eq!(*d, depth, "leaves at different depths"),
                        None => *leaf_depth = Some(depth),
                    }
                }
                Node::Interior { bbox, children } => {
                    assert!(!children.is_empty(), "empty interior node");
                    assert!(children.len() <= MAX_ENTRIES, "interior overfull");
                    let mut cover = Aabb::EMPTY;
                    for c in children {
                        cover = cover.union(&c.bbox());
                        rec(c, false, depth + 1, leaf_depth);
                    }
                    assert_eq!(*bbox, cover, "interior bbox not tight");
                }
            }
        }
        let mut leaf_depth = None;
        rec(&self.root, true, 0, &mut leaf_depth);
    }
}

impl Default for RTree {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::brute_force_neighbors;

    fn grid_points(n: usize) -> Vec<Point2> {
        // n x n lattice with slight irrational offsets to avoid ties.
        (0..n * n)
            .map(|i| {
                let (x, y) = (i % n, i / n);
                Point2::new(x as f64 + 0.001 * (y as f64), y as f64 + 0.002 * (x as f64))
            })
            .collect()
    }

    fn sorted(mut v: Vec<u32>) -> Vec<u32> {
        v.sort_unstable();
        v
    }

    #[test]
    fn bulk_load_indexes_everything() {
        let data = grid_points(20);
        let t = RTree::bulk_load(&data);
        assert_eq!(t.len(), data.len());
        t.check_invariants();
        // Query with a huge radius returns every id.
        let all = t.query_eps(&Point2::new(10.0, 10.0), 100.0);
        assert_eq!(all.len(), data.len());
    }

    #[test]
    fn bulk_load_query_matches_brute_force() {
        let data = grid_points(15);
        let t = RTree::bulk_load(&data);
        for eps in [0.5, 1.1, 2.5] {
            for q in data.iter().step_by(17) {
                assert_eq!(
                    sorted(t.query_eps(q, eps)),
                    brute_force_neighbors(&data, q, eps)
                );
            }
        }
    }

    #[test]
    fn incremental_insert_matches_brute_force() {
        let data = grid_points(12);
        let mut t = RTree::new();
        for (i, p) in data.iter().enumerate() {
            t.insert(i as u32, *p);
        }
        assert_eq!(t.len(), data.len());
        t.check_invariants();
        for q in data.iter().step_by(13) {
            assert_eq!(
                sorted(t.query_eps(q, 1.5)),
                brute_force_neighbors(&data, q, 1.5)
            );
        }
    }

    #[test]
    fn insert_grows_height() {
        let data = grid_points(20);
        let mut t = RTree::new();
        for (i, p) in data.iter().enumerate() {
            t.insert(i as u32, *p);
        }
        assert!(t.height() > 1, "400 points cannot fit in one leaf");
        t.check_invariants();
    }

    #[test]
    fn stats_accumulate() {
        let data = grid_points(10);
        let t = RTree::bulk_load(&data);
        assert_eq!(t.stats().queries, 0);
        t.query_eps(&data[0], 1.0);
        t.query_eps(&data[50], 1.0);
        let s = t.stats();
        assert_eq!(s.queries, 2);
        assert!(s.nodes_visited >= 2);
        assert!(s.distance_calcs >= 1);
    }

    #[test]
    fn empty_tree_queries_cleanly() {
        let t = RTree::new();
        assert!(t.is_empty());
        assert!(t.query_eps(&Point2::new(0.0, 0.0), 1.0).is_empty());
    }

    #[test]
    fn duplicate_points_all_returned() {
        let data = vec![Point2::new(1.0, 1.0); 40];
        let t = RTree::bulk_load(&data);
        let hits = t.query_eps(&Point2::new(1.0, 1.0), 0.0);
        assert_eq!(
            hits.len(),
            40,
            "eps=0 closed ball still matches exact duplicates"
        );
    }

    #[test]
    fn query_prunes_far_subtrees() {
        // Two distant clumps: querying one must not visit every node.
        let mut data = grid_points(10);
        data.extend(
            grid_points(10)
                .iter()
                .map(|p| Point2::new(p.x() + 1000.0, p.y())),
        );
        let t = RTree::bulk_load(&data);
        t.query_eps(&Point2::new(0.0, 0.0), 1.0);
        let visited = t.stats().nodes_visited;
        let total_leaves = data.len().div_ceil(MAX_ENTRIES) as u64;
        assert!(
            visited < total_leaves,
            "visited {visited} nodes of >= {total_leaves} leaves — no pruning?"
        );
    }
}
