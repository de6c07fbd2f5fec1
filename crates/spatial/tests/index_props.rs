//! Property-based tests of the spatial indexes against the brute-force
//! oracle, including structural invariants under mixed construction.

use proptest::prelude::*;
use spatial::distance::{brute_force_count, brute_force_neighbors};
use spatial::presort::spatial_sort;
use spatial::{GridIndex, GridIndexN, GridLayout, PackedKdTree, Point2, PointN, RTree};

fn points_strategy() -> impl Strategy<Value = Vec<Point2>> {
    prop::collection::vec((-500i32..1500, -500i32..1500), 1..150).prop_map(|v| {
        v.into_iter()
            .map(|(x, y)| Point2::new(x as f64 / 37.0, y as f64 / 53.0))
            .collect()
    })
}

/// Dense and sparse builds of one grid agree on `A`, the schedule, the
/// stats, and every cell's range.
fn layouts_agree<const D: usize>(data: &[PointN<D>], eps: f64) -> proptest::TestCaseResult {
    let dense = GridIndexN::build_with_layout(data, eps, GridLayout::Dense);
    let sparse = GridIndexN::build_with_layout(data, eps, GridLayout::Sparse);
    prop_assert_eq!(dense.lookup(), sparse.lookup());
    prop_assert_eq!(dense.non_empty_cells(), sparse.non_empty_cells());
    prop_assert_eq!(dense.stats(), sparse.stats());
    prop_assert_eq!(dense.max_points_per_cell(), sparse.max_points_per_cell());
    for h in 0..dense.geometry().total_cells() {
        prop_assert_eq!(
            dense.range_of(h),
            sparse.range_of(h),
            "D = {}, cell {}",
            D,
            h
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn grid_complete_and_sound(data in points_strategy(), e in 1u32..40) {
        let eps = e as f64 / 10.0;
        let grid = GridIndex::build(&data, eps);
        for q in &data {
            let mut got = grid.query(&data, q);
            got.sort_unstable();
            prop_assert_eq!(got, brute_force_neighbors(&data, q, eps));
            prop_assert_eq!(grid.query_count(&data, q), brute_force_count(&data, q, eps));
        }
    }

    #[test]
    fn grid_arrays_are_structurally_valid(data in points_strategy(), e in 1u32..40) {
        let eps = e as f64 / 10.0;
        let grid = GridIndex::build(&data, eps);
        // A is a permutation of point ids.
        let mut a = grid.lookup().to_vec();
        a.sort_unstable();
        let expect: Vec<u32> = (0..data.len() as u32).collect();
        prop_assert_eq!(a, expect);
        // Cell ranges partition A and every member lies in its cell.
        let total: usize = grid
            .non_empty_cells()
            .iter()
            .map(|&h| grid.range_of(h).len())
            .sum();
        prop_assert_eq!(total, data.len());
        for &h in grid.non_empty_cells() {
            let r = grid.range_of(h);
            for &id in &grid.lookup()[r.start as usize..r.end as usize] {
                prop_assert_eq!(grid.cell_of(&data[id as usize]), h);
            }
        }
    }

    #[test]
    fn sparse_and_dense_layouts_are_observably_equivalent(
        data in points_strategy(),
        e in 1u32..40,
    ) {
        let eps = e as f64 / 10.0;
        layouts_agree(&data, eps)?;
        // The same property in 3-D and 4-D, over the points lifted onto
        // skewed planes (both layouts exist at every dimension).
        let lift3: Vec<PointN<3>> = data
            .iter()
            .map(|p| PointN::from_coords([p.x(), p.y(), 0.5 * p.x() - p.y()]))
            .collect();
        let lift4: Vec<PointN<4>> = lift3
            .iter()
            .map(|p| PointN::from_coords([p.coords[0], p.coords[1], p.coords[2], 0.25 * p.coords[0]]))
            .collect();
        layouts_agree(&lift3, eps.max(1.0))?;
        layouts_agree(&lift4, eps.max(2.0))?;
    }

    #[test]
    fn rtree_insertion_invariants_and_queries(data in points_strategy(), e in 1u32..40) {
        let eps = e as f64 / 10.0;
        let mut tree = RTree::new();
        for (i, p) in data.iter().enumerate() {
            tree.insert(i as u32, *p);
        }
        tree.check_invariants();
        for q in data.iter().step_by(7) {
            let mut got = tree.query_eps(q, eps);
            got.sort_unstable();
            prop_assert_eq!(got, brute_force_neighbors(&data, q, eps));
        }
    }

    #[test]
    fn bulk_and_incremental_rtrees_answer_identically(data in points_strategy()) {
        let bulk = RTree::bulk_load(&data);
        let mut incr = RTree::new();
        for (i, p) in data.iter().enumerate() {
            incr.insert(i as u32, *p);
        }
        for q in data.iter().step_by(5) {
            let mut a = bulk.query_eps(q, 1.5);
            a.sort_unstable();
            let mut b = incr.query_eps(q, 1.5);
            b.sort_unstable();
            prop_assert_eq!(a, b);
        }
    }

    #[test]
    fn kdtree_matches_oracle(data in points_strategy(), e in 1u32..40) {
        let eps = e as f64 / 10.0;
        let tree = PackedKdTree::build_from_points(&data);
        let store = spatial::PointStore::from_points(&data);
        for q in data.iter().step_by(3) {
            let got = tree.query_eps(store.view(), q, eps);
            prop_assert_eq!(got, brute_force_neighbors(&data, q, eps));
        }
    }

    #[test]
    fn presort_preserves_multiset(data in points_strategy()) {
        let sorted = spatial_sort(&data);
        prop_assert_eq!(sorted.len(), data.len());
        let key = |p: &Point2| (p.x().to_bits(), p.y().to_bits());
        let mut a: Vec<_> = data.iter().map(key).collect();
        let mut b: Vec<_> = sorted.iter().map(key).collect();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn query_results_independent_of_point_order(data in points_strategy(), e in 1u32..30) {
        // Index answers must be a function of the point *set*, not the
        // array order (modulo id mapping) — verified via counts.
        let eps = e as f64 / 10.0;
        let sorted = spatial_sort(&data);
        let g1 = GridIndex::build(&data, eps);
        let g2 = GridIndex::build(&sorted, eps);
        for (q1, q2) in data.iter().zip(std::iter::repeat(())).map(|(q, _)| q).zip(sorted.iter()) {
            let _ = q2;
            let c1 = g1.query_count(&data, q1);
            let c2 = g2.query_count(&sorted, q1);
            prop_assert_eq!(c1, c2);
        }
    }
}
