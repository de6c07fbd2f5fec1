//! Spatial pre-sort of the point database (Section IV of the paper).
//!
//! Before building the grid index, the paper bins `p_i ∈ D` in the x and y
//! dimensions "of unit width such that points in similar spatial locations
//! will be stored nearby each other in memory". Two properties of the
//! pipeline depend on this:
//!
//! 1. **Locality** — threads of the GPU kernels that process nearby points
//!    touch nearby entries of `D`, improving (simulated) coalescing.
//! 2. **Uniform batch sampling** — the batching scheme of Section VI samples
//!    every `n_b`-th point of the *sorted* array and relies on that stride
//!    being a roughly uniform spatial sample, so the per-batch result sizes
//!    `|R_l|` stay consistent (Figure 2).

use crate::point::PointN;
use rayon::prelude::*;
use std::cmp::Ordering;

/// Below this many points the pool dispatch costs more than the permute
/// or sort saves; the serial paths produce identical output (the
/// comparator is total, so the permutation is unique).
const PAR_MIN_POINTS: usize = 1 << 14;

/// The permutation produced by a spatial sort: `order[k]` is the index in
/// the *original* array of the point that sorts to position `k`.
#[derive(Debug, Clone)]
pub struct SortPermutation {
    order: Vec<u32>,
}

impl SortPermutation {
    /// Apply the permutation, producing the sorted point array. An
    /// index-addressed gather: parallel and serial paths write the same
    /// element at the same position.
    pub fn apply<const D: usize>(&self, data: &[PointN<D>]) -> Vec<PointN<D>> {
        if data.len() >= PAR_MIN_POINTS && rayon::current_num_threads() > 1 {
            self.order.par_iter().map(|&i| data[i as usize]).collect()
        } else {
            self.order.iter().map(|&i| data[i as usize]).collect()
        }
    }

    /// Original index of the point now at sorted position `k`.
    pub fn original_index(&self, k: usize) -> u32 {
        self.order[k]
    }

    /// The raw permutation slice.
    pub fn as_slice(&self) -> &[u32] {
        &self.order
    }

    pub fn len(&self) -> usize {
        self.order.len()
    }

    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }
}

/// The unit-width binning order of two points: bins `floor(c_k)` compare
/// from the last axis down to the first (row-major — `(floor(y),
/// floor(x))` in 2-D), then the exact coordinates in the same axis order.
fn bin_order<const D: usize>(a: &PointN<D>, b: &PointN<D>) -> Ordering {
    for k in (0..D).rev() {
        match (a.coords[k].floor() as i64).cmp(&(b.coords[k].floor() as i64)) {
            Ordering::Equal => {}
            o => return o,
        }
    }
    for k in (0..D).rev() {
        match a.coords[k].total_cmp(&b.coords[k]) {
            Ordering::Equal => {}
            o => return o,
        }
    }
    Ordering::Equal
}

/// Compute the unit-bin spatial sort permutation for `data`.
///
/// Points are ordered by their unit-width bin, row-major, and by their
/// coordinates (last axis first) within a bin. Ties fall back to the
/// input index, so identical inputs always produce identical
/// permutations.
pub fn spatial_sort_permutation<const D: usize>(data: &[PointN<D>]) -> SortPermutation {
    let mut order: Vec<u32> = (0..data.len() as u32).collect();
    let by_bin =
        |&a: &u32, &b: &u32| bin_order(&data[a as usize], &data[b as usize]).then(a.cmp(&b));
    // The index tiebreak makes the comparator total, so the sorted
    // permutation is unique: the parallel unstable sort and the serial
    // sort produce the same bytes.
    if order.len() >= PAR_MIN_POINTS && rayon::current_num_threads() > 1 {
        order.par_sort_unstable_by(by_bin);
    } else {
        order.sort_unstable_by(by_bin);
    }
    SortPermutation { order }
}

/// Convenience: return the spatially sorted copy of `data`.
pub fn spatial_sort<const D: usize>(data: &[PointN<D>]) -> Vec<PointN<D>> {
    spatial_sort_permutation(data).apply(data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::Point2;

    #[test]
    fn permutation_is_a_permutation() {
        let data = vec![
            Point2::new(5.5, 5.5),
            Point2::new(0.1, 0.1),
            Point2::new(0.9, 0.2),
            Point2::new(5.1, 0.5),
        ];
        let perm = spatial_sort_permutation(&data);
        let mut seen = vec![false; data.len()];
        for k in 0..perm.len() {
            let i = perm.original_index(k) as usize;
            assert!(!seen[i], "index {i} repeated");
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn bins_group_contiguously() {
        let data = vec![
            Point2::new(3.5, 3.5), // bin (3,3)
            Point2::new(0.5, 0.5), // bin (0,0)
            Point2::new(3.4, 3.9), // bin (3,3)
            Point2::new(0.2, 0.8), // bin (0,0)
        ];
        let sorted = spatial_sort(&data);
        // (0,0)-bin points first, then (3,3)-bin points.
        assert!(sorted[0].x() < 1.0 && sorted[1].x() < 1.0);
        assert!(sorted[2].x() > 3.0 && sorted[3].x() > 3.0);
    }

    #[test]
    fn sorted_order_is_row_major() {
        let data = vec![
            Point2::new(2.5, 0.5), // row 0, col 2
            Point2::new(0.5, 1.5), // row 1, col 0
            Point2::new(0.5, 0.5), // row 0, col 0
        ];
        let sorted = spatial_sort(&data);
        assert_eq!(sorted[0], Point2::new(0.5, 0.5));
        assert_eq!(sorted[1], Point2::new(2.5, 0.5));
        assert_eq!(sorted[2], Point2::new(0.5, 1.5));
    }

    #[test]
    fn deterministic_on_duplicates() {
        let data = vec![Point2::new(1.0, 1.0); 5];
        let p1 = spatial_sort_permutation(&data);
        let p2 = spatial_sort_permutation(&data);
        assert_eq!(p1.as_slice(), p2.as_slice());
    }

    #[test]
    fn negative_coordinates_bin_correctly() {
        // floor(-0.5) = -1, so (-0.5, -0.5) sorts before (0.5, 0.5).
        let data = vec![Point2::new(0.5, 0.5), Point2::new(-0.5, -0.5)];
        let sorted = spatial_sort(&data);
        assert_eq!(sorted[0], Point2::new(-0.5, -0.5));
    }

    #[test]
    fn empty_input() {
        let perm = spatial_sort_permutation::<2>(&[]);
        assert!(perm.is_empty());
        assert!(spatial_sort::<2>(&[]).is_empty());
    }

    #[test]
    fn bins_compare_from_the_last_axis_down() {
        let p = |c: [f64; 3]| PointN::from_coords(c);
        // Bin (z, y, x): z decides first, then y, then x.
        let data = [
            p([0.5, 0.5, 1.5]),
            p([2.5, 0.5, 0.5]),
            p([0.5, 1.5, 0.5]),
            p([0.5, 0.5, 0.5]),
        ];
        assert_eq!(spatial_sort_permutation(&data).as_slice(), &[3, 1, 2, 0]);
    }

    #[test]
    fn parallel_sort_matches_serial() {
        let data: Vec<PointN<3>> = (0..PAR_MIN_POINTS + 11)
            .map(|i| {
                let t = i as f64;
                PointN::from_coords([(t * 0.31).fract() * 9.0, (t * 0.57).fract() * 9.0, 1.0])
            })
            .collect();
        let run = |threads| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
                .install(|| spatial_sort_permutation(&data))
        };
        assert_eq!(run(2).as_slice(), run(1).as_slice());
    }
}
