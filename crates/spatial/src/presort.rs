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

/// Below this many points the pool dispatch costs more than the permute
/// or sort saves; the serial paths produce identical output (the keys
/// are distinct, so the permutation is unique).
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

/// One point's precomputed sort key. Derived `Ord` compares the fields in
/// declaration order and arrays element by element, so the key order is:
/// unit bins `floor(c_k)` from the last axis down to the first (row-major
/// — `(floor(y), floor(x))` in 2-D), then the exact coordinates in the
/// same axis order under `f64::total_cmp`, then the input index. Each
/// signed quantity is stored as the unsigned word with the same order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct BinKey<const D: usize> {
    bins: [u64; D],
    coords: [u64; D],
    index: u32,
}

/// The unsigned word ordered like the signed `v`.
fn ordered_word(v: i64) -> u64 {
    (v as u64) ^ (1 << 63)
}

impl<const D: usize> BinKey<D> {
    fn of(p: &PointN<D>, index: u32) -> Self {
        let last_first = |k: usize| p.coords[D - 1 - k];
        BinKey {
            bins: std::array::from_fn(|k| ordered_word(last_first(k).floor() as i64)),
            coords: std::array::from_fn(|k| {
                // The integer `f64::total_cmp` compares: flip the
                // magnitude bits of negatives.
                let bits = last_first(k).to_bits() as i64;
                ordered_word(bits ^ (((bits >> 63) as u64) >> 1) as i64)
            }),
            index,
        }
    }
}

/// Compute the unit-bin spatial sort permutation for `data`.
///
/// Points are ordered by their unit-width bin, row-major, and by their
/// coordinates (last axis first) within a bin. Ties fall back to the
/// input index, so identical inputs always produce identical
/// permutations. Each point's key is computed once ([`BinKey`]) and the
/// keys are sorted, so no comparison recomputes a bin or chases `data`.
pub fn spatial_sort_permutation<const D: usize>(data: &[PointN<D>]) -> SortPermutation {
    let key = |(i, p): (usize, &PointN<D>)| BinKey::of(p, i as u32);
    // The index makes every key distinct, so the sorted order is unique:
    // the parallel unstable sort and the serial sort produce the same
    // bytes.
    let order = if data.len() >= PAR_MIN_POINTS && rayon::current_num_threads() > 1 {
        let mut keys: Vec<BinKey<D>> = data.par_iter().enumerate().map(key).collect();
        keys.par_sort_unstable();
        keys.par_iter().map(|k| k.index).collect()
    } else {
        let mut keys: Vec<BinKey<D>> = data.iter().enumerate().map(key).collect();
        keys.sort_unstable();
        keys.iter().map(|k| k.index).collect()
    };
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
    use proptest::prelude::*;
    use std::cmp::Ordering;

    /// The comparator the keyed sort replaced, kept as its oracle: bins
    /// `floor(c_k)` from the last axis down, then the exact coordinates
    /// in the same axis order.
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

    fn oracle_permutation<const D: usize>(data: &[PointN<D>]) -> Vec<u32> {
        let mut order: Vec<u32> = (0..data.len() as u32).collect();
        order.sort_by(|&a, &b| bin_order(&data[a as usize], &data[b as usize]).then(a.cmp(&b)));
        order
    }

    /// Coordinates on a 1/8 lattice over [-5, 5): negatives, exact bin
    /// edges and many duplicates; code -41 stands for `-0.0`.
    fn coord(code: i32) -> f64 {
        if code == -41 {
            -0.0
        } else {
            f64::from(code) / 8.0
        }
    }

    fn points<const D: usize>(codes: &[(i32, i32, i32)]) -> Vec<PointN<D>> {
        codes
            .iter()
            .map(|&(x, y, z)| PointN::from_coords(std::array::from_fn(|k| coord([x, y, z][k]))))
            .collect()
    }

    /// The keyed sort equals the comparator oracle at D = 2 and 3, on the
    /// serial path and on a 2-thread pool.
    fn keyed_matches_oracle(codes: &[(i32, i32, i32)]) -> proptest::TestCaseResult {
        fn check<const D: usize>(data: &[PointN<D>]) -> proptest::TestCaseResult {
            let expected = oracle_permutation(data);
            let serial = spatial_sort_permutation(data);
            prop_assert_eq!(serial.as_slice(), expected.as_slice());
            let pooled = rayon::ThreadPoolBuilder::new()
                .num_threads(2)
                .build()
                .unwrap()
                .install(|| spatial_sort_permutation(data));
            prop_assert_eq!(pooled.as_slice(), expected.as_slice());
            Ok(())
        }
        check(&points::<2>(codes))?;
        check(&points::<3>(codes))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn keyed_presort_matches_comparator_below_par_cutoff(
            codes in prop::collection::vec((-41i32..41, -41i32..41, -41i32..41), 1..400),
        ) {
            keyed_matches_oracle(&codes)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3))]

        #[test]
        fn keyed_presort_matches_comparator_above_par_cutoff(
            codes in prop::collection::vec(
                (-41i32..41, -41i32..41, -41i32..41),
                PAR_MIN_POINTS..PAR_MIN_POINTS + 600,
            ),
        ) {
            keyed_matches_oracle(&codes)?;
        }
    }

    #[test]
    fn signed_zeros_order_like_total_cmp() {
        // Same bin (0, 0); -0.0 sorts before +0.0 on the x coordinate.
        let data = [Point2::new(0.0, 0.5), Point2::new(-0.0, 0.5)];
        assert_eq!(spatial_sort_permutation(&data).as_slice(), &[1, 0]);
    }

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
