//! Point storage for the ε-neighborhood hot path, at every dimension.
//!
//! * [`PointStoreN`] / [`PointsViewN`] — the structure-of-arrays
//!   coordinate store, one contiguous array per axis ([`PointStore`] /
//!   [`PointsView`] at `D = 2`). The kernels' inner loop touches only
//!   coordinates, in long runs (every candidate of a cell range), so each
//!   axis becomes a stride-1 stream the host-side simulation can
//!   autovectorize instead of a gather of every `D`-th lane of an
//!   interleaved layout. (On a real GPU the same split is what makes the
//!   loads coalesce; see the accelerator guide's SoA discussion.) The
//!   store is built once per clustering run from the same sorted array
//!   that is uploaded to the device — a host-side layout decision that
//!   adds no modeled transfer.
//! * [`AabbN`] — axis-aligned bounds.
//! * [`spatial_sort_permutation_nd`] / [`apply_permutation_nd`] — the
//!   names the N-D callers use for the one pre-sort in [`crate::presort`].

use crate::point::PointN;
use crate::presort::SortPermutation;
use rayon::prelude::*;

/// Below this many points the deinterleave is cheaper than pool dispatch.
const PAR_MIN_POINTS: usize = 1 << 15;

/// A closed `D`-dimensional axis-aligned bounding box.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AabbN<const D: usize> {
    pub min: [f64; D],
    pub max: [f64; D],
}

impl<const D: usize> AabbN<D> {
    /// The identity for [`AabbN::grown`]: growing it with any point
    /// yields that point's degenerate box.
    pub fn empty() -> Self {
        Self {
            min: [f64::INFINITY; D],
            max: [f64::NEG_INFINITY; D],
        }
    }

    pub fn from_points<'a>(points: impl IntoIterator<Item = &'a PointN<D>>) -> Self {
        points.into_iter().fold(Self::empty(), |b, p| b.grown(p))
    }

    pub fn grown(mut self, p: &PointN<D>) -> Self {
        for k in 0..D {
            self.min[k] = self.min[k].min(p.coords[k]);
            self.max[k] = self.max[k].max(p.coords[k]);
        }
        self
    }

    /// Side length along dimension `k` (0 for empty boxes).
    pub fn extent(&self, k: usize) -> f64 {
        (self.max[k] - self.min[k]).max(0.0)
    }
}

/// Structure-of-arrays store for `D`-dimensional points: `coords[k][i]`
/// is coordinate `k` of point `i`.
#[derive(Debug, Clone)]
pub struct PointStoreN<const D: usize> {
    coords: [Vec<f64>; D],
}

/// The 2-D SoA store.
pub type PointStore = PointStoreN<2>;

impl<const D: usize> PointStoreN<D> {
    /// Build the SoA mirror of `points` (same ids, same order). The
    /// deinterleave is an index-addressed copy, so the parallel and serial
    /// paths write identical bytes.
    pub fn from_points(points: &[PointN<D>]) -> Self {
        let par = points.len() >= PAR_MIN_POINTS && rayon::current_num_threads() > 1;
        Self {
            coords: std::array::from_fn(|k| {
                if par {
                    points.par_iter().map(|p| p.coords[k]).collect()
                } else {
                    points.iter().map(|p| p.coords[k]).collect()
                }
            }),
        }
    }

    pub fn len(&self) -> usize {
        self.view().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Borrowed view for kernels (`Copy`, captured by value like the
    /// other device-constant parameters).
    pub fn view(&self) -> PointsViewN<'_, D> {
        PointsViewN {
            coords: std::array::from_fn(|k| self.coords[k].as_slice()),
        }
    }

    pub fn get(&self, i: usize) -> PointN<D> {
        self.view().get(i)
    }
}

/// Borrowed SoA view of a [`PointStoreN`]. `Copy`, so kernels capture it
/// by value like the other device constants.
#[derive(Debug, Clone, Copy)]
pub struct PointsViewN<'a, const D: usize> {
    pub coords: [&'a [f64]; D],
}

/// The 2-D SoA view.
pub type PointsView<'a> = PointsViewN<'a, 2>;

impl<const D: usize> PointsViewN<'_, D> {
    #[inline]
    pub fn len(&self) -> usize {
        self.coords.first().map_or(0, |c| c.len())
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materialize point `i` (for result emission and non-hot-path code).
    #[inline]
    pub fn get(&self, i: usize) -> PointN<D> {
        PointN::from_coords(std::array::from_fn(|k| self.coords[k][i]))
    }
}

/// The unit-bin spatial sort permutation of `data` (see
/// [`crate::presort::spatial_sort_permutation`]).
pub fn spatial_sort_permutation_nd<const D: usize>(data: &[PointN<D>]) -> SortPermutation {
    crate::presort::spatial_sort_permutation(data)
}

/// Apply a permutation to a point array (see [`SortPermutation::apply`]).
pub fn apply_permutation_nd<const D: usize>(
    perm: &SortPermutation,
    data: &[PointN<D>],
) -> Vec<PointN<D>> {
    perm.apply(data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::Point2;

    #[test]
    fn store_round_trips_points() {
        let pts: Vec<PointN<3>> = (0..10)
            .map(|i| PointN::from_coords([i as f64, i as f64 * 0.5, -(i as f64)]))
            .collect();
        let store = PointStoreN::from_points(&pts);
        assert_eq!(store.len(), 10);
        for (i, p) in pts.iter().enumerate() {
            assert_eq!(store.get(i), *p);
        }
        let pts = vec![
            Point2::new(1.0, -2.0),
            Point2::new(0.5, 0.25),
            Point2::new(-3.5, 7.0),
        ];
        let store = PointStore::from_points(&pts);
        let v = store.view();
        assert_eq!(v.len(), 3);
        for (i, p) in pts.iter().enumerate() {
            assert_eq!(v.get(i), *p);
            assert_eq!(v.coords[0][i].to_bits(), p.x().to_bits());
            assert_eq!(v.coords[1][i].to_bits(), p.y().to_bits());
        }
    }

    #[test]
    fn parallel_deinterleave_matches_serial() {
        let pts: Vec<Point2> = (0..PAR_MIN_POINTS + 7)
            .map(|i| Point2::new(i as f64 * 0.25, -(i as f64)))
            .collect();
        let par = rayon::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .unwrap()
            .install(|| PointStore::from_points(&pts));
        let serial = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap()
            .install(|| PointStore::from_points(&pts));
        assert_eq!(par.view().coords, serial.view().coords);
    }

    #[test]
    fn empty_store() {
        let store = PointStore::from_points(&[]);
        assert!(store.is_empty());
        assert!(store.view().is_empty());
    }

    #[test]
    fn aabb_covers_points() {
        let pts = [
            PointN::from_coords([0.0, 5.0, -1.0]),
            PointN::from_coords([2.0, 1.0, 3.0]),
        ];
        let b = AabbN::from_points(pts.iter());
        assert_eq!(b.min, [0.0, 1.0, -1.0]);
        assert_eq!(b.max, [2.0, 5.0, 3.0]);
        assert_eq!(b.extent(2), 4.0);
    }
}
