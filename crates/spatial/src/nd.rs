//! Point storage for the ε-neighborhood hot path, at every dimension.
//!
//! * [`PointStoreN`] / [`PointsViewN`] — the structure-of-arrays
//!   coordinate store, one contiguous array per axis ([`PointStore`] /
//!   [`PointsView`] at `D = 2`), indexed by point id. Kernels read a
//!   thread's own point from it. (On a real GPU the same split is what
//!   makes the loads coalesce; see the accelerator guide's SoA
//!   discussion.)
//! * [`MemberStoreN`] / [`MembersViewN`] — the same coordinates in an
//!   index's member order: the grid's lookup array `A` or the kd-tree's
//!   leaf order. A cell's or leaf's members are then one contiguous
//!   `[start, end)` run of every axis array, so the kernels' inner loop
//!   reads each axis as a stride-1 stream in full-width
//!   [`SCAN_LANES`]-lane chunks instead of gathering through ids; the
//!   arrays are padded by [`SCAN_LANES`] entries so the last chunk of any
//!   run stays in bounds.
//!
//! Both stores are built once per table build from the same sorted array
//! that is uploaded to the device — host-side layout decisions the cost
//! model never sees: no device upload and no modeled transfer (the
//! kernels still charge the `A` reads they stand for).
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

/// Lane width of the kernels' chunked ε-scan, and the padding of every
/// [`MemberStoreN`] array. Eight f64 lanes are one cache line per axis and
/// small enough for the autovectorizer to keep a chunk's distance
/// computation in SIMD registers.
pub const SCAN_LANES: usize = 8;

/// The coordinates and ids of a point store in an index's member order,
/// each array padded by [`SCAN_LANES`] entries: `coords[k][j]` is
/// coordinate `k` of point `ids[j]`.
#[derive(Debug, Clone)]
pub struct MemberStoreN<const D: usize> {
    coords: [Vec<f64>; D],
    ids: Vec<u32>,
}

impl<const D: usize> MemberStoreN<D> {
    /// Gather `points` in `order` (a permutation of its ids: the grid's
    /// `A` or the tree's leaf ids). The padding lanes hold NaN
    /// coordinates, which are never within ε of anything, and the id
    /// `u32::MAX`. The gather is index-addressed, so the parallel and
    /// serial paths write identical bytes.
    pub fn gather(points: PointsViewN<'_, D>, order: &[u32]) -> Self {
        let par = order.len() >= PAR_MIN_POINTS && rayon::current_num_threads() > 1;
        let pad = |mut v: Vec<f64>| {
            v.resize(order.len() + SCAN_LANES, f64::NAN);
            v
        };
        let mut ids = Vec::with_capacity(order.len() + SCAN_LANES);
        ids.extend_from_slice(order);
        ids.resize(order.len() + SCAN_LANES, u32::MAX);
        Self {
            coords: std::array::from_fn(|k| {
                let axis = points.coords[k];
                pad(if par {
                    order.par_iter().map(|&i| axis[i as usize]).collect()
                } else {
                    order.iter().map(|&i| axis[i as usize]).collect()
                })
            }),
            ids,
        }
    }

    /// Borrowed view for kernels.
    pub fn view(&self) -> MembersViewN<'_, D> {
        MembersViewN {
            coords: std::array::from_fn(|k| self.coords[k].as_slice()),
            ids: &self.ids,
        }
    }
}

/// Borrowed view of a [`MemberStoreN`] (`Copy`, like the other device
/// constants). Every slice is padded: a full [`SCAN_LANES`]-wide chunk
/// starting at any member position lies in bounds. Kernels may also
/// build one over other padded arrays, such as shared-memory tiles.
#[derive(Debug, Clone, Copy)]
pub struct MembersViewN<'a, const D: usize> {
    pub coords: [&'a [f64]; D],
    pub ids: &'a [u32],
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
    fn members_follow_the_order_and_are_padded() {
        let pts: Vec<PointN<3>> = (0..20)
            .map(|i| PointN::from_coords([i as f64, -(i as f64), 0.5 * i as f64]))
            .collect();
        let store = PointStoreN::from_points(&pts);
        let order: Vec<u32> = (0..20).map(|i| (i * 7) % 20).collect();
        let members = MemberStoreN::gather(store.view(), &order);
        let v = members.view();
        assert_eq!(&v.ids[..20], &order[..]);
        for (j, &id) in order.iter().enumerate() {
            for k in 0..3 {
                assert_eq!(
                    v.coords[k][j].to_bits(),
                    pts[id as usize].coords[k].to_bits()
                );
            }
        }
        for k in 0..3 {
            assert_eq!(v.coords[k].len(), 20 + SCAN_LANES);
            assert!(v.coords[k][20..].iter().all(|x| x.is_nan()));
        }
        assert!(v.ids[20..].iter().all(|&id| id == u32::MAX));
        let empty = MemberStoreN::<2>::gather(PointStore::from_points(&[]).view(), &[]);
        assert_eq!(empty.view().ids.len(), SCAN_LANES);
    }

    #[test]
    fn parallel_gather_matches_serial() {
        let pts: Vec<Point2> = (0..PAR_MIN_POINTS + 7)
            .map(|i| Point2::new(i as f64 * 0.25, -(i as f64)))
            .collect();
        let store = PointStore::from_points(&pts);
        let order: Vec<u32> = (0..pts.len() as u32).rev().collect();
        let gather = |threads| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
                .install(|| MemberStoreN::gather(store.view(), &order))
        };
        let (par, serial) = (gather(2), gather(1));
        for k in 0..2 {
            let bits = |m: &MemberStoreN<2>| -> Vec<u64> {
                m.view().coords[k].iter().map(|x| x.to_bits()).collect()
            };
            assert_eq!(bits(&par), bits(&serial));
        }
        assert_eq!(par.view().ids, serial.view().ids);
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
