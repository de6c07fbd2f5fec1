//! The grid index `(G, A)` of Section IV (Figure 1 of the paper), over
//! `D`-dimensional points.
//!
//! The data extent is covered by cells of ε side length, so the
//! ε-neighborhood of any point is fully contained in the point's own cell
//! plus its adjacent cells — the `3^D` ε-stencil (9 cells in 2-D). The
//! index is stored as two flat arrays, exactly as on the GPU:
//!
//! * `G` — one [`CellRange`] per cell `C_h`, holding the
//!   `[A_min_h, A_max_h]` range of that cell's points in `A`;
//! * `A` (here [`GridIndexN::lookup`]) — the lookup array of point ids,
//!   grouped by cell. Since every point lives in exactly one cell,
//!   `|A| = |D|` and no per-cell over-allocation is needed.
//!
//! Cell ids are mixed-radix `u64` keys with axis 0 fastest-varying —
//! row-major `h = cy·nx + cx` in 2-D.
//!
//! # Dense vs sparse `G`
//!
//! The natural dense layout (one `CellRange` per cell of the bounding
//! box) is `O(Π n_k)`: at small ε relative to the data extent (exactly
//! the SW-dataset regime of Table II) the cell count dwarfs `|D|` and the
//! array is almost entirely `EMPTY` — memory and cache misses for
//! nothing. The index therefore supports two layouts behind one query
//! interface ([`CellsView`]):
//!
//! * [`GridLayout::Dense`] — the flat array; O(1) cell resolution.
//! * [`GridLayout::Sparse`] — only the non-empty cells, as a sorted key
//!   array plus a parallel range array; cell ids resolve by binary
//!   search. Build memory is O(|D|), independent of the cell count.
//!
//! [`GridIndexN::build`] picks the layout automatically. In 2-D it is
//! dense iff the cell count is at most
//! `max(DENSE_CELLS_MIN, DENSE_CELLS_PER_POINT · |D|)` — the dense array
//! may cost at most a small constant factor of the point storage itself
//! (see the constants for the rationale). In d ≥ 3 the grid is always
//! sparse: the `Π n_k` box is hopeless for any ε small relative to the
//! extent, and the backend selector's calibration (DESIGN.md §16) is
//! against the sparse probes. Both layouts produce bitwise-identical `A`,
//! non-empty schedules, stats, and query answers; only the representation
//! of `G` differs.
//!
//! `D` is capped at [`MAX_GRID_DIM`]: the fixed stencil buffer holds
//! `3^4 = 81` keys, and beyond that the stencil blowup makes the grid
//! pointless anyway — which is why the tree backend wins in higher
//! dimensions (the stencil grows `3^D`, the kd-tree's candidate volume
//! `(2ε)^D`).

use crate::nd::AabbN;
use crate::point::PointN;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Below this many points the grid build's parallel paths (cell-id map,
/// sparse pair sort) cost more in pool dispatch than they save.
const PAR_MIN_POINTS: usize = 1 << 14;

/// Index range of one grid cell into the lookup array `A`.
///
/// The paper stores inclusive `[A_min, A_max]`; we store the conventional
/// half-open `[start, end)` (`end = A_max + 1`), which also represents empty
/// cells without a sentinel.
///
/// Invariant: `start <= end`, enforced (debug-asserted) at construction by
/// [`CellRange::new`]. [`CellRange::len`] is total: a malformed range (only
/// constructible by writing the public fields directly) reports length 0 in
/// release builds instead of wrapping to a near-`u32::MAX` length.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CellRange {
    pub start: u32,
    pub end: u32,
}

impl CellRange {
    pub const EMPTY: CellRange = CellRange { start: 0, end: 0 };

    /// Construct a range, enforcing `start <= end`.
    #[inline]
    pub fn new(start: u32, end: u32) -> Self {
        debug_assert!(
            end >= start,
            "malformed CellRange: end {end} < start {start}"
        );
        CellRange { start, end }
    }

    /// Number of points in the cell. Total: saturates to 0 on a malformed
    /// range (debug builds catch the malformation instead).
    #[inline]
    pub fn len(&self) -> usize {
        debug_assert!(
            self.end >= self.start,
            "malformed CellRange: end {} < start {}",
            self.end,
            self.start
        );
        self.end.saturating_sub(self.start) as usize
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }
}

/// Representation of the cell array `G`. See the module docs for the
/// trade-off; [`GridIndexN::build`] chooses automatically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GridLayout {
    /// One range per cell of the bounding box; O(1) cell resolution.
    Dense,
    /// Non-empty cells only (sorted keys + parallel ranges); O(log k)
    /// resolution, O(|D|) memory.
    Sparse,
}

/// Largest dense cell array built unconditionally. Below this, the dense
/// array is noise (32 KB of ranges) and O(1) resolution always wins.
pub const DENSE_CELLS_MIN: usize = 4096;

/// Dense is kept while the cell count is at most
/// `DENSE_CELLS_PER_POINT · |D|`: a `CellRange` is 8 bytes and a `Point2`
/// 16, so factor 4 bounds the dense `G` at 2× the memory of `D` itself.
/// Past that the array is mostly `EMPTY` padding and the index switches
/// to the sparse layout.
pub const DENSE_CELLS_PER_POINT: usize = 4;

/// Largest dense cell array at all: 2^28 ranges (~2 GB of `G`, the
/// practical ceiling on the simulated 5 GB device).
pub const DENSE_CELLS_MAX: usize = 1 << 28;

/// Largest supported dimensionality of the grid (stencil buffer bound).
pub const MAX_GRID_DIM: usize = 4;

/// Stencil buffer capacity: `3^MAX_GRID_DIM`.
pub const MAX_STENCIL: usize = 81;

/// A borrowed view of the cell array `G`, in either layout — what the
/// (simulated) GPU kernels traverse. `Copy`, so kernels capture it by
/// value like the other device constants.
#[derive(Debug, Clone, Copy)]
pub enum CellsView<'a> {
    /// `ranges[h]` is cell `h`.
    Dense(&'a [CellRange]),
    /// `keys` is the sorted list of non-empty cell ids; `ranges[i]`
    /// belongs to cell `keys[i]`. Absent ids are empty cells.
    Sparse {
        keys: &'a [u64],
        ranges: &'a [CellRange],
    },
}

impl CellsView<'_> {
    /// The `[start, end)` range of cell `h` (`EMPTY` for an absent sparse
    /// cell). Dense: O(1). Sparse: binary search over the non-empty keys.
    #[inline]
    pub fn range_of(&self, h: u64) -> CellRange {
        match self {
            CellsView::Dense(ranges) => ranges[h as usize],
            CellsView::Sparse { keys, ranges } => match keys.binary_search(&h) {
                Ok(i) => ranges[i],
                Err(_) => CellRange::EMPTY,
            },
        }
    }

    /// Modeled extra global-memory reads (of `u64` keys) a GPU kernel
    /// makes to *resolve* a cell id before reading its `CellRange`: 0 for
    /// the dense layout (direct index), `ceil(log2(k + 1))` binary-search
    /// probes for the sparse layout over `k` non-empty cells.
    #[inline]
    pub fn probe_reads(&self) -> u64 {
        match self {
            CellsView::Dense(_) => 0,
            CellsView::Sparse { keys, .. } => (usize::BITS - keys.len().leading_zeros()) as u64,
        }
    }

    /// Number of stored `CellRange` entries (every cell dense, k sparse)
    /// — the device-resident footprint of `G`, for memory accounting.
    #[inline]
    pub fn stored_ranges(&self) -> usize {
        match self {
            CellsView::Dense(ranges) => ranges.len(),
            CellsView::Sparse { ranges, .. } => ranges.len(),
        }
    }
}

/// Summary statistics of a built grid, reported by the experiment harness
/// and used to reason about kernel efficiency (Table II).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GridStats {
    /// Total number of cells `|G| = Π n_k`.
    pub total_cells: usize,
    /// Number of cells containing at least one point.
    pub non_empty_cells: usize,
    /// Largest cell population.
    pub max_points_per_cell: usize,
    /// Mean population over non-empty cells.
    pub avg_points_per_non_empty_cell: f64,
}

/// The geometric parameters of a grid — the "device constants" a GPU
/// kernel needs to map points to cells and enumerate adjacent cells,
/// independent of the `G`/`A` arrays. Copyable so it can be captured by
/// kernels directly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridGeometryN<const D: usize> {
    pub eps: f64,
    pub origin: [f64; D],
    /// Cells per axis.
    pub dims: [usize; D],
}

/// The 2-D grid geometry.
pub type GridGeometry = GridGeometryN<2>;

impl<const D: usize> GridGeometryN<D> {
    /// The ε-grid covering `data`, or why it cannot be built: `eps` not
    /// finite and positive, no points, or a cell space (`Π n_k`, one cell
    /// of slack past the max corner on every axis) beyond `u64` keys.
    pub fn covering(data: &[PointN<D>], eps: f64) -> Result<Self, String> {
        const {
            assert!(D >= 1 && D <= MAX_GRID_DIM, "grid dimension out of range");
        }
        if !(eps.is_finite() && eps > 0.0) {
            return Err(format!("eps must be finite and positive, got {eps}"));
        }
        if data.is_empty() {
            return Err("cannot index an empty database".into());
        }
        let bounds = AabbN::from_points(data.iter());
        let mut total = Some(1u64);
        let dims = std::array::from_fn(|k| {
            // One cell of slack on the max edge so points exactly on the
            // boundary fall inside the last cell without clamping
            // artifacts. `span < 2^64` is false for an infinite span.
            let span = (bounds.extent(k) / eps).floor();
            let n = (span < u64::MAX as f64).then(|| span as u64 + 1);
            total = total.zip(n).and_then(|(t, n)| t.checked_mul(n));
            n.unwrap_or(0) as usize
        });
        match total {
            Some(_) => Ok(GridGeometryN {
                eps,
                origin: bounds.min,
                dims,
            }),
            None => Err(format!(
                "the eps {eps} grid over this data extent has more cells than u64 keys hold"
            )),
        }
    }

    /// Whether `p` lies within the grid's cell coverage
    /// `[origin, origin + n·eps)` on every axis — the domain on which
    /// [`Self::cell_of`] is meaningful. Every point of the indexed
    /// database satisfies this by construction (the grid allocates one
    /// cell of slack past the data AABB's max corner).
    #[inline]
    pub fn covers(&self, p: &PointN<D>) -> bool {
        // Every comparison is false for NaN coordinates, so a NaN point
        // is (correctly) not covered.
        (0..D).all(|k| {
            let f = (p.coords[k] - self.origin[k]) / self.eps;
            f >= 0.0 && f < self.dims[k] as f64
        })
    }

    /// Cell key containing `p`, or `None` if `p` lies outside the grid's
    /// cell coverage. Use this for query points that are not drawn from
    /// the indexed database: an out-of-extent point has no cell, and
    /// clamping it to a border cell would silently return a
    /// wrong-but-plausible neighborhood.
    #[inline]
    pub fn try_cell_of(&self, p: &PointN<D>) -> Option<u64> {
        self.covers(p).then(|| self.cell_of(p))
    }

    /// Cell key containing `p`, which must lie within the grid's cell
    /// coverage (see [`Self::cell_coords_of`]).
    #[inline]
    pub fn cell_of(&self, p: &PointN<D>) -> u64 {
        self.key_of_coords(&self.cell_coords_of(p))
    }

    /// Per-axis cell coordinates of `p`.
    ///
    /// `p` must lie within the grid's cell coverage (debug-asserted). In
    /// release builds out-of-extent coordinates are clamped to the border
    /// cells — wrong-but-plausible — so callers with untrusted query
    /// points must use [`Self::try_cell_of`] instead.
    #[inline]
    pub fn cell_coords_of(&self, p: &PointN<D>) -> [usize; D] {
        debug_assert!(
            self.covers(p),
            "cell_of called with out-of-extent point {:?}; grid covers {:?} + {:?} cells \
             of {} — use try_cell_of for untrusted query points",
            p.coords,
            self.origin,
            self.dims,
            self.eps,
        );
        std::array::from_fn(|k| {
            (((p.coords[k] - self.origin[k]) / self.eps) as usize).min(self.dims[k] - 1)
        })
    }

    /// Mixed-radix cell key, axis 0 fastest:
    /// `h = c_0 + n_0·(c_1 + n_1·(c_2 + …))` — `cy·nx + cx` in 2-D.
    #[inline]
    pub fn key_of_coords(&self, c: &[usize; D]) -> u64 {
        let mut h = 0u64;
        for k in (0..D).rev() {
            h = h * self.dims[k] as u64 + c[k] as u64;
        }
        h
    }

    /// Per-axis cell coordinates of cell key `h`.
    #[inline]
    pub fn coords_of_key(&self, mut h: u64) -> [usize; D] {
        std::array::from_fn(|k| {
            let n = self.dims[k] as u64;
            let c = h % n;
            h /= n;
            c as usize
        })
    }

    /// Total cell count `Π n_k` (fits `u64` by construction).
    pub fn total_cells(&self) -> u64 {
        self.dims.iter().map(|&n| n as u64).product()
    }

    /// The `getNeighborCells` primitive of Algorithms 2 and 3: visit, in
    /// ascending order, the keys of the at-most-`3^D` cells (the cell
    /// itself plus adjacent cells) that can contain points within ε of
    /// points in the cell with coordinates `c` — no buffer in kernel inner
    /// loops.
    #[inline]
    pub fn for_each_stencil_cell(&self, c: &[usize; D], mut visit: impl FnMut(u64)) {
        let mut lo = [0usize; D];
        let mut hi = [0usize; D];
        for k in 0..D {
            lo[k] = c[k].saturating_sub(1);
            hi[k] = (c[k] + 1).min(self.dims[k] - 1);
        }
        // Odometer over the box [lo, hi], axis 0 fastest — the keys come
        // out ascending because the key radix matches the iteration order
        // on every axis.
        let mut cur = lo;
        loop {
            visit(self.key_of_coords(&cur));
            let mut k = 0;
            loop {
                if k == D {
                    return;
                }
                if cur[k] < hi[k] {
                    cur[k] += 1;
                    break;
                }
                cur[k] = lo[k];
                k += 1;
            }
        }
    }

    /// The ε-stencil of cell key `h` (see [`Self::for_each_stencil_cell`])
    /// as a fixed buffer with the first `count` entries valid.
    pub fn neighbor_cells(&self, h: u64) -> ([u64; MAX_STENCIL], usize) {
        let (mut out, mut n) = ([0u64; MAX_STENCIL], 0);
        self.for_each_stencil_cell(&self.coords_of_key(h), |key| {
            out[n] = key;
            n += 1;
        });
        (out, n)
    }
}

/// The grid index over a `D`-dimensional point database `D` for a fixed ε.
///
/// # Figure 1 of the paper, as code
///
/// `G` holds per-cell ranges, `A` holds point ids grouped by cell, and
/// point ids in `A` index back into `D`:
///
/// ```
/// use spatial::{GridIndex, Point2};
///
/// // Three points in cell (0,0), one in cell (1,0), eps = 1.
/// let d = vec![
///     Point2::new(0.1, 0.1), // id 0
///     Point2::new(1.5, 0.5), // id 1 — the lone point of cell (1,0)
///     Point2::new(0.9, 0.2), // id 2
///     Point2::new(0.5, 0.6), // id 3
/// ];
/// let g = GridIndex::build(&d, 1.0);
///
/// // Cell C_h of the first point: a contiguous [start, end) range into A…
/// let h = g.cell_of(&d[0]);
/// let range = g.range_of(h);
/// let members = &g.lookup()[range.start as usize..range.end as usize];
/// // …listing exactly the ids located in that cell (0, 2 and 3 here),
/// // even though those points are not contiguous in D.
/// let mut m = members.to_vec();
/// m.sort();
/// assert_eq!(m, vec![0, 2, 3]);
///
/// // |A| = |D|: every point appears in exactly one cell's range.
/// assert_eq!(g.lookup().len(), d.len());
/// ```
#[derive(Debug, Clone)]
pub struct GridIndexN<const D: usize> {
    geom: GridGeometryN<D>,
    layout: GridLayout,
    /// `G`: the dense layout stores one entry per cell, indexed by key;
    /// the sparse layout one entry per non-empty cell, parallel to
    /// `non_empty` (which doubles as the sorted key array).
    ranges: Vec<CellRange>,
    /// `A`: point ids grouped by cell; `|A| = |D|`.
    lookup: Vec<u32>,
    /// Keys of non-empty cells, ascending — the schedule `S` consumed by
    /// the GPUCalcShared kernel (one block per non-empty cell), and the
    /// key array of the sparse layout.
    non_empty: Vec<u64>,
    max_per_cell: usize,
}

/// The 2-D grid index.
pub type GridIndex = GridIndexN<2>;

impl<const D: usize> GridIndexN<D> {
    /// Build the index over `data` with cell width `eps`, choosing the
    /// `G` layout automatically (see the module docs for the rule).
    ///
    /// `eps` must be finite and positive, `data` non-empty, and the cell
    /// space must fit `u64` keys (see [`GridGeometryN::covering`]); use
    /// [`Self::try_build`] to get those failures as an error.
    pub fn build(data: &[PointN<D>], eps: f64) -> Self {
        Self::try_build(data, eps).unwrap_or_else(|why| panic!("{why}"))
    }

    /// [`Self::build`], reporting an unindexable input instead of
    /// panicking.
    pub fn try_build(data: &[PointN<D>], eps: f64) -> Result<Self, String> {
        let geom = GridGeometryN::covering(data, eps)?;
        let layout = Self::auto_layout(geom.total_cells(), data.len());
        Ok(Self::build_into(data, geom, layout))
    }

    /// Build with an explicit layout (the automatic rule is the right
    /// default; tests and benches use this to pin both paths on identical
    /// inputs).
    pub fn build_with_layout(data: &[PointN<D>], eps: f64, layout: GridLayout) -> Self {
        let geom = GridGeometryN::covering(data, eps).unwrap_or_else(|why| panic!("{why}"));
        Self::build_into(data, geom, layout)
    }

    /// The automatic layout rule (module docs): in 2-D dense while the
    /// cell array stays within a small factor of the point storage, in
    /// d ≥ 3 always sparse.
    fn auto_layout(n_cells: u64, n_points: usize) -> GridLayout {
        let budget = DENSE_CELLS_MIN
            .max(DENSE_CELLS_PER_POINT * n_points)
            .min(DENSE_CELLS_MAX);
        if D <= 2 && n_cells <= budget as u64 {
            GridLayout::Dense
        } else {
            GridLayout::Sparse
        }
    }

    fn build_into(data: &[PointN<D>], geom: GridGeometryN<D>, layout: GridLayout) -> Self {
        let mut index = GridIndexN {
            geom,
            layout,
            ranges: Vec::new(),
            lookup: vec![0; data.len()],
            non_empty: Vec::new(),
            max_per_cell: 0,
        };
        // Cell-id resolution (a division and a bounds check per axis and
        // point) dominates both builds; it is a pure per-point map, so
        // the index-addressed parallel collect matches the serial map
        // byte for byte. The histogram/scatter passes that follow are
        // cheap sequential memory traffic over the precomputed ids.
        let cells: Vec<u64> = if data.len() >= PAR_MIN_POINTS && rayon::current_num_threads() > 1 {
            data.par_iter().map(|p| geom.cell_of(p)).collect()
        } else {
            data.iter().map(|p| geom.cell_of(p)).collect()
        };
        match layout {
            GridLayout::Dense => index.build_dense(&cells),
            GridLayout::Sparse => index.build_sparse(&cells),
        }
        index
    }

    /// Dense construction: a two-pass counting sort, `O(|D| + Π n_k)`
    /// time and memory. Within each cell, `A` keeps ids in ascending
    /// (data) order — the batching scheme's strided sampling relies on it.
    fn build_dense(&mut self, cells: &[u64]) {
        let n_cells = self.geom.total_cells();
        assert!(
            n_cells <= DENSE_CELLS_MAX as u64,
            "a dense grid of {n_cells} cells exceeds the 2^28-cell limit"
        );
        self.ranges = vec![CellRange::EMPTY; n_cells as usize];

        // Pass 1: histogram cell populations.
        let mut counts = vec![0u32; n_cells as usize];
        for &h in cells {
            counts[h as usize] += 1;
        }

        // Exclusive prefix sum -> per-cell start offsets, and cell ranges.
        let mut offset = 0u32;
        for (h, &c) in counts.iter().enumerate() {
            if c > 0 {
                self.ranges[h] = CellRange::new(offset, offset + c);
                self.non_empty.push(h as u64);
                self.max_per_cell = self.max_per_cell.max(c as usize);
            }
            offset += c;
        }

        // Pass 2: scatter point ids into A. Using a cursor per cell keeps
        // ids in ascending order within each cell (data order).
        let mut cursor: Vec<u32> = self.ranges.iter().map(|r| r.start).collect();
        for (i, &h) in cells.iter().enumerate() {
            self.lookup[cursor[h as usize] as usize] = i as u32;
            cursor[h as usize] += 1;
        }
    }

    /// Sparse construction: sort `(cell, id)` pairs, `O(|D| log |D|)` time
    /// and O(|D|) memory — never touches the cell count. The sort key
    /// makes `A` identical to the dense build's: cells ascending, ids in
    /// data order within each cell.
    fn build_sparse(&mut self, cells: &[u64]) {
        let mut order: Vec<(u64, u32)> = cells
            .iter()
            .enumerate()
            .map(|(i, &h)| (h, i as u32))
            .collect();
        // (cell, id) pairs are pairwise distinct (ids are unique), so the
        // sorted order is unique: the parallel unstable sort matches the
        // serial one exactly.
        if order.len() >= PAR_MIN_POINTS && rayon::current_num_threads() > 1 {
            order.par_sort_unstable();
        } else {
            order.sort_unstable();
        }

        let mut run_start = 0u32;
        for (k, &(h, id)) in order.iter().enumerate() {
            self.lookup[k] = id;
            let next_differs = order.get(k + 1).is_none_or(|&(h2, _)| h2 != h);
            if next_differs {
                let end = k as u32 + 1;
                self.non_empty.push(h);
                self.ranges.push(CellRange::new(run_start, end));
                self.max_per_cell = self.max_per_cell.max((end - run_start) as usize);
                run_start = end;
            }
        }
    }

    /// Cell width ε the grid was built for.
    pub fn eps(&self) -> f64 {
        self.geom.eps
    }

    /// Cells per axis (`[nx, ny]` in 2-D).
    pub fn dims(&self) -> [usize; D] {
        self.geom.dims
    }

    /// The copyable geometric parameters (for GPU kernels).
    pub fn geometry(&self) -> GridGeometryN<D> {
        self.geom
    }

    /// The layout actually built (see [`Self::build`] for the rule, or
    /// whatever [`Self::build_with_layout`] forced).
    pub fn layout(&self) -> GridLayout {
        self.layout
    }

    /// The cell array `G`, as a layout-agnostic borrowed view — the form
    /// the kernels consume.
    pub fn cells_view(&self) -> CellsView<'_> {
        match self.layout {
            GridLayout::Dense => CellsView::Dense(&self.ranges),
            GridLayout::Sparse => CellsView::Sparse {
                keys: &self.non_empty,
                ranges: &self.ranges,
            },
        }
    }

    /// The `[start, end)` range of cell `h` into [`Self::lookup`]
    /// (`EMPTY` if the cell holds no points). O(1) dense, O(log k) sparse.
    #[inline]
    pub fn range_of(&self, h: u64) -> CellRange {
        self.cells_view().range_of(h)
    }

    /// The lookup array `A` of point ids grouped by cell.
    pub fn lookup(&self) -> &[u32] {
        &self.lookup
    }

    /// Keys of non-empty cells — the schedule `S` for GPUCalcShared.
    pub fn non_empty_cells(&self) -> &[u64] {
        &self.non_empty
    }

    /// Largest cell population.
    pub fn max_points_per_cell(&self) -> usize {
        self.max_per_cell
    }

    /// Cell key containing point `p`, which must lie within the indexed
    /// extent (debug-asserted; see [`GridGeometryN::cell_coords_of`]).
    /// For query points not drawn from `D`, use [`Self::try_cell_of`].
    #[inline]
    pub fn cell_of(&self, p: &PointN<D>) -> u64 {
        self.geom.cell_of(p)
    }

    /// Cell key containing `p`, or `None` if `p` lies outside the grid's
    /// cell coverage (the safe variant for untrusted query points).
    #[inline]
    pub fn try_cell_of(&self, p: &PointN<D>) -> Option<u64> {
        self.geom.try_cell_of(p)
    }

    /// The ε-stencil of cell `h` (see [`GridGeometryN::neighbor_cells`]).
    #[inline]
    pub fn neighbor_cells(&self, h: u64) -> ([u64; MAX_STENCIL], usize) {
        self.geom.neighbor_cells(h)
    }

    /// ε-neighborhood query through the grid: ids of every point of `data`
    /// within the closed ε-ball around `q`. `data` must be the array the
    /// index was built from. Results are in cell-scan order (not sorted).
    pub fn query(&self, data: &[PointN<D>], q: &PointN<D>) -> Vec<u32> {
        let mut out = Vec::new();
        self.query_visit(data, q, |id| out.push(id));
        out
    }

    /// Visitor-based ε-neighborhood query (no allocation).
    #[inline]
    pub fn query_visit(&self, data: &[PointN<D>], q: &PointN<D>, mut visit: impl FnMut(u32)) {
        let eps_sq = self.geom.eps * self.geom.eps;
        let view = self.cells_view();
        let c = self.geom.cell_coords_of(q);
        self.geom.for_each_stencil_cell(&c, |h| {
            let range = view.range_of(h);
            for &id in &self.lookup[range.start as usize..range.end as usize] {
                if data[id as usize].distance_sq(q) <= eps_sq {
                    visit(id);
                }
            }
        });
    }

    /// Count of points within the closed ε-ball around `q`.
    pub fn query_count(&self, data: &[PointN<D>], q: &PointN<D>) -> usize {
        let mut n = 0;
        self.query_visit(data, q, |_| n += 1);
        n
    }

    /// Summary statistics for reporting.
    pub fn stats(&self) -> GridStats {
        let non_empty = self.non_empty.len();
        GridStats {
            total_cells: self.geom.total_cells() as usize,
            non_empty_cells: non_empty,
            max_points_per_cell: self.max_per_cell,
            avg_points_per_non_empty_cell: if non_empty == 0 {
                0.0
            } else {
                self.lookup.len() as f64 / non_empty as f64
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::brute_force_neighbors;
    use crate::point::Point2;

    fn sorted(mut v: Vec<u32>) -> Vec<u32> {
        v.sort_unstable();
        v
    }

    fn demo_points() -> Vec<Point2> {
        vec![
            Point2::new(0.1, 0.1),
            Point2::new(0.2, 0.15),
            Point2::new(0.9, 0.9),
            Point2::new(2.5, 2.5),
            Point2::new(2.6, 2.4),
            Point2::new(5.0, 0.0),
        ]
    }

    #[test]
    fn lookup_is_a_permutation_of_ids() {
        let data = demo_points();
        for layout in [GridLayout::Dense, GridLayout::Sparse] {
            let g = GridIndex::build_with_layout(&data, 0.5, layout);
            let mut ids = g.lookup().to_vec();
            ids.sort_unstable();
            assert_eq!(ids, (0..data.len() as u32).collect::<Vec<_>>());
        }
    }

    #[test]
    fn cell_ranges_partition_lookup() {
        let data = demo_points();
        for layout in [GridLayout::Dense, GridLayout::Sparse] {
            let g = GridIndex::build_with_layout(&data, 0.5, layout);
            // Ranges of non-empty cells are disjoint, ordered, and cover A.
            let mut prev_end = 0;
            for &h in g.non_empty_cells() {
                let r = g.range_of(h);
                assert_eq!(r.start, prev_end, "ranges must be contiguous in cell order");
                assert!(r.end > r.start);
                prev_end = r.end;
            }
            assert_eq!(prev_end as usize, data.len());
        }
    }

    #[test]
    fn every_point_is_in_its_own_cell_range() {
        let data = demo_points();
        for layout in [GridLayout::Dense, GridLayout::Sparse] {
            let g = GridIndex::build_with_layout(&data, 0.5, layout);
            for (i, p) in data.iter().enumerate() {
                let r = g.range_of(g.cell_of(p));
                let members = &g.lookup()[r.start as usize..r.end as usize];
                assert!(
                    members.contains(&(i as u32)),
                    "point {i} missing from its cell ({layout:?})"
                );
            }
        }
    }

    #[test]
    fn query_matches_brute_force() {
        let data = demo_points();
        for eps in [0.2, 0.5, 1.0, 3.0] {
            for layout in [GridLayout::Dense, GridLayout::Sparse] {
                let g = GridIndex::build_with_layout(&data, eps, layout);
                for q in &data {
                    assert_eq!(
                        sorted(g.query(&data, q)),
                        brute_force_neighbors(&data, q, eps),
                        "eps = {eps}, q = {q:?}, layout = {layout:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn sparse_build_is_observably_identical_to_dense() {
        // Same A, same schedule, same stats, same per-cell ranges — only
        // the G representation differs, at every dimension. (The
        // cross-crate property test in hybrid-dbscan-core runs this over
        // the adversarial generator families; this is the unit-sized
        // anchor.)
        fn check<const D: usize>(data: &[PointN<D>], eps: f64) {
            let d = GridIndexN::build_with_layout(data, eps, GridLayout::Dense);
            let s = GridIndexN::build_with_layout(data, eps, GridLayout::Sparse);
            assert_eq!(d.lookup(), s.lookup(), "eps = {eps}");
            assert_eq!(d.non_empty_cells(), s.non_empty_cells());
            assert_eq!(d.stats(), s.stats());
            assert_eq!(d.geometry(), s.geometry());
            for h in 0..d.geometry().total_cells() {
                assert_eq!(d.range_of(h), s.range_of(h), "cell {h}, eps = {eps}");
            }
        }
        for eps in [0.2, 0.5, 1.0, 3.0] {
            check(&demo_points(), eps);
        }
        check(&pseudo_points::<3>(200, 4.0), 0.6);
        check(&pseudo_points::<4>(150, 3.0), 0.9);
    }

    #[test]
    fn layout_auto_selection_follows_threshold() {
        // Few points spread far apart at tiny eps: nx*ny explodes past
        // the dense budget and the sparse layout must be chosen.
        let data = vec![
            Point2::new(0.0, 0.0),
            Point2::new(1000.0, 1000.0),
            Point2::new(500.0, 250.0),
        ];
        let sparse = GridIndex::build(&data, 0.125);
        assert_eq!(sparse.layout(), GridLayout::Sparse);
        assert!(
            sparse.stats().total_cells > DENSE_CELLS_MIN.max(DENSE_CELLS_PER_POINT * data.len())
        );
        // The same points at a large eps stay dense — in 2-D; d >= 3
        // grids are always sparse.
        let dense = GridIndex::build(&data, 500.0);
        assert_eq!(dense.layout(), GridLayout::Dense);
        let lifted: Vec<PointN<3>> = data
            .iter()
            .map(|p| PointN::from_coords([p.x(), p.y(), 0.0]))
            .collect();
        assert_eq!(
            GridIndexN::build(&lifted, 500.0).layout(),
            GridLayout::Sparse
        );
        // Both answer queries identically to brute force.
        for q in &data {
            assert_eq!(
                sorted(sparse.query(&data, q)),
                sorted(dense.query(&data, q))
            );
        }
    }

    #[test]
    fn sparse_memory_is_independent_of_cell_count() {
        // The sparse G stores one range per non-empty cell even when the
        // grid has millions of cells.
        let data = vec![Point2::new(0.0, 0.0), Point2::new(4000.0, 4000.0)];
        let g = GridIndex::build(&data, 0.5); // ~64M cells
        assert_eq!(g.layout(), GridLayout::Sparse);
        assert_eq!(g.cells_view().stored_ranges(), 2);
        assert!(g.stats().total_cells > 60_000_000);
    }

    #[test]
    fn cells_view_probe_reads_model() {
        let dense = CellsView::Dense(&[]);
        assert_eq!(dense.probe_reads(), 0);
        let keys: Vec<u64> = (0..1000).collect();
        let ranges = vec![CellRange::EMPTY; 1000];
        let sparse = CellsView::Sparse {
            keys: &keys,
            ranges: &ranges,
        };
        assert_eq!(sparse.probe_reads(), 10); // ceil(log2(1001))
    }

    #[test]
    fn neighbor_cells_interior_is_nine() {
        // 5x5 grid: put points at the corners of a 4eps x 4eps extent.
        let data = vec![
            Point2::new(0.0, 0.0),
            Point2::new(4.0, 4.0),
            Point2::new(2.0, 2.0),
        ];
        let g = GridIndex::build(&data, 1.0);
        assert_eq!(g.dims(), [5, 5]);
        let center = g.cell_of(&Point2::new(2.0, 2.0));
        let (_, n) = g.neighbor_cells(center);
        assert_eq!(n, 9);
        // Corner cell has only 4 neighbors (itself + 3).
        let corner = g.cell_of(&Point2::new(0.0, 0.0));
        let (_, n) = g.neighbor_cells(corner);
        assert_eq!(n, 4);
    }

    #[test]
    fn neighbor_cells_cover_eps_ball() {
        // Any two points within eps must be in mutually-neighboring cells.
        let data = vec![
            Point2::new(0.95, 0.95),
            Point2::new(1.05, 1.05), // across a cell boundary, within eps
            Point2::new(3.0, 3.0),
        ];
        let g = GridIndex::build(&data, 1.0);
        let q = g.query(&data, &data[0]);
        assert!(q.contains(&1), "cross-boundary neighbor must be found");
    }

    #[test]
    fn single_point_database() {
        let data = vec![Point2::new(7.0, -3.0)];
        let g = GridIndex::build(&data, 0.25);
        assert_eq!(g.dims(), [1, 1]);
        assert_eq!(g.query(&data, &data[0]), vec![0]);
        assert_eq!(g.stats().non_empty_cells, 1);
    }

    #[test]
    fn boundary_point_on_max_edge() {
        let data = vec![Point2::new(0.0, 0.0), Point2::new(1.0, 1.0)];
        let g = GridIndex::build(&data, 0.5);
        // The max-corner point must land in a valid cell and be queryable.
        assert_eq!(g.query_count(&data, &data[1]), 1);
    }

    #[test]
    fn stats_reflect_population() {
        let data = demo_points();
        for layout in [GridLayout::Dense, GridLayout::Sparse] {
            let g = GridIndex::build_with_layout(&data, 0.5, layout);
            let s = g.stats();
            assert_eq!(s.non_empty_cells, g.non_empty_cells().len());
            assert!(
                s.max_points_per_cell >= 2,
                "two points share the (0,0) cell"
            );
            assert!(s.avg_points_per_non_empty_cell >= 1.0);
            assert_eq!(s.total_cells, g.dims().iter().product::<usize>());
        }
    }

    #[test]
    #[should_panic]
    fn empty_database_panics() {
        let _ = GridIndex::build(&[], 1.0);
    }

    #[test]
    fn try_cell_of_rejects_out_of_extent_points() {
        let data = demo_points(); // extent [0.1, 5.0] x [0.1, 2.5]
        let g = GridIndex::build(&data, 0.5);
        // Inside: agrees with cell_of for every indexed point.
        for p in &data {
            assert_eq!(g.try_cell_of(p), Some(g.cell_of(p)));
        }
        // Outside on each side (and far outside): caught, not mis-binned.
        for q in [
            Point2::new(-1.0, 1.0),
            Point2::new(1.0, -1.0),
            Point2::new(100.0, 1.0),
            Point2::new(1.0, 100.0),
            Point2::new(f64::NAN, 1.0),
        ] {
            assert_eq!(g.try_cell_of(&q), None, "query {q:?} must be rejected");
        }
        // A point in the slack cell past the data max corner is still
        // covered (the grid allocates one cell of slack by construction).
        let geom = g.geometry();
        let slack = Point2::new(
            geom.origin[0] + (geom.dims[0] as f64 - 0.5) * geom.eps,
            geom.origin[1] + (geom.dims[1] as f64 - 0.5) * geom.eps,
        );
        assert!(g.try_cell_of(&slack).is_some());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "out-of-extent")]
    fn cell_of_catches_out_of_extent_query_in_debug() {
        // The silent-clamp bug: an out-of-extent query used to be clamped
        // into a border cell and answered with a wrong-but-plausible
        // neighborhood. It must now be caught.
        let data = demo_points();
        let g = GridIndex::build(&data, 0.5);
        let _ = g.cell_of(&Point2::new(-50.0, -50.0));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "malformed CellRange")]
    fn malformed_cell_range_len_is_caught_in_debug() {
        let r = CellRange { start: 5, end: 3 };
        let _ = r.len();
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "malformed CellRange")]
    fn malformed_cell_range_construction_is_caught_in_debug() {
        let _ = CellRange::new(5, 3);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn malformed_cell_range_len_saturates_in_release() {
        // The release-mode hazard this guards: `wrapping_sub` would report
        // a length near u32::MAX and a slice of A by [start, start + len)
        // would run far out of bounds. Saturating keeps `len` total.
        let r = CellRange { start: 5, end: 3 };
        assert_eq!(r.len(), 0);
        assert!(r.is_empty());
    }

    fn pseudo_points<const D: usize>(n: usize, extent: f64) -> Vec<PointN<D>> {
        (0..n)
            .map(|i| {
                let t = i as f64;
                PointN::from_coords(std::array::from_fn(|k| {
                    (t * (0.377 + 0.211 * k as f64)).fract() * extent
                }))
            })
            .collect()
    }

    fn query_sorted<const D: usize>(
        g: &GridIndexN<D>,
        data: &[PointN<D>],
        q: &PointN<D>,
    ) -> Vec<u32> {
        let mut out = Vec::new();
        g.query_visit(data, q, |id| out.push(id));
        out.sort_unstable();
        out
    }

    #[test]
    fn queries_match_brute_force_2d_3d_4d() {
        let eps = 0.7;
        let p2 = pseudo_points::<2>(300, 6.0);
        let g2 = GridIndexN::build(&p2, eps);
        for q in &p2 {
            assert_eq!(
                query_sorted(&g2, &p2, q),
                brute_force_neighbors(&p2, q, eps)
            );
        }
        let p3 = pseudo_points::<3>(250, 4.0);
        let g3 = GridIndexN::build(&p3, eps);
        for q in &p3 {
            assert_eq!(
                query_sorted(&g3, &p3, q),
                brute_force_neighbors(&p3, q, eps)
            );
        }
        let p4 = pseudo_points::<4>(200, 3.0);
        let g4 = GridIndexN::build(&p4, eps);
        for q in &p4 {
            assert_eq!(
                query_sorted(&g4, &p4, q),
                brute_force_neighbors(&p4, q, eps)
            );
        }
    }

    #[test]
    fn keys_are_row_major_in_2d() {
        // At D = 2 the mixed-radix key is the paper's row-major
        // h = cy·nx + cx.
        let pts = vec![
            Point2::new(0.1, 0.1),
            Point2::new(2.6, 0.4),
            Point2::new(1.4, 2.2),
            Point2::new(2.9, 2.9),
        ];
        let g = GridIndex::build(&pts, 1.0);
        let [nx, _] = g.dims();
        for p in &pts {
            let (cx, cy) = (p.x().floor() as u64, p.y().floor() as u64);
            assert_eq!(g.cell_of(p), cy * nx as u64 + cx);
            assert_eq!(
                g.geometry().coords_of_key(g.cell_of(p)),
                [cx as usize, cy as usize]
            );
        }
    }

    #[test]
    fn stencil_is_ascending_and_bounded() {
        let pts = pseudo_points::<3>(100, 5.0);
        let g = GridIndexN::build(&pts, 1.0);
        for p in &pts {
            let c = g.geometry().cell_coords_of(p);
            let (stencil, n) = g.neighbor_cells(g.geometry().key_of_coords(&c));
            assert!(n <= 27);
            assert!(stencil[..n].windows(2).all(|w| w[0] < w[1]));
        }
        // An interior cell of a 3-D grid has the full 27-cell stencil.
        let interior = [1usize, 1, 1];
        let dims_ok = g.geometry().dims.iter().all(|&d| d >= 3);
        if dims_ok {
            let (_, n) = g.neighbor_cells(g.geometry().key_of_coords(&interior));
            assert_eq!(n, 27);
        }
    }

    #[test]
    fn lookup_is_a_permutation() {
        let pts = pseudo_points::<4>(300, 4.0);
        let g = GridIndexN::build(&pts, 0.9);
        let mut ids = g.lookup().to_vec();
        ids.sort_unstable();
        assert_eq!(ids, (0..300u32).collect::<Vec<_>>());
        assert!(!g.non_empty_cells().is_empty());
        assert!(g.max_points_per_cell() >= 1);
    }

    #[test]
    fn boundary_points_fall_inside() {
        // Points exactly on the AABB max corner land in the slack cell.
        let pts = vec![
            PointN::from_coords([0.0, 0.0, 0.0]),
            PointN::from_coords([2.0, 2.0, 2.0]),
        ];
        let g = GridIndexN::build(&pts, 1.0);
        assert!(g.geometry().covers(&pts[1]));
        assert_eq!(query_sorted(&g, &pts, &pts[1]), vec![1]);
    }

    #[test]
    fn cell_space_beyond_u64_keys_is_an_error() {
        // Huge but representable: ~10^18 cells, a sparse grid over 3 points.
        let ok = [Point2::new(0.0, 0.0), Point2::new(1e6, 1e6)];
        let g = GridIndex::try_build(&ok, 1e-3).unwrap();
        assert_eq!(g.layout(), GridLayout::Sparse);
        assert_eq!(g.query(&ok, &ok[1]), vec![1]);
        // Past u64 keys, or an infinite extent/eps ratio: refused, never
        // wrapped into a wrong grid.
        let far3 = [PointN::from_coords([0.0; 3]), PointN::from_coords([1e7; 3])];
        assert!(GridIndexN::try_build(&far3, 1e-3).is_err());
        let far2 = [Point2::new(0.0, 0.0), Point2::new(1e300, 1e300)];
        let why = GridIndex::try_build(&far2, 1e-10).unwrap_err();
        assert!(why.contains("u64"), "{why}");
        assert!(GridIndex::try_build(&far2, f64::NAN).is_err());
        assert!(GridIndex::try_build(&[], 1.0).is_err());
    }
}
