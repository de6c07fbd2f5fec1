//! Sparse ≡ dense grid-layout equivalence over the adversarial families.
//!
//! The sparse compacted grid (PR 5) must be *observably identical* to the
//! dense layout on every input the differential harness can produce:
//! same non-empty cell set, same lookup order, same [`GridStats`], same
//! per-cell ranges, same neighbor-cell enumeration. The spatial crate
//! already property-tests this on generic point clouds; this module runs
//! it over the lattice generator families — whose exact-ε boundary
//! straddlers, duplicate bursts, and extreme-ε grids are engineered at
//! the cell-assignment edge cases — over the tiny-ε regime where
//! `nx · ny ≫ |D|` makes the dense layout pathological, and (from
//! [`super::nd`]) over the 3-D and 4-D families, since both layouts exist
//! at every dimension.

use super::generators::{self, Q};
use proptest::TestRng;
use spatial::{GridIndex, GridIndexN, GridLayout, PointN};

/// Assert the two layouts are observably identical on one input.
pub(crate) fn assert_layout_equivalence<const D: usize>(data: &[PointN<D>], eps: f64, ctx: &str) {
    let dense = GridIndexN::build_with_layout(data, eps, GridLayout::Dense);
    let sparse = GridIndexN::build_with_layout(data, eps, GridLayout::Sparse);

    assert_eq!(dense.lookup(), sparse.lookup(), "{ctx}: lookup order");
    assert_eq!(
        dense.non_empty_cells(),
        sparse.non_empty_cells(),
        "{ctx}: non-empty cell set"
    );
    assert_eq!(dense.stats(), sparse.stats(), "{ctx}: GridStats");
    assert_eq!(
        dense.max_points_per_cell(),
        sparse.max_points_per_cell(),
        "{ctx}: max per cell"
    );

    // Per-cell ranges: exhaustive when the grid is small; for huge grids
    // (the tiny-ε regime this layout exists for) check every non-empty
    // cell, its full neighbor stencil (what the kernels actually load),
    // and a deterministic stride sample of the empty remainder.
    let n_cells = dense.geometry().total_cells();
    if n_cells <= 1 << 16 {
        for h in 0..n_cells {
            assert_eq!(dense.range_of(h), sparse.range_of(h), "{ctx}: cell {h}");
        }
    } else {
        for &h in dense.non_empty_cells() {
            assert_eq!(dense.range_of(h), sparse.range_of(h), "{ctx}: cell {h}");
            let (d_adj, d_n) = dense.neighbor_cells(h);
            let (s_adj, s_n) = sparse.neighbor_cells(h);
            assert_eq!((d_adj, d_n), (s_adj, s_n), "{ctx}: stencil of {h}");
            for &a in &d_adj[..d_n] {
                assert_eq!(
                    dense.range_of(a),
                    sparse.range_of(a),
                    "{ctx}: neighbor cell {a}"
                );
            }
        }
        for h in (0..n_cells).step_by((n_cells / 4096).max(1) as usize) {
            assert_eq!(dense.range_of(h), sparse.range_of(h), "{ctx}: sampled {h}");
        }
    }
}

/// Every generator family under fixed seeds, both layouts compared on
/// the exact inputs the clusterer differential runs on.
#[test]
fn sparse_equals_dense_on_all_families() {
    for family in generators::FAMILIES {
        for seed in [1u64, 7, 1234] {
            let mut rng = TestRng::new(seed);
            let case = (family.generate)(&mut rng);
            let ctx = format!("{} (seed {seed})", case.family);
            assert_layout_equivalence(&case.data, case.eps, &ctx);
        }
    }
}

/// The regime the sparse layout exists for: ε at the lattice quantum over
/// a wide extent, so `nx · ny ≫ |D|`. The auto threshold must pick the
/// sparse layout, its storage must track |D| rather than the cell count,
/// and it must still agree with the dense build cell-for-cell.
#[test]
fn tiny_eps_huge_grid_is_sparse_and_equivalent() {
    // 256 points on a coarse lattice spanning [0, 24]²; ε = 1/128 gives
    // nx = ny = 24/Q + 1 = 3073, i.e. ~9.4M cells for 256 points.
    let data: Vec<spatial::Point2> = (0..256)
        .map(|i| {
            let x = (i % 16) as f64 * 1.5 + ((i * 7) % 13) as f64 * Q;
            let y = (i / 16) as f64 * 1.5 + ((i * 11) % 13) as f64 * Q;
            spatial::Point2::new(x, y)
        })
        .collect();
    let eps = Q;

    let auto = GridIndex::build(&data, eps);
    let stats = auto.stats();
    assert!(
        stats.total_cells > 100 * data.len(),
        "test premise: nx*ny = {} must dwarf |D| = {}",
        stats.total_cells,
        data.len()
    );
    assert_eq!(auto.layout(), GridLayout::Sparse, "auto threshold");
    assert!(
        auto.cells_view().stored_ranges() <= data.len(),
        "sparse storage must track |D|, got {} ranges",
        auto.cells_view().stored_ranges()
    );

    assert_layout_equivalence(&data, eps, "tiny-eps");
}
