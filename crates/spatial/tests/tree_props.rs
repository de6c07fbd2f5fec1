//! Property tests of the packed kd-tree (and the ND grid) against the
//! brute-force oracle on adversarial *exact-lattice* inputs, in every
//! supported dimension.
//!
//! All coordinates and every ε are integer multiples of `Q = 1/128` (a
//! power of two), so sums, differences, and squares of lattice values are
//! exact in f64 and "distance exactly ε" is constructed, not accidental.
//! The families mirror the 2-D differential generators: all-identical,
//! collinear at exact-ε spacing, ε-boundary Pythagorean separations
//! ((3,4;5) in 2-D, (1,2,2;3) in 3-D, (1,2,2,4;5) in 4-D), and random
//! lattice clouds.

use proptest::prelude::*;
use proptest::TestCaseResult;
use spatial::distance::brute_force_neighbors;
use spatial::{GridIndexN, PackedKdTree, PointN, PointStoreN};

/// The lattice quantum; multiplication by `Q` is exact.
const Q: f64 = 1.0 / 128.0;

fn pt<const D: usize>(units: [i64; D]) -> PointN<D> {
    PointN::from_coords(std::array::from_fn(|k| units[k] as f64 * Q))
}

/// Assert the tree (at several leaf sizes, so internal traversal and the
/// leaf scan both get exercised) and the ND grid agree with brute force
/// for every query point of `data`.
fn check_exact<const D: usize>(data: &[PointN<D>], eps: f64) -> TestCaseResult {
    let store = PointStoreN::from_points(data);
    for leaf_size in [1usize, 4, 32] {
        let tree = PackedKdTree::<D>::build_with_leaf_size(store.view(), leaf_size);
        for (i, q) in data.iter().enumerate() {
            let got = tree.query_eps(store.view(), q, eps);
            let want = brute_force_neighbors(data, q, eps);
            prop_assert_eq!(
                &got,
                &want,
                "leaf_size {} point {} in {}-D",
                leaf_size,
                i,
                D
            );
        }
    }
    let grid = GridIndexN::<D>::build(data, eps);
    for (i, q) in data.iter().enumerate() {
        let mut got = Vec::new();
        grid.query_visit(data, q, |id| got.push(id));
        got.sort_unstable();
        let want = brute_force_neighbors(data, q, eps);
        prop_assert_eq!(&got, &want, "grid point {} in {}-D", i, D);
    }
    Ok(())
}

/// `n` copies of one lattice point: zero extent, every neighborhood is
/// the whole database.
fn all_identical<const D: usize>(units: [i64; D], n: usize) -> Vec<PointN<D>> {
    vec![pt(units); n]
}

/// A line along `axis`, spaced at exactly `spacing_units · Q`.
fn collinear<const D: usize>(axis: usize, n: usize, spacing_units: i64) -> Vec<PointN<D>> {
    (0..n)
        .map(|i| {
            let mut u = [7i64; D];
            u[axis] = i as i64 * spacing_units;
            pt(u)
        })
        .collect()
}

/// A cross of points at exact Pythagorean offsets from a center, so the
/// center's ε-ball boundary passes exactly through them. `legs` must
/// satisfy Σ legs[k]² = hyp² in integers.
fn pythagorean<const D: usize>(center: [i64; D], legs: [i64; D], scale: i64) -> Vec<PointN<D>> {
    let mut out = vec![pt(center)];
    // The exact-boundary point, plus sign flips of each leg.
    for signs in 0..(1u32 << D) {
        let mut u = center;
        for k in 0..D {
            let s = if signs & (1 << k) != 0 { -1 } else { 1 };
            u[k] += s * legs[k] * scale;
        }
        out.push(pt(u));
    }
    // Axis-aligned points at the hypotenuse distance (also exactly on the
    // boundary) and one lattice step inside/outside it.
    let hyp: i64 = (legs.iter().map(|&l| l * l).sum::<i64>() as f64).sqrt() as i64;
    debug_assert_eq!(hyp * hyp, legs.iter().map(|&l| l * l).sum::<i64>());
    for k in 0..D {
        for d in [-1i64, 0, 1] {
            let mut u = center;
            u[k] += hyp * scale + d;
            out.push(pt(u));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_identical_matches_brute_force(
        x in -500i64..500, y in -500i64..500, z in -500i64..500, w in -500i64..500,
        n in 1usize..40,
        e in 16i64..256,
    ) {
        let eps = e as f64 * Q;
        check_exact(&all_identical::<2>([x, y], n), eps)?;
        check_exact(&all_identical::<3>([x, y, z], n), eps)?;
        check_exact(&all_identical::<4>([x, y, z, w], n), eps)?;
    }

    #[test]
    fn collinear_exact_eps_chains_match_brute_force(
        axis in 0usize..4,
        n in 2usize..40,
        spacing_idx in 0usize..3,
    ) {
        // eps = 1.0 exactly; spacing ε/2, ε, or 2ε.
        let spacing = [64i64, 128, 256][spacing_idx];
        let eps = 128.0 * Q;
        check_exact(&collinear::<2>(axis % 2, n, spacing), eps)?;
        check_exact(&collinear::<3>(axis % 3, n, spacing), eps)?;
        check_exact(&collinear::<4>(axis, n, spacing), eps)?;
    }

    #[test]
    fn pythagorean_eps_boundaries_match_brute_force(
        cx in -200i64..200, cy in -200i64..200,
        cz in -200i64..200, cw in -200i64..200,
        scale in 1i64..20,
    ) {
        // 3² + 4² = 5²; 1² + 2² + 2² = 3²; 1² + 2² + 2² + 4² = 5².
        let d2 = pythagorean::<2>([cx, cy], [3, 4], scale);
        check_exact(&d2, 5.0 * scale as f64 * Q)?;
        let d3 = pythagorean::<3>([cx, cy, cz], [1, 2, 2], scale);
        check_exact(&d3, 3.0 * scale as f64 * Q)?;
        let d4 = pythagorean::<4>([cx, cy, cz, cw], [1, 2, 2, 4], scale);
        check_exact(&d4, 5.0 * scale as f64 * Q)?;
    }

    #[test]
    fn random_lattice_clouds_match_brute_force(
        units in prop::collection::vec((-400i64..400, -400i64..400, -400i64..400), 1..80),
        e in 16i64..512,
    ) {
        let eps = e as f64 * Q;
        let d2: Vec<PointN<2>> = units.iter().map(|&(x, y, _)| pt([x, y])).collect();
        check_exact(&d2, eps)?;
        let d3: Vec<PointN<3>> = units.iter().map(|&(x, y, z)| pt([x, y, z])).collect();
        check_exact(&d3, eps)?;
        // 4-D reuses coordinates (correlated axes are a fine lattice case).
        let d4: Vec<PointN<4>> = units.iter().map(|&(x, y, z)| pt([x, y, z, x - z])).collect();
        check_exact(&d4, eps)?;
    }
}
