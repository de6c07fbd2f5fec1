//! The d > 2 differential tier: tree backend vs grid backend vs the
//! brute-force oracle in 3-D and 4-D.
//!
//! `build_table_nd` promises the same cross-backend contract as the 2-D
//! hybrid: bitwise-identical neighbor tables and clusterings from the
//! grid and tree ε-search backends, with `Auto` resolving to one of them
//! and matching it exactly. This module holds that promise against the
//! same adversarial style as the 2-D families — exact-lattice inputs
//! (coordinates and ε multiples of `Q = 1/128`), exponentially skewed
//! clumps, exact-ε Pythagorean boundaries ((1,2,2;3) in 3-D,
//! (1,2,2,4;5) in 4-D), duplicates, and degenerate all-identical sets —
//! and validates every table neighborhood point-for-point against
//! `brute_force_neighbors`. Failures are delta-debugged to a minimal
//! point set with a dimension-generic `ddmin` before being reported.

use crate::generators::Q;
use gpu_sim::Device;
use hybrid_dbscan_core::backend::IndexBackend;
use hybrid_dbscan_core::batch::BatchConfig;
use hybrid_dbscan_core::hybrid::{HybridConfig, HybridDbscan, KernelChoice};
use hybrid_dbscan_core::nd::{build_table_nd, cluster_table_nd, NdTableHandle};
use hybrid_dbscan_core::shard::{clustering_fingerprint, table_fingerprint};
use proptest::TestRng;
use spatial::distance::brute_force_neighbors;
use spatial::PointN;

/// One ND differential input.
#[derive(Debug, Clone)]
struct CaseNd<const D: usize> {
    family: &'static str,
    data: Vec<PointN<D>>,
    eps: f64,
    minpts: usize,
}

fn below(rng: &mut TestRng, n: u64) -> u64 {
    ((rng.next_u64() as u128 * n as u128) >> 64) as u64
}

fn range(rng: &mut TestRng, lo: i64, hi: i64) -> i64 {
    lo + below(rng, (hi - lo) as u64) as i64
}

/// A lattice point from integer units.
fn pt<const D: usize>(units: [i64; D]) -> PointN<D> {
    PointN::from_coords(std::array::from_fn(|k| units[k] as f64 * Q))
}

fn build<const D: usize>(
    data: &[PointN<D>],
    eps: f64,
    backend: IndexBackend,
    cfg: &BatchConfig,
) -> NdTableHandle {
    let device = Device::k20c();
    build_table_nd(&device, data, eps, backend, cfg, 256)
        .unwrap_or_else(|e| panic!("build_table_nd failed: {e:?}"))
}

/// A batch config small enough that every non-trivial case runs the
/// multi-batch path.
fn tiny_batches() -> BatchConfig {
    BatchConfig {
        static_threshold: 0,
        static_buffer_items: 64,
        n_streams: 3,
        ..BatchConfig::default()
    }
}

/// The full cross-backend + oracle check for one ND case:
///
/// 1. every grid-table neighborhood equals `brute_force_neighbors`
///    point-for-point (ids mapped through the spatial-sort permutation);
/// 2. the tree backend's table is bitwise identical to the grid's, at the
///    default batch plan *and* under forced multi-batching;
/// 3. `Auto` resolves and matches both exactly, and so does the
///    block-per-cell GPUCalcShared kernel;
/// 4. the clusterings (in original point order) are identical across all
///    of them.
fn check_case_nd<const D: usize>(case: &CaseNd<D>) -> Result<(), String> {
    let CaseNd {
        data, eps, minpts, ..
    } = case;
    let (eps, minpts) = (*eps, *minpts);
    let cfg = BatchConfig::default();

    let grid = build(data, eps, IndexBackend::Grid, &cfg);

    // Oracle first, so an index/kernel bug is reported at that layer.
    let sorted: Vec<PointN<D>> = grid.perm.iter().map(|&i| data[i as usize]).collect();
    for (i, q) in sorted.iter().enumerate() {
        let got = grid.table.neighbors(i as u32);
        let want = brute_force_neighbors(&sorted, q, eps);
        if got != &want[..] {
            return Err(format!(
                "{}-D grid neighborhood of sorted point {i} != brute force \
                 ({} vs {} neighbors)",
                D,
                got.len(),
                want.len()
            ));
        }
    }

    let tree = build(data, eps, IndexBackend::Tree, &cfg);
    if grid.e_b != tree.e_b {
        return Err(format!(
            "{}-D e_b: grid {} != tree {}",
            D, grid.e_b, tree.e_b
        ));
    }
    if grid.n_batches != tree.n_batches {
        return Err(format!(
            "{}-D n_batches: grid {} != tree {}",
            D, grid.n_batches, tree.n_batches
        ));
    }
    if grid.result_pairs != tree.result_pairs {
        return Err(format!(
            "{}-D result_pairs: grid {} != tree {}",
            D, grid.result_pairs, tree.result_pairs
        ));
    }
    let gfp = table_fingerprint(&grid.table);
    if gfp != table_fingerprint(&tree.table) {
        return Err(format!("{D}-D tree table != grid table"));
    }
    let tree_batched = build(data, eps, IndexBackend::Tree, &tiny_batches());
    if gfp != table_fingerprint(&tree_batched.table) {
        return Err(format!("{D}-D multi-batch tree table != grid table"));
    }
    let auto = build(data, eps, IndexBackend::Auto, &cfg);
    if gfp != table_fingerprint(&auto.table) {
        return Err(format!(
            "{}-D auto table (chose {}) != grid table",
            D,
            auto.backend.chosen.name()
        ));
    }

    let shared = HybridDbscan::new(
        &Device::k20c(),
        HybridConfig {
            kernel: KernelChoice::Shared,
            ..HybridConfig::default()
        },
    )
    .build_table(data, eps)
    .map_err(|e| format!("{D}-D shared-kernel build failed: {e:?}"))?;
    if gfp != table_fingerprint(&shared.table) {
        return Err(format!("{D}-D shared-kernel table != grid table"));
    }

    let cg = clustering_fingerprint(&cluster_table_nd(&grid, minpts));
    if clustering_fingerprint(&HybridDbscan::cluster_with_table(&shared, minpts).0) != cg {
        return Err(format!("{D}-D shared-kernel clustering != grid clustering"));
    }
    for (name, h) in [
        ("tree", &tree),
        ("tree-batched", &tree_batched),
        ("auto", &auto),
    ] {
        if clustering_fingerprint(&cluster_table_nd(h, minpts)) != cg {
            return Err(format!("{D}-D {name} clustering != grid clustering"));
        }
    }
    Ok(())
}

/// [`check_case_nd`], shrinking failures to a minimal point set first —
/// a dimension-generic twin of `oracle::shrink_case` (that one is
/// `Point2`-only), same greedy ddmin chunk schedule.
fn assert_case_nd<const D: usize>(case: &CaseNd<D>) {
    let Err(original) = check_case_nd(case) else {
        return;
    };
    let fails = |pts: &[PointN<D>]| {
        check_case_nd(&CaseNd {
            family: case.family,
            data: pts.to_vec(),
            eps: case.eps,
            minpts: case.minpts,
        })
        .is_err()
    };
    let mut current = case.data.clone();
    let mut chunk = (current.len() / 2).max(1);
    loop {
        let mut start = 0;
        let mut reduced = false;
        while start < current.len() && current.len() > 1 {
            let end = (start + chunk).min(current.len());
            let mut candidate = Vec::with_capacity(current.len() - (end - start));
            candidate.extend_from_slice(&current[..start]);
            candidate.extend_from_slice(&current[end..]);
            if !candidate.is_empty() && fails(&candidate) {
                current = candidate;
                reduced = true;
            } else {
                start = end;
            }
        }
        if !reduced {
            if chunk == 1 {
                break;
            }
            chunk /= 2;
        } else {
            chunk = chunk.min(current.len() / 2).max(1);
        }
    }
    let minimal_err = check_case_nd(&CaseNd {
        family: case.family,
        data: current.clone(),
        eps: case.eps,
        minpts: case.minpts,
    })
    .expect_err("shrunk ND case stopped failing");
    panic!(
        "{}-D differential failure in family `{}` (eps = {}, minpts = {}, n = {})\n\
         original failure: {original}\n\
         shrunk to {} points: {current:?}\n\
         shrunk failure: {minimal_err}",
        D,
        case.family,
        case.eps,
        case.minpts,
        case.data.len(),
        current.len(),
    );
}

/// Exponentially skewed lattice clumps plus sparse background — the ND
/// twin of the 2-D `skewed-exp` family, offset along every axis.
fn skewed_clumps<const D: usize>(rng: &mut TestRng) -> CaseNd<D> {
    let eps_units = 128i64; // eps = 1.0
    let k = range(rng, 2, 6);
    let head = range(rng, 12, 40);
    let mut data = Vec::new();
    for c in 0..k {
        let m = ((head >> c) as usize).max(1);
        let center: [i64; D] = std::array::from_fn(|_| (c + 1) * range(rng, 3, 8) * eps_units);
        for _ in 0..m {
            data.push(pt(std::array::from_fn(|a| {
                center[a] + range(rng, -eps_units / 2, eps_units / 2 + 1)
            })));
        }
    }
    for _ in 0..range(rng, 1, 7) {
        data.push(pt(std::array::from_fn(|_| range(rng, -4000, 4000))));
    }
    CaseNd {
        family: "nd-skewed-clumps",
        data,
        eps: eps_units as f64 * Q,
        minpts: range(rng, 1, 7) as usize,
    }
}

/// All points identical: zero extent in every dimension.
fn all_identical<const D: usize>(rng: &mut TestRng) -> CaseNd<D> {
    let p: [i64; D] = std::array::from_fn(|_| range(rng, -500, 500));
    CaseNd {
        family: "nd-all-identical",
        data: vec![pt(p); range(rng, 1, 30) as usize],
        eps: range(rng, 16, 256) as f64 * Q,
        minpts: range(rng, 1, 7) as usize,
    }
}

/// Random lattice cloud with duplicate injection.
fn duplicates<const D: usize>(rng: &mut TestRng) -> CaseNd<D> {
    let eps_units = 128i64;
    let n = range(rng, 2, 40) as usize;
    let mut data: Vec<PointN<D>> = (0..n)
        .map(|_| pt(std::array::from_fn(|_| range(rng, 0, 5 * eps_units))))
        .collect();
    for _ in 0..range(rng, 1, 30) {
        let i = below(rng, data.len() as u64) as usize;
        data.push(data[i]);
    }
    CaseNd {
        family: "nd-duplicates",
        data,
        eps: eps_units as f64 * Q,
        minpts: range(rng, 1, 7) as usize,
    }
}

/// Exact-ε Pythagorean boundary cross in `D` dimensions: the center's
/// ε-ball boundary passes exactly through every sign-flipped leg offset.
/// `legs` must satisfy Σ legs[a]² = hyp² in integers.
fn pythagorean<const D: usize>(rng: &mut TestRng, legs: [i64; D], hyp: i64) -> CaseNd<D> {
    debug_assert_eq!(hyp * hyp, legs.iter().map(|&l| l * l).sum::<i64>());
    let scale = range(rng, 1, 12);
    let center: [i64; D] = std::array::from_fn(|_| range(rng, -200, 200) * 4);
    let mut data = vec![pt(center)];
    for signs in 0..(1u32 << D) {
        data.push(pt(std::array::from_fn(|a| {
            let s = if signs & (1 << a) != 0 { -1 } else { 1 };
            center[a] + s * legs[a] * scale
        })));
    }
    // Axis points exactly on, one quantum inside, and one outside the
    // boundary.
    for a in 0..D {
        for d in [-1i64, 0, 1] {
            let mut u = center;
            u[a] += hyp * scale + d;
            data.push(pt(u));
        }
    }
    CaseNd {
        family: "nd-pythagorean",
        data,
        eps: (hyp * scale) as f64 * Q,
        minpts: range(rng, 2, 5) as usize,
    }
}

/// Quick deterministic tier: every ND family under a few fixed seeds,
/// in 3-D and 4-D, through the cross-backend check and the dense ≡ sparse
/// grid-layout check. (1² + 2² + 2² = 3² and 1² + 2² + 2² + 4² = 5² are
/// the exact-ε boundary identities.)
#[test]
fn nd_quick_all_families_fixed_seeds() {
    fn check<const D: usize>(case: CaseNd<D>) {
        assert_case_nd(&case);
        crate::grid_layouts::assert_layout_equivalence(&case.data, case.eps, case.family);
    }
    for seed in [1u64, 7, 1234] {
        let mut rng = TestRng::new(seed);
        check(skewed_clumps::<3>(&mut rng));
        check(skewed_clumps::<4>(&mut rng));
        check(all_identical::<3>(&mut rng));
        check(all_identical::<4>(&mut rng));
        check(duplicates::<3>(&mut rng));
        check(duplicates::<4>(&mut rng));
        check(pythagorean::<3>(&mut rng, [1, 2, 2], 3));
        check(pythagorean::<4>(&mut rng, [1, 2, 2, 4], 5));
    }
}

/// Schedule independence: the ND pipeline's schedule-independent outputs
/// — table bytes, batch structure, modeled time bits, clustering — are
/// identical on 1-thread and 4-thread pool views.
#[test]
fn nd_schedule_independence_at_1_and_4_threads() {
    let fingerprint = |threads: usize, case: &CaseNd<3>| {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool view");
        pool.install(|| {
            let cfg = tiny_batches();
            [IndexBackend::Grid, IndexBackend::Tree].map(|backend| {
                let h = build(&case.data, case.eps, backend, &cfg);
                (
                    table_fingerprint(&h.table),
                    clustering_fingerprint(&cluster_table_nd(&h, case.minpts)),
                    h.e_b,
                    h.n_batches,
                    h.result_pairs,
                    h.modeled_time.as_secs().to_bits(),
                )
            })
        })
    };
    for seed in [3u64, 99] {
        let mut rng = TestRng::new(seed);
        let case = skewed_clumps::<3>(&mut rng);
        let base = fingerprint(1, &case);
        let other = fingerprint(4, &case);
        assert_eq!(
            base, other,
            "ND pipeline output depends on thread count (family `{}`)",
            case.family
        );
    }
}
