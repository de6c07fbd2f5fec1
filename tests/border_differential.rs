//! Differential checks of the table consumers and of CUDA-DClust against
//! the reference DBSCAN, on data built so that border points are
//! contested: each lies within ε of core points of two different
//! clusters, so which cluster it joins depends on the visit order.
//!
//! * `cluster_with_table` visits points in the caller's order, like the
//!   reference, so its labels must be *identical* — not just equivalent.
//! * CUDA-DClust and the union-find consumer (`dbscan_disjoint_set`)
//!   claim contested borders in their own order; each must pass the
//!   brute-force oracle and agree with the reference up to the border
//!   ambiguity.
//! * `dbscan_disjoint_set` visits the table in its own id order, so its
//!   labels must be identical to seed expansion over the table as stored.

use hybrid_dbscan::core::cuda_dclust::cuda_dclust;
use hybrid_dbscan::core::dbscan::{Dbscan, TableSource};
use hybrid_dbscan::core::disjoint_set::dbscan_disjoint_set;
use hybrid_dbscan::core::hybrid::{HybridConfig, HybridDbscan};
use hybrid_dbscan::core::oracle::{
    check_clustering, classify, equivalent_up_to_borders, PointClass,
};
use hybrid_dbscan::core::reference::ReferenceDbscan;
use hybrid_dbscan::gpu_sim::Device;
use hybrid_dbscan::spatial::Point2;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const EPS: f64 = 1.0;
const MINPTS: [usize; 3] = [4, 6, 10];
const SEEDS: std::ops::Range<u64> = 1..7;

/// A row of clumps along x, 2.9 apart. Each clump is 10–19 points within
/// 0.1 of its center plus a "tip" point 0.5 toward each neighbor clump
/// (a core point at every minpts ≤ 10). Halfway between two facing tips
/// sits a bridge point: within ε of both tips (≤ 0.97) and of nothing
/// else (≥ 1.3), so with 3 < minpts it is a border point of either
/// cluster. A few far-off points are noise. The points are shuffled, so
/// the order in which clusters reach their bridges varies by seed.
/// Returns the points and the number of bridges.
fn contested(seed: u64) -> (Vec<Point2>, usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let clumps = rng.random_range(3..7usize);
    let mut data = Vec::new();
    for c in 0..clumps {
        let cx = 2.9 * c as f64;
        for _ in 0..rng.random_range(10..20usize) {
            data.push(Point2::new(
                cx + rng.random_range(-0.1..0.1),
                rng.random_range(-0.1..0.1),
            ));
        }
        if c > 0 {
            data.push(Point2::new(cx - 0.5, 0.0));
        }
        if c + 1 < clumps {
            data.push(Point2::new(cx + 0.5, 0.0));
            data.push(Point2::new(cx + 1.45, rng.random_range(-0.25..0.25)));
        }
    }
    for _ in 0..rng.random_range(0..5usize) {
        data.push(Point2::new(rng.random_range(-20.0..20.0), 50.0));
    }
    for i in (1..data.len()).rev() {
        data.swap(i, rng.random_range(0..i + 1));
    }
    (data, clumps - 1)
}

/// The bridges are the only border points.
fn assert_contested(data: &[Point2], bridges: usize, minpts: usize) {
    let borders = classify(data, EPS, minpts)
        .iter()
        .filter(|&&c| c == PointClass::Border)
        .count();
    assert_eq!(
        borders, bridges,
        "minpts {minpts}: every bridge must be a border"
    );
}

#[test]
fn table_clustering_labels_equal_the_reference_on_contested_borders() {
    let device = Device::k20c();
    let hybrid = HybridDbscan::new(&device, HybridConfig::default());
    for seed in SEEDS {
        let (data, bridges) = contested(seed);
        let handle = hybrid.build_table(&data, EPS).unwrap();
        for minpts in MINPTS {
            assert_contested(&data, bridges, minpts);
            let (labels, _) = HybridDbscan::cluster_with_table(&handle, minpts);
            let reference = ReferenceDbscan::new(EPS, minpts).run(&data).clustering;
            assert_eq!(
                labels.labels(),
                reference.labels(),
                "seed {seed} minpts {minpts}"
            );
        }
    }
}

#[test]
fn cuda_dclust_agrees_with_the_reference_up_to_borders() {
    let device = Device::k20c();
    for seed in SEEDS {
        let (data, _) = contested(seed);
        for minpts in MINPTS {
            let got = cuda_dclust(&device, &data, EPS, minpts, 8)
                .unwrap()
                .clustering;
            let reference = ReferenceDbscan::new(EPS, minpts).run(&data).clustering;
            let case = format!("seed {seed} minpts {minpts}");
            check_clustering(&data, EPS, minpts, &got).unwrap_or_else(|e| panic!("{case}: {e}"));
            equivalent_up_to_borders(&data, EPS, minpts, &got, &reference)
                .unwrap_or_else(|e| panic!("{case}: {e}"));
        }
    }
}

#[test]
fn disjoint_set_agrees_with_the_reference_up_to_borders() {
    let device = Device::k20c();
    let hybrid = HybridDbscan::new(&device, HybridConfig::default());
    for seed in SEEDS {
        let (data, _) = contested(seed);
        let handle = hybrid.build_table(&data, EPS).unwrap();
        for minpts in MINPTS {
            let got = dbscan_disjoint_set(&handle.table, minpts).unpermute(&handle.perm);
            let reference = ReferenceDbscan::new(EPS, minpts).run(&data).clustering;
            let case = format!("seed {seed} minpts {minpts}");
            check_clustering(&data, EPS, minpts, &got).unwrap_or_else(|e| panic!("{case}: {e}"));
            equivalent_up_to_borders(&data, EPS, minpts, &got, &reference)
                .unwrap_or_else(|e| panic!("{case}: {e}"));
        }
    }
}

#[test]
fn disjoint_set_labels_equal_table_order_seed_expansion() {
    let device = Device::k20c();
    let hybrid = HybridDbscan::new(&device, HybridConfig::default());
    for seed in SEEDS {
        let (data, _) = contested(seed);
        let handle = hybrid.build_table(&data, EPS).unwrap();
        for minpts in MINPTS {
            let got = dbscan_disjoint_set(&handle.table, minpts);
            let want = Dbscan::new(minpts).run(&TableSource::new(&handle.table));
            // Labels and cluster count.
            assert_eq!(got, want, "seed {seed} minpts {minpts}");
        }
    }
}
