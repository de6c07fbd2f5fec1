//! Metamorphic transforms: input changes with known output relations.
//!
//! Each transform here is *bit-exact* on the generators' binary lattice
//! (coordinates and ε are multiples of 1/128, far below 2⁵³):
//!
//! * permutation — point order changes, geometry untouched;
//! * lattice translation — differences `(a+t)−(b+t)` are exact;
//! * 90°/180°/270° rotation and axis reflection — coordinate swaps and
//!   negations, exact;
//! * joint (coords, ε) scaling by powers of two — exact multiplies;
//! * uniform k-fold duplication with `minpts × k` — every degree scales
//!   by exactly k, so the core set (and hence the partition over the
//!   original points) is preserved.
//!
//! Under every transform, DBSCAN's noise set and core partition are
//! invariant; only border attribution may legitimately move. So each
//! transformed run is (a) validated against the transformed input's own
//! ground truth, and (b) compared to the baseline run through
//! `oracle::equivalent_up_to_borders_with` after mapping labels back to
//! the original point order.

use crate::generators::{Case, Q};
use gpu_sim::Device;
use hybrid_dbscan_core::dbscan::{Clustering, PointLabel};
use hybrid_dbscan_core::hybrid::{HybridConfig, HybridDbscan};
use hybrid_dbscan_core::oracle::{self, PointClass};
use proptest::TestRng;
use spatial::Point2;

fn cluster(device: &Device, data: &[Point2], eps: f64, minpts: usize) -> Clustering {
    HybridDbscan::new(device, HybridConfig::default())
        .run(data, eps, minpts)
        .expect("hybrid run failed")
        .clustering
}

/// Ground truth for the untransformed case, against which every
/// transformed run is compared.
struct Baseline<'a> {
    family: &'static str,
    classes: &'a [PointClass],
    base: &'a Clustering,
}

impl Baseline<'_> {
    /// Validate a transformed run both ways: against the transformed
    /// input's own ground truth, and against the baseline after `remap`
    /// has restored the original point order.
    fn check_invariant(
        &self,
        label: &str,
        transformed: &[Point2],
        eps: f64,
        minpts: usize,
        remap: impl Fn(&Clustering) -> Clustering,
    ) {
        let device = Device::k20c();
        let c = cluster(&device, transformed, eps, minpts);
        oracle::check_clustering(transformed, eps, minpts, &c).unwrap_or_else(|e| {
            panic!(
                "family `{}`, transform `{label}`: transformed output invalid: {e}",
                self.family
            )
        });
        let remapped = remap(&c);
        oracle::equivalent_up_to_borders_with(self.classes, self.base, &remapped).unwrap_or_else(
            |e| {
                panic!(
                    "family `{}`, transform `{label}`: partition not invariant: {e}",
                    self.family
                )
            },
        );
    }
}

/// Run every metamorphic transform against one case.
pub fn assert_all_invariant(case: &Case, rng: &mut TestRng) {
    let Case {
        data, eps, minpts, ..
    } = case;
    let (eps, minpts) = (*eps, *minpts);
    let n = data.len();
    let device = Device::k20c();
    let classes = oracle::classify(data, eps, minpts);
    let base = cluster(&device, data, eps, minpts);
    oracle::check_clustering_with(data, eps, &classes, &base)
        .unwrap_or_else(|e| panic!("family `{}`: baseline invalid: {e}", case.family));
    let baseline = Baseline {
        family: case.family,
        classes: &classes,
        base: &base,
    };
    let identity = |c: &Clustering| c.clone();

    // Permutation (Fisher-Yates from the case's rng).
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        perm.swap(i, j);
    }
    let permuted: Vec<Point2> = perm.iter().map(|&i| data[i]).collect();
    baseline.check_invariant("permutation", &permuted, eps, minpts, |c| {
        let mut labels = vec![PointLabel::NOISE; n];
        for (i, &orig) in perm.iter().enumerate() {
            labels[orig] = c.labels()[i];
        }
        Clustering::from_labels(labels)
    });

    // Rigid translations, small and huge (2²⁰ lattice units = 8192.0 —
    // large absolute coordinates, unchanged differences).
    for (name, tx, ty) in [
        ("translate-small", 3i64, -7i64),
        ("translate-huge", 1 << 20, 1 << 20),
        ("translate-mixed", -(1 << 20), 12_345),
    ] {
        let (dx, dy) = (tx as f64 * Q, ty as f64 * Q);
        let moved: Vec<Point2> = data
            .iter()
            .map(|p| Point2::new(p.x() + dx, p.y() + dy))
            .collect();
        baseline.check_invariant(name, &moved, eps, minpts, identity);
    }

    // Rotations and a reflection (exact coordinate swaps/negations).
    for (name, f) in [
        (
            "rotate-90",
            (|p: &Point2| Point2::new(-p.y(), p.x())) as fn(&Point2) -> Point2,
        ),
        ("rotate-180", |p| Point2::new(-p.x(), -p.y())),
        ("rotate-270", |p| Point2::new(p.y(), -p.x())),
        ("reflect-x", |p| Point2::new(p.x(), -p.y())),
    ] {
        let turned: Vec<Point2> = data.iter().map(f).collect();
        baseline.check_invariant(name, &turned, eps, minpts, identity);
    }

    // Joint (coords, ε) scaling by powers of two.
    for s in [0.25, 0.5, 2.0, 8.0] {
        let scaled: Vec<Point2> = data
            .iter()
            .map(|p| Point2::new(p.x() * s, p.y() * s))
            .collect();
        baseline.check_invariant("scale-pow2", &scaled, eps * s, minpts, identity);
    }

    // Uniform k-fold duplication with minpts × k: every ε-degree scales
    // by exactly k, preserving the core set. Compare on the first copy
    // of each original point (every cluster retains at least one core
    // first-copy, so the restriction loses no cluster).
    for k in [2usize, 3] {
        let dup: Vec<Point2> = data
            .iter()
            .flat_map(|p| std::iter::repeat_n(*p, k))
            .collect();
        baseline.check_invariant("duplicate-k", &dup, eps, minpts * k, |c| {
            let labels = (0..n).map(|i| c.labels()[i * k]).collect();
            Clustering::from_labels(labels)
        });
    }
}
