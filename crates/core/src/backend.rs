//! ε-search backend selection: grid vs packed kd-tree, per workload.
//!
//! Both backends produce bitwise-identical neighbor tables (same pair
//! set, same canonical device sort, same batch plan); they differ only in
//! modeled cost. The grid's 9-cell (3ε)² stencil is unbeatable on
//! uniform, sparse 2-D data; the tree's tighter (2ε)² candidate volume
//! wins when density is highly skewed (dense cells make the stencil scan
//! expensive exactly where most points live) and in higher dimensions
//! (the stencil grows 3^d while the tree stays (2ε)^d) — at the price of
//! a per-node dependent-read traversal surcharge.
//!
//! [`select_backend`] implements the `Auto` policy from cheap,
//! deterministic dataset statistics: a strided sample of points is binned
//! into ε-cells (a `BTreeMap`, so iteration order — and therefore every
//! derived float — is identical at every thread count) and the
//! coefficient of variation of non-empty-cell occupancy plus the mean
//! occupancy decide. The decision and its inputs are surfaced as a
//! [`BackendDecision`] and recorded in run provenance.

use serde::{Deserialize, Serialize};
use spatial::PointN;
use std::collections::BTreeMap;

/// Which ε-search index the hybrid pipeline builds and traverses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum IndexBackend {
    /// The paper's grid index `(G, A)` — the default, and the forced
    /// choice for the cell-driven [`crate::kernels::GpuCalcShared`].
    #[default]
    Grid,
    /// The packed kd-tree ([`spatial::PackedKdTree`]).
    Tree,
    /// Decide per workload from sampled dataset statistics.
    Auto,
}

impl IndexBackend {
    pub fn name(&self) -> &'static str {
        match self {
            IndexBackend::Grid => "grid",
            IndexBackend::Tree => "tree",
            IndexBackend::Auto => "auto",
        }
    }
}

/// The backend actually executed (post-`Auto` resolution).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChosenBackend {
    Grid,
    Tree,
}

impl ChosenBackend {
    pub fn name(&self) -> &'static str {
        match self {
            ChosenBackend::Grid => "grid",
            ChosenBackend::Tree => "tree",
        }
    }
}

/// How a backend was chosen for one workload — recorded in provenance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BackendDecision {
    /// What the configuration asked for.
    pub requested: IndexBackend,
    /// What ran.
    pub chosen: ChosenBackend,
    /// Sampled coefficient of variation of non-empty ε-cell occupancy
    /// (0 when the decision didn't need stats — explicit request or a
    /// kernel constraint).
    pub cell_cv: f64,
    /// Sampled mean points per non-empty ε-cell, scaled back to the full
    /// database.
    pub mean_occupancy: f64,
    /// Why: "requested", "shared-kernel", or "auto".
    pub reason: &'static str,
}

/// Sample stride target: cap the statistics pass at ~4096 points so the
/// selector costs O(min(n, 4096)) regardless of database size.
const MAX_STAT_SAMPLE: usize = 4096;

/// Auto policy thresholds, calibrated against the bench suite's backend
/// ablation (see DESIGN.md §16): the tree must beat the grid on the
/// skewed-density workloads and lose on the uniform ones.
///
/// The traversal surcharge is amortized when a thread's own cell is
/// populous (the stencil scans ~9 such cells; the tree scans ~the ε-ball)
/// and when occupancy varies strongly (dense cells dominate total scan
/// cost superlinearly). Empirically the crossover on the suite sits near
/// CV ≈ 2: SDSS-class uniform data at ε = 0.2 measures CV ≈ 1.2 (grid
/// wins), while the SW/SKX skewed workloads measure CV ≥ 4 (tree wins).
const CV_THRESHOLD: f64 = 2.0;
const OCCUPANCY_THRESHOLD: f64 = 6.0;
/// Occupancy bar for the tree in d = 3. Each added dimension grows the
/// grid's stencil 3× but the tree's candidate ball only ~2×, so the
/// grid's relative over-scan worsens with d and the bar halves per
/// dimension above 3 (see [`nd_occupancy_threshold`]). Calibrated on the
/// jittered-lattice ablation workloads: the 3-D lattice at ε = 3
/// (occupancy ≈ 20) is a tree win, at ε ≤ 2 (occupancy ≤ 7) a grid win;
/// the 4-D lattice at ε = 2 (occupancy ≈ 5) is a tree win.
const ND_OCCUPANCY_THRESHOLD_3D: f64 = 8.0;

/// The `Auto` occupancy bar for a `d`-dimensional workload (d ≥ 3).
fn nd_occupancy_threshold(d: usize) -> f64 {
    ND_OCCUPANCY_THRESHOLD_3D / (1u64 << (d.saturating_sub(3)).min(32)) as f64
}

/// Deterministic sampled ε-cell statistics over `n` points:
/// `(cv, mean_occupancy)` of the non-empty cells of a strided sample,
/// occupancy scaled by the stride so it estimates full-database points
/// per cell. `cell_of(i)` is point `i`'s ε-cell key; the key order is the
/// bin order, which fixes the float accumulations below.
fn sampled_cell_stats<K: Ord>(n: usize, cell_of: impl Fn(usize) -> K) -> (f64, f64) {
    let stride = (n / MAX_STAT_SAMPLE).max(1);
    // BTreeMap, not HashMap: iteration order must be deterministic or
    // the float accumulations below would vary run to run.
    let mut bins: BTreeMap<K, u64> = BTreeMap::new();
    let mut sampled = 0u64;
    for i in (0..n).step_by(stride) {
        *bins.entry(cell_of(i)).or_insert(0) += 1;
        sampled += 1;
    }
    if bins.is_empty() {
        return (0.0, 0.0);
    }
    let k = bins.len() as f64;
    let mean = sampled as f64 / k;
    let var = bins
        .values()
        .map(|&c| {
            let d = c as f64 - mean;
            d * d
        })
        .sum::<f64>()
        / k;
    let cv = if mean > 0.0 { var.sqrt() / mean } else { 0.0 };
    (cv, mean * stride as f64)
}

/// Resolve `requested` for a `d`-dimensional workload; `stats` computes
/// the sampled `(cv, mean_occupancy)` and runs only for `Auto`.
///
/// The `Auto` policy folds dimensionality in: in d ≥ 3 the grid's 3^d
/// stencil (27, 81 sparse binary-search probes per point) loses to the
/// tree's (2ε)^d candidate volume at much milder density, so only the
/// occupancy bar applies and it drops with the dimension; in 2-D the
/// tree must also see strongly varying occupancy.
fn decide(
    requested: IndexBackend,
    d: usize,
    stats: impl FnOnce() -> (f64, f64),
) -> BackendDecision {
    let (chosen, cell_cv, mean_occupancy, reason) = match requested {
        IndexBackend::Grid => (ChosenBackend::Grid, 0.0, 0.0, "requested"),
        IndexBackend::Tree => (ChosenBackend::Tree, 0.0, 0.0, "requested"),
        IndexBackend::Auto => {
            let (cv, occ) = stats();
            let tree = if d >= 3 {
                occ >= nd_occupancy_threshold(d)
            } else {
                cv >= CV_THRESHOLD && occ >= OCCUPANCY_THRESHOLD
            };
            let chosen = if tree {
                ChosenBackend::Tree
            } else {
                ChosenBackend::Grid
            };
            (chosen, cv, occ, "auto")
        }
    };
    BackendDecision {
        requested,
        chosen,
        cell_cv,
        mean_occupancy,
        reason,
    }
}

/// Resolve the configured backend for a `D`-dimensional workload.
///
/// `shared_kernel` callers always get the grid: GPUCalcShared is driven
/// by the non-empty-cell schedule, which only the grid defines.
pub fn select_backend<const D: usize>(
    requested: IndexBackend,
    shared_kernel: bool,
    data: &[PointN<D>],
    eps: f64,
) -> BackendDecision {
    if shared_kernel {
        return BackendDecision {
            requested,
            chosen: ChosenBackend::Grid,
            cell_cv: 0.0,
            mean_occupancy: 0.0,
            reason: "shared-kernel",
        };
    }
    // Bins keyed by the ε-cell coordinates from the last axis down —
    // (row, column) in 2-D: this order fixes the `cell_cv` bits.
    decide(requested, D, || {
        sampled_cell_stats(data.len(), |i| {
            let c = &data[i].coords;
            std::array::from_fn::<i64, D, _>(|k| (c[D - 1 - k] / eps).floor() as i64)
        })
    })
}

/// [`select_backend`] for the thread-per-point kernels.
pub fn select_backend_nd<const D: usize>(
    requested: IndexBackend,
    data: &[PointN<D>],
    eps: f64,
) -> BackendDecision {
    select_backend(requested, false, data, eps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatial::Point2;

    fn uniform(n: usize, extent: f64) -> Vec<Point2> {
        (0..n)
            .map(|i| {
                let t = i as f64;
                Point2::new((t * 0.754).fract() * extent, (t * 0.569).fract() * extent)
            })
            .collect()
    }

    /// A few dense clumps over a sparse background — high occupancy CV.
    fn skewed(n: usize, extent: f64) -> Vec<Point2> {
        (0..n)
            .map(|i| {
                let t = i as f64;
                if i % 4 != 0 {
                    let c = (i % 3) as f64 * extent / 3.0 + extent / 6.0;
                    Point2::new(c + (t * 0.618).fract() * 0.2, c + (t * 0.414).fract() * 0.2)
                } else {
                    Point2::new((t * 0.754).fract() * extent, (t * 0.569).fract() * extent)
                }
            })
            .collect()
    }

    #[test]
    fn explicit_requests_are_honored() {
        let data = uniform(100, 10.0);
        assert_eq!(
            select_backend(IndexBackend::Grid, false, &data, 1.0).chosen,
            ChosenBackend::Grid
        );
        assert_eq!(
            select_backend(IndexBackend::Tree, false, &data, 1.0).chosen,
            ChosenBackend::Tree
        );
    }

    #[test]
    fn shared_kernel_forces_grid() {
        let data = skewed(500, 12.0);
        let d = select_backend(IndexBackend::Tree, true, &data, 0.5);
        assert_eq!(d.chosen, ChosenBackend::Grid);
        assert_eq!(d.reason, "shared-kernel");
        let d = select_backend(IndexBackend::Auto, true, &data, 0.5);
        assert_eq!(d.chosen, ChosenBackend::Grid);
    }

    #[test]
    fn auto_picks_grid_on_uniform_sparse_data() {
        let data = uniform(2000, 40.0);
        let d = select_backend(IndexBackend::Auto, false, &data, 0.5);
        assert_eq!(d.chosen, ChosenBackend::Grid, "{d:?}");
        assert_eq!(d.reason, "auto");
    }

    #[test]
    fn auto_picks_tree_on_skewed_dense_data() {
        let data = skewed(4000, 12.0);
        let d = select_backend(IndexBackend::Auto, false, &data, 0.5);
        assert_eq!(d.chosen, ChosenBackend::Tree, "{d:?}");
        assert!(d.cell_cv >= 1.0, "{d:?}");
    }

    #[test]
    fn stats_are_deterministic_across_calls() {
        let data = skewed(10_000, 20.0);
        let a = select_backend(IndexBackend::Auto, false, &data, 0.3);
        let b = select_backend(IndexBackend::Auto, false, &data, 0.3);
        assert_eq!(a.cell_cv.to_bits(), b.cell_cv.to_bits());
        assert_eq!(a.mean_occupancy.to_bits(), b.mean_occupancy.to_bits());
    }
}
