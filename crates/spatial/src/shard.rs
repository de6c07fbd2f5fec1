//! Spatial sharding of the point database: x-quantile slabs with ε-halos.
//!
//! A [`ShardPlan`] cuts the data extent into `k` vertical slabs at
//! x-quantile boundaries, so each slab *owns* roughly `|D| / k` points.
//! Every shard additionally sees a **halo**: the non-owned points whose x
//! coordinate lies within ε of the slab, i.e. `[lo − ε, lo) ∪ [hi, hi + ε)`.
//! Since the ε-ball of any owned point spans at most ε in x, the owned
//! slab plus its halo contains the *complete* ε-neighborhood of every
//! owned point — each shard can compute exact neighbor-table rows for the
//! points it owns, independently of every other shard.
//!
//! Determinism: boundaries are order statistics of the x coordinates
//! (`total_cmp`, so even NaN-free pathologies order identically), and both
//! ownership and halo membership are pure coordinate predicates. Duplicate
//! points share an x coordinate and therefore an owner. Slabs are
//! half-open `[lo, hi)` with the outer shards unbounded, so every point is
//! owned by exactly one shard regardless of boundary ties.

use crate::point::Point2;

/// A deterministic k-way slab partition of the x axis with ε-halos.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardPlan {
    /// The `k − 1` interior boundaries, ascending (possibly with
    /// duplicates when the x distribution is degenerate — the affected
    /// interior shards then own nothing, which is still correct).
    boundaries: Vec<f64>,
    eps: f64,
}

impl ShardPlan {
    /// Plan `k` shards over `data` with halo width `eps`, placing the
    /// interior boundaries at the x-coordinate quantiles `j·n/k`.
    pub fn quantiles(data: &[Point2], k: usize, eps: f64) -> Self {
        assert!(k >= 1, "need at least one shard");
        assert!(
            eps.is_finite() && eps > 0.0,
            "eps must be finite and positive"
        );
        assert!(!data.is_empty(), "cannot shard an empty database");
        let mut xs: Vec<f64> = data.iter().map(|p| p.x()).collect();
        xs.sort_unstable_by(|a, b| a.total_cmp(b));
        let n = xs.len();
        let boundaries = (1..k).map(|j| xs[j * n / k]).collect();
        ShardPlan { boundaries, eps }
    }

    /// Number of shards.
    pub fn k(&self) -> usize {
        self.boundaries.len() + 1
    }

    /// Halo width.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// The owned slab `[lo, hi)` of shard `j`; outer shards are unbounded
    /// on their open side (`-inf` / `+inf`).
    pub fn slab(&self, j: usize) -> (f64, f64) {
        let lo = if j == 0 {
            f64::NEG_INFINITY
        } else {
            self.boundaries[j - 1]
        };
        let hi = if j == self.k() - 1 {
            f64::INFINITY
        } else {
            self.boundaries[j]
        };
        (lo, hi)
    }

    /// The shard owning `p`. Every point has exactly one owner: slabs are
    /// half-open and the boundary list is ascending, so the owner is the
    /// number of boundaries at or below `p.x`.
    pub fn owner_of(&self, p: &Point2) -> usize {
        self.boundaries.iter().filter(|&&b| p.x() >= b).count()
    }

    /// Whether shard `j` *sees* `p`: owned slab plus the ε-halo
    /// `[lo − ε, hi + ε)`. A closed lower edge keeps the exactly-ε
    /// neighbor of a point sitting on `lo` inside the halo; the owned
    /// points themselves satisfy `x < hi`, so `x < hi + ε` covers every
    /// owned ε-ball on the right.
    pub fn sees(&self, j: usize, p: &Point2) -> bool {
        let (lo, hi) = self.slab(j);
        (lo == f64::NEG_INFINITY || p.x() >= lo - self.eps)
            && (hi == f64::INFINITY || p.x() < hi + self.eps)
    }

    /// Whether shard `j` owns `p`.
    pub fn owns(&self, j: usize, p: &Point2) -> bool {
        let (lo, hi) = self.slab(j);
        (lo == f64::NEG_INFINITY || p.x() >= lo) && (hi == f64::INFINITY || p.x() < hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: usize) -> Vec<Point2> {
        (0..n).map(|i| Point2::new(i as f64, 0.0)).collect()
    }

    #[test]
    fn every_point_has_exactly_one_owner() {
        let data = line(100);
        for k in [1, 2, 3, 4, 7] {
            let plan = ShardPlan::quantiles(&data, k, 1.5);
            for p in &data {
                let owners: Vec<usize> = (0..plan.k()).filter(|&j| plan.owns(j, p)).collect();
                assert_eq!(owners.len(), 1, "k={k}, p={p:?}: owners {owners:?}");
                assert_eq!(owners[0], plan.owner_of(p));
            }
        }
    }

    #[test]
    fn quantile_boundaries_balance_ownership() {
        let data = line(100);
        let plan = ShardPlan::quantiles(&data, 4, 1.0);
        let mut counts = vec![0usize; 4];
        for p in &data {
            counts[plan.owner_of(p)] += 1;
        }
        assert_eq!(counts, vec![25, 25, 25, 25]);
    }

    #[test]
    fn halo_covers_every_owned_eps_ball() {
        // For every owned point, every point within eps (in x) must be
        // seen by the owner's shard — including exactly-ε neighbors on
        // either side of a boundary.
        let mut data = line(40);
        let eps = 2.0;
        // Exact-ε pairs straddling typical boundary positions.
        data.push(Point2::new(10.0 - eps, 0.0));
        data.push(Point2::new(10.0 + eps, 0.0));
        let plan = ShardPlan::quantiles(&data, 4, eps);
        for p in &data {
            let j = plan.owner_of(p);
            for q in &data {
                if (q.x() - p.x()).abs() <= eps {
                    assert!(plan.sees(j, q), "shard {j} owning {p:?} must see {q:?}");
                }
            }
        }
    }

    #[test]
    fn owned_implies_seen() {
        let data = line(30);
        let plan = ShardPlan::quantiles(&data, 3, 0.5);
        for p in &data {
            let j = plan.owner_of(p);
            assert!(plan.owns(j, p));
            assert!(plan.sees(j, p));
        }
    }

    #[test]
    fn duplicate_x_coordinates_share_an_owner() {
        let mut data = vec![Point2::new(5.0, 0.0); 10];
        data.extend(line(10));
        let plan = ShardPlan::quantiles(&data, 4, 1.0);
        let owner = plan.owner_of(&data[0]);
        for p in &data[..10] {
            assert_eq!(plan.owner_of(p), owner);
        }
    }

    #[test]
    fn single_shard_owns_and_sees_everything() {
        let data = line(10);
        let plan = ShardPlan::quantiles(&data, 1, 1.0);
        assert_eq!(plan.k(), 1);
        for p in &data {
            assert!(plan.owns(0, p));
            assert!(plan.sees(0, p));
        }
    }

    #[test]
    fn degenerate_all_identical_points() {
        // All points share one x: interior boundaries coincide, one shard
        // owns everything, and the others own nothing — but the partition
        // stays a partition.
        let data = vec![Point2::new(3.0, 1.0); 8];
        let plan = ShardPlan::quantiles(&data, 4, 0.5);
        let owner = plan.owner_of(&data[0]);
        let mut counts = vec![0usize; plan.k()];
        for p in &data {
            assert_eq!(plan.owner_of(p), owner);
            counts[plan.owner_of(p)] += 1;
        }
        assert_eq!(counts.iter().sum::<usize>(), data.len());
    }
}
