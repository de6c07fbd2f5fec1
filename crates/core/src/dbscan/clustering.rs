//! Cluster label containers and clustering comparisons.

use serde::{Deserialize, Serialize};

/// The label of a single point after clustering.
///
/// Encoded in one `i64`-free, cache-friendly `i32`:
/// * `UNVISITED` (internal, never escapes a finished run),
/// * `NOISE`,
/// * `cluster(k)` for cluster ids `k = 0, 1, …`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PointLabel(i32);

impl PointLabel {
    pub const UNVISITED: PointLabel = PointLabel(-2);
    pub const NOISE: PointLabel = PointLabel(-1);

    /// Label for cluster `k`.
    pub fn cluster(k: u32) -> Self {
        PointLabel(k as i32)
    }

    pub fn is_noise(&self) -> bool {
        *self == Self::NOISE
    }

    pub fn is_clustered(&self) -> bool {
        self.0 >= 0
    }

    /// Cluster id, if clustered.
    pub fn cluster_id(&self) -> Option<u32> {
        if self.0 >= 0 {
            Some(self.0 as u32)
        } else {
            None
        }
    }
}

/// The output of a DBSCAN run: one label per point (the paper's set `C` of
/// clusters plus the noise set, in dense-array form).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Clustering {
    labels: Vec<PointLabel>,
    n_clusters: u32,
}

impl Clustering {
    pub(crate) fn new(labels: Vec<PointLabel>, n_clusters: u32) -> Self {
        debug_assert!(labels.iter().all(|l| *l != PointLabel::UNVISITED));
        Clustering { labels, n_clusters }
    }

    /// Construct directly from labels (for tests and external callers).
    /// `n_clusters` is recomputed.
    pub fn from_labels(labels: Vec<PointLabel>) -> Self {
        let n_clusters = labels
            .iter()
            .filter_map(|l| l.cluster_id())
            .max()
            .map_or(0, |m| m + 1);
        Clustering { labels, n_clusters }
    }

    pub fn labels(&self) -> &[PointLabel] {
        &self.labels
    }

    pub fn len(&self) -> usize {
        self.labels.len()
    }

    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    pub fn num_clusters(&self) -> u32 {
        self.n_clusters
    }

    pub fn noise_count(&self) -> usize {
        self.labels.iter().filter(|l| l.is_noise()).count()
    }

    /// Cluster sizes, descending — a quick fingerprint of a clustering.
    pub fn cluster_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.n_clusters as usize];
        for l in &self.labels {
            if let Some(k) = l.cluster_id() {
                sizes[k as usize] += 1;
            }
        }
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        sizes
    }

    /// Re-order labels back to a caller's original point order:
    /// `original[perm[k]] = self[k]`. Used by Hybrid-DBSCAN to undo the
    /// spatial pre-sort.
    pub fn unpermute(&self, perm: &[u32]) -> Clustering {
        assert_eq!(perm.len(), self.labels.len());
        let mut labels = vec![PointLabel::NOISE; self.labels.len()];
        for (k, &orig) in perm.iter().enumerate() {
            labels[orig as usize] = self.labels[k];
        }
        Clustering {
            labels,
            n_clusters: self.n_clusters,
        }
    }

    /// Whether two clusterings are identical up to a relabeling of cluster
    /// ids (the correct notion of DBSCAN-output equality: cluster ids
    /// depend on visit order, membership does not).
    pub fn equivalent_to(&self, other: &Clustering) -> bool {
        if self.labels.len() != other.labels.len() {
            return false;
        }
        if self.n_clusters != other.n_clusters {
            return false;
        }
        // Build the bijection incrementally; any conflict is inequality.
        let mut fwd = vec![u32::MAX; self.n_clusters as usize];
        let mut bwd = vec![u32::MAX; other.n_clusters as usize];
        for (a, b) in self.labels.iter().zip(&other.labels) {
            match (a.cluster_id(), b.cluster_id()) {
                (None, None) => {
                    if a != b {
                        return false; // UNVISITED vs NOISE mismatch
                    }
                }
                (Some(x), Some(y)) => {
                    if fwd[x as usize] == u32::MAX {
                        fwd[x as usize] = y;
                    } else if fwd[x as usize] != y {
                        return false;
                    }
                    if bwd[y as usize] == u32::MAX {
                        bwd[y as usize] = x;
                    } else if bwd[y as usize] != x {
                        return false;
                    }
                }
                _ => return false,
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lbl(ids: &[i32]) -> Vec<PointLabel> {
        ids.iter()
            .map(|&i| {
                if i < 0 {
                    PointLabel::NOISE
                } else {
                    PointLabel::cluster(i as u32)
                }
            })
            .collect()
    }

    #[test]
    fn label_basics() {
        assert!(PointLabel::NOISE.is_noise());
        assert!(!PointLabel::NOISE.is_clustered());
        assert_eq!(PointLabel::cluster(3).cluster_id(), Some(3));
        assert_eq!(PointLabel::NOISE.cluster_id(), None);
    }

    #[test]
    fn counts_and_sizes() {
        let c = Clustering::from_labels(lbl(&[0, 0, 1, -1, 1, 1]));
        assert_eq!(c.num_clusters(), 2);
        assert_eq!(c.noise_count(), 1);
        assert_eq!(c.cluster_sizes(), vec![3, 2]);
    }

    #[test]
    fn equivalence_up_to_relabeling() {
        let a = Clustering::from_labels(lbl(&[0, 0, 1, -1]));
        let b = Clustering::from_labels(lbl(&[1, 1, 0, -1]));
        assert!(a.equivalent_to(&b));
        assert!(b.equivalent_to(&a));
    }

    #[test]
    fn equivalence_rejects_different_membership() {
        let a = Clustering::from_labels(lbl(&[0, 0, 1, -1]));
        let split = Clustering::from_labels(lbl(&[0, 1, 1, -1]));
        assert!(!a.equivalent_to(&split));
        let noise_moved = Clustering::from_labels(lbl(&[0, 0, -1, 1]));
        assert!(!a.equivalent_to(&noise_moved));
        let merged = Clustering::from_labels(lbl(&[0, 0, 0, -1]));
        assert!(!a.equivalent_to(&merged), "different cluster counts");
    }

    #[test]
    fn equivalence_rejects_non_injective_mapping() {
        // a maps clusters {0,1}; b merges both into 0 but also has a
        // cluster 1 elsewhere — bijection check must catch it.
        let a = Clustering::from_labels(lbl(&[0, 1, 1, 0]));
        let b = Clustering::from_labels(lbl(&[0, 0, 1, 1]));
        assert!(!a.equivalent_to(&b));
    }

    #[test]
    fn unpermute_restores_original_order() {
        // Sorted order [2, 0, 1]: sorted[0] is original point 2, etc.
        let sorted = Clustering::from_labels(lbl(&[0, 1, -1]));
        let orig = sorted.unpermute(&[2, 0, 1]);
        assert_eq!(orig.labels()[2], PointLabel::cluster(0));
        assert_eq!(orig.labels()[0], PointLabel::cluster(1));
        assert!(orig.labels()[1].is_noise());
        assert_eq!(orig.num_clusters(), 2);
    }

    #[test]
    fn length_mismatch_not_equivalent() {
        let a = Clustering::from_labels(lbl(&[0]));
        let b = Clustering::from_labels(lbl(&[0, 0]));
        assert!(!a.equivalent_to(&b));
    }
}
