//! Brute-force ε-neighborhood helpers.
//!
//! DBSCAN admits an arbitrary distance function; the paper (and this
//! reproduction) uses the Euclidean metric. The brute-force searches here
//! are the *oracles* the property-based and differential tests compare
//! every index against, at every dimension. They use
//! [`PointN::distance_sq`], so their hit decisions are bit-identical to
//! the index-backed paths.

use crate::point::PointN;

/// Brute-force ε-neighborhood: ids of every point of `data` within the
/// closed ε-ball around `q` (including `q` itself if present), in ascending
/// id order. `O(|D|)` per query — test oracle only.
pub fn brute_force_neighbors<const D: usize>(
    data: &[PointN<D>],
    q: &PointN<D>,
    eps: f64,
) -> Vec<u32> {
    let eps_sq = eps * eps;
    data.iter()
        .enumerate()
        .filter(|(_, p)| p.distance_sq(q) <= eps_sq)
        .map(|(i, _)| i as u32)
        .collect()
}

/// Brute-force count of neighbors within the closed ε-ball.
pub fn brute_force_count<const D: usize>(data: &[PointN<D>], q: &PointN<D>, eps: f64) -> usize {
    let eps_sq = eps * eps;
    data.iter().filter(|p| p.distance_sq(q) <= eps_sq).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::Point2;

    fn square() -> Vec<Point2> {
        vec![
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 0.0),
            Point2::new(0.0, 1.0),
            Point2::new(1.0, 1.0),
        ]
    }

    #[test]
    fn neighbors_of_corner() {
        let d = square();
        let n = brute_force_neighbors(&d, &d[0], 1.0);
        // Diagonal corner is at distance sqrt(2) > 1.
        assert_eq!(n, vec![0, 1, 2]);
    }

    #[test]
    fn count_matches_neighbors_len() {
        let d = square();
        for q in &d {
            for eps in [0.5, 1.0, 1.5, 2.0] {
                assert_eq!(
                    brute_force_count(&d, q, eps),
                    brute_force_neighbors(&d, q, eps).len()
                );
            }
        }
    }

    #[test]
    fn empty_database() {
        let q = Point2::new(0.0, 0.0);
        assert!(brute_force_neighbors(&[], &q, 1.0).is_empty());
        assert_eq!(brute_force_count::<2>(&[], &q, 1.0), 0);
    }

    #[test]
    fn neighbors_in_4d() {
        let data = [
            PointN::from_coords([0.0, 0.0, 0.0, 0.0]),
            PointN::from_coords([1.0, 0.0, 0.0, 0.0]),
            PointN::from_coords([1.0, 1.0, 1.0, 1.0]),
        ];
        assert_eq!(brute_force_neighbors(&data, &data[0], 1.0), vec![0, 1]);
        assert_eq!(brute_force_neighbors(&data, &data[2], 2.0), vec![0, 1, 2]);
    }
}
