//! The exact-DBSCAN oracle: ground truth and equivalence-up-to-ambiguity.
//!
//! The paper's central correctness claim is that Hybrid-DBSCAN is
//! *exactly* DBSCAN — the GPU neighbor table changes throughput, never
//! cluster assignments. This module provides the machinery the
//! differential test harness (`crates/core/tests/differential/`) uses to
//! hold every clusterer in this repository to that bar:
//!
//! * [`classify`] — brute-force ground truth: every point is a **core**
//!   point (`|N_ε(p)| ≥ minpts`, closed ball, self included), a **border**
//!   point (non-core within ε of a core), or **noise**.
//! * [`core_components`] — the connected components of the core-point
//!   graph (cores adjacent iff within ε). DBSCAN's clusters are exactly
//!   these components plus adopted border points, so the components are
//!   the visit-order-*independent* part of the output.
//! * [`check_clustering`] — validates one clustering against the ground
//!   truth: noise must match exactly, the core partition must match the
//!   components exactly (including cluster count), and every border point
//!   must be assigned to a cluster that has a core point within ε of it.
//! * [`equivalent_up_to_borders`] — the differential comparison: two
//!   clusterings are equivalent iff they agree exactly on noise and on the
//!   core partition (up to a relabeling bijection). Border assignments may
//!   differ **only** between clusters that each individually justify the
//!   assignment — DBSCAN's documented border-point ambiguity ("border
//!   points join the first cluster that reaches them", which depends on
//!   visit order / BFS arrival order / chain-claim order). Use
//!   [`check_clustering`] on both sides to pin the justification.
//! * [`shrink_case`] — greedy delta-debugging over the point set, so a
//!   failing differential case is reported minimally even though the
//!   offline proptest stand-in does not shrink.
//!
//! Everything here is deliberately `O(n²)` brute force with no dependence
//! on the code under test (no grid, no kd-tree, no R-tree, no kernels):
//! an oracle that shared an index with the implementations could share
//! their bugs.

use crate::dbscan::Clustering;
use spatial::Point2;

/// Ground-truth role of a point at a given `(eps, minpts)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointClass {
    /// `|N_ε(p)| ≥ minpts` (closed ball, counting `p` itself).
    Core,
    /// Non-core, but within ε of at least one core point.
    Border,
    /// Neither core nor reachable from a core.
    Noise,
}

/// Brute-force ground-truth classification of every point.
pub fn classify(data: &[Point2], eps: f64, minpts: usize) -> Vec<PointClass> {
    let eps_sq = eps * eps;
    let n = data.len();
    let core: Vec<bool> = (0..n)
        .map(|i| {
            data.iter()
                .filter(|q| data[i].distance_sq(q) <= eps_sq)
                .count()
                >= minpts
        })
        .collect();
    (0..n)
        .map(|i| {
            if core[i] {
                PointClass::Core
            } else if (0..n).any(|j| core[j] && data[i].distance_sq(&data[j]) <= eps_sq) {
                PointClass::Border
            } else {
                PointClass::Noise
            }
        })
        .collect()
}

/// Connected components of the core-point graph: `comp[i] = Some(c)` for
/// core points (components numbered densely in order of their smallest
/// member id), `None` otherwise. The number of components equals the
/// number of DBSCAN clusters for every correct implementation.
pub fn core_components(
    data: &[Point2],
    eps: f64,
    classes: &[PointClass],
) -> (Vec<Option<u32>>, u32) {
    let eps_sq = eps * eps;
    let n = data.len();
    let mut parent: Vec<u32> = (0..n as u32).collect();
    fn find(parent: &mut [u32], mut x: u32) -> u32 {
        while parent[x as usize] != x {
            parent[x as usize] = parent[parent[x as usize] as usize];
            x = parent[x as usize];
        }
        x
    }
    for i in 0..n {
        if classes[i] != PointClass::Core {
            continue;
        }
        for j in (i + 1)..n {
            if classes[j] == PointClass::Core && data[i].distance_sq(&data[j]) <= eps_sq {
                let (ri, rj) = (find(&mut parent, i as u32), find(&mut parent, j as u32));
                if ri != rj {
                    let (lo, hi) = if ri < rj { (ri, rj) } else { (rj, ri) };
                    parent[hi as usize] = lo;
                }
            }
        }
    }
    let mut label_of_root = vec![u32::MAX; n];
    let mut next = 0u32;
    let mut out = vec![None; n];
    for i in 0..n {
        if classes[i] != PointClass::Core {
            continue;
        }
        let r = find(&mut parent, i as u32) as usize;
        if label_of_root[r] == u32::MAX {
            label_of_root[r] = next;
            next += 1;
        }
        out[i] = Some(label_of_root[r]);
    }
    (out, next)
}

/// Validate `c` against the ground truth for `(data, eps, minpts)`.
///
/// Checks, in order:
/// 1. label vector length;
/// 2. noise is exact: a point is labeled noise iff the oracle says noise
///    (core and border points are never noise, noise is never clustered);
/// 3. the cluster count equals the number of core components;
/// 4. core partition is exact: two core points share a label iff they
///    share a component (established via a bijection);
/// 5. every border point's assigned cluster contains a core point within
///    ε of it (the assignment is *justified*, even though which justified
///    cluster wins is ambiguous).
///
/// Returns a description of the first violation found.
pub fn check_clustering(
    data: &[Point2],
    eps: f64,
    minpts: usize,
    c: &Clustering,
) -> Result<(), String> {
    let classes = classify(data, eps, minpts);
    check_clustering_with(data, eps, &classes, c)
}

/// [`check_clustering`] with a precomputed classification (so a harness
/// classifying once can validate many clusterings cheaply).
pub fn check_clustering_with(
    data: &[Point2],
    eps: f64,
    classes: &[PointClass],
    c: &Clustering,
) -> Result<(), String> {
    let n = data.len();
    if c.len() != n {
        return Err(format!("label count {} != point count {}", c.len(), n));
    }
    let (comp, n_comp) = core_components(data, eps, classes);

    // 2. Noise is exact.
    for (i, class) in classes.iter().enumerate() {
        let is_noise = c.labels()[i].is_noise();
        match class {
            PointClass::Noise if !is_noise => {
                return Err(format!(
                    "point {i} is ground-truth noise but labeled {:?}",
                    c.labels()[i]
                ));
            }
            PointClass::Core | PointClass::Border if is_noise => {
                return Err(format!(
                    "point {i} is ground-truth {class:?} but labeled noise"
                ));
            }
            _ => {}
        }
    }

    // 3. Cluster count equals component count.
    if c.num_clusters() != n_comp {
        return Err(format!(
            "{} clusters reported, ground truth has {} core components",
            c.num_clusters(),
            n_comp
        ));
    }

    // 4. Core partition matches via a bijection component <-> cluster.
    let mut comp_to_cluster = vec![u32::MAX; n_comp as usize];
    let mut cluster_to_comp = vec![u32::MAX; c.num_clusters() as usize];
    for (i, slot) in comp.iter().enumerate() {
        let Some(cc) = *slot else { continue };
        let Some(k) = c.labels()[i].cluster_id() else {
            return Err(format!("core point {i} left unclustered"));
        };
        if comp_to_cluster[cc as usize] == u32::MAX {
            comp_to_cluster[cc as usize] = k;
        } else if comp_to_cluster[cc as usize] != k {
            return Err(format!(
                "core component {cc} split across clusters {} and {k} (point {i})",
                comp_to_cluster[cc as usize]
            ));
        }
        if cluster_to_comp[k as usize] == u32::MAX {
            cluster_to_comp[k as usize] = cc;
        } else if cluster_to_comp[k as usize] != cc {
            return Err(format!(
                "cluster {k} merges core components {} and {cc} (point {i})",
                cluster_to_comp[k as usize]
            ));
        }
    }

    // 5. Border assignments are justified.
    let eps_sq = eps * eps;
    for i in 0..n {
        if classes[i] != PointClass::Border {
            continue;
        }
        let Some(k) = c.labels()[i].cluster_id() else {
            // Caught by the noise check above, but keep the message exact.
            return Err(format!("border point {i} left unclustered"));
        };
        let justified = (0..n).any(|j| {
            comp[j].is_some_and(|cc| comp_to_cluster[cc as usize] == k)
                && data[i].distance_sq(&data[j]) <= eps_sq
        });
        if !justified {
            return Err(format!(
                "border point {i} assigned to cluster {k}, which has no core \
                 point within eps of it"
            ));
        }
    }
    Ok(())
}

/// Whether two clusterings are equivalent up to cluster relabeling *and*
/// the border-point ambiguity: exact agreement on noise and on the core
/// partition, with border points allowed to differ. Border *validity*
/// (each side's assignment being justified) is [`check_clustering`]'s
/// job; run it on both sides first — this comparison only localizes
/// *where* two valid clusterings differ.
pub fn equivalent_up_to_borders(
    data: &[Point2],
    eps: f64,
    minpts: usize,
    a: &Clustering,
    b: &Clustering,
) -> Result<(), String> {
    let classes = classify(data, eps, minpts);
    equivalent_up_to_borders_with(&classes, a, b)
}

/// [`equivalent_up_to_borders`] with a precomputed classification.
pub fn equivalent_up_to_borders_with(
    classes: &[PointClass],
    a: &Clustering,
    b: &Clustering,
) -> Result<(), String> {
    let n = classes.len();
    if a.len() != n || b.len() != n {
        return Err(format!(
            "label counts {} / {} != point count {n}",
            a.len(),
            b.len()
        ));
    }
    if a.num_clusters() != b.num_clusters() {
        return Err(format!(
            "cluster counts differ: {} vs {}",
            a.num_clusters(),
            b.num_clusters()
        ));
    }
    // Build the relabeling bijection over *core* points only.
    let mut fwd = vec![u32::MAX; a.num_clusters() as usize];
    let mut bwd = vec![u32::MAX; b.num_clusters() as usize];
    for (i, class) in classes.iter().enumerate() {
        match class {
            PointClass::Noise => {
                if !a.labels()[i].is_noise() || !b.labels()[i].is_noise() {
                    return Err(format!(
                        "ground-truth noise point {i} labeled {:?} vs {:?}",
                        a.labels()[i],
                        b.labels()[i]
                    ));
                }
            }
            PointClass::Border => {
                // Ambiguous: both must be clustered (checked here), but
                // possibly to different clusters.
                if !a.labels()[i].is_clustered() || !b.labels()[i].is_clustered() {
                    return Err(format!(
                        "border point {i} labeled {:?} vs {:?}",
                        a.labels()[i],
                        b.labels()[i]
                    ));
                }
            }
            PointClass::Core => {
                let (Some(x), Some(y)) = (a.labels()[i].cluster_id(), b.labels()[i].cluster_id())
                else {
                    return Err(format!(
                        "core point {i} labeled {:?} vs {:?}",
                        a.labels()[i],
                        b.labels()[i]
                    ));
                };
                if fwd[x as usize] == u32::MAX {
                    fwd[x as usize] = y;
                } else if fwd[x as usize] != y {
                    return Err(format!(
                        "core partition mismatch at point {i}: cluster {x} maps \
                         to both {} and {y}",
                        fwd[x as usize]
                    ));
                }
                if bwd[y as usize] == u32::MAX {
                    bwd[y as usize] = x;
                } else if bwd[y as usize] != x {
                    return Err(format!(
                        "core partition mismatch at point {i}: cluster {y} maps \
                         back to both {} and {x}",
                        bwd[y as usize]
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Greedy delta-debugging: shrink `data` to a (locally) minimal subset on
/// which `fails` still returns `true`.
///
/// The offline `proptest` stand-in reports failing inputs without
/// shrinking; the differential harness calls this instead, so a
/// counterexample of hundreds of points is reported as the handful that
/// actually disagree. Removal is tried in halves, then quarters, and so
/// on down to single points (classic ddmin), re-testing after each
/// successful reduction. `fails` must be deterministic.
pub fn shrink_case(data: &[Point2], fails: impl Fn(&[Point2]) -> bool) -> Vec<Point2> {
    debug_assert!(fails(data), "shrink_case needs a failing input");
    let mut current = data.to_vec();
    let mut chunk = (current.len() / 2).max(1);
    while chunk >= 1 {
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
                // Do not advance: the next chunk slid into `start`.
            } else {
                start = end;
            }
        }
        if chunk == 1 && !reduced {
            break;
        }
        if !reduced {
            chunk /= 2;
        } else {
            chunk = chunk.min(current.len() / 2).max(1);
        }
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dbscan::{Dbscan, GridSource, PointLabel};
    use spatial::GridIndex;

    /// Two clumps of 4 in eps-chains, a contested border point between
    /// them, and one far-away noise point.
    ///
    /// eps = 1.0, minpts = 4 (closed ball, self included): the interior
    /// points of each clump are cores (ids 1-3 and 5-7); the outermost
    /// points (ids 0 and 8) see only 3 neighbors and are borders. Id 4 at
    /// x = 2.4 is 0.9 from core 3 (x = 1.5) and 0.9 from core 5
    /// (x = 3.3), with a sub-minpts neighborhood of its own — a border
    /// point claimable by either clump.
    fn contested() -> (Vec<Point2>, f64, usize) {
        let mut d = Vec::new();
        for i in 0..4 {
            d.push(Point2::new(i as f64 * 0.5, 0.0)); // A: 0.0 .. 1.5
        }
        d.push(Point2::new(2.4, 0.0)); // contested border (id 4)
        for i in 0..4 {
            d.push(Point2::new(3.3 + i as f64 * 0.5, 0.0)); // B: 3.3 .. 4.8
        }
        d.push(Point2::new(100.0, 100.0)); // noise (id 9)
        (d, 1.0, 4)
    }

    #[test]
    fn classify_matches_hand_computation() {
        let (d, eps, minpts) = contested();
        let classes = classify(&d, eps, minpts);
        for i in [1, 2, 3, 5, 6, 7] {
            assert_eq!(classes[i], PointClass::Core, "id {i}");
        }
        for i in [0, 4, 8] {
            assert_eq!(classes[i], PointClass::Border, "id {i}");
        }
        assert_eq!(classes[9], PointClass::Noise);
    }

    #[test]
    fn core_components_split_the_clumps() {
        let (d, eps, minpts) = contested();
        let classes = classify(&d, eps, minpts);
        let (comp, n) = core_components(&d, eps, &classes);
        assert_eq!(n, 2);
        assert_eq!(comp[1], comp[3]);
        assert_eq!(comp[5], comp[7]);
        assert_ne!(comp[1], comp[5]);
        for i in [0, 4, 8, 9] {
            assert_eq!(comp[i], None, "id {i}");
        }
    }

    #[test]
    fn real_dbscan_output_validates() {
        let (d, eps, minpts) = contested();
        let grid = GridIndex::build(&d, eps);
        let c = Dbscan::new(minpts).run(&GridSource::new(&grid, &d));
        check_clustering(&d, eps, minpts, &c).unwrap();
    }

    #[test]
    fn both_border_resolutions_validate_and_compare_equal() {
        let (d, eps, minpts) = contested();
        let grid = GridIndex::build(&d, eps);
        let c = Dbscan::new(minpts).run(&GridSource::new(&grid, &d));
        // Flip the contested border point to the other cluster: still a
        // valid DBSCAN output, and equivalent up to borders.
        let other = if c.labels()[4] == c.labels()[0] {
            c.labels()[5]
        } else {
            c.labels()[0]
        };
        let mut labels = c.labels().to_vec();
        labels[4] = other;
        let flipped = Clustering::from_labels(labels);
        check_clustering(&d, eps, minpts, &flipped).unwrap();
        equivalent_up_to_borders(&d, eps, minpts, &c, &flipped).unwrap();
        // But the strict comparison distinguishes them.
        assert!(!c.equivalent_to(&flipped));
    }

    #[test]
    fn check_rejects_misassigned_noise() {
        let (d, eps, minpts) = contested();
        let grid = GridIndex::build(&d, eps);
        let c = Dbscan::new(minpts).run(&GridSource::new(&grid, &d));
        let mut labels = c.labels().to_vec();
        labels[9] = labels[0]; // noise point grafted onto a cluster
        let bad = Clustering::from_labels(labels);
        let err = check_clustering(&d, eps, minpts, &bad).unwrap_err();
        assert!(err.contains("noise"), "unexpected error: {err}");
    }

    #[test]
    fn check_rejects_split_core_component() {
        let (d, eps, minpts) = contested();
        // Give clump A's last core point its own cluster id.
        let grid = GridIndex::build(&d, eps);
        let c = Dbscan::new(minpts).run(&GridSource::new(&grid, &d));
        let mut labels = c.labels().to_vec();
        labels[3] = PointLabel::cluster(c.num_clusters());
        let bad = Clustering::from_labels(labels);
        let err = check_clustering(&d, eps, minpts, &bad).unwrap_err();
        assert!(
            err.contains("clusters reported") || err.contains("split"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn check_rejects_unjustified_border_assignment() {
        // Two clumps far apart plus a border point adjacent only to A:
        // assigning it to B's cluster must be rejected even though B is a
        // real cluster.
        let mut d = Vec::new();
        for i in 0..4 {
            d.push(Point2::new(i as f64 * 0.5, 0.0)); // A cores: 0..1.5
        }
        d.push(Point2::new(2.4, 0.0)); // border of A only (id 4)
        for i in 0..4 {
            d.push(Point2::new(50.0 + i as f64 * 0.5, 0.0)); // B cores
        }
        let (eps, minpts) = (1.0, 4);
        let grid = GridIndex::build(&d, eps);
        let c = Dbscan::new(minpts).run(&GridSource::new(&grid, &d));
        let mut labels = c.labels().to_vec();
        labels[4] = labels[5]; // graft the border onto the far cluster
        let bad = Clustering::from_labels(labels);
        let err = check_clustering(&d, eps, minpts, &bad).unwrap_err();
        assert!(err.contains("no core"), "unexpected error: {err}");
    }

    #[test]
    fn equivalence_rejects_different_core_partitions() {
        let (d, eps, minpts) = contested();
        let grid = GridIndex::build(&d, eps);
        let c = Dbscan::new(minpts).run(&GridSource::new(&grid, &d));
        let mut labels = c.labels().to_vec();
        // Merge both clumps into one cluster (and renumber to keep the
        // cluster count plausible): core partitions now differ.
        let a_label = labels[0];
        for l in labels.iter_mut() {
            if l.is_clustered() {
                *l = a_label;
            }
        }
        let merged = Clustering::from_labels(labels);
        assert!(equivalent_up_to_borders(&d, eps, minpts, &c, &merged).is_err());
    }

    #[test]
    fn shrink_finds_minimal_counterexample() {
        // Failure predicate: "contains at least 3 points with x > 10".
        // The minimal failing subset has exactly 3 such points.
        let mut d: Vec<Point2> = (0..40).map(|i| Point2::new(i as f64 * 0.1, 0.0)).collect();
        for i in 0..7 {
            d.push(Point2::new(20.0 + i as f64, 0.0));
        }
        let fails = |pts: &[Point2]| pts.iter().filter(|p| p.x() > 10.0).count() >= 3;
        let minimal = shrink_case(&d, fails);
        assert_eq!(minimal.len(), 3, "shrunk to {minimal:?}");
        assert!(fails(&minimal));
    }
}
