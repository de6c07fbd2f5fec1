//! The differential core: run everything, validate everything against
//! the oracle, compare everything pairwise, shrink on failure.

use crate::generators::Case;
use gpu_sim::Device;
use hybrid_dbscan_core::backend::IndexBackend;
use hybrid_dbscan_core::cuda_dclust::cuda_dclust;
use hybrid_dbscan_core::dbscan::{
    Clustering, Dbscan, GridSource, KdTreeSource, NeighborSource, RTreeSource,
};
use hybrid_dbscan_core::gdbscan::g_dbscan;
use hybrid_dbscan_core::hybrid::{HybridConfig, HybridDbscan, KernelChoice};
use hybrid_dbscan_core::oracle;
use hybrid_dbscan_core::reference::ReferenceDbscan;
use spatial::distance::brute_force_neighbors;
use spatial::{GridIndex, Point2, RTree};

/// Chain count for CUDA-DClust runs (enough concurrency to exercise the
/// collision path on every non-trivial case).
const MAX_CHAINS: usize = 64;

/// Run every clusterer in the repository on one input. Ten labeled
/// clusterings: the five implementations (Hybrid with both kernels, the
/// R-tree reference, G-DBSCAN, CUDA-DClust), the Hybrid tree and auto
/// ε-search backends, plus host DBSCAN over each of the three ε-indexes,
/// so an implementation-vs-implementation divergence can be localized to
/// an index or an algorithm.
pub fn run_all(case: &Case) -> Vec<(&'static str, Clustering)> {
    let Case {
        data, eps, minpts, ..
    } = case;
    let (eps, minpts) = (*eps, *minpts);
    let device = Device::k20c();
    let mut out = Vec::new();

    for (name, kernel, backend) in [
        ("hybrid-global", KernelChoice::Global, IndexBackend::Grid),
        ("hybrid-shared", KernelChoice::Shared, IndexBackend::Grid),
        ("hybrid-tree", KernelChoice::Global, IndexBackend::Tree),
        ("hybrid-auto", KernelChoice::Global, IndexBackend::Auto),
    ] {
        let cfg = HybridConfig {
            kernel,
            backend,
            ..HybridConfig::default()
        };
        let r = HybridDbscan::new(&device, cfg)
            .run(data, eps, minpts)
            .unwrap_or_else(|e| panic!("{name} failed on {}: {e:?}", case.family));
        out.push((name, r.clustering));
    }

    out.push((
        "reference-rtree",
        ReferenceDbscan::new(eps, minpts).run(data).clustering,
    ));
    out.push((
        "g-dbscan",
        g_dbscan(&device, data, eps, minpts)
            .unwrap_or_else(|e| panic!("g-dbscan failed on {}: {e:?}", case.family))
            .clustering,
    ));
    out.push((
        "cuda-dclust",
        cuda_dclust(&device, data, eps, minpts, MAX_CHAINS)
            .unwrap_or_else(|e| panic!("cuda-dclust failed on {}: {e:?}", case.family))
            .clustering,
    ));

    let grid = GridIndex::build(data, eps);
    out.push((
        "dbscan-grid",
        Dbscan::new(minpts).run(&GridSource::new(&grid, data)),
    ));
    out.push((
        "dbscan-kdtree",
        Dbscan::new(minpts).run(&KdTreeSource::build(data, eps)),
    ));
    let rt = RTree::bulk_load(data);
    out.push((
        "dbscan-rtree",
        Dbscan::new(minpts).run(&RTreeSource::new(&rt, data, eps)),
    ));
    out
}

/// Cross-check the three indexes' ε-neighborhoods point-for-point
/// against brute force. Run before the clustering comparison so an index
/// bug is reported at the index layer.
pub fn cross_check_neighborhoods(data: &[Point2], eps: f64) -> Result<(), String> {
    let grid = GridIndex::build(data, eps);
    let gs = |q: &Point2| {
        let mut v = grid.query(data, q);
        v.sort_unstable();
        v
    };
    let kd = KdTreeSource::build(data, eps);
    let rt = RTree::bulk_load(data);
    for (id, q) in data.iter().enumerate() {
        let expected = brute_force_neighbors(data, q, eps);
        if gs(q) != expected {
            return Err(format!("grid neighborhood of point {id} != brute force"));
        }
        let mut k = Vec::new();
        kd.neighbors_of(id as u32, &mut k);
        k.sort_unstable();
        if k != expected {
            return Err(format!("kd-tree neighborhood of point {id} != brute force"));
        }
        let mut r = rt.query_eps(q, eps);
        r.sort_unstable();
        if r != expected {
            return Err(format!("r-tree neighborhood of point {id} != brute force"));
        }
    }
    Ok(())
}

/// Full differential check of one case:
///
/// 1. index ε-neighborhoods match brute force point-for-point;
/// 2. every clusterer's output is *valid* (oracle: exact noise, exact
///    core partition, justified border assignments);
/// 3. every pair of outputs is equivalent up to relabeling and border
///    ambiguity.
///
/// Returns the first failure as `(clusterer, message)`.
pub fn check_case(case: &Case) -> Result<(), String> {
    cross_check_neighborhoods(&case.data, case.eps)?;
    let classes = oracle::classify(&case.data, case.eps, case.minpts);
    let runs = run_all(case);
    for (name, c) in &runs {
        oracle::check_clustering_with(&case.data, case.eps, &classes, c)
            .map_err(|e| format!("{name} produced an invalid clustering: {e}"))?;
    }
    let (base_name, base) = &runs[0];
    for (name, c) in &runs[1..] {
        oracle::equivalent_up_to_borders_with(&classes, base, c)
            .map_err(|e| format!("{name} diverges from {base_name}: {e}"))?;
    }
    Ok(())
}

/// [`check_case`], shrinking failures to a minimal point set first. The
/// panic message includes the family, parameters, minimal data, and the
/// minimal case's failure — everything needed to turn the case into a
/// pinned regression test.
pub fn assert_case(case: &Case) {
    let Err(original) = check_case(case) else {
        return;
    };
    let shrink_on = |pts: &[Point2]| {
        let sub = Case {
            family: case.family,
            data: pts.to_vec(),
            eps: case.eps,
            minpts: case.minpts,
        };
        check_case(&sub).is_err()
    };
    let minimal = oracle::shrink_case(&case.data, shrink_on);
    let minimal_err = check_case(&Case {
        family: case.family,
        data: minimal.clone(),
        eps: case.eps,
        minpts: case.minpts,
    })
    .expect_err("shrunk case stopped failing");
    panic!(
        "differential failure in family `{}` (eps = {}, minpts = {}, n = {})\n\
         original failure: {original}\n\
         shrunk to {} points: {minimal:?}\n\
         shrunk failure: {minimal_err}",
        case.family,
        case.eps,
        case.minpts,
        case.data.len(),
        minimal.len(),
    );
}

/// Compare two label vectors exactly (used by the thread tests where the
/// implementation promises bitwise-identical output).
pub fn labels_i64(c: &Clustering) -> Vec<i64> {
    c.labels()
        .iter()
        .map(|l| l.cluster_id().map_or(-1, |id| id as i64))
        .collect()
}
