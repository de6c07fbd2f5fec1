//! The benchmark's workloads: inputs made from the seed, one request of
//! each, the per-layer probes of a traced request, and the correctness
//! oracle a run's outputs are checked against.
//!
//! * `s2_sweep` — scenario S2: one SDSS1-class (near-uniform) dataset
//!   clustered under an ε sweep at `minpts = 4`; every variant builds a
//!   fresh neighbor table, so table construction dominates.
//! * `s3_reuse` — scenario S3: one SDSS1-class table at a fixed ε,
//!   consumed by 16 `minpts` variants on the thread pool, so host
//!   clustering weighs far more than in the sweep. (The skewed SW1 class
//!   at Table V's ε = 0.3 yields ~8.5k neighbors per point, too heavy for
//!   one request.)
//! * `nd3_lattice` — a jittered 3-D lattice through the N-D pipeline with
//!   the `Auto` backend (which picks the packed kd-tree there).

use datasets::spec::{DatasetSpec, SDSS1};
use gpu_sim::device::Device;
use hybrid_dbscan_core::backend::{select_backend, select_backend_nd, ChosenBackend, IndexBackend};
use hybrid_dbscan_core::batch::BatchConfig;
use hybrid_dbscan_core::disjoint_set::dbscan_disjoint_set;
use hybrid_dbscan_core::hybrid::{HybridConfig, HybridDbscan, HybridError, KernelChoice};
use hybrid_dbscan_core::nd::{build_table_nd, cluster_table_nd, NdTableHandle};
use hybrid_dbscan_core::reference::ReferenceDbscan;
use hybrid_dbscan_core::{clustering_fingerprint, table_fingerprint, Clustering, NeighborTable};
use rayon::prelude::*;
use spatial::nd::{apply_permutation_nd, spatial_sort_permutation_nd};
use spatial::presort::spatial_sort_permutation;
use spatial::PointsViewN;
use spatial::{GridIndex, GridIndexN, PackedKdTree, Point2, PointN, PointStore, PointStoreN};
use std::hint::black_box;
use std::time::Instant;

pub const NAMES: [&str; 3] = ["s2_sweep", "s3_reuse", "nd3_lattice"];

/// s2_sweep: SDSS1 at this scale (points and area scale together, so the
/// density the paper's sweep is calibrated for is kept).
const S2_SCALE: f64 = 0.01;
/// s2_sweep: the ε values of one request (the low end of Table III's
/// SDSS1 sweep), all at `minpts = 4`.
const S2_EPS: [f64; 4] = [0.1, 0.15, 0.2, 0.25];
const S2_MINPTS: usize = 4;

/// s3_reuse: SDSS1 at this scale, Table V's ε = 0.5 row and its 16
/// `minpts` values.
const S3_SCALE: f64 = 0.005;
const S3_EPS: f64 = 0.5;
const S3_MINPTS: [usize; 16] = [
    5, 10, 15, 20, 25, 30, 35, 40, 45, 50, 55, 60, 65, 70, 75, 80,
];

/// nd3_lattice: points, unit spacing, jitter (in spacings), ε and minpts.
const ND_POINTS: usize = 12_000;
const ND_JITTER: f64 = 0.25;
const ND_EPS: f64 = 3.0;
const ND_MINPTS: usize = 4;
const ND_BACKEND: IndexBackend = IndexBackend::Auto;

/// Rows per table compared against a brute-force ε-range scan.
const SAMPLED_ROWS: usize = 64;

/// One built neighbor table, in the layout both pipelines share: ids in
/// spatially sorted order, `perm[k]` = original id of sorted position `k`.
pub struct TableOut {
    pub eps: f64,
    pub table: NeighborTable,
    pub perm: Vec<u32>,
    pub modeled_ms: f64,
    pub result_pairs: usize,
    pub n_batches: usize,
}

/// One clustering: labels in the caller's point order, with the
/// parameters it was made for.
pub struct Clustered {
    pub eps: f64,
    pub minpts: usize,
    pub clustering: Clustering,
}

/// The outputs of one request: its tables and its clusterings.
pub struct Outcome {
    pub tables: Vec<TableOut>,
    pub clusterings: Vec<Clustered>,
}

impl Outcome {
    /// Fingerprint of every table and clustering, in request order.
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let fps = self
            .tables
            .iter()
            .map(|t| table_fingerprint(&t.table))
            .chain(
                self.clusterings
                    .iter()
                    .map(|c| clustering_fingerprint(&c.clustering)),
            );
        for fp in fps {
            h = (h ^ fp).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
}

/// Wall times of the layers a traced request crosses, in milliseconds.
/// The index layers (presort, backend selection, index build) run inside
/// `build_table`, so a traced request times them by calling the same
/// layer entry points on the same input just before each table build.
#[derive(Default)]
pub struct Layers {
    pub presort_ms: Vec<f64>,
    pub backend_select_ms: Vec<f64>,
    pub index_build_ms: Vec<f64>,
    pub build_table_ms: Vec<f64>,
    pub cluster_ms: Vec<f64>,
    /// Request time without the probes: table builds plus clustering.
    pub request_ms: Vec<f64>,
}

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

pub enum Workload {
    Sweep {
        data: Vec<Point2>,
        engine: HybridDbscan,
    },
    Reuse {
        data: Vec<Point2>,
        engine: HybridDbscan,
    },
    Lattice {
        data: Vec<PointN<3>>,
        device: Device,
    },
}

fn planar(spec: DatasetSpec, seed: u64, scale: f64) -> Vec<Point2> {
    DatasetSpec { seed, ..spec }.generate(scale).points
}

impl Workload {
    /// Make the workload's inputs from `seed` and the engine that serves
    /// it. `None` for an unknown workload name.
    pub fn setup(name: &str, seed: u64) -> Option<Workload> {
        let device = Device::k20c();
        let engine = || HybridDbscan::new(&device, HybridConfig::default());
        Some(match name {
            "s2_sweep" => Workload::Sweep {
                data: planar(SDSS1, seed, S2_SCALE),
                engine: engine(),
            },
            "s3_reuse" => Workload::Reuse {
                data: planar(SDSS1, seed, S3_SCALE),
                engine: engine(),
            },
            "nd3_lattice" => Workload::Lattice {
                data: datasets::lattice_nd::<3>(ND_POINTS, 1.0, ND_JITTER, seed),
                device,
            },
            _ => return None,
        })
    }

    /// Serve one request. With `layers`, also time each layer it crosses.
    pub fn request(&self, mut layers: Option<&mut Layers>) -> Result<Outcome, HybridError> {
        let mut out = Outcome {
            tables: Vec::new(),
            clusterings: Vec::new(),
        };
        let mut busy_ms = 0.0;
        match self {
            Workload::Sweep { data, engine } => {
                for &eps in &S2_EPS {
                    if let Some(l) = layers.as_deref_mut() {
                        probe_planar(data, eps, engine, l);
                    }
                    let t0 = Instant::now();
                    let handle = engine.build_table(data, eps)?;
                    let build_ms = ms_since(t0);
                    let t0 = Instant::now();
                    let (clustering, _) = HybridDbscan::cluster_with_table(&handle, S2_MINPTS);
                    let cluster_ms = ms_since(t0);
                    busy_ms += build_ms + cluster_ms;
                    if let Some(l) = layers.as_deref_mut() {
                        l.build_table_ms.push(build_ms);
                        l.cluster_ms.push(cluster_ms);
                    }
                    out.tables.push(planar_table(eps, handle));
                    out.clusterings.push(Clustered {
                        eps,
                        minpts: S2_MINPTS,
                        clustering,
                    });
                }
            }
            Workload::Reuse { data, engine } => {
                if let Some(l) = layers.as_deref_mut() {
                    probe_planar(data, S3_EPS, engine, l);
                }
                let t0 = Instant::now();
                let handle = engine.build_table(data, S3_EPS)?;
                let build_ms = ms_since(t0);
                let t0 = Instant::now();
                let clustered: Vec<(usize, Clustering, f64)> = S3_MINPTS
                    .par_iter()
                    .map(|&m| {
                        let t0 = Instant::now();
                        let (c, _) = HybridDbscan::cluster_with_table(&handle, m);
                        (m, c, ms_since(t0))
                    })
                    .collect();
                busy_ms += build_ms + ms_since(t0);
                if let Some(l) = layers.as_deref_mut() {
                    l.build_table_ms.push(build_ms);
                    l.cluster_ms.extend(clustered.iter().map(|c| c.2));
                }
                out.tables.push(planar_table(S3_EPS, handle));
                out.clusterings
                    .extend(
                        clustered
                            .into_iter()
                            .map(|(minpts, clustering, _)| Clustered {
                                eps: S3_EPS,
                                minpts,
                                clustering,
                            }),
                    );
            }
            Workload::Lattice { data, device } => {
                if let Some(l) = layers.as_deref_mut() {
                    probe_lattice(data, ND_EPS, l);
                }
                let t0 = Instant::now();
                let handle = build_lattice(device, data, ND_BACKEND)?;
                let build_ms = ms_since(t0);
                let t0 = Instant::now();
                let clustering = cluster_table_nd(&handle, ND_MINPTS);
                let cluster_ms = ms_since(t0);
                busy_ms += build_ms + cluster_ms;
                if let Some(l) = layers.as_deref_mut() {
                    l.build_table_ms.push(build_ms);
                    l.cluster_ms.push(cluster_ms);
                }
                out.tables.push(TableOut {
                    eps: ND_EPS,
                    modeled_ms: handle.modeled_time.as_millis(),
                    result_pairs: handle.result_pairs,
                    n_batches: handle.n_batches,
                    table: handle.table,
                    perm: handle.perm,
                });
                out.clusterings.push(Clustered {
                    eps: ND_EPS,
                    minpts: ND_MINPTS,
                    clustering,
                });
            }
        }
        if let Some(l) = layers {
            l.request_ms.push(busy_ms);
        }
        Ok(out)
    }

    /// Check one request's outputs against independent computations:
    /// sampled table rows against a brute-force ε-range scan, planar
    /// clusterings against the sequential R-tree reference DBSCAN, the
    /// lattice table against a grid-backend build and its clustering
    /// against the union-find DBSCAN over that table.
    pub fn verify(&self, out: &Outcome) -> Result<(), String> {
        match self {
            Workload::Sweep { data, .. } | Workload::Reuse { data, .. } => {
                for t in &out.tables {
                    check_rows(t, |i, j| data[i].distance_sq(&data[j]))?;
                }
                for c in &out.clusterings {
                    let reference = ReferenceDbscan::new(c.eps, c.minpts).run(data).clustering;
                    if !c.clustering.equivalent_to(&reference) {
                        return Err(format!(
                            "eps {} minpts {}: clustering differs from the reference",
                            c.eps, c.minpts
                        ));
                    }
                }
            }
            Workload::Lattice { data, device } => {
                let t = &out.tables[0];
                check_rows(t, |i, j| data[i].distance_sq(&data[j]))?;
                let grid = build_lattice(device, data, IndexBackend::Grid)
                    .map_err(|e| format!("grid-backend build failed: {e}"))?;
                if table_fingerprint(&grid.table) != table_fingerprint(&t.table) {
                    return Err("tree and grid backends built different tables".into());
                }
                let expected = dbscan_disjoint_set(&grid.table, ND_MINPTS).unpermute(&grid.perm);
                if !out.clusterings[0].clustering.equivalent_to(&expected) {
                    return Err("lattice clustering differs from the union-find one".into());
                }
            }
        }
        Ok(())
    }
}

fn planar_table(eps: f64, handle: hybrid_dbscan_core::hybrid::TableHandle) -> TableOut {
    TableOut {
        eps,
        modeled_ms: handle.gpu.modeled_time.as_millis(),
        result_pairs: handle.gpu.result_pairs,
        n_batches: handle.gpu.n_batches,
        table: handle.table,
        perm: handle.perm,
    }
}

fn build_lattice(
    device: &Device,
    data: &[PointN<3>],
    backend: IndexBackend,
) -> Result<NdTableHandle, HybridError> {
    build_table_nd::<3>(device, data, ND_EPS, backend, &BatchConfig::default(), 256)
}

/// Time the index layers of a 2-D table build by `engine`.
fn probe_planar(data: &[Point2], eps: f64, engine: &HybridDbscan, l: &mut Layers) {
    let cfg = engine.config();
    let t0 = Instant::now();
    let sorted = spatial_sort_permutation(data).apply(data);
    l.presort_ms.push(ms_since(t0));
    let t0 = Instant::now();
    let shared_kernel = cfg.kernel == KernelChoice::Shared;
    let decision = select_backend(cfg.backend, shared_kernel, &sorted, eps);
    l.backend_select_ms.push(ms_since(t0));
    let t0 = Instant::now();
    match decision.chosen {
        ChosenBackend::Grid => {
            black_box(GridIndex::build(&sorted, eps));
        }
        ChosenBackend::Tree => {
            let store = PointStore::from_points(&sorted);
            black_box(PackedKdTree::build(PointsViewN::from(store.view())));
        }
    }
    l.index_build_ms.push(ms_since(t0));
}

/// Time the index layers of a 3-D table build.
fn probe_lattice(data: &[PointN<3>], eps: f64, l: &mut Layers) {
    let t0 = Instant::now();
    let sorted = apply_permutation_nd(&spatial_sort_permutation_nd(data), data);
    l.presort_ms.push(ms_since(t0));
    let t0 = Instant::now();
    let decision = select_backend_nd(ND_BACKEND, &sorted, eps);
    l.backend_select_ms.push(ms_since(t0));
    let t0 = Instant::now();
    match decision.chosen {
        ChosenBackend::Grid => {
            black_box(GridIndexN::<3>::build(&sorted, eps));
        }
        ChosenBackend::Tree => {
            let store = PointStoreN::from_points(&sorted);
            black_box(PackedKdTree::<3>::build(store.view()));
        }
    }
    l.index_build_ms.push(ms_since(t0));
}

/// Compare evenly spaced rows of `t` with a brute-force closed-ε-ball
/// scan; `dist_sq(i, j)` is the squared distance of original points.
fn check_rows(t: &TableOut, dist_sq: impl Fn(usize, usize) -> f64) -> Result<(), String> {
    let n = t.perm.len();
    let eps_sq = t.eps * t.eps;
    for k in (0..n).step_by((n / SAMPLED_ROWS).max(1)) {
        let i = t.perm[k] as usize;
        let mut row: Vec<u32> = t
            .table
            .neighbors(k as u32)
            .iter()
            .map(|&s| t.perm[s as usize])
            .collect();
        row.sort_unstable();
        let expected: Vec<u32> = (0..n)
            .filter(|&j| dist_sq(i, j) <= eps_sq)
            .map(|j| j as u32)
            .collect();
        if row != expected {
            return Err(format!(
                "eps {}: row of point {i} has {} neighbors, brute force finds {}",
                t.eps,
                row.len(),
                expected.len()
            ));
        }
    }
    Ok(())
}
