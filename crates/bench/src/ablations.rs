//! Ablation studies beyond the paper's published tables (DESIGN.md §5):
//!
//! * `streams` — stream-count sensitivity of the batched GPU phase
//!   (the paper asserts "3 streams, more achieved no gain" without data).
//! * `blocksize` — GPUCalcShared block-size sensitivity (the paper used
//!   256 and flags the choice as a limitation).
//! * `index` — grid vs R-tree vs kd-tree as the host DBSCAN neighbor
//!   source (why the GPU path uses a grid).
//! * `alpha` — batching overestimation-factor sensitivity: batch counts
//!   and overflow margin vs α.
//! * `hybrid-split` — the paper's future-work kernel: Shared for dense
//!   cells, Global for the rest.
//! * `bandwidth` — the paper's other future-work item: how Hybrid-DBSCAN
//!   responds to host-GPU bandwidth growth (PCIe 2/3/4, NVLink-class).
//! * `gdbscan` — head-to-head against G-DBSCAN (the paper's reference
//!   \[6\]), the "cluster entirely on the GPU" alternative the paper argues
//!   against: its O(|D|²) indexless graph construction quadruples per
//!   size doubling and loses to the grid-indexed hybrid past ~10⁵ points.

use crate::common::{fmt_secs, DatasetCache, Options, TextTable};
use gpu_sim::memory::DeviceAppendBuffer;
use gpu_sim::Device;
use hybrid_dbscan_core::batch::BatchConfig;
use hybrid_dbscan_core::dbscan::{Dbscan, GridSource, KdTreeSource, RTreeSource};
use hybrid_dbscan_core::hybrid::{HybridConfig, HybridDbscan};
use hybrid_dbscan_core::kernels::{GpuCalcGlobal, GpuCalcShared, NeighborPair};
use spatial::presort::spatial_sort;
use spatial::{GridIndex, MemberStoreN, PointStore, RTree};
use std::time::Instant;

/// On-GPU competitor comparison: Hybrid-DBSCAN vs G-DBSCAN vs
/// CUDA-DClust across dataset sizes. G-DBSCAN's
/// indexless O(|D|²) graph construction is competitive at small |D| but
/// loses past the crossover — exactly the scaling argument behind the
/// paper's grid-index design.
pub fn gdbscan(opts: &Options) {
    use hybrid_dbscan_core::cuda_dclust::cuda_dclust;
    use hybrid_dbscan_core::gdbscan::g_dbscan;

    println!("== Ablation: Hybrid-DBSCAN vs on-GPU clustering (paper refs. [5], [6]) ==\n");
    let device = Device::k20c();
    let mut cache = DatasetCache::new(opts.scale);
    let selected = opts.select(&["SDSS1"]);
    let mut t = TextTable::new(&[
        "Dataset",
        "n",
        "Hybrid",
        "G-DBSCAN",
        "(graph)",
        "CUDA-DClust",
        "(launches)",
    ]);
    for name in &selected {
        let full = cache.get(name).points.clone();
        let eps = 0.3;
        for target in [5_000usize, 10_000, 20_000, 40_000] {
            if target > full.len() {
                continue;
            }
            let data: Vec<_> = full
                .iter()
                .step_by((full.len() / target).max(1))
                .copied()
                .collect();
            let hybrid = HybridDbscan::new(&device, HybridConfig::default());
            let h = hybrid.run(&data, eps, 4).expect("hybrid failed");
            let g = g_dbscan(&device, &data, eps, 4).expect("g-dbscan failed");
            let c = cuda_dclust(&device, &data, eps, 4, 256).expect("cuda-dclust failed");
            assert_eq!(h.clustering.num_clusters(), g.clustering.num_clusters());
            assert_eq!(h.clustering.num_clusters(), c.clustering.num_clusters());
            t.row(vec![
                name.clone(),
                data.len().to_string(),
                fmt_secs(h.timings.total.as_secs()),
                fmt_secs(g.report.modeled_time.as_secs()),
                fmt_secs(g.report.graph_time.as_secs()),
                fmt_secs(c.report.modeled_time.as_secs()),
                c.report.launches.to_string(),
            ]);
        }
    }
    t.print();
    println!(
        "\n(G-DBSCAN's graph column quadruples per size doubling — the quadratic,\n indexless build; extrapolated to the paper's 2M-15M point datasets it is\n 80s-4500s vs seconds for the grid-indexed hybrid. CUDA-DClust pays many\n underutilized chain-expansion launches instead.)"
    );
}

/// Bandwidth ablation (the paper's Discussion: "the performance of
/// HYBRID-DBSCAN is likely to improve over CPU algorithms as host-GPU
/// bandwidth increases (e.g., with NVLink)"). Re-run table construction
/// under faster host links and report the modeled GPU phase.
pub fn bandwidth(opts: &Options) {
    use gpu_sim::cost::CostModel;
    use gpu_sim::device::DeviceProps;
    use gpu_sim::transfer::TransferModel;

    println!("== Ablation: host-GPU link bandwidth (paper future work: NVLink) ==\n");
    let mut cache = DatasetCache::new(opts.scale);
    let selected = opts.select(&["SW1", "SDSS1"]);
    let links: [(&str, f64, f64); 4] = [
        ("PCIe2 (paper)", 6.0, 3.0),
        ("PCIe3", 12.0, 6.0),
        ("PCIe4", 24.0, 12.0),
        ("NVLink-class", 80.0, 40.0),
    ];
    let mut t = TextTable::new(&[
        "Dataset",
        "link",
        "pinned GB/s",
        "GPU phase",
        "d2h (serial sum)",
    ]);
    for name in &selected {
        let data = cache.get(name).points.clone();
        for (label, pinned, pageable) in links {
            let transfer = TransferModel {
                pinned_gbps: pinned,
                pageable_gbps: pageable,
                ..TransferModel::pcie2()
            };
            let device = Device::with_props(DeviceProps::k20c(), CostModel::kepler(), transfer);
            let hybrid = HybridDbscan::new(&device, HybridConfig::default());
            let handle = hybrid.build_table(&data, 0.4).expect("build failed");
            t.row(vec![
                name.clone(),
                label.to_string(),
                format!("{pinned:.0}"),
                fmt_secs(handle.gpu.modeled_time.as_secs()),
                fmt_secs(handle.gpu.breakdown.d2h_time.as_secs()),
            ]);
        }
    }
    t.print();
}

/// Stream-count ablation: rebuild the same table with 1..=4 streams and
/// report the modeled GPU-phase time.
pub fn streams(opts: &Options) {
    println!("== Ablation: stream count (paper: 3 streams, more gained nothing) ==\n");
    let device = Device::k20c();
    let mut cache = DatasetCache::new(opts.scale);
    let selected = opts.select(&["SW1", "SDSS1"]);
    let mut t = TextTable::new(&["Dataset", "streams", "batches", "GPU phase"]);
    for name in &selected {
        let data = cache.get(name).points.clone();
        for n_streams in 1..=4 {
            let cfg = HybridConfig {
                batch: BatchConfig {
                    n_streams,
                    // Force multiple batches so overlap matters.
                    static_threshold: 0,
                    static_buffer_items: (data.len() * 4).max(1),
                    ..BatchConfig::default()
                },
                ..HybridConfig::default()
            };
            let hybrid = HybridDbscan::new(&device, cfg);
            let handle = hybrid.build_table(&data, 0.4).expect("build failed");
            t.row(vec![
                name.clone(),
                n_streams.to_string(),
                handle.gpu.n_batches.to_string(),
                fmt_secs(handle.gpu.modeled_time.as_secs()),
            ]);
        }
    }
    t.print();
}

/// Block-size ablation for GPUCalcShared.
pub fn blocksize(opts: &Options) {
    println!("== Ablation: GPUCalcShared block size (paper fixed 256) ==\n");
    let device = Device::k20c();
    let mut cache = DatasetCache::new(opts.scale);
    let selected = opts.select(&["SW1", "SDSS1"]);
    let mut t = TextTable::new(&["Dataset", "block", "kernel ms", "nGPU", "occupancy"]);
    for name in &selected {
        let data = spatial_sort(&cache.get(name).points);
        let eps = 0.2;
        let grid = GridIndex::build(&data, eps);
        let store = PointStore::from_points(&data);
        let members = MemberStoreN::gather(store.view(), grid.lookup());
        let bound: usize = grid
            .non_empty_cells()
            .iter()
            .map(|&h| {
                let m = grid.range_of(h).len();
                let (adj, n) = grid.neighbor_cells(h);
                let nb: usize = adj[..n].iter().map(|&a| grid.range_of(a).len()).sum();
                m * nb
            })
            .sum();
        for block in [32u32, 64, 128, 256, 512] {
            let mut result = DeviceAppendBuffer::<NeighborPair>::new(&device, bound + 64).unwrap();
            let kernel = GpuCalcShared {
                grid: grid.cells_view(),
                members: members.view(),
                geom: grid.geometry(),
                eps,
                schedule: grid.non_empty_cells(),
                result: &result,
            };
            let report = device.launch(kernel.launch_config(block), &kernel).unwrap();
            assert!(!result.overflowed());
            result.reset();
            t.row(vec![
                name.clone(),
                block.to_string(),
                format!("{:.3}", report.duration.as_millis()),
                report.threads_launched.to_string(),
                format!("{:.2}", report.occupancy),
            ]);
        }
    }
    t.print();
}

/// Index ablation: host DBSCAN wall time with grid / R-tree / kd-tree
/// neighbor sources.
pub fn index(opts: &Options) {
    println!("== Ablation: host neighbor-source index (DBSCAN wall time) ==\n");
    let mut cache = DatasetCache::new(opts.scale);
    let selected = opts.select(&["SW1", "SDSS1"]);
    let mut t = TextTable::new(&["Dataset", "eps", "grid", "R-tree", "kd-tree"]);
    for name in &selected {
        let data = cache.get(name).points.clone();
        for eps in [0.2, 0.8] {
            let grid = GridIndex::build(&data, eps);
            let rtree = RTree::bulk_load(&data);
            let kdtree = KdTreeSource::build(&data, eps);
            let time = |f: &dyn Fn() -> u32| {
                let t0 = Instant::now();
                let clusters = f();
                (t0.elapsed().as_secs_f64(), clusters)
            };
            let (tg, cg) = time(&|| {
                Dbscan::new(4)
                    .run(&GridSource::new(&grid, &data))
                    .num_clusters()
            });
            let (tr, cr) = time(&|| {
                Dbscan::new(4)
                    .run(&RTreeSource::new(&rtree, &data, eps))
                    .num_clusters()
            });
            let (tk, ck) = time(&|| Dbscan::new(4).run(&kdtree).num_clusters());
            assert_eq!(cg, cr);
            assert_eq!(cg, ck);
            t.row(vec![
                name.clone(),
                format!("{eps:.1}"),
                fmt_secs(tg),
                fmt_secs(tr),
                fmt_secs(tk),
            ]);
        }
    }
    t.print();
}

/// α sensitivity: batch counts and realized buffer headroom vs α.
pub fn alpha(opts: &Options) {
    println!("== Ablation: batching overestimation factor alpha (paper: 0.05) ==\n");
    let device = Device::k20c();
    let mut cache = DatasetCache::new(opts.scale);
    let selected = opts.select(&["SW1"]);
    let mut t = TextTable::new(&["Dataset", "alpha", "batches", "retries", "buffer", "pairs"]);
    for name in &selected {
        let data = cache.get(name).points.clone();
        for alpha in [0.0, 0.01, 0.05, 0.2, 0.5] {
            let cfg = HybridConfig {
                batch: BatchConfig {
                    alpha,
                    static_threshold: 0,
                    static_buffer_items: (data.len() * 4).max(1),
                    ..BatchConfig::default()
                },
                max_retries: 8,
                ..HybridConfig::default()
            };
            let hybrid = HybridDbscan::new(&device, cfg);
            let handle = hybrid.build_table(&data, 0.4).expect("build failed");
            t.row(vec![
                name.clone(),
                format!("{alpha:.2}"),
                handle.gpu.n_batches.to_string(),
                handle.gpu.retries.to_string(),
                handle.gpu.plan.buffer_items.to_string(),
                handle.gpu.result_pairs.to_string(),
            ]);
        }
    }
    t.print();
}

/// The paper's future-work hybrid kernel: route dense cells to
/// GPUCalcShared and the sparse remainder to GPUCalcGlobal, then compare
/// against each kernel alone.
pub fn hybrid_split(opts: &Options) {
    println!("== Ablation: hybrid split kernel (paper's future-work direction) ==\n");
    let device = Device::k20c();
    let mut cache = DatasetCache::new(opts.scale);
    let selected = opts.select(&["SW1", "SDSS1"]);
    let mut t = TextTable::new(&[
        "Dataset",
        "dense cells",
        "Global ms",
        "Shared ms",
        "Split ms",
    ]);
    for name in &selected {
        let data = spatial_sort(&cache.get(name).points);
        let eps = 0.2;
        let grid = GridIndex::build(&data, eps);
        let store = PointStore::from_points(&data);
        let members = MemberStoreN::gather(store.view(), grid.lookup());
        let bound: usize = grid
            .non_empty_cells()
            .iter()
            .map(|&h| {
                let m = grid.range_of(h).len();
                let (adj, n) = grid.neighbor_cells(h);
                let nb: usize = adj[..n].iter().map(|&a| grid.range_of(a).len()).sum();
                m * nb
            })
            .sum();
        let mut result = DeviceAppendBuffer::<NeighborPair>::new(&device, bound + 64).unwrap();

        // Pure Global.
        let global = {
            let gk = GpuCalcGlobal {
                points: store.view(),
                grid: grid.cells_view(),
                members: members.view(),
                geom: grid.geometry(),
                eps,
                batch: 0,
                n_batches: 1,
                result: &result,
                skip_dense_at: None,
            };
            device.launch(gk.launch_config(256), &gk).unwrap()
        };
        let global_pairs = result.len();
        result.reset();

        // Pure Shared.
        let shared = {
            let sk = GpuCalcShared {
                grid: grid.cells_view(),
                members: members.view(),
                geom: grid.geometry(),
                eps,
                schedule: grid.non_empty_cells(),
                result: &result,
            };
            device.launch(sk.launch_config(256), &sk).unwrap()
        };
        assert_eq!(result.len(), global_pairs, "kernels must agree");
        result.reset();

        // Split: Shared handles cells holding at least half a block of
        // points; a masked Global pass covers points in the sparse
        // remainder (it returns early for dense-cell points).
        const DENSE_AT: usize = 128;
        let dense: Vec<u64> = grid
            .non_empty_cells()
            .iter()
            .copied()
            .filter(|&h| grid.range_of(h).len() >= DENSE_AT)
            .collect();
        let shared_part = if dense.is_empty() {
            None
        } else {
            let k = GpuCalcShared {
                grid: grid.cells_view(),
                members: members.view(),
                geom: grid.geometry(),
                eps,
                schedule: &dense,
                result: &result,
            };
            Some(device.launch(k.launch_config(256), &k).unwrap())
        };
        // Masked Global pass over the sparse remainder.
        let sparse_report = {
            let mk = GpuCalcGlobal {
                points: store.view(),
                grid: grid.cells_view(),
                members: members.view(),
                geom: grid.geometry(),
                eps,
                batch: 0,
                n_batches: 1,
                result: &result,
                skip_dense_at: Some(DENSE_AT),
            };
            device.launch(mk.launch_config(256), &mk).unwrap()
        };
        assert_eq!(
            result.len(),
            global_pairs,
            "split union must equal full result"
        );
        result.reset();

        let split_ms = shared_part.as_ref().map_or(0.0, |r| r.duration.as_millis())
            + sparse_report.duration.as_millis();
        t.row(vec![
            name.clone(),
            dense.len().to_string(),
            format!("{:.3}", global.duration.as_millis()),
            format!("{:.3}", shared.duration.as_millis()),
            format!("{split_ms:.3}"),
        ]);
    }
    t.print();
}
