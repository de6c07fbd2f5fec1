//! **Table II** (scenario S1) — kernel efficiency: single-invocation
//! response time and total thread count (`n_GPU`) of GPUCalcGlobal vs
//! GPUCalcShared.
//!
//! Paper shape: Global wins on every dataset; Shared launches 20–130×
//! more threads (one block per non-empty cell) and degrades most on
//! uniform data / small ε (SDSS2: 2023% slower), least on skewed data
//! (SW4: 143% slower).

use crate::common::{DatasetCache, Options, TextTable};
use gpu_sim::memory::DeviceAppendBuffer;
use gpu_sim::Device;
use hybrid_dbscan_core::hybrid::{HybridConfig, HybridDbscan};
use hybrid_dbscan_core::kernels::{GpuCalcGlobal, GpuCalcShared, NeighborPair};
use spatial::presort::spatial_sort;
use spatial::{GridIndex, MemberStoreN, PointStore};

/// The published settings and results: (dataset, ε, global ms, global
/// n_GPU, shared ms, shared n_GPU).
pub const PAPER: [(&str, f64, f64, u64, f64, u64); 4] = [
    ("SW1", 0.2, 503.270, 1_864_704, 531.411, 37_409_792),
    ("SW4", 0.07, 518.245, 5_159_936, 1258.0, 255_272_704),
    ("SDSS1", 0.2, 72.677, 2_000_128, 544.745, 110_757_120),
    ("SDSS2", 0.07, 80.038, 5_000_192, 1699.0, 649_954_560),
];

/// One measured row.
#[derive(Debug, Clone)]
pub struct Row {
    pub dataset: String,
    pub eps: f64,
    pub global_ms: f64,
    pub global_threads: u64,
    pub shared_ms: f64,
    pub shared_threads: u64,
}

impl Row {
    /// How much faster Global is ("143% faster" = ratio 2.43).
    pub fn global_advantage(&self) -> f64 {
        self.shared_ms / self.global_ms.max(1e-12)
    }
}

/// Measure both kernels on one dataset/ε (single kernel invocation each,
/// no transfer overheads — matching the paper's methodology).
pub fn measure(device: &Device, points: &[spatial::Point2], eps: f64) -> Row {
    let sorted = spatial_sort(points);
    let grid = GridIndex::build(&sorted, eps);
    let store = PointStore::from_points(&sorted);
    let members = MemberStoreN::gather(store.view(), grid.lookup());

    // Capacity: exact pair count is unknown; bound generously via the
    // per-cell neighborhood bound (same bound the shared batcher uses).
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

    let mut result = DeviceAppendBuffer::<NeighborPair>::new(device, bound + 64)
        .expect("result bound exceeds device memory; lower --scale");

    let global_kernel = GpuCalcGlobal {
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
    let global = device
        .launch(global_kernel.launch_config(256), &global_kernel)
        .unwrap();
    assert!(!result.overflowed());
    result.reset();

    let shared_kernel = GpuCalcShared {
        grid: grid.cells_view(),
        members: members.view(),
        geom: grid.geometry(),
        eps,
        schedule: grid.non_empty_cells(),
        result: &result,
    };
    let shared = device
        .launch(shared_kernel.launch_config(256), &shared_kernel)
        .unwrap();
    assert!(!result.overflowed());

    Row {
        dataset: String::new(),
        eps,
        global_ms: global.duration.as_millis(),
        global_threads: global.threads_launched,
        shared_ms: shared.duration.as_millis(),
        shared_threads: shared.threads_launched,
    }
}

/// Run the Table II measurements.
pub fn run(opts: &Options) -> Vec<Row> {
    let device = Device::k20c();
    let mut cache = DatasetCache::new(opts.scale);
    let selected = opts.select(&["SW1", "SW4", "SDSS1", "SDSS2"]);
    let mut rows = Vec::new();
    for &(name, eps, ..) in PAPER.iter() {
        if !selected.iter().any(|s| s == name) {
            continue;
        }
        // The paper decreases eps with |D|; under density-preserving
        // scaling the published eps values carry over unchanged.
        let points = cache.get(name).points.clone();
        let mut row = measure(&device, &points, eps);
        row.dataset = name.to_string();
        rows.push(row);
    }
    rows
}

/// Print the table in the paper's layout.
pub fn print(opts: &Options) {
    println!("== Table II (S1): kernel efficiency — GPUCalcGlobal vs GPUCalcShared ==");
    println!("Paper shape: Global faster everywhere; Shared worst on uniform data");
    println!("(SDSS2 ~21x slower) and least bad on skewed data (SW4 ~2.4x slower).\n");
    let rows = run(opts);
    opts.write_csv(
        "table2",
        &[
            "dataset",
            "eps",
            "global_ms",
            "global_ngpu",
            "shared_ms",
            "shared_ngpu",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.dataset.clone(),
                    r.eps.to_string(),
                    r.global_ms.to_string(),
                    r.global_threads.to_string(),
                    r.shared_ms.to_string(),
                    r.shared_threads.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );
    let mut t = TextTable::new(&[
        "Dataset",
        "eps",
        "Global ms",
        "Global nGPU",
        "Shared ms",
        "Shared nGPU",
        "Shared/Global",
    ]);
    for r in &rows {
        t.row(vec![
            r.dataset.clone(),
            format!("{:.2}", r.eps),
            format!("{:.3}", r.global_ms),
            r.global_threads.to_string(),
            format!("{:.3}", r.shared_ms),
            r.shared_threads.to_string(),
            format!("{:.2}x", r.global_advantage()),
        ]);
    }
    t.print();

    if let Some(rec) = opts.recorder() {
        print_batching_telemetry(opts, &rec);
        for e in opts.write_observability(&rec) {
            eprintln!("# {e}");
        }
    }
}

/// With `--trace`/`--metrics`: run the full batched table build per
/// dataset and report the batching scheme's estimation telemetry —
/// sample fraction of the estimation kernel, overestimation factor (the
/// effective α of Eq. 1), and the per-batch result-set sizes.
fn print_batching_telemetry(opts: &Options, rec: &std::sync::Arc<obs::Recorder>) {
    println!("\n-- Batching telemetry (full build_table, recorder attached) --");
    let device = Device::k20c();
    let cfg = HybridConfig::default();
    println!(
        "estimation-kernel sample fraction f = {:.3} (stride {})",
        cfg.batch.sample_fraction,
        cfg.batch.stride()
    );
    let mut cache = DatasetCache::new(opts.scale);
    let selected = opts.select(&["SW1", "SW4", "SDSS1", "SDSS2"]);
    let mut t = TextTable::new(&[
        "Dataset",
        "eps",
        "e_b",
        "est. |R|",
        "actual |R|",
        "accuracy",
        "overest. 1+a",
        "batches",
    ]);
    for &(name, eps, ..) in PAPER.iter() {
        if !selected.iter().any(|s| s == name) {
            continue;
        }
        let points = cache.get(name).points.clone();
        let handle = HybridDbscan::new(&device, cfg)
            .with_recorder(rec.clone())
            .build_table(&points, eps)
            .expect("build_table failed");
        let g = &handle.gpu;
        let accuracy = if g.plan.estimated_total > 0 {
            g.result_pairs as f64 / g.plan.estimated_total as f64
        } else {
            0.0
        };
        t.row(vec![
            name.to_string(),
            format!("{eps:.2}"),
            g.e_b.to_string(),
            g.plan.estimated_total.to_string(),
            g.result_pairs.to_string(),
            format!("{accuracy:.3}"),
            format!("{:.2}", 1.0 + g.plan.effective_alpha),
            g.n_batches.to_string(),
        ]);
        println!("# {name}: per-batch |result| = {:?}", g.per_batch_pairs);
    }
    t.print();
}
