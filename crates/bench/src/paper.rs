//! The paper's tables and figures from four passes, each run at most once
//! per [`print`](fn@print) and read by every table that needs it: **Table I** (the
//! reference's R-tree search fraction, averaged over `--trials`), **S1**
//! (Table II's `launch_pair`), **S2** (each dataset's Table III sweep:
//! per variant one reference run and one pipelined build + clustering,
//! labels compared in full; Figure 3 reads the per-variant `(g_i, d_i)`,
//! Figure 4 and Table IV the pipeline's totals over them) and **S3** (per
//! Table V row one build, one [`cluster_variants`] and, for
//! Figure 6, a reference sample; Figures 5 and 6 read the same
//! [`ReuseRun`]). Each table is declared once as `Column`s (text header,
//! CSV key, typed `Cell`); `render` prints it and writes `<name>.csv`.

use crate::common::{fmt_secs, DatasetCache, Options, TextTable};
use gpu_sim::memory::{DeviceAppendBuffer, DeviceCounter};
use gpu_sim::{BlockKernel, Device, KernelReport, LaunchConfig};
use hybrid_dbscan_core::hybrid::{HybridConfig, HybridDbscan};
use hybrid_dbscan_core::kernels::{
    GpuCalcGlobal, GpuCalcShared, NeighborCountKernel, NeighborPair,
};
use hybrid_dbscan_core::pipeline::{
    MultiClusterPipeline, PipelineConfig, PipelineReport, VariantTiming,
};
use hybrid_dbscan_core::reference::ReferenceDbscan;
use hybrid_dbscan_core::reuse::{cluster_variants, ReuseRun};
use hybrid_dbscan_core::scenario;
use obs::Recorder;
use spatial::{GridIndex, MemberStoreN, Point2, PointStore};
use std::sync::Arc;
use std::time::Instant;
use Cell::{Fixed2, Fixed3, Int, Secs, Text, Times};

/// A table or figure printed from the passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Table {
    Table1,
    Table2,
    Figure3,
    /// Figure 4 and Table IV: two views of the same totals.
    Figure4,
    Figure5,
    Figure6,
}

impl Table {
    /// The table a `repro` command names (`table4` prints Figure 4 too).
    pub fn parse(name: &str) -> Option<Table> {
        Some(match name {
            "table1" => Table::Table1,
            "table2" => Table::Table2,
            "figure3" => Table::Figure3,
            "figure4" | "table4" => Table::Figure4,
            "figure5" => Table::Figure5,
            "figure6" => Table::Figure6,
            _ => return None,
        })
    }

    /// The datasets the table reports unless `--datasets` names others.
    fn datasets(self) -> &'static [&'static str] {
        match self {
            Table::Table2 => &["SW1", "SW4", "SDSS1", "SDSS2"],
            // The paper plots these without SDSS2 (similar to SDSS1).
            Table::Figure3 | Table::Figure5 => &["SW1", "SW4", "SDSS1", "SDSS3"],
            Table::Table1 | Table::Figure4 | Table::Figure6 => &scenario::DATASETS,
        }
    }
}

/// Table I's published rows: (dataset, ε, search fraction).
const TABLE1: [(&str, f64, f64); 10] = [
    ("SW1", 0.20, 0.522),
    ("SW1", 1.40, 0.483),
    ("SW4", 0.15, 0.525),
    ("SW4", 0.45, 0.510),
    ("SDSS1", 0.20, 0.703),
    ("SDSS1", 1.40, 0.480),
    ("SDSS2", 0.15, 0.679),
    ("SDSS2", 0.45, 0.512),
    ("SDSS3", 0.07, 0.722),
    ("SDSS3", 0.12, 0.629),
];

/// Table IV's published speedups: (dataset, vs reference, vs
/// non-pipelined).
const TABLE4: [(&str, f64, f64); 5] = [
    ("SW1", 3.36, 1.42),
    ("SW4", 3.81, 1.45),
    ("SDSS1", 3.48, 1.56),
    ("SDSS2", 4.04, 1.60),
    ("SDSS3", 5.13, 1.66),
];

/// Figure 5's thread counts (the paper's x-axis is 1..16).
const THREADS: [usize; 5] = [1, 2, 4, 8, 16];

/// Reference runs measured per Figure 6 row; the other variants' times are
/// extrapolated from their mean. Response time is driven by ε, which is
/// fixed within a row, not by minpts (the paper's own observation).
const REFERENCE_SAMPLE: usize = 3;

/// A typed cell: its text form (for the table) and its CSV form (the
/// value in full) come from one value.
enum Cell {
    Text(String),
    Int(u64),
    /// Two decimals (ε).
    Fixed2(f64),
    /// Three decimals (fractions, milliseconds).
    Fixed3(f64),
    /// Seconds, shown in ms below 1 s.
    Secs(f64),
    /// A ratio, shown as `2.43x`.
    Times(f64),
}

impl Cell {
    fn text(&self) -> String {
        match self {
            Text(s) => s.clone(),
            Int(v) => v.to_string(),
            Fixed2(v) => format!("{v:.2}"),
            Fixed3(v) => format!("{v:.3}"),
            Secs(v) => fmt_secs(*v),
            Times(v) => format!("{v:.2}x"),
        }
    }

    fn csv(&self) -> String {
        match self {
            Text(s) => s.clone(),
            Int(v) => v.to_string(),
            Fixed2(v) | Fixed3(v) | Secs(v) | Times(v) => v.to_string(),
        }
    }
}

/// One column of a table: its text header and CSV key (`""`: not in that
/// output) and its cell.
struct Column<R> {
    text: &'static str,
    csv: &'static str,
    cell: fn(&R) -> Cell,
}

fn col<R>(text: &'static str, csv: &'static str, cell: fn(&R) -> Cell) -> Column<R> {
    Column { text, csv, cell }
}

/// Write `rows` as `<name>.csv` under `--csv` (unless `name` is empty),
/// then print them: one text table, or one per run of rows that share a
/// non-empty `panel` heading.
fn render<R>(opts: &Options, name: &str, cols: &[Column<R>], rows: &[R], panel: fn(&R) -> String) {
    if !name.is_empty() && opts.csv_dir.is_some() {
        let keyed: Vec<&Column<R>> = cols.iter().filter(|c| !c.csv.is_empty()).collect();
        let mut csv = keyed.iter().map(|c| c.csv).collect::<Vec<_>>().join(",") + "\n";
        for r in rows {
            let cells: Vec<String> = keyed.iter().map(|c| (c.cell)(r).csv()).collect();
            csv += &(cells.join(",") + "\n");
        }
        if let Err(e) = opts.write_artifact(&format!("{name}.csv"), &csv) {
            eprintln!("# {e}");
        }
    }
    let shown: Vec<&Column<R>> = cols.iter().filter(|c| !c.text.is_empty()).collect();
    let header: Vec<&str> = shown.iter().map(|c| c.text).collect();
    for (i, group) in rows.chunk_by(|a, b| panel(a) == panel(b)).enumerate() {
        let heading = panel(&group[0]);
        if i > 0 {
            println!();
        }
        if !heading.is_empty() {
            println!("--- {heading} ---");
        }
        let mut t = TextTable::new(&header);
        for r in group {
            t.row(shown.iter().map(|c| (c.cell)(r).text()).collect());
        }
        t.print();
    }
}

fn one_panel<R>(_: &R) -> String {
    String::new()
}

/// Run the passes `tables` read, each once, then print the tables in
/// order. Table II and Figure 4 are instrumented: with `--trace`/
/// `--metrics`, Table II's batching telemetry builds and the S2 pipeline
/// are recorded, and the files are written at the end.
pub fn print(tables: &[Table], opts: &Options) {
    use Table::*;
    let mut cache = DatasetCache::new(opts.scale);
    let instrumented = tables.contains(&Table2) || tables.contains(&Figure4);
    let rec = opts.recorder().filter(|_| instrumented);
    // A pass runs over every dataset one of its printed tables reports.
    let wants =
        |t: &Table, name: &String| tables.contains(t) && opts.select(t.datasets()).contains(name);
    let pass = |of: [Table; 2]| -> Vec<String> {
        let all = opts.select(&scenario::DATASETS).into_iter();
        all.filter(|n| of.iter().any(|t| wants(t, n))).collect()
    };
    let s2 = s2_pass(&pass([Figure3, Figure4]), &mut cache, rec.as_ref());
    let s3 = s3_pass(
        &pass([Figure5, Figure6]),
        tables.contains(&Figure6),
        &mut cache,
    );
    for (i, &t) in tables.iter().enumerate() {
        if i > 0 {
            println!("\n");
        }
        match t {
            Table1 => print_table1(opts, &mut cache),
            Table2 => print_table2(opts, &mut cache, rec.as_ref()),
            Figure3 => print_figure3(opts, &s2),
            Figure4 => print_figure4(opts, &s2),
            Figure5 => print_figure5(opts, &s3),
            Figure6 => print_figure6(opts, &s3),
        }
    }
    if let Some(rec) = rec {
        for e in opts.write_observability(&rec) {
            eprintln!("# {e}");
        }
    }
}

/// The pass results `t` reports, in its dataset order.
fn rows_of<'a, T>(opts: &Options, t: Table, all: &'a [T], dataset: fn(&T) -> &str) -> Vec<&'a T> {
    opts.select(t.datasets())
        .iter()
        .flat_map(|n| all.iter().filter(move |r| dataset(r) == n))
        .collect()
}

// ---------------------------------------------------------------- Table I

/// One Table I row, averaged over `--trials`.
struct SearchFraction {
    dataset: &'static str,
    eps: f64,
    fraction: f64,
    total_secs: f64,
    paper: f64,
}

fn print_table1(opts: &Options, cache: &mut DatasetCache) {
    println!("== Table I: fraction of sequential DBSCAN time in R-tree search (minpts = 4) ==");
    println!("Paper range: 0.480 - 0.722; expectation: a large fraction of total time.\n");
    let selected = opts.select(Table::Table1.datasets());
    let mut rows = Vec::new();
    for &(dataset, eps, paper) in TABLE1.iter().filter(|r| selected.iter().any(|s| s == r.0)) {
        let data = &cache.get(dataset).points;
        let (mut fraction, mut total_secs) = (0.0, 0.0);
        for _ in 0..opts.trials {
            let report = ReferenceDbscan::new(eps, 4).run(data);
            fraction += report.search_fraction();
            total_secs += report.total_time.as_secs();
        }
        let trials = opts.trials as f64;
        rows.push(SearchFraction {
            dataset,
            eps,
            fraction: fraction / trials,
            total_secs: total_secs / trials,
            paper,
        });
    }
    let columns: [Column<SearchFraction>; 5] = [
        col("Dataset", "dataset", |r| Text(r.dataset.into())),
        col("eps", "eps", |r| Fixed2(r.eps)),
        col("Frac. Time", "fraction", |r| Fixed3(r.fraction)),
        col("paper", "paper_fraction", |r| Fixed3(r.paper)),
        col("total", "total_secs", |r| Secs(r.total_secs)),
    ];
    render(opts, "table1", &columns, &rows, one_panel);
}

// ------------------------------------------------------------- S1: Table II

/// Table II's launch pair: one unbatched launch of each ε-neighborhood
/// kernel over the same sorted points and grid.
pub(crate) struct KernelPair {
    pub global: KernelReport,
    pub shared: KernelReport,
    /// Host wall-clock of each launch (the simulation's cost).
    pub global_wall_ms: f64,
    pub shared_wall_ms: f64,
    /// GPUCalcGlobal's result buffer, as its blocks committed it.
    pub global_result: DeviceAppendBuffer<NeighborPair>,
}

/// Launch GPUCalcGlobal, then GPUCalcShared, once each over `sorted`
/// (spatially sorted) and its `grid`, on a fresh K20c, into result buffers
/// sized exactly by the estimation kernel at stride 1. No transfers are
/// modeled: the paper's Table II times single kernel invocations.
pub(crate) fn launch_pair(sorted: &[Point2], grid: &GridIndex, eps: f64) -> KernelPair {
    let device = Device::k20c();
    let store = PointStore::from_points(sorted);
    let members = MemberStoreN::gather(store.view(), grid.lookup());
    let counter = DeviceCounter::new(&device).unwrap();
    let count = NeighborCountKernel {
        points: store.view(),
        grid: grid.cells_view(),
        members: members.view(),
        geom: grid.geometry(),
        eps,
        stride: 1,
        counter: &counter,
    };
    device.launch(count.launch_config(256), &count).unwrap();
    let cap = counter.get() as usize + 64;
    fn timed<K: BlockKernel>(device: &Device, cfg: LaunchConfig, k: &K) -> (KernelReport, f64) {
        let t0 = Instant::now();
        let report = device.launch(cfg, k).unwrap();
        (report, t0.elapsed().as_secs_f64() * 1e3)
    }

    let global_result = DeviceAppendBuffer::<NeighborPair>::new(&device, cap).unwrap();
    let gk = GpuCalcGlobal {
        points: store.view(),
        grid: grid.cells_view(),
        members: members.view(),
        geom: grid.geometry(),
        eps,
        batch: 0,
        n_batches: 1,
        result: &global_result,
        skip_dense_at: None,
    };
    let (global, global_wall_ms) = timed(&device, gk.launch_config(256), &gk);
    assert!(!global_result.overflowed());

    let result = DeviceAppendBuffer::<NeighborPair>::new(&device, cap).unwrap();
    let sk = GpuCalcShared {
        grid: grid.cells_view(),
        members: members.view(),
        geom: grid.geometry(),
        eps,
        schedule: grid.non_empty_cells(),
        result: &result,
    };
    let (shared, shared_wall_ms) = timed(&device, sk.launch_config(256), &sk);
    assert!(!result.overflowed());
    KernelPair {
        global,
        shared,
        global_wall_ms,
        shared_wall_ms,
        global_result,
    }
}

fn print_table2(opts: &Options, cache: &mut DatasetCache, rec: Option<&Arc<Recorder>>) {
    println!("== Table II (S1): kernel efficiency — GPUCalcGlobal vs GPUCalcShared ==");
    println!("Paper shape: Global faster everywhere; Shared worst on uniform data");
    println!("(SDSS2 ~21x slower) and least bad on skewed data (SW4 ~2.4x slower).\n");
    let selected = opts.select(Table::Table2.datasets());
    let settings: Vec<(&'static str, f64)> = scenario::s1_settings()
        .into_iter()
        .filter(|(name, _)| selected.iter().any(|s| s == name))
        .collect();
    // Under density-preserving scaling the published ε carry over.
    let mut rows: Vec<(&str, f64, KernelPair)> = Vec::new();
    for &(dataset, eps) in &settings {
        let sorted = spatial::presort::spatial_sort(&cache.get(dataset).points);
        rows.push((
            dataset,
            eps,
            launch_pair(&sorted, &GridIndex::build(&sorted, eps), eps),
        ));
    }
    fn ms(k: &KernelReport) -> f64 {
        k.duration.as_millis()
    }
    let columns: [Column<(&str, f64, KernelPair)>; 7] = [
        col("Dataset", "dataset", |r| Text(r.0.into())),
        col("eps", "eps", |r| Fixed2(r.1)),
        col("Global ms", "global_ms", |r| Fixed3(ms(&r.2.global))),
        col("Global nGPU", "global_ngpu", |r| {
            Int(r.2.global.threads_launched)
        }),
        col("Shared ms", "shared_ms", |r| Fixed3(ms(&r.2.shared))),
        col("Shared nGPU", "shared_ngpu", |r| {
            Int(r.2.shared.threads_launched)
        }),
        col("Shared/Global", "", |r| {
            Times(ms(&r.2.shared) / ms(&r.2.global).max(1e-12))
        }),
    ];
    render(opts, "table2", &columns, &rows, one_panel);
    if let Some(rec) = rec {
        print_batching_telemetry(cache, &settings, rec);
    }
}

/// With `--trace`/`--metrics`: the full batched table build per Table II
/// setting, recorded, and the batching scheme's estimation telemetry —
/// the estimation kernel's sample count, the overestimation factor (the
/// effective α of Eq. 1) and the per-batch result-set sizes.
fn print_batching_telemetry(
    cache: &mut DatasetCache,
    settings: &[(&str, f64)],
    rec: &Arc<Recorder>,
) {
    let cfg = HybridConfig::default();
    let f = cfg.batch.sample_fraction;
    println!("\n-- Batching telemetry (full build_table; sample fraction f = {f:.3}) --");
    let hybrid = HybridDbscan::new(&Device::k20c(), cfg).with_recorder(rec.clone());
    for &(name, eps) in settings {
        let handle = hybrid.build_table(&cache.get(name).points, eps);
        let g = handle.expect("build_table failed").gpu;
        println!(
            "{name} eps={eps:.2}: e_b {}, |R| est. {} actual {}, 1+a = {:.2}, {} batches of {:?}",
            g.e_b,
            g.plan.estimated_total,
            g.result_pairs,
            1.0 + g.plan.effective_alpha,
            g.n_batches,
            g.per_batch_pairs
        );
    }
}

// ------------------------------------------------- S2: Figure 3, Figure 4

/// One S2 variant (a Figure 3 row): the reference's time and the
/// pipeline's stage times.
pub(crate) struct SweepPoint {
    dataset: String,
    timing: VariantTiming,
    ref_secs: f64,
    clusters: u32,
}

/// One dataset's S2 pass: Figure 3's rows, and the pipeline's report over
/// the same timings (Figure 4, Table IV).
pub(crate) struct Sweep {
    dataset: String,
    points: Vec<SweepPoint>,
    report: PipelineReport,
}

impl Sweep {
    /// The reference's total over the sweep, in variant order.
    fn ref_secs(&self) -> f64 {
        self.points.iter().map(|p| p.ref_secs).sum()
    }
}

/// The S2 pass over `names` (see the module docs). Panics when the
/// hybrid's labels differ from the reference's at any variant.
pub(crate) fn s2_pass(
    names: &[String],
    cache: &mut DatasetCache,
    rec: Option<&Arc<Recorder>>,
) -> Vec<Sweep> {
    let mut pipeline = MultiClusterPipeline::new(&Device::k20c(), PipelineConfig::default());
    if let Some(rec) = rec {
        pipeline = pipeline.with_recorder(rec.clone());
    }
    let mut sweeps = Vec::new();
    for name in names {
        let data = &cache.get(name).points;
        let mut points = Vec::new();
        let variants = scenario::s2_variants(name);
        let report = pipeline
            .run_inspect(data, &variants, |t, handle, hybrid| {
                let v = t.variant;
                let r = ReferenceDbscan::new(v.eps, v.minpts).run(data);
                assert_eq!(
                    hybrid.labels(),
                    r.clustering.labels(),
                    "{name} eps={} minpts={}: hybrid != reference",
                    v.eps,
                    v.minpts
                );
                eprintln!(
                    "# {name} eps={:.2}: ref {} | hybrid {} (gpu {} + dbscan {}), {} clusters, {} batches",
                    v.eps,
                    fmt_secs(r.total_time.as_secs()),
                    fmt_secs((t.gpu_phase + t.dbscan).as_secs()),
                    fmt_secs(t.gpu_phase.as_secs()),
                    fmt_secs(t.dbscan.as_secs()),
                    hybrid.num_clusters(),
                    handle.gpu.n_batches,
                );
                points.push(SweepPoint {
                    dataset: name.clone(),
                    timing: *t,
                    ref_secs: r.total_time.as_secs(),
                    clusters: hybrid.num_clusters(),
                });
            })
            .expect("S2 pipeline failed");
        sweeps.push(Sweep {
            dataset: name.clone(),
            points,
            report,
        });
    }
    sweeps
}

fn hybrid_secs(p: &SweepPoint) -> f64 {
    (p.timing.gpu_phase + p.timing.dbscan).as_secs()
}

fn print_figure3(opts: &Options, s2: &[Sweep]) {
    println!("== Figure 3 (S2): response time vs eps — reference vs Hybrid-DBSCAN ==");
    println!("Paper shape: hybrid total < reference at every eps; GPU-time and");
    println!("DBSCAN-time curves are roughly equal; hybrid clusterings identical.\n");
    let rows: Vec<&SweepPoint> = rows_of(opts, Table::Figure3, s2, |s| &s.dataset)
        .into_iter()
        .flat_map(|s| &s.points)
        .collect();
    let columns: [Column<&SweepPoint>; 8] = [
        col("", "dataset", |r| Text(r.dataset.clone())),
        col("eps", "eps", |r| Fixed2(r.timing.variant.eps)),
        col("Ref", "ref_secs", |r| Secs(r.ref_secs)),
        col("Hybrid total", "hybrid_total_secs", |r| {
            Secs(hybrid_secs(r))
        }),
        col("Hybrid DBSCAN", "hybrid_dbscan_secs", |r| {
            Secs(r.timing.dbscan.as_secs())
        }),
        col("Hybrid GPU", "hybrid_gpu_secs", |r| {
            Secs(r.timing.gpu_phase.as_secs())
        }),
        col("speedup", "", |r| {
            Times(r.ref_secs / hybrid_secs(r).max(1e-12))
        }),
        col("clusters", "clusters", |r| Int(r.clusters.into())),
    ];
    render(opts, "figure3", &columns, &rows, |r| {
        format!("{} (minpts = {})", r.dataset, r.timing.variant.minpts)
    });
}

fn print_figure4(opts: &Options, s2: &[Sweep]) {
    println!("== Figure 4 + Table IV (S2): multi-clustering totals and speedups ==");
    println!("Paper shape: ref >> non-pipelined > pipelined; pipelined vs ref");
    println!("3.36-5.13x (best on the largest/most-uniform dataset); pipelined vs");
    println!("non-pipelined 1.42-1.66x.\n");
    let rows = rows_of(opts, Table::Figure4, s2, |s| &s.dataset);
    let columns: [Column<&Sweep>; 5] = [
        col("Dataset", "dataset", |r| Text(r.dataset.clone())),
        col("variants", "variants", |r| Int(r.points.len() as u64)),
        col("Reference", "ref_secs", |r| Secs(r.ref_secs())),
        col("Non-pipelined", "non_pipelined_secs", |r| {
            Secs(r.report.non_pipelined_total.as_secs())
        }),
        col("Pipelined", "pipelined_secs", |r| {
            Secs(r.report.pipelined_total.as_secs())
        }),
    ];
    render(opts, "figure4", &columns, &rows, one_panel);

    println!("\n-- Table IV: speedups of pipelined Hybrid-DBSCAN --");
    let columns: [Column<&Sweep>; 5] = [
        col("Dataset", "", |r| Text(r.dataset.clone())),
        col("vs Ref", "", |r| {
            Times(r.ref_secs() / r.report.pipelined_total.as_secs().max(1e-12))
        }),
        col("paper", "", |r| published(r, |p| p.1)),
        col("vs Non-pipelined", "", |r| {
            Times(r.report.pipeline_speedup())
        }),
        col("paper", "", |r| published(r, |p| p.2)),
    ];
    render(opts, "", &columns, &rows, one_panel);
}

/// A published Table IV speedup of `r`'s dataset.
fn published(r: &Sweep, pick: fn(&(&str, f64, f64)) -> f64) -> Cell {
    TABLE4
        .iter()
        .find(|p| p.0 == r.dataset)
        .map_or(Text("-".into()), |p| Times(pick(p)))
}

// ------------------------------------------------- S3: Figure 5, Figure 6

/// One (dataset, ε) row of Table V: its table-reuse run and, when Figure 6
/// is printed, the reference total over its variants.
pub(crate) struct Reuse {
    dataset: String,
    run: ReuseRun,
    /// Extrapolated from [`REFERENCE_SAMPLE`] measured variants.
    ref_secs: Option<f64>,
}

impl Reuse {
    /// Modeled response time with `threads` DBSCAN workers.
    fn total_secs(&self, threads: usize) -> f64 {
        self.run.total(threads).as_secs()
    }
}

/// The S3 pass over `names` (see the module docs); `reference` measures
/// Figure 6's reference sample.
pub(crate) fn s3_pass(names: &[String], reference: bool, cache: &mut DatasetCache) -> Vec<Reuse> {
    let hybrid = HybridDbscan::new(&Device::k20c(), HybridConfig::default());
    let mut rows = Vec::new();
    for name in names {
        let data = &cache.get(name).points;
        for (eps, minpts) in scenario::s3_rows(name) {
            // T is built once per row; each variant is clustered once and
            // the t-thread phase is the modeled work-queue makespan.
            let handle = hybrid.build_table(data, eps).expect("table build failed");
            let run = cluster_variants(&handle, &minpts);
            let ref_secs = reference.then(|| {
                let sample: f64 = minpts
                    .iter()
                    .take(REFERENCE_SAMPLE)
                    .map(|&m| ReferenceDbscan::new(eps, m).run(data).total_time.as_secs())
                    .sum();
                sample / REFERENCE_SAMPLE as f64 * minpts.len() as f64
            });
            eprintln!(
                "# {name} eps={eps:.2}: table {} | dbscan 1t {} 16t {}{}",
                fmt_secs(run.table_time.as_secs()),
                fmt_secs(run.dbscan_phase(1).as_secs()),
                fmt_secs(run.dbscan_phase(16).as_secs()),
                ref_secs.map_or(String::new(), |s| format!(" | ref {}", fmt_secs(s)))
            );
            rows.push(Reuse {
                dataset: name.clone(),
                run,
                ref_secs,
            });
        }
    }
    rows
}

fn print_figure5(opts: &Options, s3: &[Reuse]) {
    println!("== Figure 5 (S3): response time vs threads, one table reused for 16 minpts ==");
    println!("Paper shape: time drops with threads (4.4-6.1x on SW1, 2.9-5.1x on");
    println!("SDSS1 from 1->16); table-construction time is the constant offset.\n");
    let runs = rows_of(opts, Table::Figure5, s3, |r| &r.dataset);
    let rows: Vec<(&Reuse, usize)> = runs
        .iter()
        .flat_map(|&r| THREADS.iter().map(move |&t| (r, t)))
        .collect();
    let columns: [Column<(&Reuse, usize)>; 7] = [
        col("", "dataset", |r| Text(r.0.dataset.clone())),
        col("", "eps", |r| Fixed2(r.0.run.eps)),
        col("threads", "threads", |r| Int(r.1 as u64)),
        col("", "table_secs", |r| Secs(r.0.run.table_time.as_secs())),
        col("DBSCAN", "dbscan_secs", |r| {
            Secs(r.0.run.dbscan_phase(r.1).as_secs())
        }),
        col("Total", "total_secs", |r| Secs(r.0.total_secs(r.1))),
        col("speedup vs 1 thread", "", |r| {
            Times(r.0.total_secs(1) / r.0.total_secs(r.1).max(1e-12))
        }),
    ];
    render(opts, "figure5", &columns, &rows, |r| {
        let n = r.0.run.per_variant_dbscan.len();
        format!(
            "{} (eps = {:.2}, {n} minpts variants)",
            r.0.dataset, r.0.run.eps
        )
    });
}

fn print_figure6(opts: &Options, s3: &[Reuse]) {
    println!("== Figure 6 (S3): speedup of 16-thread table reuse vs per-variant reference ==");
    println!("Paper shape: 27x-54x across the Table V rows.\n");
    let rows = rows_of(opts, Table::Figure6, s3, |r| &r.dataset);
    let columns: [Column<&Reuse>; 6] = [
        col("Dataset", "dataset", |r| Text(r.dataset.clone())),
        col("eps", "eps", |r| Fixed2(r.run.eps)),
        col("variants", "variants", |r| {
            Int(r.run.per_variant_dbscan.len() as u64)
        }),
        col("Reuse total", "reuse_total_secs", |r| {
            Secs(r.total_secs(16))
        }),
        col("Ref total", "ref_total_secs", |r| Secs(reference_secs(r))),
        col("Speedup", "speedup", |r| {
            Times(reference_secs(r) / r.total_secs(16).max(1e-12))
        }),
    ];
    render(opts, "figure6", &columns, &rows, one_panel);
    println!(
        "\n(reference totals extrapolated from {REFERENCE_SAMPLE} of 16 minpts values per row)"
    );
}

fn reference_secs(r: &Reuse) -> f64 {
    r.ref_secs.expect("Figure 6 measures the reference")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::sync::OnceLock;

    /// Every table's CSV from one `repro all`-style run on a tiny SDSS1:
    /// name → (header line, rows as cells).
    type Csvs = BTreeMap<&'static str, (String, Vec<Vec<String>>)>;

    const NAMES: [&str; 6] = [
        "table1", "table2", "figure3", "figure4", "figure5", "figure6",
    ];

    fn tiny_tables() -> &'static Csvs {
        static CSVS: OnceLock<Csvs> = OnceLock::new();
        CSVS.get_or_init(|| {
            let dir = std::env::temp_dir().join(format!("repro-paper-{}", std::process::id()));
            let opts = Options {
                scale: 0.002,
                datasets: vec!["SDSS1".into()],
                csv_dir: Some(dir.clone()),
                ..Options::default()
            };
            use Table::*;
            print(&[Table1, Table2, Figure3, Figure4, Figure5, Figure6], &opts);
            let csvs = NAMES
                .iter()
                .map(|&name| {
                    let text = std::fs::read_to_string(dir.join(format!("{name}.csv"))).unwrap();
                    let mut lines = text.lines();
                    let header = lines.next().unwrap().to_string();
                    let rows = lines
                        .map(|l| l.split(',').map(String::from).collect())
                        .collect();
                    (name, (header, rows))
                })
                .collect();
            let _ = std::fs::remove_dir_all(&dir);
            csvs
        })
    }

    /// The rows of `name` as column → cell maps.
    fn rows(name: &str) -> Vec<BTreeMap<&'static str, &'static str>> {
        let (header, rows) = &tiny_tables()[name];
        let keys: Vec<&str> = header.split(',').collect();
        assert!(!rows.is_empty(), "{name} has no rows");
        rows.iter()
            .map(|r| {
                keys.iter()
                    .copied()
                    .zip(r.iter().map(String::as_str))
                    .collect()
            })
            .collect()
    }

    fn num(cell: &str) -> f64 {
        cell.parse().unwrap()
    }

    #[test]
    fn every_table_keeps_its_csv_header() {
        let pinned = [
            ("table1", "dataset,eps,fraction,paper_fraction,total_secs"),
            ("table2", "dataset,eps,global_ms,global_ngpu,shared_ms,shared_ngpu"),
            (
                "figure3",
                "dataset,eps,ref_secs,hybrid_total_secs,hybrid_dbscan_secs,hybrid_gpu_secs,clusters",
            ),
            ("figure4", "dataset,variants,ref_secs,non_pipelined_secs,pipelined_secs"),
            ("figure5", "dataset,eps,threads,table_secs,dbscan_secs,total_secs"),
            ("figure6", "dataset,eps,variants,reuse_total_secs,ref_total_secs,speedup"),
        ];
        for (name, header) in pinned {
            assert_eq!(tiny_tables()[name].0, header, "{name}");
        }
    }

    #[test]
    fn figure3_sums_to_table4s_non_pipelined_total_bit_for_bit() {
        let figure3 = rows("figure3");
        for total in rows("figure4") {
            let sum: f64 = figure3
                .iter()
                .filter(|r| r["dataset"] == total["dataset"])
                .map(|r| num(r["hybrid_total_secs"]))
                .sum();
            let expected = num(total["non_pipelined_secs"]);
            assert_eq!(sum.to_bits(), expected.to_bits(), "{}", total["dataset"]);
        }
    }

    #[test]
    fn figure6_reuse_totals_are_figure5s_16_thread_totals() {
        let figure5 = rows("figure5");
        for bar in rows("figure6") {
            let at16 = figure5
                .iter()
                .find(|r| {
                    r["dataset"] == bar["dataset"] && r["eps"] == bar["eps"] && r["threads"] == "16"
                })
                .unwrap_or_else(|| panic!("no 16-thread row for {bar:?}"));
            assert_eq!(at16["total_secs"], bar["reuse_total_secs"]);
        }
    }
}
