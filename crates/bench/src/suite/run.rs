//! The one trial runner and the one equivalence check.
//!
//! [`measure`] runs every selected workload at every thread count of the
//! preset: `--warmup` untimed rounds, then `--trials` timed rounds,
//! **interleaved round-robin** across thread counts — round r runs every
//! count once before round r + 1 begins, starting at a count that rotates
//! each round. Sequential per-count blocks are biased on shared or
//! CPU-quota'd runners: slow drift (frequency scaling, CFS throttling as
//! sustained load accrues) lands entirely on whichever count runs last,
//! and the first pipeline of a round pays one-off costs (cold allocator,
//! page faults). Interleaving plus rotation makes every count sample the
//! same drift window. Stage times are summarized as median/MAD/IQR
//! ([`obs::stats`]): one throttled trial must not move a speedup.
//!
//! A preset that sweeps thread counts runs one extra *profiled* pass per
//! (workload, thread count): the same trial under
//! [`rayon::profile::profile_pool`] with an [`obs::Recorder`], never
//! timed (profiling shifts wall time), and held to the determinism
//! policy — it must reproduce the unprofiled witness.
//!
//! Every trial and pass contributes a [`Witness`] to [`check_equivalence`],
//! which compares, in one place, everything that must be bitwise equal:
//! trials and thread counts of one workload (all fields), the backends of
//! one ablation workload (answer + plan), and the shard configurations of
//! one dataset (answer).

use super::{kernel_name, Build, Data, Preset, Role, Workload, ALL};
use crate::common::{DatasetCache, Options};
use crate::paper::launch_pair;
use gpu_sim::profiler::ProfileStats;
use gpu_sim::Device;
use hybrid_dbscan_core::dbscan::{Dbscan, TableSource};
use hybrid_dbscan_core::disjoint_set::dbscan_disjoint_set;
use hybrid_dbscan_core::hybrid::{HybridConfig, HybridDbscan, TableHandle};
use hybrid_dbscan_core::table::{NeighborTable, NeighborTableBuilder};
use hybrid_dbscan_core::{
    clustering_fingerprint, table_fingerprint, IndexBackend, ShardConfig, ShardMode, ShardedHybrid,
};
use obs::bench::WorkloadResult;
use obs::stats;
use obs::Recorder;
use spatial::presort::spatial_sort;
use spatial::{GridIndex, GridLayout, Point2, PointN};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

/// A trial's deterministic outputs, by field name (see [`super::ALL`]).
pub type Witness = BTreeMap<&'static str, u64>;

/// One witness submitted to [`check_equivalence`].
#[derive(Debug, Clone)]
pub struct Member {
    pub group: String,
    pub label: String,
    /// The fields this member must share with its group.
    pub fields: &'static [&'static str],
    pub witness: Witness,
}

/// One field on which a member differs from the first member of its
/// group that reported the field.
#[derive(Debug, Clone, PartialEq)]
pub struct Mismatch {
    pub label: String,
    pub detail: String,
}

/// The equivalence check: every member must agree with its group's first
/// report of each of its fields. Fields a member does not report are not
/// compared.
pub fn check_equivalence(members: &[Member]) -> Vec<Mismatch> {
    let mut first: HashMap<(&str, &str), (&str, u64)> = HashMap::new();
    let mut out = Vec::new();
    for m in members {
        for &field in m.fields {
            let Some(&v) = m.witness.get(field) else {
                continue;
            };
            let (label0, v0) = *first
                .entry((m.group.as_str(), field))
                .or_insert((m.label.as_str(), v));
            if v != v0 {
                out.push(Mismatch {
                    label: m.label.clone(),
                    detail: format!(
                        "{}: {field} {v:016x} differs from {label0} ({v0:016x})",
                        m.label
                    ),
                });
            }
        }
    }
    out
}

/// One measured row: a workload at one thread count.
#[derive(Debug, Clone)]
pub struct Row {
    pub workload: Workload,
    pub threads: usize,
    /// The row; on a preset that sweeps thread counts, its `profile`
    /// holds the profiled pass's diagnosis.
    pub result: WorkloadResult,
}

/// Everything one preset run measured.
#[derive(Default)]
pub struct Measured {
    pub rows: Vec<Row>,
    pub mismatches: Vec<Mismatch>,
    /// The profiled pass of [`Preset::diagnosed_row`] (for
    /// `--trace`/`--metrics`).
    pub recorder: Option<Arc<Recorder>>,
}

/// Run `workloads` under preset `p` (see the module docs).
pub fn measure(p: &Preset, workloads: &[Workload], opts: &Options) -> Measured {
    let counts = p.threads.counts();
    let pools: Vec<rayon::ThreadPool> = counts
        .iter()
        .map(|&t| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(t)
                .build()
                .expect("pool view")
        })
        .collect();
    let diagnosed = p.diagnosed_row(workloads);
    let mut cache = DatasetCache::new(opts.scale);
    let mut out = Measured::default();
    let mut members = Vec::new();
    for w in workloads {
        let points = load(w, &mut cache);
        let (warmup, trials) = if w.group.is_some() {
            (0, 1)
        } else {
            (opts.warmup, opts.trials)
        };
        let ids: Vec<String> = counts.iter().map(|&t| p.row_id(w, t)).collect();
        let mut kept: Vec<Vec<Trial>> = counts.iter().map(|_| Vec::new()).collect();
        let witness = |label: String, witness: Witness| Member {
            group: w.id.clone(),
            label,
            fields: ALL,
            witness,
        };
        for round in 0..warmup + trials {
            for k in 0..pools.len() {
                let i = (round + k) % pools.len();
                let t = pools[i].install(|| trial(w, &points, None));
                members.push(witness(
                    format!("{} trial {round}", ids[i]),
                    t.witness.clone(),
                ));
                if round >= warmup {
                    kept[i].push(t);
                }
            }
        }
        for (i, trials) in kept.iter().enumerate() {
            let last = trials.last().expect("at least one trial");
            if let Some((group, fields)) = w.group {
                members.push(Member {
                    group: group.to_string(),
                    label: ids[i].clone(),
                    fields,
                    witness: last.witness.clone(),
                });
            }
            let mut row = Row {
                workload: w.clone(),
                threads: counts[i],
                result: summarize(w, &ids[i], points.len(), trials),
            };
            if p.sweeps() {
                let rec = Arc::new(Recorder::new());
                let (t, pool_profile) = pools[i].install(|| {
                    let session = rayon::profile::profile_pool();
                    let t = trial(w, &points, Some((&rec, &ids[i])));
                    (t, session.finish())
                });
                rec.record_pool_profile(&pool_profile);
                members.push(witness(format!("{} profiled", ids[i]), t.witness));
                let analysis = obs::analyze::analyze(&rec);
                let m = &mut row.result.metrics;
                let build = analysis.stages.iter().find(|s| s.name == "build_table");
                m.insert(
                    "serial_fraction_build".into(),
                    build.map_or(1.0, |s| s.serial_fraction),
                );
                let util = match analysis.workers.len() {
                    0 => 0.0,
                    n => {
                        analysis
                            .workers
                            .iter()
                            .map(|w| w.utilization_pct)
                            .sum::<f64>()
                            / n as f64
                    }
                };
                m.insert("worker_util_pct".into(), util);
                let steals: u64 = analysis.workers.iter().map(|w| w.steals).sum();
                m.insert("pool_steals".into(), steals as f64);
                row.result.profile = Some(analysis);
                if diagnosed.as_ref() == Some(&ids[i]) {
                    out.recorder = Some(rec);
                }
            }
            out.rows.push(row);
        }
    }
    derive_metrics(&mut out.rows, p.sweeps());
    out.mismatches = check_equivalence(&members);
    out
}

/// Speedup guarded against degenerate baselines: a tiny workload can time
/// a stage at ~0 s, and a raw division would put `inf`/`NaN` into an
/// artifact. Degenerate points report 1.0 (no claim).
pub fn safe_speedup(base: f64, cur: f64) -> f64 {
    if !base.is_finite() || !cur.is_finite() || base < 1e-6 || cur < 1e-6 {
        1.0
    } else {
        base / cur
    }
}

fn median(r: &WorkloadResult, stage: &str) -> f64 {
    r.stages.get(stage).map_or(0.0, |s| s.median_ms)
}

/// Metrics that compare rows: speedups over the smallest thread count
/// (thread sweeps), the modeled speedup of concurrent sharding over a
/// k = 1 sharded build, and the backend ablation's winner and
/// auto-selector verdict.
fn derive_metrics(rows: &mut [Row], sweep: bool) {
    let snapshot: Vec<Row> = rows.to_vec();
    let first_of = |pred: &dyn Fn(&Row) -> bool| snapshot.iter().find(|r| pred(r));
    for (cur, row) in snapshot.iter().zip(rows.iter_mut()) {
        let (w, m) = (&cur.workload, &mut row.result.metrics);
        if sweep {
            let base = first_of(&|r| r.workload.id == w.id).expect("row itself");
            m.insert("threads".into(), cur.threads as f64);
            for stage in ["build_table", "dbscan", "disjoint_set"] {
                let s = safe_speedup(median(&base.result, stage), median(&cur.result, stage));
                m.insert(format!("speedup_{stage}"), s);
            }
        }
        let Some((group, _)) = w.group else { continue };
        let in_group = |r: &Row| r.workload.group.is_some_and(|(g, _)| g == group);
        let base = first_of(&in_group).expect("row itself");
        if let (
            Build::Sharded {
                k: 2..,
                mode: ShardMode::Concurrent,
                ..
            },
            Build::Sharded { k: 1, .. },
        ) = (w.build, base.workload.build)
        {
            let s = median(&base.result, "modeled") / median(&cur.result, "modeled");
            m.insert("speedup_vs_k1".into(), s);
        }
        if w.role == Role::Backend {
            let modeled = |b: IndexBackend| {
                let r = first_of(&|r| in_group(r) && r.workload.backend == b);
                r.map_or(0.0, |r| median(&r.result, "modeled"))
            };
            let winner = if modeled(IndexBackend::Tree) < modeled(IndexBackend::Grid) {
                "tree"
            } else {
                "grid"
            };
            m.insert(
                "winner_is_tree".into(),
                f64::from(u8::from(winner == "tree")),
            );
            if w.backend == IndexBackend::Auto {
                let matched = cur.result.kernel == winner;
                m.insert("auto_matched_winner".into(), f64::from(u8::from(matched)));
            }
        }
    }
}

/// A workload's points, generated (or fetched from the run cache) once.
enum Points {
    D2(Vec<Point2>),
    D3(Vec<PointN<3>>),
    D4(Vec<PointN<4>>),
}

impl Points {
    fn len(&self) -> usize {
        match self {
            Points::D2(p) => p.len(),
            Points::D3(p) => p.len(),
            Points::D4(p) => p.len(),
        }
    }
}

fn load(w: &Workload, cache: &mut DatasetCache) -> Points {
    match w.data {
        Data::Named(name) => Points::D2(cache.get_scaled(name, w.scale_factor).points.clone()),
        Data::Lattice {
            d,
            full_size,
            jitter,
            seed,
        } => {
            let n = ((full_size as f64 * cache.scale() * w.scale_factor).round() as usize).max(64);
            eprintln!("# generating {}: {n} points ({d}-D lattice)…", w.id);
            match d {
                3 => Points::D3(datasets::lattice_nd(n, 1.0, jitter, seed)),
                4 => Points::D4(datasets::lattice_nd(n, 1.0, jitter, seed)),
                _ => panic!("unsupported lattice dimension {d}"),
            }
        }
    }
}

fn dataset_name(w: &Workload) -> String {
    match w.data {
        Data::Named(name) => name.to_string(),
        Data::Lattice { d, .. } => format!("LAT{d}"),
    }
}

/// One trial: wall stage samples, the modeled time, the witness, and the
/// telemetry of this run.
#[derive(Debug, Clone, Default)]
struct Trial {
    wall_ms: Vec<(&'static str, f64)>,
    modeled_ms: Option<f64>,
    witness: Witness,
    metrics: BTreeMap<String, f64>,
    counters: Option<ProfileStats>,
    /// The ε-search backend the build resolved to (`grid`/`tree`).
    chosen: &'static str,
}

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Fold `trials` of `w` into one result row.
fn summarize(w: &Workload, id: &str, points: usize, trials: &[Trial]) -> WorkloadResult {
    let last = trials.last().expect("at least one trial");
    let kernel = match w.role {
        Role::Micro => "both",
        Role::Backend => last.chosen,
        _ => kernel_name(w.kernel),
    };
    let mut r = WorkloadResult {
        id: id.to_string(),
        scenario: w.scenario.to_string(),
        dataset: dataset_name(w),
        kernel: kernel.to_string(),
        eps: w.eps,
        minpts: w.minpts as u64,
        points: points as u64,
        modeled_time_bits: last.witness.get("modeled_time_bits").copied(),
        table_fingerprint: last.witness.get("table_fingerprint").copied(),
        clustering_fingerprint: last.witness.get("clustering_fingerprint").copied(),
        metrics: last.metrics.clone(),
        ..WorkloadResult::default()
    };
    if let Some(c) = last.counters {
        r.counters.insert("kernels".into(), c);
    }
    for (k, &(stage, _)) in last.wall_ms.iter().enumerate() {
        let samples: Vec<f64> = trials.iter().map(|t| t.wall_ms[k].1).collect();
        r.stages.insert(stage.into(), stats::summarize(&samples));
    }
    if last.modeled_ms.is_some() {
        let samples: Vec<f64> = trials.iter().filter_map(|t| t.modeled_ms).collect();
        r.stages
            .insert("modeled".into(), stats::summarize(&samples));
    }
    r
}

/// Run one trial of `w`: build the table, then cluster it twice: seed
/// expansion in the caller's order as `dbscan`, and `dbscan_disjoint_set`
/// (a serial core-level forest build plus one table-order read, so its
/// thread speedup is ~1) as `disjoint_set`. A grouped row times only the build and clusters once, untimed, for
/// its clustering fingerprint. A profiled trial is one root span, with the
/// row id as its `row` arg, whose children are the analysis stages.
fn trial(w: &Workload, points: &Points, profiled: Option<(&Arc<Recorder>, &str)>) -> Trial {
    if w.role == Role::Micro {
        let Points::D2(points) = points else {
            panic!("{}: micro stages are 2-D", w.id)
        };
        return micro_trial(points, w.eps);
    }
    let rec = profiled.map(|(r, _)| r);
    let _root = profiled.map(|(r, row)| {
        let mut s = r.span("trial", "bench");
        s.arg("row", row);
        s
    });
    let device = device_for(w, points);
    let t0 = Instant::now();
    let (table, perm, visit_order, mut t) = build(w, points, &device, rec);
    let build_ms = ms_since(t0);

    let t1 = Instant::now();
    let span = rec.map(|r| r.span("dbscan", "host"));
    let clustering = Dbscan::new(w.minpts)
        .run_with_order(&TableSource::new(&table), Some(&visit_order))
        .unpermute(&perm);
    drop(span);
    let dbscan_ms = ms_since(t1);

    t.wall_ms = vec![("build_table", build_ms)];
    if w.group.is_none() {
        let t2 = Instant::now();
        let span = rec.map(|r| r.span("disjoint_set", "host"));
        let ds = dbscan_disjoint_set(&table, w.minpts);
        drop(span);
        let disjoint_ms = ms_since(t2);
        assert_eq!(
            clustering.num_clusters(),
            ds.num_clusters(),
            "{}: sequential and disjoint-set DBSCAN disagree",
            w.id
        );
        t.wall_ms
            .extend([("dbscan", dbscan_ms), ("disjoint_set", disjoint_ms)]);
    }
    let clusters = clustering.num_clusters() as u64;
    t.witness
        .insert("table_fingerprint", table_fingerprint(&table));
    t.witness.insert(
        "clustering_fingerprint",
        clustering_fingerprint(&clustering),
    );
    t.witness.insert("clusters", clusters);
    t.metrics.insert("clusters".into(), clusters as f64);
    t
}

/// The out-of-core device limit: one byte short of the raw point array.
/// Batching adapts *buffer* sizes to the memory available
/// (`BatchPlan::fit_to_memory`); the resident per-point state cannot
/// shrink, so the unsharded upload cannot even begin while a quarter
/// shard (plus its ε-halo) fits with room for grid and result buffers.
fn undersized_limit(n_points: usize) -> usize {
    n_points * std::mem::size_of::<Point2>() - 1
}

/// The device a trial builds on — checking, for an undersized one, that
/// the unsharded build really does not fit.
fn device_for(w: &Workload, points: &Points) -> Device {
    let Build::Sharded {
        undersized: true, ..
    } = w.build
    else {
        return Device::k20c();
    };
    let Points::D2(points) = points else {
        panic!("{}: sharding runs the 2-D front half", w.id)
    };
    let limit = undersized_limit(points.len());
    assert!(
        HybridDbscan::new(&Device::tiny(limit), HybridConfig::default())
            .build_table(points, w.eps)
            .is_err(),
        "{}: the {limit} B device limit must not fit the unsharded build",
        w.id
    );
    Device::tiny(limit)
}

/// Build `w`'s table on `device`: the table in sorted-id space, the
/// permutation back to caller order, the DBSCAN visit order, and the
/// build's part of the trial (modeled time, witness, telemetry).
fn build(
    w: &Workload,
    points: &Points,
    device: &Device,
    rec: Option<&Arc<Recorder>>,
) -> (NeighborTable, Vec<u32>, Vec<u32>, Trial) {
    let cfg = HybridConfig {
        kernel: w.kernel,
        backend: w.backend,
        ..HybridConfig::default()
    };
    let mut t = Trial::default();
    if let Build::Sharded {
        k,
        mode,
        undersized,
    } = w.build
    {
        let Points::D2(points) = points else {
            panic!("{}: sharding runs the 2-D front half", w.id)
        };
        let cfg = ShardConfig {
            shards: k,
            mode,
            hybrid: cfg,
        };
        let mut sharded = ShardedHybrid::new(device, cfg);
        if let Some(r) = rec {
            sharded = sharded.with_recorder(r.clone());
        }
        let h = sharded
            .build_table(points, w.eps)
            .unwrap_or_else(|e| panic!("{}: build failed: {e:?}", w.id));
        let pairs: usize = h.shards.iter().map(|s| s.result_pairs).sum();
        let halo: usize = h.shards.iter().map(|s| s.halo_points).sum();
        t.modeled_ms = Some(h.modeled_time.as_millis());
        t.witness
            .insert("modeled_time_bits", h.modeled_time.as_secs().to_bits());
        t.witness.insert("result_pairs", pairs as u64);
        t.chosen = w.backend.name();
        let m = &mut t.metrics;
        m.insert("shards".into(), h.shards.len() as f64);
        m.insert("peak_bytes".into(), h.peak_bytes as f64);
        m.insert("halo_points".into(), halo as f64);
        m.insert("result_pairs".into(), pairs as f64);
        if undersized {
            let limit = undersized_limit(points.len());
            assert!(
                h.peak_bytes <= limit,
                "{}: out-of-core peak {} exceeded the {limit} B device limit",
                w.id,
                h.peak_bytes
            );
            m.insert("device_limit_bytes".into(), limit as f64);
        }
        return (h.table, h.perm, h.visit_order, t);
    }
    let mut hybrid = HybridDbscan::new(device, cfg);
    if let Some(r) = rec {
        hybrid = hybrid.with_recorder(r.clone());
    }
    let h: TableHandle = match points {
        Points::D2(p) => hybrid.build_table(p, w.eps),
        Points::D3(p) => hybrid.build_table(p, w.eps),
        Points::D4(p) => hybrid.build_table(p, w.eps),
    }
    .unwrap_or_else(|e| panic!("{}: build failed: {e:?}", w.id));
    let g = &h.gpu;
    t.modeled_ms = Some(g.modeled_time.as_millis());
    t.counters = Some(g.kernel_profile.stats());
    t.chosen = g.backend.chosen.name();
    t.witness
        .insert("modeled_time_bits", g.modeled_time.as_secs().to_bits());
    t.witness.insert("result_pairs", g.result_pairs as u64);
    t.witness.insert("e_b", g.e_b);
    t.witness.insert("batches", g.n_batches as u64);
    let m = &mut t.metrics;
    m.insert("result_pairs".into(), g.result_pairs as f64);
    m.insert("batches".into(), g.n_batches as f64);
    m.insert("e_b".into(), g.e_b as f64);
    m.insert("cell_cv".into(), g.backend.cell_cv);
    m.insert("mean_occupancy".into(), g.backend.mean_occupancy);
    // Per-batch pair percentiles through the pipeline's own histogram
    // (`batch.pairs`), so the buckets match the recorder's telemetry.
    let hist = obs::Metrics::new();
    for &pairs in &g.per_batch_pairs {
        hist.observe("batch.pairs", pairs as f64);
    }
    if let Some(h) = hist.snapshot().histograms.get("batch.pairs") {
        m.insert("batch_pairs_p50".into(), h.percentile(0.5));
        m.insert("batch_pairs_p95".into(), h.percentile(0.95));
    }
    (h.table, h.perm, h.visit_order, t)
}

/// The micro stages, all host wall-clock: the suite rows time the whole
/// pipeline, these isolate the stages the data-layout work targets, so a
/// layout regression shows up in the stage that caused it.
///
/// * `grid_build_dense` / `grid_build_sparse` — [`GridIndex`] forced to
///   each layout on the same dataset/ε;
/// * `kernel_global` / `kernel_shared` — one unbatched launch of each
///   ε-neighborhood kernel (host time of the simulation);
/// * `table_ingest` — [`NeighborTableBuilder`] fed GPUCalcGlobal's whole
///   result buffer as one batch, through the row pass that sorts each row
///   into the table.
pub const MICRO_STAGES: &[&str] = &[
    "grid_build_dense",
    "grid_build_sparse",
    "kernel_global",
    "kernel_shared",
    "table_ingest",
];

fn micro_trial(points: &[Point2], eps: f64) -> Trial {
    let data = spatial_sort(points);
    let grid = GridIndex::build(&data, eps);
    let mut t = Trial::default();

    let t0 = Instant::now();
    let dense = GridIndex::build_with_layout(&data, eps, GridLayout::Dense);
    t.wall_ms.push(("grid_build_dense", ms_since(t0)));
    let t0 = Instant::now();
    let sparse = GridIndex::build_with_layout(&data, eps, GridLayout::Sparse);
    t.wall_ms.push(("grid_build_sparse", ms_since(t0)));
    assert_eq!(dense.lookup(), sparse.lookup(), "layouts must agree");

    let launches = launch_pair(&data, &grid, eps);
    t.wall_ms.push(("kernel_global", launches.global_wall_ms));
    t.wall_ms.push(("kernel_shared", launches.shared_wall_ms));
    let mut result = launches.global_result;
    let pairs = result.len();

    let t0 = Instant::now();
    let builder = NeighborTableBuilder::new(eps, data.len(), 1);
    builder.ingest_batch(0, &mut result);
    let table = builder.finalize();
    t.wall_ms.push(("table_ingest", ms_since(t0)));
    assert_eq!(table.num_points(), data.len());

    t.witness.insert("result_pairs", pairs as u64);
    t.metrics.insert("result_pairs".into(), pairs as f64);
    t.metrics
        .insert("grid_cells".into(), grid.stats().total_cells as f64);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn member(
        group: &str,
        label: &str,
        fields: &'static [&'static str],
        kv: &[(&'static str, u64)],
    ) -> Member {
        Member {
            group: group.into(),
            label: label.into(),
            fields,
            witness: kv.iter().copied().collect(),
        }
    }

    #[test]
    fn equivalence_compares_only_declared_and_reported_fields() {
        let members = [
            member(
                "g",
                "a",
                super::super::ANSWER,
                &[("table_fingerprint", 1), ("modeled_time_bits", 5)],
            ),
            // Modeled bits differ, but the group only fixes the answer.
            member(
                "g",
                "b",
                super::super::ANSWER,
                &[("table_fingerprint", 1), ("modeled_time_bits", 6)],
            ),
            // Another group with the same field value space is separate.
            member("h", "c", super::super::ANSWER, &[("table_fingerprint", 9)]),
        ];
        assert!(check_equivalence(&members).is_empty());
        let bad = [
            member("g", "a", ALL, &[("modeled_time_bits", 5)]),
            // Missing fields are not compared...
            member("g", "b", ALL, &[("clusters", 3)]),
            // ...and the first report of a field is the reference.
            member("g", "c", ALL, &[("clusters", 4), ("modeled_time_bits", 5)]),
        ];
        let m = check_equivalence(&bad);
        assert_eq!(m.len(), 1, "{m:?}");
        assert_eq!(m[0].label, "c");
        assert!(m[0].detail.contains("clusters"), "{}", m[0].detail);
    }

    #[test]
    fn safe_speedup_guards_degenerate_baselines() {
        assert_eq!(safe_speedup(1.0, 0.5), 2.0);
        assert_eq!(safe_speedup(0.0, 0.5), 1.0);
        assert_eq!(safe_speedup(0.5, 0.0), 1.0);
        assert_eq!(safe_speedup(f64::NAN, 1.0), 1.0);
        assert_eq!(safe_speedup(1.0, f64::INFINITY), 1.0);
    }
}
