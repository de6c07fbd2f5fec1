//! The multi-clustering pipeline (scenario S2, Section VII-E).
//!
//! Clustering one dataset under a sweep of ε values means building a fresh
//! neighbor table per variant. The pipeline overlaps the two stages in a
//! producer-consumer fashion: while DBSCAN consumes the table of variant
//! `v_i` on the host, the GPU (plus its 3 batching threads) is already
//! producing the table for `v_{i+1}`. The paper allows up to 3 concurrent
//! DBSCAN consumers.
//!
//! [`MultiClusterPipeline::run`] measures each variant's two stage
//! durations *uncontended* (serial execution) and computes the
//! deterministic modeled totals: the non-pipelined response time
//! `Σ (g_i + d_i)` and the pipelined makespan of the two-stage schedule
//! (Figure 4 / Table IV compare exactly these). Setting
//! [`PipelineConfig::concurrent`] instead really executes the producer
//! (on the calling thread) and the consumers (on the shared rayon pool,
//! crossbeam channel between them) — functionally identical, but stage
//! timings then depend on the benchmark host's core count. On a
//! single-thread pool concurrent mode degrades to the serial pass.

use crate::dbscan::Clustering;
use crate::disjoint_set::dbscan_disjoint_set;
use crate::hybrid::{HybridConfig, HybridDbscan, HybridError};
use crate::scenario::Variant;
use crate::shard::{ShardConfig, ShardedHybrid};
use gpu_sim::device::Device;
use gpu_sim::time::SimDuration;
use obs::Recorder;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use spatial::Point2;
use std::sync::Arc;
use std::time::Instant;

/// Pipeline configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// Concurrent DBSCAN consumer threads (paper: up to 3).
    pub consumers: usize,
    /// Hybrid-DBSCAN settings used by the producer.
    pub hybrid: HybridConfig,
    /// Execute stages on real threads (functional validation) instead of
    /// measuring them serially and modeling the overlap.
    pub concurrent: bool,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            consumers: 3,
            hybrid: HybridConfig::default(),
            concurrent: false,
        }
    }
}

/// Timing of one variant within the pipeline.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct VariantTiming {
    pub variant: Variant,
    /// Table-construction (GPU-phase) modeled time `g_i`.
    pub gpu_phase: SimDuration,
    /// Host DBSCAN time `d_i` (measured).
    pub dbscan: SimDuration,
}

/// The outcome of a pipelined multi-clustering run.
#[derive(Debug)]
pub struct PipelineReport {
    pub per_variant: Vec<VariantTiming>,
    /// `Σ (g_i + d_i)`: the non-pipelined response time.
    pub non_pipelined_total: SimDuration,
    /// Makespan of the overlapped producer-consumer schedule.
    pub pipelined_total: SimDuration,
    /// Wall-clock time of the run: the serial measurement pass, or the
    /// concurrent execution under [`PipelineConfig::concurrent`].
    pub wall_time: std::time::Duration,
    /// Cluster counts per variant (full label vectors are dropped to keep
    /// sweep memory bounded; rerun a single variant to inspect labels).
    pub cluster_counts: Vec<u32>,
}

impl PipelineReport {
    /// Speedup of pipelining over running the stages back to back
    /// (the right column of Table IV). A degenerate report whose
    /// pipelined total is zero (e.g. no variants) yields 0.0 rather than
    /// NaN/inf.
    pub fn pipeline_speedup(&self) -> f64 {
        let pipelined = self.pipelined_total.as_secs();
        if pipelined == 0.0 {
            0.0
        } else {
            self.non_pipelined_total.as_secs() / pipelined
        }
    }
}

/// Two-stage pipeline makespan: one producer lane (table construction is
/// serialized on the GPU) feeding `consumers` DBSCAN lanes.
///
/// `g[i]` and `d[i]` are the stage durations of variant `i`, processed in
/// order. Consumers are assigned greedily to the earliest-free lane.
pub fn pipeline_makespan(g: &[SimDuration], d: &[SimDuration], consumers: usize) -> SimDuration {
    assert_eq!(g.len(), d.len());
    let consumers = consumers.max(1);
    let mut producer_free = 0.0f64;
    let mut lanes = vec![0.0f64; consumers];
    let mut end = 0.0f64;
    for i in 0..g.len() {
        producer_free += g[i].as_secs();
        // Earliest-free consumer lane.
        let lane = lanes
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .map(|(k, _)| k)
            .unwrap();
        let start = producer_free.max(lanes[lane]);
        lanes[lane] = start + d[i].as_secs();
        end = end.max(lanes[lane]);
    }
    SimDuration::from_secs(end.max(producer_free))
}

/// The S2 pipeline executor.
pub struct MultiClusterPipeline {
    device: Device,
    config: PipelineConfig,
    recorder: Option<Arc<Recorder>>,
}

impl MultiClusterPipeline {
    pub fn new(device: &Device, config: PipelineConfig) -> Self {
        MultiClusterPipeline {
            device: device.clone(),
            config,
            recorder: None,
        }
    }

    /// Attach an [`obs::Recorder`]: stage spans, queue telemetry, and the
    /// pipeline totals are recorded into it (and propagated to the
    /// producer's [`HybridDbscan`]).
    pub fn with_recorder(mut self, recorder: Arc<Recorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    fn make_hybrid(&self) -> HybridDbscan {
        let hybrid = HybridDbscan::new(&self.device, self.config.hybrid);
        match &self.recorder {
            Some(rec) => hybrid.with_recorder(rec.clone()),
            None => hybrid,
        }
    }

    /// Cluster `data` under every variant. Stage durations are measured
    /// serially (uncontended) unless [`PipelineConfig::concurrent`] is
    /// set; the pipelined/non-pipelined totals are modeled either way.
    pub fn run(
        &self,
        data: &[Point2],
        variants: &[Variant],
    ) -> Result<PipelineReport, HybridError> {
        if !self.config.concurrent {
            return self.run_serial(data, variants);
        }
        self.run_concurrent(data, variants)
    }

    /// The serial pass with a **sharded** producer (DESIGN.md §14): each
    /// variant's table comes from [`ShardedHybrid::build_table`] — k
    /// devices concurrently or out-of-core tiling, per `shard_cfg` — and
    /// the consumer stage is the union-find pass ([`dbscan_disjoint_set`])
    /// over the merged table. The merged rows are bitwise identical to
    /// the unsharded build's, so cluster counts match [`Self::run`]
    /// exactly; `gpu_phase` is the sharded modeled time (max over shards
    /// when concurrent, sum when out-of-core).
    pub fn run_sharded(
        &self,
        data: &[Point2],
        variants: &[Variant],
        shard_cfg: ShardConfig,
    ) -> Result<PipelineReport, HybridError> {
        let sharded = {
            let s = ShardedHybrid::new(&self.device, shard_cfg);
            match &self.recorder {
                Some(rec) => s.with_recorder(rec.clone()),
                None => s,
            }
        };
        self.sweep(
            variants,
            "produce-sharded",
            |eps| sharded.build_table(data, eps).map(|h| (h.modeled_time, h)),
            |handle, minpts| dbscan_disjoint_set(&handle.table, minpts).unpermute(&handle.perm),
        )
    }

    /// Serial measurement pass: build `T`, run DBSCAN, one variant at a
    /// time.
    fn run_serial(
        &self,
        data: &[Point2],
        variants: &[Variant],
    ) -> Result<PipelineReport, HybridError> {
        let hybrid = self.make_hybrid();
        self.sweep(
            variants,
            "produce",
            |eps| {
                hybrid
                    .build_table(data, eps)
                    .map(|h| (h.gpu.modeled_time, h))
            },
            |handle, minpts| HybridDbscan::cluster_with_table(handle, minpts).0,
        )
    }

    /// The serial sweep both passes share: per variant, `produce` builds
    /// the table at ε (span `{produce_name}[i]`) and returns its modeled
    /// GPU phase with it, then `consume` clusters it (span `consume[i]`,
    /// timed as the variant's `dbscan`).
    fn sweep<H>(
        &self,
        variants: &[Variant],
        produce_name: &str,
        mut produce: impl FnMut(f64) -> Result<(SimDuration, H), HybridError>,
        consume: impl Fn(&H, usize) -> Clustering,
    ) -> Result<PipelineReport, HybridError> {
        let rec = self.recorder.as_deref();
        let wall_start = Instant::now();
        let mut per_variant = Vec::with_capacity(variants.len());
        let mut cluster_counts = Vec::with_capacity(variants.len());
        for (i, v) in variants.iter().enumerate() {
            let produce_span = rec.map(|r| {
                let mut s = r.span(format!("{produce_name}[{i}]"), "pipeline");
                s.arg("eps", v.eps);
                s
            });
            let (gpu_phase, handle) = produce(v.eps)?;
            drop(produce_span);
            let consume_span = rec.map(|r| {
                let mut s = r.span(format!("consume[{i}]"), "pipeline");
                s.arg("minpts", v.minpts);
                s
            });
            let t0 = Instant::now();
            let clustering = consume(&handle, v.minpts);
            let dbscan: SimDuration = t0.elapsed().into();
            drop(consume_span);
            per_variant.push(VariantTiming {
                variant: *v,
                gpu_phase,
                dbscan,
            });
            cluster_counts.push(clustering.num_clusters());
        }
        Ok(self.assemble(per_variant, cluster_counts, wall_start))
    }

    /// The report of a finished sweep, with its totals recorded.
    fn assemble(
        &self,
        per_variant: Vec<VariantTiming>,
        cluster_counts: Vec<u32>,
        wall_start: Instant,
    ) -> PipelineReport {
        let g: Vec<SimDuration> = per_variant.iter().map(|t| t.gpu_phase).collect();
        let d: Vec<SimDuration> = per_variant.iter().map(|t| t.dbscan).collect();
        let non_pipelined_total =
            g.iter().copied().sum::<SimDuration>() + d.iter().copied().sum::<SimDuration>();
        let report = PipelineReport {
            pipelined_total: pipeline_makespan(&g, &d, self.config.consumers),
            per_variant,
            non_pipelined_total,
            wall_time: wall_start.elapsed(),
            cluster_counts,
        };
        if let Some(rec) = &self.recorder {
            let m = rec.metrics();
            m.gauge_set(
                "pipeline.non_pipelined_ms",
                report.non_pipelined_total.as_millis(),
            );
            m.gauge_set("pipeline.pipelined_ms", report.pipelined_total.as_millis());
            m.gauge_set("pipeline.speedup", report.pipeline_speedup());
            m.counter_add("pipeline.variants", report.per_variant.len() as u64);
        }
        report
    }

    /// Concurrent execution: the producer runs on the calling thread and
    /// `consumers` DBSCAN consumers run on the shared rayon pool.
    ///
    /// The consumers block on the channel while the producer works, so
    /// real overlap needs at least two threads. On a 1-thread pool there
    /// is no thread to host a consumer while the caller produces —
    /// running "concurrently" would deadlock on the bounded channel — so
    /// this degrades to the (functionally identical) serial pass, with
    /// zero queue-wait telemetry recorded for shape parity.
    fn run_concurrent(
        &self,
        data: &[Point2],
        variants: &[Variant],
    ) -> Result<PipelineReport, HybridError> {
        if rayon::current_num_threads() < 2 {
            let report = self.run_serial(data, variants)?;
            if let Some(rec) = &self.recorder {
                for _ in variants {
                    rec.metrics().observe("pipeline.queue_wait_ms", 0.0);
                }
                rec.metrics().gauge_set("pipeline.queue_depth", 0.0);
            }
            return Ok(report);
        }
        let hybrid = self.make_hybrid();
        let rec = self.recorder.as_deref();
        let n = variants.len();
        let results: Mutex<Vec<Option<(VariantTiming, Clustering)>>> =
            Mutex::new((0..n).map(|_| None).collect());
        let error: Mutex<Option<HybridError>> = Mutex::new(None);

        let wall_start = Instant::now();
        // Each message carries its send instant so consumers can report
        // how long tables sat in the queue (producer/consumer imbalance).
        let (tx, rx) =
            crossbeam::channel::bounded::<(usize, Variant, crate::hybrid::TableHandle, Instant)>(
                self.config.consumers.max(1),
            );

        rayon::scope(|s| {
            // Consumers: run DBSCAN over each received table. Spawned
            // first so pool workers pick them up while the producer
            // (below, on the calling thread) builds the first table.
            for _ in 0..self.config.consumers.max(1) {
                let rx = rx.clone();
                let results = &results;
                s.spawn(move |_| {
                    while let Ok((i, v, handle, sent_at)) = rx.recv() {
                        if let Some(r) = rec {
                            r.metrics().observe(
                                "pipeline.queue_wait_ms",
                                sent_at.elapsed().as_secs_f64() * 1e3,
                            );
                            r.metrics()
                                .gauge_set("pipeline.queue_depth", rx.len() as f64);
                        }
                        let consume_span = rec.map(|r| {
                            let mut span = r.span(format!("consume[{i}]"), "pipeline");
                            span.arg("minpts", v.minpts);
                            span
                        });
                        let (clustering, dbscan_time) =
                            HybridDbscan::cluster_with_table(&handle, v.minpts);
                        drop(consume_span);
                        let timing = VariantTiming {
                            variant: v,
                            gpu_phase: handle.gpu.modeled_time,
                            dbscan: dbscan_time,
                        };
                        results.lock()[i] = Some((timing, clustering));
                    }
                });
            }
            drop(rx);

            // Producer: builds tables in variant order on this thread
            // (table construction is serialized on the GPU anyway). The
            // bounded channel provides backpressure so at most
            // `consumers` tables are alive.
            for (i, v) in variants.iter().enumerate() {
                let produce_span = rec.map(|r| {
                    let mut span = r.span(format!("produce[{i}]"), "pipeline");
                    span.arg("eps", v.eps);
                    span
                });
                match hybrid.build_table(data, v.eps) {
                    Ok(handle) => {
                        drop(produce_span);
                        if tx.send((i, *v, handle, Instant::now())).is_err() {
                            break;
                        }
                    }
                    Err(e) => {
                        *error.lock() = Some(e);
                        break;
                    }
                }
            }
            drop(tx);
        });

        if let Some(e) = error.into_inner() {
            return Err(e);
        }

        let collected = results.into_inner();
        let mut per_variant = Vec::with_capacity(n);
        let mut cluster_counts = Vec::with_capacity(n);
        for slot in collected {
            let (timing, clustering) = slot.expect("every variant must complete");
            per_variant.push(timing);
            cluster_counts.push(clustering.num_clusters());
        }
        Ok(self.assemble(per_variant, cluster_counts, wall_start))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dbscan::{Dbscan, GridSource};
    use crate::kernels::test_support::mixed_points;
    use spatial::GridIndex;

    fn secs(s: f64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    #[test]
    fn makespan_single_variant_is_sum() {
        let m = pipeline_makespan(&[secs(2.0)], &[secs(3.0)], 3);
        assert_eq!(m.as_secs(), 5.0);
    }

    #[test]
    fn makespan_overlaps_stages() {
        // Equal stages: pipelined total = g1 + n*d (steady state).
        let g = vec![secs(1.0); 4];
        let d = vec![secs(1.0); 4];
        let m = pipeline_makespan(&g, &d, 1);
        assert_eq!(m.as_secs(), 5.0, "1 + 4 with perfect overlap");
        let serial: f64 = 8.0;
        assert!(m.as_secs() < serial);
    }

    #[test]
    fn makespan_consumer_bound_relieved_by_lanes() {
        // DBSCAN twice as slow as table construction: with one consumer
        // the pipeline is consumer-bound; three lanes hide it.
        let g = vec![secs(1.0); 6];
        let d = vec![secs(2.0); 6];
        let one = pipeline_makespan(&g, &d, 1);
        let three = pipeline_makespan(&g, &d, 3);
        assert!(three < one);
        // With 3 lanes the producer is the bottleneck: 6*1 + last d = 8.
        assert_eq!(three.as_secs(), 8.0);
    }

    #[test]
    fn makespan_producer_bound_independent_of_lanes() {
        let g = vec![secs(2.0); 5];
        let d = vec![secs(0.5); 5];
        let a = pipeline_makespan(&g, &d, 1);
        let b = pipeline_makespan(&g, &d, 3);
        assert_eq!(a.as_secs(), b.as_secs(), "producer-bound either way");
        assert_eq!(a.as_secs(), 10.5);
    }

    #[test]
    fn makespan_empty() {
        assert_eq!(pipeline_makespan(&[], &[], 3).as_secs(), 0.0);
    }

    #[test]
    fn speedup_of_zero_duration_report_is_zero_not_nan() {
        // An empty (or all-zero-stage) report must not divide by zero.
        let report = PipelineReport {
            per_variant: Vec::new(),
            non_pipelined_total: secs(0.0),
            pipelined_total: secs(0.0),
            wall_time: std::time::Duration::ZERO,
            cluster_counts: Vec::new(),
        };
        let s = report.pipeline_speedup();
        assert_eq!(s, 0.0);
        assert!(!s.is_nan());
    }

    #[test]
    fn recorder_captures_pipeline_stages() {
        let data = mixed_points(200);
        let device = Device::k20c();
        let rec = std::sync::Arc::new(obs::Recorder::new());
        let pipeline = MultiClusterPipeline::new(&device, PipelineConfig::default())
            .with_recorder(rec.clone());
        let variants = vec![Variant::new(0.5, 4), Variant::new(1.0, 4)];
        pipeline.run(&data, &variants).unwrap();
        let spans = rec.spans();
        assert!(
            spans.iter().any(|s| s.name == "produce[0]"),
            "missing produce span"
        );
        assert!(
            spans.iter().any(|s| s.name == "consume[1]"),
            "missing consume span"
        );
        let metrics = rec.metrics().snapshot();
        assert_eq!(metrics.counters["pipeline.variants"], 2);
        assert!(metrics.gauges["pipeline.speedup"] >= 1.0);
    }

    #[test]
    fn recorder_captures_queue_telemetry_in_concurrent_mode() {
        let data = mixed_points(200);
        let device = Device::k20c();
        let rec = std::sync::Arc::new(obs::Recorder::new());
        let pipeline = MultiClusterPipeline::new(
            &device,
            PipelineConfig {
                concurrent: true,
                ..Default::default()
            },
        )
        .with_recorder(rec.clone());
        let variants = vec![
            Variant::new(0.5, 4),
            Variant::new(0.8, 4),
            Variant::new(1.0, 4),
        ];
        pipeline.run(&data, &variants).unwrap();
        let metrics = rec.metrics().snapshot();
        let wait = &metrics.histograms["pipeline.queue_wait_ms"];
        assert_eq!(wait.count, 3, "one queue-wait sample per variant");
        assert!(metrics.gauges.contains_key("pipeline.queue_depth"));
    }

    #[test]
    fn pipeline_runs_all_variants_correctly() {
        let data = mixed_points(400);
        let device = Device::k20c();
        let pipeline = MultiClusterPipeline::new(&device, PipelineConfig::default());
        let variants: Vec<Variant> = [0.4, 0.6, 0.8, 1.0]
            .iter()
            .map(|&e| Variant::new(e, 4))
            .collect();
        let report = pipeline.run(&data, &variants).unwrap();

        assert_eq!(report.per_variant.len(), 4);
        assert_eq!(report.cluster_counts.len(), 4);
        // Cross-check cluster counts against direct DBSCAN per variant.
        for (v, &count) in variants.iter().zip(&report.cluster_counts) {
            let grid = GridIndex::build(&data, v.eps);
            let direct = Dbscan::new(v.minpts).run(&GridSource::new(&grid, &data));
            assert_eq!(count, direct.num_clusters(), "eps = {}", v.eps);
        }
        // Pipelining can only help.
        assert!(report.pipelined_total <= report.non_pipelined_total);
        assert!(report.pipeline_speedup() >= 1.0);
        // Results arrive in variant order regardless of consumer timing.
        for (t, v) in report.per_variant.iter().zip(&variants) {
            assert_eq!(t.variant.eps, v.eps);
        }
    }

    #[test]
    fn sharded_producer_matches_unsharded_pipeline() {
        use crate::shard::ShardMode;
        let data = mixed_points(400);
        let device = Device::k20c();
        let variants: Vec<Variant> = [0.4, 0.7, 1.0]
            .iter()
            .map(|&e| Variant::new(e, 4))
            .collect();
        let pipeline = MultiClusterPipeline::new(&device, PipelineConfig::default());
        let unsharded = pipeline.run(&data, &variants).unwrap();
        for (mode, shards) in [(ShardMode::Concurrent, 3), (ShardMode::OutOfCore, 2)] {
            let sharded = pipeline
                .run_sharded(
                    &data,
                    &variants,
                    ShardConfig {
                        shards,
                        mode,
                        hybrid: HybridConfig::default(),
                    },
                )
                .unwrap();
            assert_eq!(
                sharded.cluster_counts, unsharded.cluster_counts,
                "sharded producer ({mode:?}, k={shards}) changed cluster counts"
            );
            assert_eq!(sharded.per_variant.len(), variants.len());
            assert!(sharded.pipelined_total <= sharded.non_pipelined_total);
        }
    }

    #[test]
    fn pipeline_with_one_consumer_still_completes() {
        let data = mixed_points(200);
        let device = Device::k20c();
        let cfg = PipelineConfig {
            consumers: 1,
            ..Default::default()
        };
        let pipeline = MultiClusterPipeline::new(&device, cfg);
        let variants = vec![Variant::new(0.5, 4), Variant::new(1.0, 4)];
        let report = pipeline.run(&data, &variants).unwrap();
        assert_eq!(report.per_variant.len(), 2);
    }

    #[test]
    fn concurrent_execution_matches_serial() {
        let data = mixed_points(300);
        let device = Device::k20c();
        let variants = vec![
            Variant::new(0.4, 4),
            Variant::new(0.7, 4),
            Variant::new(1.0, 4),
        ];
        let serial = MultiClusterPipeline::new(&device, PipelineConfig::default())
            .run(&data, &variants)
            .unwrap();
        let concurrent = MultiClusterPipeline::new(
            &device,
            PipelineConfig {
                concurrent: true,
                ..Default::default()
            },
        )
        .run(&data, &variants)
        .unwrap();
        assert_eq!(serial.cluster_counts, concurrent.cluster_counts);
        // Per-variant records exist for both (timings are measured and
        // host-dependent, so only structure is asserted).
        assert_eq!(serial.per_variant.len(), concurrent.per_variant.len());
    }
}
