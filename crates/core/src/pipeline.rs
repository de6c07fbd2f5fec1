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
//! (Figure 4 / Table IV compare exactly these). The overlap is modeled,
//! not executed, so the reported numbers do not depend on the benchmark
//! host's core count. [`MultiClusterPipeline::run_inspect`] is the same
//! sweep with a hook that sees each variant's table and labels.

use crate::dbscan::Clustering;
use crate::hybrid::{HybridConfig, HybridDbscan, HybridError, TableHandle};
use crate::scenario::Variant;
use gpu_sim::device::Device;
use gpu_sim::time::SimDuration;
use obs::Recorder;
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
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            consumers: 3,
            hybrid: HybridConfig::default(),
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
    /// Wall-clock time of the serial measurement pass.
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

    /// Attach an [`obs::Recorder`]: stage spans and the pipeline totals
    /// are recorded into it (and propagated to the producer's
    /// [`HybridDbscan`]).
    pub fn with_recorder(mut self, recorder: Arc<Recorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Cluster `data` under every variant: build `T`, run DBSCAN, one
    /// variant at a time, then model the pipelined/non-pipelined totals
    /// over the measured stage durations.
    pub fn run(
        &self,
        data: &[Point2],
        variants: &[Variant],
    ) -> Result<PipelineReport, HybridError> {
        self.run_inspect(data, variants, |_, _, _| {})
    }

    /// [`Self::run`], handing each variant's timing, table and labels to
    /// `inspect` once its two stages are timed, so a caller can check the
    /// labels (say, against the reference) outside both stages.
    ///
    /// Per variant, the table is built at ε (span `produce[i]`, its
    /// modeled time is `gpu_phase`), then clustered (span `consume[i]`,
    /// timed as `dbscan`); `inspect` sees both untimed.
    pub fn run_inspect(
        &self,
        data: &[Point2],
        variants: &[Variant],
        mut inspect: impl FnMut(&VariantTiming, &TableHandle, &Clustering),
    ) -> Result<PipelineReport, HybridError> {
        let hybrid = HybridDbscan::new(&self.device, self.config.hybrid);
        let hybrid = match &self.recorder {
            Some(rec) => hybrid.with_recorder(rec.clone()),
            None => hybrid,
        };
        let rec = self.recorder.as_deref();
        let wall_start = Instant::now();
        let mut per_variant = Vec::with_capacity(variants.len());
        let mut cluster_counts = Vec::with_capacity(variants.len());
        for (i, v) in variants.iter().enumerate() {
            let produce_span = rec.map(|r| {
                let mut s = r.span(format!("produce[{i}]"), "pipeline");
                s.arg("eps", v.eps);
                s
            });
            let handle = hybrid.build_table(data, v.eps)?;
            drop(produce_span);
            let consume_span = rec.map(|r| {
                let mut s = r.span(format!("consume[{i}]"), "pipeline");
                s.arg("minpts", v.minpts);
                s
            });
            let t0 = Instant::now();
            let (clustering, _) = HybridDbscan::cluster_with_table(&handle, v.minpts);
            let dbscan: SimDuration = t0.elapsed().into();
            drop(consume_span);
            let timing = VariantTiming {
                variant: *v,
                gpu_phase: handle.gpu.modeled_time,
                dbscan,
            };
            inspect(&timing, &handle, &clustering);
            per_variant.push(timing);
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
        let non_pipelined_total = per_variant.iter().map(|t| t.gpu_phase + t.dbscan).sum();
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
}
