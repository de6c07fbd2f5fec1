//! Neighbor-table reuse (scenario S3, Section VII-F).
//!
//! With a *fixed* ε and varying `minpts`, one neighbor table serves every
//! variant: `T` is computed once on the GPU, then up to 16 host threads
//! run DBSCAN over it concurrently, one `minpts` value each — the
//! configuration behind Figures 5 and 6, where reusing `T` yields the
//! paper's headline 27–54× speedups over re-running the reference
//! implementation per variant. (This is the opposite knob from OPTICS,
//! which fixes `minpts` and varies ε.)
//!
//! ## Timing methodology
//!
//! [`cluster_variants`] *measures* the per-variant DBSCAN durations one
//! at a time (no contention) over a table the caller built, and the
//! `t`-thread phase time is the *makespan* of a work-queue schedule of
//! those jobs over `t` lanes — the same deterministic discrete-event
//! approach the GPU phase uses for streams. This keeps the reported
//! scaling faithful to the algorithm rather than to the benchmark host's
//! core count (measured wall time is reported alongside). Clustering one
//! handle on real threads is a `par_iter` over
//! [`HybridDbscan::cluster_with_table`], which shares the handle's
//! core-level forest across the variants.
//!
//! [`HybridDbscan::cluster_with_table`]: crate::hybrid::HybridDbscan::cluster_with_table

use crate::dbscan::{Clustering, Dbscan, TableSource};
use crate::hybrid::TableHandle;
use crate::pipeline::pipeline_makespan;
use gpu_sim::time::SimDuration;
use std::time::Instant;

/// Work-queue makespan: `t` lanes pull jobs in order; each job runs on
/// the earliest-free lane. This models the paper's "up to 16 threads
/// \[that\] consume T for executing DBSCAN": the S2 pipeline schedule with
/// every table already produced.
pub fn work_queue_makespan(durations: &[SimDuration], lanes: usize) -> SimDuration {
    pipeline_makespan(&vec![SimDuration::ZERO; durations.len()], durations, lanes)
}

/// All measurements of one S3 run over a fixed table.
#[derive(Debug)]
pub struct ReuseRun {
    pub eps: f64,
    /// Table-construction time (modeled GPU phase) — paid once.
    pub table_time: SimDuration,
    /// Measured per-variant DBSCAN durations, in `minpts` order
    /// (uncontended, one at a time).
    pub per_variant_dbscan: Vec<SimDuration>,
    /// Cluster counts per variant, in `minpts` order.
    pub cluster_counts: Vec<u32>,
    /// Wall time of the serial measurement pass.
    pub wall_time: std::time::Duration,
}

impl ReuseRun {
    /// Modeled DBSCAN-phase time with `threads` concurrent workers.
    pub fn dbscan_phase(&self, threads: usize) -> SimDuration {
        work_queue_makespan(&self.per_variant_dbscan, threads)
    }

    /// The "Total Time" curve of Figure 5: one table construction plus
    /// the `threads`-way DBSCAN phase.
    pub fn total(&self, threads: usize) -> SimDuration {
        self.table_time + self.dbscan_phase(threads)
    }

    /// Serial DBSCAN time (1-thread phase).
    pub fn dbscan_serial(&self) -> SimDuration {
        self.per_variant_dbscan.iter().copied().sum()
    }
}

/// The S3 measurement pass over a prebuilt table: each `minpts` variant
/// is clustered once, serially, and timed. Every variant is an
/// independent Algorithm-1 run over `T`, as in the paper's Figures 5 and
/// 6 — not a snapshot of the handle's shared core-level forest, which
/// [`HybridDbscan::cluster_with_table`](crate::hybrid::HybridDbscan::cluster_with_table)
/// uses.
pub fn cluster_variants(handle: &TableHandle, minpts_values: &[usize]) -> ReuseRun {
    let wall_start = Instant::now();
    let mut durations: Vec<SimDuration> = Vec::with_capacity(minpts_values.len());
    let mut counts = Vec::with_capacity(minpts_values.len());
    for &m in minpts_values {
        let t0 = Instant::now();
        // Membership statistics are permutation-invariant, so work
        // directly in table (sorted) order.
        let clustering: Clustering = Dbscan::new(m).run(&TableSource::new(&handle.table));
        durations.push(t0.elapsed().into());
        counts.push(clustering.num_clusters());
    }
    ReuseRun {
        eps: handle.table.eps(),
        table_time: handle.gpu.modeled_time,
        per_variant_dbscan: durations,
        cluster_counts: counts,
        wall_time: wall_start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dbscan::GridSource;
    use crate::hybrid::{HybridConfig, HybridDbscan};
    use crate::kernels::test_support::mixed_points;
    use gpu_sim::device::Device;
    use spatial::{GridIndex, Point2};

    /// S3 as the paper runs it: one table build at `eps`, then every
    /// `minpts` variant over it.
    fn reuse_run(data: &[Point2], eps: f64, minpts: &[usize]) -> ReuseRun {
        let handle = HybridDbscan::new(&Device::k20c(), HybridConfig::default())
            .build_table(data, eps)
            .unwrap();
        cluster_variants(&handle, minpts)
    }

    fn secs(s: f64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    #[test]
    fn work_queue_makespan_basics() {
        // 4 equal jobs over 2 lanes: 2 rounds.
        let jobs = vec![secs(1.0); 4];
        assert_eq!(work_queue_makespan(&jobs, 2).as_secs(), 2.0);
        assert_eq!(work_queue_makespan(&jobs, 1).as_secs(), 4.0);
        assert_eq!(work_queue_makespan(&jobs, 4).as_secs(), 1.0);
        // More lanes than jobs: bounded by the longest job.
        assert_eq!(work_queue_makespan(&jobs, 16).as_secs(), 1.0);
        assert_eq!(work_queue_makespan(&[], 3).as_secs(), 0.0);
    }

    #[test]
    fn work_queue_makespan_unbalanced_jobs() {
        let jobs = [4.0, 1.0, 1.0, 1.0, 1.0].map(secs);
        // Queue order: lane0 takes 4.0; lane1 takes the four 1.0s.
        assert_eq!(work_queue_makespan(&jobs, 2).as_secs(), 4.0);
        // Never better than total/lanes or the longest job.
        for lanes in 1..6 {
            let m = work_queue_makespan(&jobs, lanes).as_secs();
            assert!(m >= 8.0 / lanes as f64 - 1e-12);
            assert!(m >= 4.0);
        }
    }

    #[test]
    fn reuse_matches_per_variant_direct_runs() {
        let data = mixed_points(500);
        let minpts = [2usize, 4, 8, 16, 32];
        let run = reuse_run(&data, 0.8, &minpts);

        assert_eq!(run.cluster_counts.len(), 5);
        let grid = GridIndex::build(&data, 0.8);
        for (&m, &count) in minpts.iter().zip(&run.cluster_counts) {
            let direct = Dbscan::new(m).run(&GridSource::new(&grid, &data));
            assert_eq!(count, direct.num_clusters(), "minpts = {m}");
        }
    }

    #[test]
    fn modeled_scaling_is_monotone() {
        let data = mixed_points(400);
        let minpts: Vec<usize> = (1..=16).map(|k| k * 3).collect();
        let run = reuse_run(&data, 0.6, &minpts);
        let mut prev = f64::INFINITY;
        for t in [1, 2, 4, 8, 16] {
            let total = run.total(t).as_secs();
            assert!(total <= prev + 1e-12, "scaling must not regress at t={t}");
            assert!(total >= run.table_time.as_secs());
            prev = total;
        }
        assert_eq!(run.dbscan_phase(1).as_secs(), run.dbscan_serial().as_secs());
    }

    #[test]
    fn monotone_minpts_kills_clusters_at_extremes() {
        let data = mixed_points(300);
        let run = reuse_run(&data, 0.6, &[2, 1000]);
        assert_eq!(run.cluster_counts[1], 0, "minpts=1000 exceeds any region");
    }
}
