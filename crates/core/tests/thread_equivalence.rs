//! Thread-count equivalence (the determinism policy's acceptance test).
//!
//! For random point sets, `HybridDbscan::build_table` +
//! `cluster_with_table` + `dbscan_disjoint_set` must produce **bitwise
//! identical** results on pools of 1, 2, and 8 threads: same neighbor
//! table, same clusterings, same modeled `SimDuration`s (compared via
//! `f64::to_bits`), same batch structure. Wall-clock fields are the only
//! thing allowed to differ.
//!
//! Pool views are created with `ThreadPoolBuilder::num_threads(t)`, which
//! grows the shared pool as needed — so the 8-thread case is exercised
//! even in the `RAYON_NUM_THREADS=1` CI run.

use gpu_sim::device::Device;
use hybrid_dbscan_core::backend::IndexBackend;
use hybrid_dbscan_core::disjoint_set::dbscan_disjoint_set;
use hybrid_dbscan_core::hybrid::{HybridConfig, HybridDbscan};
use hybrid_dbscan_core::Clustering;
use proptest::prelude::*;
use rayon::prelude::*;
use spatial::Point2;

/// Everything a run produces that must be schedule-independent.
#[derive(Debug, PartialEq)]
struct RunFingerprint {
    table_points: usize,
    table_entries: usize,
    /// Flattened (id, neighbors) pairs — the full table contents.
    neighborhoods: Vec<(u32, Vec<u32>)>,
    /// Sequential (visit-order) clustering labels.
    labels: Vec<i64>,
    /// Disjoint-set (table-order) clustering labels.
    ds_labels: Vec<i64>,
    /// Modeled GPU-phase time, bit-exact.
    modeled_time_bits: u64,
    result_pairs: usize,
    n_batches: usize,
    per_batch_pairs: Vec<usize>,
}

fn run_at(threads: usize, data: &[Point2], eps: f64, minpts: usize) -> RunFingerprint {
    run_config_at(threads, &HybridConfig::default(), data, eps, minpts)
}

fn run_config_at(
    threads: usize,
    cfg: &HybridConfig,
    data: &[Point2],
    eps: f64,
    minpts: usize,
) -> RunFingerprint {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool view");
    pool.install(|| {
        let device = Device::k20c();
        let hybrid = HybridDbscan::new(&device, *cfg);
        let handle = hybrid.build_table(data, eps).expect("build_table");
        let (clustering, _dbscan_time) = HybridDbscan::cluster_with_table(&handle, minpts);
        let ds = dbscan_disjoint_set(&handle.table, minpts);
        let to_i64 = |c: &hybrid_dbscan_core::dbscan::Clustering| {
            c.labels()
                .iter()
                .map(|l| l.cluster_id().map_or(-1, |id| id as i64))
                .collect::<Vec<i64>>()
        };
        RunFingerprint {
            table_points: handle.table.num_points(),
            table_entries: handle.table.num_entries(),
            neighborhoods: (0..handle.table.num_points() as u32)
                .map(|i| (i, handle.table.neighbors(i).to_vec()))
                .collect(),
            labels: to_i64(&clustering),
            ds_labels: to_i64(&ds),
            modeled_time_bits: handle.gpu.modeled_time.as_secs().to_bits(),
            result_pairs: handle.gpu.result_pairs,
            n_batches: handle.gpu.n_batches,
            per_batch_pairs: handle.gpu.per_batch_pairs.clone(),
        }
    })
}

/// One handle clustered at every `minpts` concurrently on a
/// `threads`-sized pool view, then the first `minpts` once more.
fn shared_handle_at(
    threads: usize,
    data: &[Point2],
    eps: f64,
    minpts: &[usize],
) -> (Vec<Clustering>, Clustering) {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool view");
    pool.install(|| {
        let device = Device::k20c();
        let handle = HybridDbscan::new(&device, HybridConfig::default())
            .build_table(data, eps)
            .expect("build_table");
        let all: Vec<Clustering> = minpts
            .par_iter()
            .map(|&m| HybridDbscan::cluster_with_table(&handle, m).0)
            .collect();
        let again = HybridDbscan::cluster_with_table(&handle, minpts[0]).0;
        (all, again)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The S3 sweep: whichever concurrent call runs first, and whichever
    /// builds the shared core-level forest, every `minpts` gets the labels
    /// of a first call on a fresh handle, at every pool size.
    #[test]
    fn shared_handle_sweep_equals_fresh_handles_at_1_2_and_8_threads(
        raw in prop::collection::vec((0.0f64..8.0, 0.0f64..8.0), 60..220),
        eps_scaled in 30u32..120,
    ) {
        let data: Vec<Point2> = raw.iter().map(|&(x, y)| Point2::new(x, y)).collect();
        let eps = eps_scaled as f64 / 100.0;
        let minpts: Vec<usize> = (1..=16).collect();
        let device = Device::k20c();
        let hybrid = HybridDbscan::new(&device, HybridConfig::default());
        let fresh: Vec<Clustering> = minpts
            .iter()
            .map(|&m| {
                let handle = hybrid.build_table(&data, eps).expect("build_table");
                HybridDbscan::cluster_with_table(&handle, m).0
            })
            .collect();
        for threads in [1usize, 2, 8] {
            let (all, again) = shared_handle_at(threads, &data, eps, &minpts);
            prop_assert_eq!(&all, &fresh, "{} threads (eps={})", threads, eps);
            prop_assert_eq!(&again, &fresh[0], "repeat at {} threads", threads);
        }
    }

    #[test]
    fn identical_results_at_1_2_and_8_threads(
        raw in prop::collection::vec((0.0f64..8.0, 0.0f64..8.0), 60..220),
        eps_scaled in 30u32..120,
        minpts in 2usize..6,
    ) {
        let data: Vec<Point2> = raw.iter().map(|&(x, y)| Point2::new(x, y)).collect();
        let eps = eps_scaled as f64 / 100.0;

        let base = run_at(1, &data, eps, minpts);
        for threads in [2usize, 8] {
            let other = run_at(threads, &data, eps, minpts);
            prop_assert_eq!(
                &base, &other,
                "thread-count dependence at {} threads (eps={}, minpts={})",
                threads, eps, minpts
            );
        }
        // And once with pool profiling enabled: instrumentation must not
        // perturb any schedule-independent output (determinism policy —
        // the profiler only observes).
        let session = rayon::profile::profile_pool();
        let profiled = run_at(4, &data, eps, minpts);
        let profile = session.finish();
        prop_assert_eq!(
            &base, &profiled,
            "pool profiling perturbed results at 4 threads (eps={}, minpts={}, \
             {} pool tasks recorded)",
            eps, minpts, profile.total_tasks()
        );
        // Sanity: the fingerprint is not vacuous.
        prop_assert_eq!(base.table_points, data.len());
        prop_assert_eq!(base.labels.len(), data.len());
    }

    /// The pipelined `run_batches` executor: a tiny static buffer forces
    /// many batches, so with > 1 thread several stream workers run whole
    /// launch → sort → download → ingest chains concurrently. Every
    /// schedule-independent output must still match the 1-thread run
    /// exactly — and a live `ProfileSession` must observe without
    /// perturbing (the profiled run doubles as the instrumented case).
    #[test]
    fn pipelined_batches_identical_at_1_2_and_8_threads(
        raw in prop::collection::vec((0.0f64..6.0, 0.0f64..6.0), 80..200),
        eps_scaled in 40u32..110,
        minpts in 2usize..5,
    ) {
        let data: Vec<Point2> = raw.iter().map(|&(x, y)| Point2::new(x, y)).collect();
        let eps = eps_scaled as f64 / 100.0;
        let cfg = HybridConfig {
            batch: hybrid_dbscan_core::batch::BatchConfig {
                static_threshold: 0,      // static-buffer path
                static_buffer_items: 64,  // far below |R|: forces n_batches > 1
                n_streams: 3,
                ..Default::default()
            },
            ..Default::default()
        };

        let base = run_config_at(1, &cfg, &data, eps, minpts);
        prop_assert!(
            base.n_batches > 1,
            "workload too small to engage the pipeline ({} batches)",
            base.n_batches
        );
        for threads in [2usize, 8] {
            let session = rayon::profile::profile_pool();
            let other = run_config_at(threads, &cfg, &data, eps, minpts);
            let profile = session.finish();
            prop_assert_eq!(
                &base, &other,
                "pipelined run diverged at {} threads (eps={}, minpts={}, \
                 {} batches, {} pool tasks)",
                threads, eps, minpts, base.n_batches, profile.total_tasks()
            );
        }
    }

    /// The tree backend under the same contract: bitwise-identical
    /// schedule-independent outputs at every thread count, and — modeled
    /// time aside (the backends cost differently by design) — the same
    /// table, clusterings, and batch structure as the grid backend.
    #[test]
    fn tree_backend_identical_across_threads_and_matches_grid(
        raw in prop::collection::vec((0.0f64..6.0, 0.0f64..6.0), 60..180),
        eps_scaled in 40u32..110,
        minpts in 2usize..5,
    ) {
        let data: Vec<Point2> = raw.iter().map(|&(x, y)| Point2::new(x, y)).collect();
        let eps = eps_scaled as f64 / 100.0;
        let tree_cfg = HybridConfig {
            backend: IndexBackend::Tree,
            ..Default::default()
        };

        let base = run_config_at(1, &tree_cfg, &data, eps, minpts);
        for threads in [2usize, 8] {
            let other = run_config_at(threads, &tree_cfg, &data, eps, minpts);
            prop_assert_eq!(
                &base, &other,
                "tree backend thread-count dependence at {} threads \
                 (eps={}, minpts={})",
                threads, eps, minpts
            );
        }

        // Cross-backend: everything but the modeled duration matches the
        // grid run bit for bit.
        let grid = run_at(1, &data, eps, minpts);
        prop_assert_eq!(&base.neighborhoods, &grid.neighborhoods);
        prop_assert_eq!(&base.labels, &grid.labels);
        prop_assert_eq!(&base.ds_labels, &grid.ds_labels);
        prop_assert_eq!(base.result_pairs, grid.result_pairs);
        prop_assert_eq!(base.n_batches, grid.n_batches);
        prop_assert_eq!(&base.per_batch_pairs, &grid.per_batch_pairs);
    }
}
