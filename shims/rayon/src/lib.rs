//! Offline stand-in for `rayon` — a real work-stealing thread pool.
//!
//! This shim executes in parallel: a global pool of
//! `std::thread` workers (the `pool` module) pulls chunked work regions from a
//! shared queue, claiming chunks with an atomic cursor (fine-grained
//! stealing without per-worker deques). The pool is sized by
//! `RAYON_NUM_THREADS` (0/unset → all cores). The call-site API is
//! unchanged from the sequential shim: `par_iter`, `into_par_iter`,
//! `par_iter_mut`, `par_sort_unstable*`, [`join`], [`scope`],
//! [`current_num_threads`], plus [`ThreadPoolBuilder`]/[`ThreadPool`]
//! for sized `install` views.
//!
//! ## Determinism policy
//!
//! The workspace requires **bitwise-identical results at every thread
//! count** (DESIGN.md, "Threading model & determinism policy"). The shim
//! holds up its end by making every primitive's *output* a pure function
//! of its *input*:
//!
//! * `collect` is index-addressed — item `i` lands in slot `i`.
//! * `sum` reduces fixed 4096-element blocks folded in block order, so
//!   float sums never depend on the schedule.
//! * `par_sort_unstable*` picks its algorithm by input length alone and
//!   merges with a deterministic left-priority rule (the `sort` module).
//! * Chunk boundaries are scheduling hints only; no primitive exposes
//!   "which thread ran this".
//!
//! What the shim *cannot* make deterministic is side-effect interleaving
//! inside user closures (atomic append order, lock acquisition order) —
//! consumers of such effects must canonicalize, which in this workspace
//! means sorting `DeviceAppendBuffer` contents before use.
//!
//! ## Profiling
//!
//! [`profile::profile_pool`] opens an introspection session recording
//! per-worker task/steal/park telemetry into a [`profile::PoolProfile`]
//! snapshot. Profiling observes the schedule but never alters it: when
//! disabled the hot path pays one relaxed atomic load, and enabling it
//! only adds timestamping around chunk execution — outputs stay bitwise
//! identical either way (see the determinism policy above).

mod iter;
mod pool;
pub mod profile;
mod sort;

pub use pool::{
    current_num_threads, help_one, join, scope, Scope, ThreadPool, ThreadPoolBuildError,
    ThreadPoolBuilder,
};

pub mod prelude {
    pub use crate::iter::{
        FromParallelIterator, IndexedProducer, IntoParallelIterator, IntoParallelRefIterator,
        IntoParallelRefMutIterator, ParallelSliceMut,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    #[test]
    fn api_parity_smoke() {
        let v: Vec<u32> = (0u32..100).into_par_iter().map(|x| x * 2).collect();
        assert_eq!(v, (0u32..100).map(|x| x * 2).collect::<Vec<_>>());
        let s: u32 = v.par_iter().sum();
        assert_eq!(s, 9900);
        let mut pairs = vec![(3u32, 1u32), (1, 2), (2, 0)];
        pairs.par_sort_unstable();
        assert_eq!(pairs, vec![(1, 2), (2, 0), (3, 1)]);
        assert!(super::current_num_threads() >= 1);
    }

    #[test]
    fn install_overrides_reported_thread_count() {
        let pool = super::ThreadPoolBuilder::new()
            .num_threads(3)
            .build()
            .unwrap();
        assert_eq!(pool.current_num_threads(), 3);
        let seen = pool.install(super::current_num_threads);
        assert_eq!(seen, 3);
        // Nested installs restore the outer override.
        let inner = super::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .unwrap();
        let (a, b) = pool.install(|| {
            let inside = inner.install(super::current_num_threads);
            (inside, super::current_num_threads())
        });
        assert_eq!((a, b), (2, 3));
    }

    #[test]
    fn work_actually_overlaps_across_threads() {
        // Two tasks that can only finish if they run concurrently:
        // each waits for the other to arrive. Run under install(2) so
        // the test is meaningful even with RAYON_NUM_THREADS=1.
        let pool = super::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .unwrap();
        let arrived = AtomicUsize::new(0);
        pool.install(|| {
            super::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|_| {
                        arrived.fetch_add(1, Ordering::SeqCst);
                        let deadline =
                            std::time::Instant::now() + std::time::Duration::from_secs(5);
                        while arrived.load(Ordering::SeqCst) < 2 {
                            assert!(
                                std::time::Instant::now() < deadline,
                                "tasks never overlapped"
                            );
                            std::thread::yield_now();
                        }
                    });
                }
            });
        });
        assert_eq!(arrived.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn sort_is_bitwise_identical_across_thread_counts() {
        // Duplicate keys with distinct payloads expose permutation
        // differences between schedules/algorithms.
        let mut rng = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let input: Vec<(u32, u32)> = (0..40_000u32).map(|i| ((next() % 64) as u32, i)).collect();

        let sorted_at = |threads: usize| {
            let pool = super::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let mut v = input.clone();
            pool.install(|| v.par_sort_unstable_by_key(|p| p.0));
            v
        };
        let t1 = sorted_at(1);
        let t4 = sorted_at(4);
        assert_eq!(t1, t4);
        assert!(t1.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn float_sum_is_deterministic_across_thread_counts() {
        let values: Vec<f64> = (0..30_000)
            .map(|i| (i as f64 * 0.1).sin() * 1e-3 + 1.0)
            .collect();
        let sum_at = |threads: usize| {
            let pool = super::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            pool.install(|| values.par_iter().sum::<f64>())
        };
        assert_eq!(sum_at(1).to_bits(), sum_at(4).to_bits());
    }

    #[test]
    fn par_iter_mut_and_enumerate() {
        let mut v: Vec<u64> = vec![0; 10_000];
        v.par_iter_mut().enumerate().for_each(|(i, slot)| {
            *slot = i as u64 * 3;
        });
        assert!(v.iter().enumerate().all(|(i, &x)| x == i as u64 * 3));
    }

    #[test]
    fn join_returns_both_results() {
        let pool = super::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .unwrap();
        let (a, b) =
            pool.install(|| super::join(|| (0..1000u64).sum::<u64>(), || "right".to_string()));
        assert_eq!(a, 499_500);
        assert_eq!(b, "right");
    }

    #[test]
    fn scope_tasks_may_borrow_and_all_complete() {
        let results = Mutex::new(Vec::new());
        super::scope(|s| {
            for i in 0..16 {
                let results = &results;
                s.spawn(move |_| {
                    results.lock().unwrap().push(i);
                });
            }
        });
        let mut got = results.into_inner().unwrap();
        got.sort_unstable();
        assert_eq!(got, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn nested_parallelism_completes() {
        let pool = super::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap();
        let total: u64 = pool.install(|| {
            (0..8u64)
                .into_par_iter()
                .map(|i| {
                    (0..1000u64)
                        .into_par_iter()
                        .map(move |j| i + j)
                        .sum::<u64>()
                })
                .sum()
        });
        let expect: u64 = (0..8u64)
            .map(|i| (0..1000u64).map(|j| i + j).sum::<u64>())
            .sum();
        assert_eq!(total, expect);
    }

    #[test]
    fn panics_propagate_from_parallel_regions() {
        let caught = std::panic::catch_unwind(|| {
            let pool = super::ThreadPoolBuilder::new()
                .num_threads(2)
                .build()
                .unwrap();
            pool.install(|| {
                (0..64u32).into_par_iter().for_each(|i| {
                    if i == 33 {
                        panic!("boom");
                    }
                });
            });
        });
        assert!(caught.is_err());
    }
}
