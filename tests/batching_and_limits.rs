//! Integration tests of the batching scheme against device memory limits:
//! buffer overflows must never corrupt results, constrained devices must
//! still cluster correctly, and the scheme's structural promises
//! (consistent batch sizes, pinned staging reuse) must hold end to end.

use hybrid_dbscan::core::backend::IndexBackend;
use hybrid_dbscan::core::batch::BatchConfig;
use hybrid_dbscan::core::hybrid::{HybridConfig, HybridDbscan, HybridError, KernelChoice};
use hybrid_dbscan::core::reference::ReferenceDbscan;
use hybrid_dbscan::core::{table_fingerprint, NeighborTable};
use hybrid_dbscan::datasets::spec;
use hybrid_dbscan::gpu_sim::error::DeviceError;
use hybrid_dbscan::gpu_sim::hostmem::PinnedBuffer;
use hybrid_dbscan::gpu_sim::time::SimDuration;
use hybrid_dbscan::gpu_sim::{Device, DeviceBuffer};
use hybrid_dbscan::spatial::Point2;

fn data(name: &str, scale: f64) -> Vec<Point2> {
    spec::by_name(name).unwrap().generate(scale).points
}

#[test]
fn default_alpha_never_needs_retries() {
    // The paper's claim: with the strided assignment and alpha = 0.05,
    // batch result sizes are consistent enough that buffers never
    // overflow. Verify over both dataset classes and several eps.
    let device = Device::k20c();
    let hybrid = HybridDbscan::new(&device, HybridConfig::default());
    for name in ["SW1", "SDSS1"] {
        let d = data(name, 0.002);
        for eps in [0.1, 0.5, 1.0] {
            let handle = hybrid.build_table(&d, eps).unwrap();
            assert_eq!(handle.gpu.retries, 0, "{name} eps={eps} needed retries");
        }
    }
}

#[test]
fn batch_sizes_are_consistent() {
    // |R_l| should be within ~2x of each other thanks to the strided
    // uniform sampling (the property that lets alpha stay at 5%).
    let device = Device::k20c();
    let d = data("SW1", 0.003);
    let cfg = HybridConfig {
        batch: BatchConfig {
            static_threshold: 0,
            static_buffer_items: 40_000,
            ..BatchConfig::default()
        },
        ..HybridConfig::default()
    };
    let hybrid = HybridDbscan::new(&device, cfg);
    let handle = hybrid.build_table(&d, 0.4).unwrap();
    assert!(
        handle.gpu.n_batches >= 4,
        "need several batches, got {}",
        handle.gpu.n_batches
    );
    // Total pairs spread over n_b batches: every batch must have fit in
    // the buffer, and the average utilization should be substantial.
    let avg = handle.gpu.result_pairs / handle.gpu.n_batches;
    assert!(avg <= 40_000);
    assert!(
        avg * 3 >= 40_000,
        "buffers badly under-filled: avg {} of 40000",
        avg
    );
}

#[test]
fn tiny_device_still_clusters_correctly() {
    // 2 MB of "global memory": D + G + A + three result buffers must be
    // squeezed in by the memory-fitting logic, at the price of more
    // batches.
    let d = data("SDSS1", 0.002);
    let device = Device::tiny(2 * 1024 * 1024);
    let hybrid = HybridDbscan::new(&device, HybridConfig::default());
    let result = hybrid.run(&d, 0.5, 4).unwrap();
    assert!(result.gpu.n_batches > 1, "tiny device must batch");
    let reference = ReferenceDbscan::new(0.5, 4).run(&d);
    assert_eq!(result.clustering.labels(), reference.clustering.labels());
    assert_eq!(device.used_bytes(), 0);
}

#[test]
fn impossible_device_reports_out_of_memory() {
    // Too small even for the input data.
    let d = data("SDSS1", 0.002);
    let device = Device::tiny(1024);
    let hybrid = HybridDbscan::new(&device, HybridConfig::default());
    match hybrid.run(&d, 0.5, 4) {
        Err(HybridError::Device(DeviceError::OutOfMemory { .. })) => {}
        other => panic!("expected OutOfMemory, got {other:?}"),
    }
    assert_eq!(
        device.used_bytes(),
        0,
        "failed runs must not leak device memory"
    );
}

#[test]
fn shared_kernel_respects_tiny_buffers_via_packing() {
    // The load-bound cell packing must keep the shared kernel inside its
    // buffers even when a single dense cell dominates.
    let mut d = data("SW1", 0.002);
    // Add an extreme clump: 800 coincident-ish points in one cell.
    for i in 0..800 {
        d.push(Point2::new(
            5.0 + (i % 10) as f64 * 1e-4,
            5.0 + (i / 10) as f64 * 1e-4,
        ));
    }
    let device = Device::k20c();
    let cfg = HybridConfig {
        kernel: KernelChoice::Shared,
        batch: BatchConfig {
            static_threshold: 0,
            static_buffer_items: 10_000, // far below the clump's 640k pairs
            ..BatchConfig::default()
        },
        ..HybridConfig::default()
    };
    let hybrid = HybridDbscan::new(&device, cfg);
    let result = hybrid.run(&d, 0.3, 4).unwrap();
    let reference = ReferenceDbscan::new(0.3, 4).run(&d);
    assert_eq!(result.clustering.labels(), reference.clustering.labels());
}

#[test]
fn result_pairs_scale_with_eps() {
    // Larger eps -> strictly more neighbor pairs (monotone result sets).
    let device = Device::k20c();
    let hybrid = HybridDbscan::new(&device, HybridConfig::default());
    let d = data("SDSS1", 0.002);
    let mut last = 0;
    for eps in [0.1, 0.2, 0.4, 0.8] {
        let handle = hybrid.build_table(&d, eps).unwrap();
        assert!(
            handle.gpu.result_pairs >= last,
            "pairs must grow with eps: {} then {}",
            last,
            handle.gpu.result_pairs
        );
        last = handle.gpu.result_pairs;
    }
    // Self-pairs are a hard floor.
    assert!(last >= d.len(), "every point pairs with itself at least");
}

#[test]
fn modeled_gpu_time_grows_with_workload() {
    let device = Device::k20c();
    let hybrid = HybridDbscan::new(&device, HybridConfig::default());
    let d = data("SDSS1", 0.002);
    let small = hybrid.build_table(&d, 0.1).unwrap();
    let large = hybrid.build_table(&d, 1.0).unwrap();
    assert!(large.gpu.modeled_time > small.gpu.modeled_time);
    assert!(large.gpu.result_pairs > 10 * small.gpu.result_pairs);
}

#[test]
fn overflowed_builds_release_exactly_what_they_reserved() {
    // An undersized plan overflows and replans; a buffer smaller than one
    // ε-neighborhood overflows at one point per batch and regrows. Either
    // way every device buffer frees exactly the bytes it reserved, so the
    // device is back at its pre-call availability — with an unrelated
    // allocation live throughout, so "back" is not just "empty".
    let d = &data("SDSS1", 0.001)[..500];
    let device = Device::k20c();
    let (_held, _) = DeviceBuffer::from_host(&device, &[0u64; 100], false).unwrap();
    let before = device.available_bytes();
    for (alpha, buffer_items) in [(-0.9, 2_000), (0.05, 4)] {
        let cfg = HybridConfig {
            batch: BatchConfig {
                alpha,
                sample_fraction: 1.0,
                static_threshold: 0,
                static_buffer_items: buffer_items,
                n_streams: 3,
            },
            max_retries: 16,
            ..HybridConfig::default()
        };
        let handle = HybridDbscan::new(&device, cfg).build_table(d, 0.5).unwrap();
        assert!(
            handle.gpu.retries > 0,
            "buffer of {buffer_items} must overflow"
        );
        assert_eq!(device.available_bytes(), before, "buffer of {buffer_items}");
    }
}

#[test]
fn buffer_growth_releases_the_old_buffers_first() {
    // Buffers one item short of the largest ε-neighborhood overflow even
    // at one point per batch, so the build regrows them to the largest
    // row. A device with room for the grown set, but not for the grown
    // and the old set together, must complete the build.
    let d = &data("SDSS1", 0.001)[..500];
    let eps = 0.5;
    let reference = HybridDbscan::new(&Device::k20c(), HybridConfig::default())
        .build_table(d, eps)
        .unwrap();
    let largest = (0..d.len() as u32)
        .map(|id| reference.table.neighbor_count(id))
        .max()
        .unwrap();
    let n_streams = 3;
    let cfg = |buffer_items| HybridConfig {
        batch: BatchConfig {
            static_threshold: 0,
            static_buffer_items: buffer_items,
            n_streams,
            ..BatchConfig::default()
        },
        max_retries: 16,
        ..HybridConfig::default()
    };
    // Peak device use with buffers that fit every row from the start:
    // the inputs plus one buffer set of the grown size.
    let roomy = Device::k20c();
    HybridDbscan::new(&roomy, cfg(largest))
        .build_table(d, eps)
        .unwrap();
    let needed = roomy.peak_bytes();
    let old_set = n_streams * (largest - 1) * std::mem::size_of::<(u32, u32)>();
    let device = Device::tiny(needed + old_set / 2);
    let handle = HybridDbscan::new(&device, cfg(largest - 1))
        .build_table(d, eps)
        .expect("the grown buffer set alone fits");
    assert!(handle.gpu.retries > 0, "the buffers must overflow");
    assert_eq!(device.peak_bytes(), needed);
    // Both staging sets are priced: the first plan's and the grown one.
    let staging = |items| -> SimDuration {
        (0..n_streams)
            .map(|_| PinnedBuffer::<(u32, u32)>::new(&device, items).alloc_time())
            .sum()
    };
    assert_eq!(
        handle.gpu.breakdown.pinned_alloc_time,
        staging(largest - 1) + staging(largest)
    );
    for id in 0..d.len() as u32 {
        assert_eq!(handle.table.neighbors(id), reference.table.neighbors(id));
    }
    drop(handle);
    assert_eq!(device.used_bytes(), 0);
}

#[test]
fn multi_batch_row_pass_builds_the_single_batch_table() {
    // Tiny buffers force many batches, each sorted from its result buffer
    // into the table by the row pass: in place for the thread-per-point
    // kernels, sorted first for the block-per-cell one.
    let d = data("SDSS1", 0.002);
    let eps = 0.5;
    let saved = |t: &NeighborTable| {
        let mut bytes = Vec::new();
        t.save(&mut bytes).unwrap();
        bytes
    };
    let one_buffer = HybridConfig {
        batch: BatchConfig {
            static_threshold: 0,
            static_buffer_items: 10_000_000,
            ..BatchConfig::default()
        },
        ..HybridConfig::default()
    };
    let single = HybridDbscan::new(&Device::k20c(), one_buffer)
        .build_table(&d, eps)
        .unwrap();
    assert_eq!(single.gpu.n_batches, 1);
    let want = table_fingerprint(&single.table);
    let variants = [
        (KernelChoice::Global, IndexBackend::Grid),
        (KernelChoice::Global, IndexBackend::Tree),
        (KernelChoice::Shared, IndexBackend::Grid),
    ];
    let build = |threads: usize| -> Vec<Vec<u8>> {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        pool.install(|| {
            variants
                .iter()
                .map(|&(kernel, backend)| {
                    let device = Device::k20c();
                    let before = device.available_bytes();
                    let cfg = HybridConfig {
                        kernel,
                        backend,
                        batch: BatchConfig {
                            static_threshold: 0,
                            static_buffer_items: 3000,
                            ..BatchConfig::default()
                        },
                        ..HybridConfig::default()
                    };
                    let handle = HybridDbscan::new(&device, cfg)
                        .build_table(&d, eps)
                        .unwrap();
                    let what = format!("{kernel:?}/{backend:?} at {threads} threads");
                    assert!(handle.gpu.n_batches > 1, "{what}: one batch");
                    assert_eq!(table_fingerprint(&handle.table), want, "{what}");
                    assert_eq!(device.available_bytes(), before, "{what}: memory held");
                    saved(&handle.table)
                })
                .collect()
        })
    };
    assert!(
        build(1) == build(2),
        "saved tables differ across thread counts"
    );
}
