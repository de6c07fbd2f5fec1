//! The invariants the `repro shard` and `repro backend` smoke steps check,
//! at unit-test size: sharding and the ε-search backend change how a
//! table is built, never what it holds, and neither does the pool size.

use hybrid_dbscan::core::disjoint_set::dbscan_disjoint_set;
use hybrid_dbscan::core::hybrid::{HybridConfig, HybridDbscan};
use hybrid_dbscan::core::shard::{ShardConfig, ShardMode, ShardedHybrid};
use hybrid_dbscan::core::table::NeighborTable;
use hybrid_dbscan::core::{clustering_fingerprint, table_fingerprint, IndexBackend};
use hybrid_dbscan::datasets::spec;
use hybrid_dbscan::gpu_sim::Device;
use hybrid_dbscan::spatial::Point2;

/// A small ε keeps |R| — and with it the many tiny batches of the
/// out-of-core build — cheap enough for an unoptimized test build.
const EPS: f64 = 0.05;
const MINPTS: usize = 4;

fn points(name: &str) -> Vec<Point2> {
    spec::by_name(name).unwrap().generate(0.002).points
}

/// (table, clustering, modeled-time bits) of one build.
type Prints = (u64, u64, u64);

fn prints(table: &NeighborTable, perm: &[u32], modeled_secs: f64) -> Prints {
    let clustering = dbscan_disjoint_set(table, MINPTS).unpermute(perm);
    (
        table_fingerprint(table),
        clustering_fingerprint(&clustering),
        modeled_secs.to_bits(),
    )
}

fn unsharded(device: &Device, data: &[Point2], backend: IndexBackend) -> Prints {
    let cfg = HybridConfig {
        backend,
        ..HybridConfig::default()
    };
    let h = HybridDbscan::new(device, cfg)
        .build_table(data, EPS)
        .expect("unsharded build");
    prints(&h.table, &h.perm, h.gpu.modeled_time.as_secs())
}

fn sharded(device: &Device, data: &[Point2], shards: usize, mode: ShardMode) -> Prints {
    let cfg = ShardConfig {
        shards,
        mode,
        hybrid: HybridConfig::default(),
    };
    let h = ShardedHybrid::new(device, cfg)
        .build_table(data, EPS)
        .expect("sharded build");
    prints(&h.table, &h.perm, h.modeled_time.as_secs())
}

/// Every build the smoke steps compare, in a fixed order.
fn all_builds() -> Vec<(&'static str, Prints)> {
    let sw1 = points("SW1");
    let sdss1 = points("SDSS1");
    let k20c = Device::k20c();
    // One byte short of the raw point array: the unsharded upload cannot
    // begin, while a quarter shard plus its halo fits.
    let limit = sw1.len() * std::mem::size_of::<Point2>() - 1;
    let tiny = Device::tiny(limit);
    assert!(
        HybridDbscan::new(&tiny, HybridConfig::default())
            .build_table(&sw1, EPS)
            .is_err(),
        "the unsharded build must not fit in {limit} B"
    );
    vec![
        ("sw1 unsharded", unsharded(&k20c, &sw1, IndexBackend::Grid)),
        (
            "sw1 k2 concurrent",
            sharded(&k20c, &sw1, 2, ShardMode::Concurrent),
        ),
        (
            "sw1 k2 out-of-core",
            sharded(&k20c, &sw1, 2, ShardMode::OutOfCore),
        ),
        (
            "sw1 k4 out-of-core",
            sharded(&tiny, &sw1, 4, ShardMode::OutOfCore),
        ),
        ("sw1 tree", unsharded(&k20c, &sw1, IndexBackend::Tree)),
        ("sw1 auto", unsharded(&k20c, &sw1, IndexBackend::Auto)),
        ("sdss1 grid", unsharded(&k20c, &sdss1, IndexBackend::Grid)),
        ("sdss1 tree", unsharded(&k20c, &sdss1, IndexBackend::Tree)),
        ("sdss1 auto", unsharded(&k20c, &sdss1, IndexBackend::Auto)),
    ]
}

#[test]
fn shards_and_backends_build_the_unsharded_answer_at_one_and_two_threads() {
    let at = |threads: usize| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(all_builds)
    };
    let one = at(1);
    // Sharding and the backend preserve the table and the clustering.
    let answer = |p: &Prints| (p.0, p.1);
    for (name, p) in &one[1..6] {
        assert_eq!(answer(p), answer(&one[0].1), "{name} vs sw1 unsharded");
    }
    for (name, p) in &one[7..] {
        assert_eq!(answer(p), answer(&one[6].1), "{name} vs sdss1 grid");
    }
    // The pool size preserves everything, modeled time bits included.
    assert_eq!(one, at(2));
}
