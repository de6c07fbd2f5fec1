//! Galaxy-survey clustering with neighbor-table reuse (scenario S3).
//!
//! With ε fixed, the ε-neighborhood table `T` is independent of `minpts`,
//! so one GPU-built table serves a whole sweep of richness thresholds:
//! low `minpts` finds loose galaxy groupings, high `minpts` only rich
//! groups/clusters. Up to 16 host threads consume the same table
//! concurrently — the configuration behind the paper's 27–54× headline
//! speedups.
//!
//! ```sh
//! cargo run --release --example sky_survey [scale]
//! ```

use hybrid_dbscan::core::hybrid::{HybridConfig, HybridDbscan};
use hybrid_dbscan::core::reuse::cluster_variants;
use hybrid_dbscan::datasets::spec;
use hybrid_dbscan::gpu_sim::Device;

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.01);

    println!("generating SDSS1 (galaxy survey, 0.30 <= z <= 0.35) at scale {scale}…");
    let dataset = spec::SDSS1.generate(scale);
    println!(
        "{} galaxies, near-uniform with mild large-scale structure",
        dataset.len()
    );

    let device = Device::k20c();
    let hybrid = HybridDbscan::new(&device, HybridConfig::default());

    // Build T once at eps = 0.3 (the paper's SDSS1 row of Table V).
    let eps = 0.3;
    println!("\nbuilding the neighbor table once at eps = {eps}…");
    let handle = hybrid
        .build_table(&dataset.points, eps)
        .expect("table build failed");
    println!(
        "table: {} entries over {} points ({:.1} MB host memory), GPU phase {:.1} ms",
        handle.table.num_entries(),
        handle.table.num_points(),
        handle.table.memory_bytes() as f64 / 1e6,
        handle.gpu.modeled_time.as_millis()
    );

    // Reuse it for 16 richness thresholds, consumed by 16 threads.
    let minpts: Vec<usize> = vec![
        10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 200, 400, 800, 1000, 2000, 3000,
    ];
    let run = cluster_variants(&handle, &minpts);

    println!("\n  minpts   groups found   dbscan");
    for ((&m, &count), d) in minpts
        .iter()
        .zip(&run.cluster_counts)
        .zip(&run.per_variant_dbscan)
    {
        println!("  {:>6}   {:>12}   {:>6.1} ms", m, count, d.as_millis());
    }
    println!(
        "\nall 16 variants: table {:.1} ms (once) + 16-thread DBSCAN phase {:.1} ms = {:.1} ms total",
        run.table_time.as_millis(),
        run.dbscan_phase(16).as_millis(),
        run.total(16).as_millis()
    );

    // Compare against rebuilding the table per variant.
    let serial_rebuild: f64 =
        minpts.len() as f64 * handle.gpu.modeled_time.as_millis() + run.dbscan_serial().as_millis();
    println!(
        "without reuse (rebuild T per variant, serial): ~{serial_rebuild:.1} ms -> reuse is ~{:.1}x better",
        serial_rebuild / run.total(16).as_millis()
    );
}
