//! Space-weather multi-density clustering (the paper's scenario S2).
//!
//! Ionospheric total-electron-content phenomena appear at different
//! densities and scales, so a researcher sweeps DBSCAN's ε over a range
//! and inspects how the clustering changes — the "Computer-Aided
//! Discovery" workflow the paper targets. The multi-clustering pipeline
//! overlaps GPU table construction for variant `v_{i+1}` with host DBSCAN
//! for `v_i`.
//!
//! ```sh
//! cargo run --release --example space_weather [scale]
//! ```

use hybrid_dbscan::core::pipeline::{MultiClusterPipeline, PipelineConfig};
use hybrid_dbscan::core::scenario::{self, Variant};
use hybrid_dbscan::datasets::spec;
use hybrid_dbscan::gpu_sim::Device;

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.01);

    println!("generating SW1 (ionospheric TEC) at scale {scale}…");
    let dataset = spec::SW1.generate(scale);
    println!(
        "{} points, heavily skewed around receiver sites",
        dataset.len()
    );

    let device = Device::k20c();
    let pipeline = MultiClusterPipeline::new(&device, PipelineConfig::default());

    // The published SW1 sweep: ε ∈ {0.1, 0.2, …, 1.5}, minpts = 4.
    let variants: Vec<Variant> = scenario::s2_variants("SW1");
    println!(
        "\nclustering {} variants through the pipeline…",
        variants.len()
    );
    let report = pipeline
        .run(&dataset.points, &variants)
        .expect("pipeline failed");

    println!("\n  eps   clusters   gpu-phase   dbscan");
    for (t, &count) in report.per_variant.iter().zip(&report.cluster_counts) {
        println!(
            " {:>4.2}   {:>8}   {:>7.1} ms  {:>7.1} ms",
            t.variant.eps,
            count,
            t.gpu_phase.as_millis(),
            t.dbscan.as_millis()
        );
    }
    println!(
        "\nnon-pipelined total: {:.2} s\npipelined total:     {:.2} s  ({:.2}x faster)",
        report.non_pipelined_total.as_secs(),
        report.pipelined_total.as_secs(),
        report.pipeline_speedup()
    );
    println!(
        "wall time (serial measurement pass): {:.2?}",
        report.wall_time
    );
}
