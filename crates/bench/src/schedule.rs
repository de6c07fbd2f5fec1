//! `repro schedule` — visualize the batched GPU phase as a Gantt chart.
//!
//! Shows the copy/compute overlap the 3-stream batching scheme achieves:
//! while batch `l`'s result set is sorted, transferred and ingested,
//! batch `l+1`'s kernel is already running.

use crate::common::{DatasetCache, Options};
use gpu_sim::Device;
use hybrid_dbscan_core::batch::BatchConfig;
use hybrid_dbscan_core::hybrid::{HybridConfig, HybridDbscan};

/// Build a table with forced multi-batch execution and print the
/// schedule.
pub fn print(opts: &Options) {
    println!("== Batch schedule Gantt (3 streams; digits are batch numbers mod 10) ==\n");
    let device = Device::k20c();
    let mut cache = DatasetCache::new(opts.scale);
    let recorder = opts.recorder();
    let selected = opts.select(&["SW1"]);
    for name in &selected {
        let data = cache.get(name).points.clone();
        // Force ~8 batches so the overlap is visible.
        let probe = HybridDbscan::new(&device, HybridConfig::default())
            .build_table(&data, 0.4)
            .expect("probe failed");
        let buffer = (probe.gpu.result_pairs / 8).max(1);
        let cfg = HybridConfig {
            batch: BatchConfig {
                static_threshold: 0,
                static_buffer_items: buffer + buffer / 4,
                ..BatchConfig::default()
            },
            ..HybridConfig::default()
        };
        let mut hybrid = HybridDbscan::new(&device, cfg);
        if let Some(rec) = &recorder {
            hybrid = hybrid.with_recorder(rec.clone());
        }
        let handle = hybrid.build_table(&data, 0.4).expect("build failed");
        println!(
            "--- {name} (eps = 0.4, {} batches) ---",
            handle.gpu.n_batches
        );
        print!("{}", handle.gpu.schedule.render_gantt(100));
        println!(
            "serial sum of ops: {:.1} ms -> overlapped makespan: {:.1} ms ({:.2}x)",
            handle.gpu.schedule.serial_time().as_millis(),
            handle.gpu.schedule.makespan.as_millis(),
            handle.gpu.schedule.serial_time().as_secs()
                / handle.gpu.schedule.makespan.as_secs().max(1e-12)
        );
        let path = handle.gpu.schedule.critical_path();
        let path_ms: f64 = path.iter().map(|o| (o.end - o.start).as_millis()).sum();
        let legend: Vec<String> = path
            .iter()
            .map(|o| format!("{}#{}", o.label, o.chain))
            .collect();
        println!(
            "critical path: {} of {} ops, {path_ms:.1} ms ({:.0}% of makespan)",
            path.len(),
            handle.gpu.schedule.ops.len(),
            path_ms / handle.gpu.schedule.makespan.as_millis().max(1e-12) * 100.0
        );
        println!("  {}\n", legend.join(" -> "));
    }
    if let Some(rec) = &recorder {
        for e in opts.write_observability(rec) {
            eprintln!("# {e}");
        }
    }
}
