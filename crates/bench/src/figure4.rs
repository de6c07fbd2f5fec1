//! **Figure 4 and Table IV** (scenario S2) — total multi-clustering
//! response time of three approaches, and the derived speedups.
//!
//! Paper shape: per dataset, reference ≫ non-pipelined hybrid >
//! pipelined hybrid. Pipelined vs reference: 3.36×–5.13× (growing with
//! dataset size and uniformity, SDSS3 best); pipelined vs non-pipelined:
//! 1.42×–1.66×.

use crate::common::{fmt_secs, DatasetCache, Options, TextTable};
use gpu_sim::Device;
use hybrid_dbscan_core::pipeline::{MultiClusterPipeline, PipelineConfig};
use hybrid_dbscan_core::reference::ReferenceDbscan;
use hybrid_dbscan_core::scenario;

/// Published Table IV speedups: (dataset, vs reference, vs non-pipelined).
pub const PAPER_SPEEDUPS: [(&str, f64, f64); 5] = [
    ("SW1", 3.36, 1.42),
    ("SW4", 3.81, 1.45),
    ("SDSS1", 3.48, 1.56),
    ("SDSS2", 4.04, 1.60),
    ("SDSS3", 5.13, 1.66),
];

/// One dataset's totals over its full ε sweep.
#[derive(Debug, Clone)]
pub struct Row {
    pub dataset: String,
    pub n_variants: usize,
    pub ref_secs: f64,
    pub non_pipelined_secs: f64,
    pub pipelined_secs: f64,
}

impl Row {
    pub fn speedup_vs_ref(&self) -> f64 {
        self.ref_secs / self.pipelined_secs.max(1e-12)
    }

    pub fn speedup_vs_non_pipelined(&self) -> f64 {
        self.non_pipelined_secs / self.pipelined_secs.max(1e-12)
    }
}

/// Run the three approaches over each dataset's S2 sweep.
pub fn run(opts: &Options) -> Vec<Row> {
    let device = Device::k20c();
    let mut pipeline = MultiClusterPipeline::new(&device, PipelineConfig::default());
    let recorder = opts.recorder();
    if let Some(rec) = &recorder {
        pipeline = pipeline.with_recorder(rec.clone());
    }
    let mut cache = DatasetCache::new(opts.scale);
    let selected = opts.select(&["SW1", "SW4", "SDSS1", "SDSS2", "SDSS3"]);
    let mut rows = Vec::new();

    for name in &selected {
        let data = cache.get(name).points.clone();
        let variants = scenario::s2_variants(name);

        // Reference: each variant clustered individually, summed.
        let mut ref_secs = 0.0;
        for v in &variants {
            ref_secs += ReferenceDbscan::new(v.eps, v.minpts)
                .run(&data)
                .total_time
                .as_secs();
        }

        // Hybrid: one pipelined run yields both totals (the non-pipelined
        // total is the sum of the same per-variant stage times).
        let report = pipeline.run(&data, &variants).expect("pipeline failed");

        rows.push(Row {
            dataset: name.clone(),
            n_variants: variants.len(),
            ref_secs,
            non_pipelined_secs: report.non_pipelined_total.as_secs(),
            pipelined_secs: report.pipelined_total.as_secs(),
        });
        eprintln!(
            "# {name}: ref {} | non-pipelined {} | pipelined {}",
            fmt_secs(ref_secs),
            fmt_secs(rows.last().unwrap().non_pipelined_secs),
            fmt_secs(rows.last().unwrap().pipelined_secs)
        );
    }
    if let Some(rec) = &recorder {
        for e in opts.write_observability(rec) {
            eprintln!("# {e}");
        }
    }
    rows
}

/// Print Figure 4 (totals) and Table IV (speedups).
pub fn print(opts: &Options) {
    println!("== Figure 4 + Table IV (S2): multi-clustering totals and speedups ==");
    println!("Paper shape: ref >> non-pipelined > pipelined; pipelined vs ref");
    println!("3.36-5.13x (best on the largest/most-uniform dataset); pipelined vs");
    println!("non-pipelined 1.42-1.66x.\n");
    let rows = run(opts);
    opts.write_csv(
        "figure4",
        &[
            "dataset",
            "variants",
            "ref_secs",
            "non_pipelined_secs",
            "pipelined_secs",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.dataset.clone(),
                    r.n_variants.to_string(),
                    r.ref_secs.to_string(),
                    r.non_pipelined_secs.to_string(),
                    r.pipelined_secs.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );

    let mut t = TextTable::new(&[
        "Dataset",
        "variants",
        "Reference",
        "Non-pipelined",
        "Pipelined",
    ]);
    for r in &rows {
        t.row(vec![
            r.dataset.clone(),
            r.n_variants.to_string(),
            fmt_secs(r.ref_secs),
            fmt_secs(r.non_pipelined_secs),
            fmt_secs(r.pipelined_secs),
        ]);
    }
    t.print();

    println!("\n-- Table IV: speedups of pipelined Hybrid-DBSCAN --");
    let mut t = TextTable::new(&["Dataset", "vs Ref", "paper", "vs Non-pipelined", "paper"]);
    for r in &rows {
        let paper = PAPER_SPEEDUPS.iter().find(|(d, ..)| *d == r.dataset);
        t.row(vec![
            r.dataset.clone(),
            format!("{:.2}x", r.speedup_vs_ref()),
            paper.map_or("-".into(), |(_, a, _)| format!("{a:.2}x")),
            format!("{:.2}x", r.speedup_vs_non_pipelined()),
            paper.map_or("-".into(), |(_, _, b)| format!("{b:.2}x")),
        ]);
    }
    t.print();
}
