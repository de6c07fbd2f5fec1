//! **Table I** — fraction of sequential DBSCAN time spent searching the
//! R-tree.
//!
//! Paper: between 0.480 and 0.722 across the rows (minpts = 4); this is
//! the motivation for offloading the ε-neighborhood searches to the GPU.

use crate::common::{fmt_secs, DatasetCache, Options, TextTable};
use hybrid_dbscan_core::reference::ReferenceDbscan;

/// The published rows: (dataset, ε, published fraction).
pub const ROWS: [(&str, f64, f64); 10] = [
    ("SW1", 0.20, 0.522),
    ("SW1", 1.40, 0.483),
    ("SW4", 0.15, 0.525),
    ("SW4", 0.45, 0.510),
    ("SDSS1", 0.20, 0.703),
    ("SDSS1", 1.40, 0.480),
    ("SDSS2", 0.15, 0.679),
    ("SDSS2", 0.45, 0.512),
    ("SDSS3", 0.07, 0.722),
    ("SDSS3", 0.12, 0.629),
];

/// One measured row.
#[derive(Debug, Clone)]
pub struct Row {
    pub dataset: String,
    pub eps: f64,
    pub fraction: f64,
    pub total_secs: f64,
    pub paper_fraction: f64,
}

/// Run the Table I measurement.
pub fn run(opts: &Options) -> Vec<Row> {
    let mut cache = DatasetCache::new(opts.scale);
    let selected = opts.select(&["SW1", "SW4", "SDSS1", "SDSS2", "SDSS3"]);
    let mut out = Vec::new();

    for &(name, eps, paper) in ROWS.iter() {
        if !selected.iter().any(|s| s == name) {
            continue;
        }
        let data = cache.get(name).points.clone();
        let mut fracs = Vec::new();
        let mut totals = Vec::new();
        for _ in 0..opts.trials {
            let report = ReferenceDbscan::new(eps, 4).run(&data);
            fracs.push(report.search_fraction());
            totals.push(report.total_time.as_secs());
        }
        let fraction = fracs.iter().sum::<f64>() / fracs.len() as f64;
        let total_secs = totals.iter().sum::<f64>() / totals.len() as f64;
        out.push(Row {
            dataset: name.to_string(),
            eps,
            fraction,
            total_secs,
            paper_fraction: paper,
        });
    }
    out
}

/// Print the table in the paper's layout.
pub fn print(opts: &Options) {
    println!("== Table I: fraction of sequential DBSCAN time in R-tree search (minpts = 4) ==");
    println!("Paper range: 0.480 - 0.722; expectation: a large fraction of total time.\n");
    let rows = run(opts);
    opts.write_csv(
        "table1",
        &["dataset", "eps", "fraction", "paper_fraction", "total_secs"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.dataset.clone(),
                    r.eps.to_string(),
                    r.fraction.to_string(),
                    r.paper_fraction.to_string(),
                    r.total_secs.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );
    let mut t = TextTable::new(&["Dataset", "eps", "Frac. Time", "paper", "total"]);
    for r in &rows {
        t.row(vec![
            r.dataset.clone(),
            format!("{:.2}", r.eps),
            format!("{:.3}", r.fraction),
            format!("{:.3}", r.paper_fraction),
            fmt_secs(r.total_secs),
        ]);
    }
    t.print();
}
