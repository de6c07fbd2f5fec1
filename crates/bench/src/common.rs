//! Shared infrastructure for the experiment harness: dataset
//! materialization, option parsing, and table formatting.

use datasets::{spec, Dataset};
use obs::ledger::{Ledger, LedgerRecord};
use obs::Recorder;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

/// Harness-wide options, parsed from the command line.
#[derive(Debug, Clone)]
pub struct Options {
    /// Dataset scale factor in (0, 1]; 1.0 reproduces the published sizes.
    /// Scaling shrinks the domain too, so densities (and the meaning of
    /// the published ε values) are preserved.
    pub scale: f64,
    /// Restrict to these datasets (uppercase names); empty = defaults per
    /// experiment.
    pub datasets: Vec<String>,
    /// Trials to average response times over (paper: 3); at least 1.
    pub trials: usize,
    /// Untimed warmup runs before the timed trials (measurement suite).
    pub warmup: usize,
    /// Baseline document to compare the benchmark suite against
    /// (`bench --compare <path>`; regressions are advisory unless
    /// `BENCH_STRICT=1`).
    pub compare: Option<PathBuf>,
    /// When set, experiments also write their rows as CSV files here
    /// (for plotting).
    pub csv_dir: Option<PathBuf>,
    /// When set, instrumented experiments write a Chrome trace-event JSON
    /// file here (open with Perfetto / chrome://tracing).
    pub trace: Option<PathBuf>,
    /// When set, instrumented experiments write a metrics-snapshot JSON
    /// file here (counters, gauges, histograms).
    pub metrics: Option<PathBuf>,
    /// Run-ledger directory override (`--ledger DIR`). Defaults to
    /// `results/ledger/`; gated experiments append one record per run and
    /// `repro report` reads the trajectory back.
    pub ledger: Option<PathBuf>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            scale: 0.02,
            datasets: Vec::new(),
            trials: 1,
            warmup: 1,
            compare: None,
            csv_dir: None,
            trace: None,
            metrics: None,
            ledger: None,
        }
    }
}

impl Options {
    /// Parse `--scale X`, `--datasets a,b`, `--trials N` style flags.
    pub fn parse(args: &[String]) -> Result<Options, String> {
        let mut opts = Options::default();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--scale" => {
                    let v = args.get(i + 1).ok_or("--scale needs a value")?;
                    opts.scale = v.parse().map_err(|_| format!("bad scale '{v}'"))?;
                    if !(opts.scale > 0.0 && opts.scale <= 1.0) {
                        return Err("scale must be in (0, 1]".into());
                    }
                    i += 2;
                }
                "--datasets" => {
                    let v = args.get(i + 1).ok_or("--datasets needs a value")?;
                    opts.datasets = v.split(',').map(|s| s.trim().to_uppercase()).collect();
                    if let Some(bad) = opts.datasets.iter().find(|d| spec::by_name(d).is_none()) {
                        let known: Vec<&str> = spec::ALL.iter().map(|s| s.name).collect();
                        return Err(format!(
                            "unknown dataset '{bad}' (known: {})",
                            known.join(", ")
                        ));
                    }
                    i += 2;
                }
                "--trials" => {
                    let v = args.get(i + 1).ok_or("--trials needs a value")?;
                    opts.trials = v.parse().map_err(|_| format!("bad trials '{v}'"))?;
                    if opts.trials == 0 {
                        return Err("--trials must be at least 1".into());
                    }
                    i += 2;
                }
                "--warmup" => {
                    let v = args.get(i + 1).ok_or("--warmup needs a value")?;
                    opts.warmup = v.parse().map_err(|_| format!("bad warmup '{v}'"))?;
                    i += 2;
                }
                "--compare" => {
                    let v = args.get(i + 1).ok_or("--compare needs a baseline path")?;
                    opts.compare = Some(PathBuf::from(v));
                    i += 2;
                }
                "--quick" => {
                    opts.scale = 0.005;
                    i += 1;
                }
                "--csv" => {
                    let v = args.get(i + 1).ok_or("--csv needs a directory")?;
                    opts.csv_dir = Some(PathBuf::from(v));
                    i += 2;
                }
                "--trace" => {
                    let (path, used) = optional_path(args, i, "trace.json");
                    opts.trace = Some(path);
                    i += used;
                }
                "--metrics" => {
                    let (path, used) = optional_path(args, i, "metrics.json");
                    opts.metrics = Some(path);
                    i += used;
                }
                "--ledger" => {
                    let v = args.get(i + 1).ok_or("--ledger needs a directory")?;
                    opts.ledger = Some(PathBuf::from(v));
                    i += 2;
                }
                other => return Err(format!("unknown option '{other}'")),
            }
        }
        Ok(opts)
    }

    /// The datasets to run: the explicit `--datasets` list, or `defaults`.
    pub fn select<'a>(&'a self, defaults: &'a [&'a str]) -> Vec<String> {
        if self.datasets.is_empty() {
            defaults.iter().map(|s| s.to_string()).collect()
        } else {
            self.datasets.clone()
        }
    }

    /// A shared [`Recorder`] when `--trace` or `--metrics` was requested;
    /// `None` keeps the uninstrumented fast path.
    pub fn recorder(&self) -> Option<Arc<Recorder>> {
        if self.trace.is_some() || self.metrics.is_some() {
            Some(Arc::new(Recorder::new()))
        } else {
            None
        }
    }

    /// Write the requested observability artifacts (`--trace` /
    /// `--metrics`) from `rec`; returns one message per file that could
    /// not be written.
    pub fn write_observability(&self, rec: &Recorder) -> Vec<String> {
        let mut failed = Vec::new();
        if let Some(path) = &self.trace {
            match std::fs::write(path, rec.chrome_trace_json()) {
                Ok(()) => eprintln!(
                    "# trace: wrote {} (open with https://ui.perfetto.dev)",
                    path.display()
                ),
                Err(e) => failed.push(format!("trace: cannot write {}: {e}", path.display())),
            }
        }
        if let Some(path) = &self.metrics {
            match std::fs::write(path, rec.metrics_json()) {
                Ok(()) => eprintln!("# metrics: wrote {}", path.display()),
                Err(e) => failed.push(format!("metrics: cannot write {}: {e}", path.display())),
            }
        }
        failed
    }

    /// The run ledger for this invocation: `--ledger DIR` or the
    /// repo-default `results/ledger/`.
    pub fn run_ledger(&self) -> Ledger {
        match &self.ledger {
            Some(dir) => Ledger::at(dir.clone()),
            None => Ledger::default_location(),
        }
    }

    /// Append `record` to the run ledger. I/O failures are reported, not
    /// fatal — observability must never take down a benchmark run.
    pub fn append_ledger(&self, record: &LedgerRecord) {
        match self.run_ledger().append(record) {
            Ok(path) => eprintln!(
                "# ledger: appended {} record to {}",
                record.command,
                path.display()
            ),
            Err(e) => eprintln!("# ledger: cannot append: {e}"),
        }
    }

    /// The one artifact writer: `name` under `--csv DIR` (created on
    /// demand) or the working directory. The error names the path.
    pub fn write_artifact(&self, name: &str, contents: &str) -> Result<PathBuf, String> {
        let dir = self.csv_dir.clone().unwrap_or_else(|| PathBuf::from("."));
        let path = dir.join(name);
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, contents))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("# wrote {}", path.display());
        Ok(path)
    }
}

/// `LEDGER_BASELINE_REFRESH=1` marks this run as an intentional baseline
/// refresh: `obs::trend` allows a `modeled_time_bits` change at (exactly)
/// such a record instead of gating on it.
pub fn baseline_refresh() -> bool {
    std::env::var("LEDGER_BASELINE_REFRESH").as_deref() == Ok("1")
}

/// Parse an optional path operand for flags like `--trace [path]`: uses
/// the next argument unless it is absent or another flag, falling back to
/// `default`. Returns the path and how many arguments were consumed.
fn optional_path(args: &[String], i: usize, default: &str) -> (PathBuf, usize) {
    match args.get(i + 1) {
        Some(v) if !v.starts_with("--") => (PathBuf::from(v), 2),
        _ => (PathBuf::from(default), 1),
    }
}

/// Materializes datasets lazily and caches them for the run.
pub struct DatasetCache {
    scale: f64,
    cache: HashMap<String, Dataset>,
}

impl DatasetCache {
    pub fn new(scale: f64) -> Self {
        DatasetCache {
            scale,
            cache: HashMap::new(),
        }
    }

    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Get (generating on first use) the named dataset.
    pub fn get(&mut self, name: &str) -> &Dataset {
        self.get_scaled(name, 1.0)
    }

    /// [`Self::get`] at `factor` × the cache's scale (capped at 1).
    pub fn get_scaled(&mut self, name: &str, factor: f64) -> &Dataset {
        let name = name.to_uppercase();
        let scale = (self.scale * factor).min(1.0);
        let key = format!("{name}@{scale}");
        self.cache.entry(key).or_insert_with(|| {
            let spec = spec::by_name(&name).unwrap_or_else(|| panic!("unknown dataset '{name}'"));
            eprintln!(
                "# generating {name} at scale {scale} ({} points)…",
                (spec.full_size as f64 * scale).round() as usize
            );
            spec.generate(scale)
        })
    }
}

/// Fixed-width text table writer for harness output.
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    pub fn new(header: &[&str]) -> Self {
        TextTable {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Render with per-column alignment.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for i in 0..ncols {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:>width$}", cells[i], width = widths[i]));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push_str(&format!(
            "{}\n",
            "-".repeat(widths.iter().sum::<usize>() + 2 * (ncols - 1))
        ));
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }

    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Format seconds adaptively (ms below 1 s).
pub fn fmt_secs(s: f64) -> String {
    if s < 1.0 {
        format!("{:.1} ms", s * 1e3)
    } else {
        format!("{s:.2} s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        Options::parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn zero_trials_is_a_usage_error() {
        let err = parse(&["--trials", "0"]).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        assert_eq!(parse(&["--trials", "3"]).unwrap().trials, 3);
        assert_eq!(parse(&[]).unwrap().trials, 1);
    }

    #[test]
    fn unknown_dataset_is_a_usage_error() {
        let err = parse(&["--datasets", "SW1,FOO"]).unwrap_err();
        assert!(err.contains("'FOO'"), "{err}");
        assert!(err.contains("SW1, SW4, SDSS1"), "{err}");
        let opts = parse(&["--datasets", "sw1, sdss1"]).unwrap();
        assert_eq!(opts.datasets, ["SW1", "SDSS1"]);
    }

    #[test]
    fn artifact_writer_creates_the_dir_and_reports_failures() {
        let dir = std::env::temp_dir().join(format!("repro-common-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = Options {
            csv_dir: Some(dir.join("nested")),
            ..Options::default()
        };
        let path = opts.write_artifact("a.json", "{}").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{}");
        let opts = Options {
            csv_dir: Some(path),
            ..Options::default()
        };
        let err = opts.write_artifact("b.json", "{}").unwrap_err();
        assert!(err.contains("cannot write"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
