//! The one measurement gate, the baseline comparison, and the one ledger
//! record builder.
//!
//! Two classes of finding, one knob:
//!
//! * **failures** are always fatal: an equivalence mismatch (fingerprints
//!   or modeled bits across backends, shards, thread counts, trials, or
//!   the profiled pass), an artifact that fails its own round trip or
//!   cannot be written, an unreadable ledger, an invalid dashboard;
//! * **shortfalls** fail the run only under `BENCH_STRICT=1`: a modeled
//!   stage regressed against the `--compare` baseline, the baseline is
//!   unreadable, the auto selector matched the modeled winner on fewer
//!   than [`AUTO_MATCH_FLOOR`] of the ablation workloads, the 4-thread
//!   `build_table` speedup is below [`MIN_SPEEDUP_4T`], or the trend
//!   report has gating findings. Wall-clock drift is advisory always.
//!
//! See DESIGN.md, "Benchmark methodology & regression policy".

use crate::common::baseline_refresh;
use obs::bench::{BenchDoc, StageStats, WorkloadResult};
use obs::ledger::{GateOutcome, LedgerEntry, LedgerRecord, StagePoint, RECORD_VERSION};
use obs::provenance::Provenance;
use std::path::Path;

/// The auto selector must pick the modeled-time winner on at least this
/// fraction of ablation workloads.
pub const AUTO_MATCH_FLOOR: f64 = 0.9;

/// Minimum `build_table` speedup at 4 threads. Deliberately below the
/// pipeline's multicore headroom so a noisy shared runner does not flake;
/// strict only on runners known to have ≥ 4 cores, because wall-clock
/// speedup is physically unmeasurable below that.
pub const MIN_SPEEDUP_4T: f64 = 1.8;

/// The outcome of one run's checks.
#[derive(Debug, Clone, Default)]
pub struct Gate {
    /// `BENCH_STRICT=1`: shortfalls fail the run too.
    pub strict: bool,
    pub failures: Vec<String>,
    pub shortfalls: Vec<String>,
    /// Advisory findings (wall-clock drift) — never fatal.
    pub advisories: u64,
}

impl Gate {
    pub fn from_env() -> Gate {
        Gate {
            strict: std::env::var("BENCH_STRICT").as_deref() == Ok("1"),
            ..Gate::default()
        }
    }

    pub fn fail(&mut self, finding: impl Into<String>) {
        self.failures.push(finding.into());
    }

    pub fn shortfall(&mut self, finding: impl Into<String>) {
        self.shortfalls.push(finding.into());
    }

    pub fn passed(&self) -> bool {
        self.failures.is_empty() && (!self.strict || self.shortfalls.is_empty())
    }

    /// The gate as the run ledger records it.
    pub fn outcome(&self) -> GateOutcome {
        GateOutcome {
            strict: self.strict,
            regressions: (self.failures.len() + self.shortfalls.len()) as u64,
            advisories: self.advisories,
            passed: self.passed(),
        }
    }

    /// Report every finding on stderr and return the exit code.
    pub fn finish(&self, command: &str) -> i32 {
        for f in &self.failures {
            eprintln!("# {command}: FAILED: {f}");
        }
        let policy = if self.strict {
            "BENCH_STRICT=1 — failing"
        } else {
            "advisory; set BENCH_STRICT=1 to enforce"
        };
        for s in &self.shortfalls {
            eprintln!("# {command}: {s} ({policy})");
        }
        i32::from(!self.passed())
    }
}

/// `--compare`: load the baseline and compare; every modeled-stage
/// regression — or an unreadable baseline — is a shortfall.
pub fn check_baseline(gate: &mut Gate, path: &Path, doc: &BenchDoc) {
    let baseline = std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|t| BenchDoc::parse(&t));
    match baseline {
        Ok(baseline) => {
            let report = compare(&baseline, doc);
            print_compare(&report, path);
            for d in report.regressions() {
                gate.shortfall(format!(
                    "{}/{} regressed {:.3} ms -> {:.3} ms",
                    d.workload, d.stage, d.base_ms, d.cur_ms
                ));
            }
            gate.advisories += report.wall_drift().len() as u64;
        }
        Err(e) => gate.shortfall(format!("cannot load baseline {}: {e}", path.display())),
    }
}

/// The thread sweep's 4-thread `build_table` speedup floor.
pub fn check_speedup(gate: &mut Gate, rows: &[WorkloadResult]) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    for r in rows
        .iter()
        .filter(|r| r.metrics.get("threads") == Some(&4.0))
    {
        let s = r.metrics.get("speedup_build_table").copied().unwrap_or(1.0);
        if s < MIN_SPEEDUP_4T {
            gate.shortfall(format!(
                "{}: speedup_build_table {s:.2}x < {MIN_SPEEDUP_4T}x ({cores} hardware threads)",
                r.id
            ));
        }
    }
}

/// The auto selector's match rate over the ablation's auto rows.
pub fn check_auto_selector(gate: &mut Gate, rows: &[WorkloadResult]) {
    let verdicts: Vec<f64> = rows
        .iter()
        .filter_map(|r| r.metrics.get("auto_matched_winner").copied())
        .collect();
    let matched = verdicts.iter().filter(|&&v| v == 1.0).count();
    let rate = matched as f64 / verdicts.len().max(1) as f64;
    println!(
        "\n# auto selector matched the modeled winner on {matched}/{} workloads ({:.0}%)",
        verdicts.len(),
        rate * 100.0
    );
    if rate < AUTO_MATCH_FLOOR {
        gate.shortfall(format!(
            "auto match rate {:.0}% below {:.0}%",
            rate * 100.0,
            AUTO_MATCH_FLOOR * 100.0
        ));
    }
}

/// Gating trend findings (modeled-stage steps, bit flips outside a
/// declared baseline refresh).
pub fn check_trend(gate: &mut Gate, report: &obs::trend::TrendReport) {
    let gating = report.gating().len();
    if gating > 0 {
        gate.shortfall(format!("{gating} gating trend finding(s)"));
    }
}

/// Fold a run into one ledger record: per-row stage medians/MAD (wall
/// unless modeled), modeled bits, metrics, and the gate outcome.
pub fn ledger_record(command: &str, doc: &BenchDoc, gate: &Gate) -> LedgerRecord {
    let entries = doc
        .workloads
        .iter()
        .map(|wl| LedgerEntry {
            workload: wl.id.clone(),
            stages: wl
                .stages
                .iter()
                .map(|(stage, s)| {
                    let point = StagePoint {
                        median_ms: s.median_ms,
                        mad_ms: s.mad_ms,
                        wall: is_wall_stage(stage),
                    };
                    (stage.clone(), point)
                })
                .collect(),
            modeled_time_bits: wl.modeled_time_bits,
            metrics: wl.metrics.clone(),
        })
        .collect();
    LedgerRecord {
        version: RECORD_VERSION,
        command: command.into(),
        scale: doc.scale,
        baseline_refresh: baseline_refresh(),
        provenance: doc
            .provenance
            .clone()
            .unwrap_or_else(|| Provenance::collect(obs::bench::SCHEMA, doc.version, Vec::new())),
        gate: gate.outcome(),
        entries,
    }
}

// ---------------------------------------------------------------------
// Baseline comparison
// ---------------------------------------------------------------------

/// Stages measured in host wall-clock time. Their medians move with
/// machine load (a shared CI box can drift 2× between back-to-back
/// runs), so their deltas are reported but never gate — only the
/// deterministic modeled stage does, the same reason rustc-perf gates on
/// instruction counts rather than wall time.
pub fn is_wall_stage(stage: &str) -> bool {
    stage != "modeled"
}

/// Per-stage noise threshold (milliseconds) derived from the baseline.
///
/// Wall-clock stages: a delta must exceed `max(0.25 ms, 12% of the
/// baseline median, 4 × baseline MAD)`. The MAD term adapts to each
/// stage's measured run-to-run noise; the relative and absolute floors
/// keep single-trial baselines (MAD = 0) and microsecond-scale stages
/// from flagging jitter.
///
/// The modeled stage is deterministic (bitwise identical across runs and
/// thread counts by the determinism policy), so its threshold is only
/// wide enough to absorb the writer's 3-decimal formatting:
/// `max(0.01 ms, 0.1% of the baseline median, 4 × MAD)`.
pub fn noise_threshold(stage: &str, base: &StageStats) -> f64 {
    if is_wall_stage(stage) {
        (0.25_f64).max(0.12 * base.median_ms).max(4.0 * base.mad_ms)
    } else {
        (0.01_f64)
            .max(0.001 * base.median_ms)
            .max(4.0 * base.mad_ms)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Regression,
    Improvement,
}

/// One flagged stage comparison. `gating` is true for deterministic
/// stages; wall-clock stage deltas are advisory drift.
#[derive(Debug, Clone)]
pub struct StageDelta {
    pub workload: String,
    pub stage: String,
    pub base_ms: f64,
    pub cur_ms: f64,
    pub threshold_ms: f64,
    pub verdict: Verdict,
    pub gating: bool,
}

/// Outcome of comparing a run against a baseline.
#[derive(Debug, Clone, Default)]
pub struct CompareReport {
    /// Stage medians that moved beyond the noise threshold.
    pub deltas: Vec<StageDelta>,
    /// Stage comparisons actually performed.
    pub checked: usize,
    /// Workloads present in both documents but not comparable (point
    /// counts differ — e.g. the baseline was taken at another `--scale`).
    pub incomparable: Vec<String>,
    /// Baseline workloads absent from the current run.
    pub missing: Vec<String>,
}

impl CompareReport {
    /// Gating regressions: deterministic stages that got slower.
    pub fn regressions(&self) -> Vec<&StageDelta> {
        self.deltas
            .iter()
            .filter(|d| d.gating && d.verdict == Verdict::Regression)
            .collect()
    }

    /// Advisory wall-clock drift (either direction) beyond the noise
    /// threshold — reported, never fatal.
    pub fn wall_drift(&self) -> Vec<&StageDelta> {
        self.deltas.iter().filter(|d| !d.gating).collect()
    }
}

/// Compare `current` against `baseline`, stage by stage.
pub fn compare(baseline: &BenchDoc, current: &BenchDoc) -> CompareReport {
    let mut report = CompareReport::default();
    for base_wl in &baseline.workloads {
        let Some(cur_wl) = current.workload(&base_wl.id) else {
            report.missing.push(base_wl.id.clone());
            continue;
        };
        if cur_wl.points != base_wl.points {
            report.incomparable.push(format!(
                "{}: {} points vs baseline {} (different --scale?)",
                base_wl.id, cur_wl.points, base_wl.points
            ));
            continue;
        }
        for (stage, base) in &base_wl.stages {
            let Some(cur) = cur_wl.stages.get(stage) else {
                report.incomparable.push(format!(
                    "{}: stage '{stage}' missing from current run",
                    base_wl.id
                ));
                continue;
            };
            report.checked += 1;
            let threshold = noise_threshold(stage, base);
            let delta = cur.median_ms - base.median_ms;
            let verdict = if delta > threshold {
                Verdict::Regression
            } else if -delta > threshold {
                Verdict::Improvement
            } else {
                continue;
            };
            report.deltas.push(StageDelta {
                workload: base_wl.id.clone(),
                stage: stage.clone(),
                base_ms: base.median_ms,
                cur_ms: cur.median_ms,
                threshold_ms: threshold,
                verdict,
                gating: !is_wall_stage(stage),
            });
        }
    }
    report
}

/// Milliseconds, switching to seconds at 1 s.
pub fn fmt_ms(v: f64) -> String {
    if v >= 1000.0 {
        format!("{:.2} s", v / 1e3)
    } else {
        format!("{v:.2} ms")
    }
}

fn print_compare(report: &CompareReport, baseline_path: &Path) {
    println!(
        "\n-- Compare vs {} ({} stage comparisons) --",
        baseline_path.display(),
        report.checked
    );
    for note in &report.missing {
        println!("  MISSING      {note} (workload not in current run)");
    }
    for note in &report.incomparable {
        println!("  INCOMPARABLE {note}");
    }
    for d in &report.deltas {
        let tag = match (d.gating, d.verdict) {
            (true, Verdict::Regression) => "REGRESSION",
            (true, Verdict::Improvement) => "improvement",
            // Wall-clock stages drift with machine load; advisory only.
            (false, _) => "wall-drift",
        };
        println!(
            "  {tag:<12} {}/{}: {} -> {} (threshold {})",
            d.workload,
            d.stage,
            fmt_ms(d.base_ms),
            fmt_ms(d.cur_ms),
            fmt_ms(d.threshold_ms),
        );
    }
    if report.deltas.is_empty() {
        println!("  all stage medians within noise thresholds");
    }
    let n_reg = report.regressions().len();
    let n_gating = report.deltas.iter().filter(|d| d.gating).count();
    println!(
        "# {} regression(s), {} improvement(s), {} advisory wall-clock drift(s)",
        n_reg,
        n_gating - n_reg,
        report.wall_drift().len()
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::bench::SCHEMA_VERSION;

    /// A one-workload document with the given stage medians (the modeled
    /// stage is the gating one; build_table is wall-clock/advisory).
    fn doc_with(modeled_median: f64, build_median: f64, mad: f64) -> BenchDoc {
        let stage = |median: f64| StageStats {
            trials: 3,
            median_ms: median,
            mean_ms: median,
            mad_ms: mad,
            iqr_ms: 2.0 * mad,
            min_ms: median - mad,
            max_ms: median + mad,
        };
        let mut wl = WorkloadResult {
            id: "s1/test/global".into(),
            scenario: "S1".into(),
            dataset: "SW1".into(),
            kernel: "global".into(),
            eps: 0.2,
            minpts: 4,
            points: 1000,
            ..WorkloadResult::default()
        };
        wl.stages.insert("modeled".into(), stage(modeled_median));
        wl.stages.insert("build_table".into(), stage(build_median));
        BenchDoc {
            version: SCHEMA_VERSION,
            scale: 0.02,
            trials: 3,
            warmup: 1,
            host_threads: 4,
            provenance: None,
            workloads: vec![wl],
        }
    }

    fn gate(strict: bool) -> Gate {
        Gate {
            strict,
            ..Gate::default()
        }
    }

    /// Run `check` under a lenient and a strict gate: the finding must be
    /// recorded both times and fail only the strict run.
    fn strict_only(check: impl Fn(&mut Gate)) {
        let (mut lenient, mut strict) = (gate(false), gate(true));
        check(&mut lenient);
        check(&mut strict);
        assert_eq!(lenient.shortfalls.len(), 1, "{lenient:?}");
        assert!(lenient.passed() && lenient.outcome().passed);
        assert_eq!(lenient.finish("test"), 0);
        assert!(!strict.passed() && !strict.outcome().passed);
        assert_eq!(strict.finish("test"), 1);
    }

    #[test]
    fn synthetic_two_x_slowdown_is_flagged() {
        let base = doc_with(100.0, 100.0, 1.0);
        let slow = doc_with(200.0, 100.0, 1.0);
        let report = compare(&base, &slow);
        assert_eq!(report.checked, 2);
        let regs = report.regressions();
        assert_eq!(regs.len(), 1, "2x slowdown must be flagged: {report:?}");
        assert_eq!(regs[0].stage, "modeled");
        assert_eq!(regs[0].cur_ms, 200.0);
        assert!(regs[0].gating);
    }

    #[test]
    fn strict_modeled_regression_against_the_baseline() {
        let dir = std::env::temp_dir().join(format!("suite-gate-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("base.json");
        std::fs::write(&path, doc_with(100.0, 100.0, 1.0).to_json()).unwrap();
        strict_only(|g| check_baseline(g, &path, &doc_with(200.0, 100.0, 1.0)));
        // Wall-clock drift alone is advisory under either setting.
        let mut g = gate(true);
        check_baseline(&mut g, &path, &doc_with(100.0, 200.0, 1.0));
        assert!(g.passed() && g.shortfalls.is_empty());
        assert_eq!(g.advisories, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn strict_unreadable_baseline() {
        let missing = Path::new("/nonexistent/baseline.json");
        strict_only(|g| check_baseline(g, missing, &doc_with(1.0, 1.0, 0.0)));
    }

    #[test]
    fn strict_auto_selector_match_rate() {
        let row = |matched: f64| {
            let mut r = WorkloadResult::default();
            r.metrics.insert("auto_matched_winner".into(), matched);
            r
        };
        // 4 of 5 = 80% < 90%.
        let rows: Vec<_> = [1.0, 1.0, 0.0, 1.0, 1.0].map(row).into();
        strict_only(|g| check_auto_selector(g, &rows));
        let mut g = gate(true);
        check_auto_selector(&mut g, &[row(1.0), row(1.0)]);
        assert!(g.passed());
    }

    #[test]
    fn strict_four_thread_speedup_floor() {
        let row = |threads: f64, speedup: f64| {
            let mut r = WorkloadResult::default();
            r.metrics.insert("threads".into(), threads);
            r.metrics.insert("speedup_build_table".into(), speedup);
            r
        };
        strict_only(|g| check_speedup(g, &[row(1.0, 1.0), row(2.0, 1.1), row(4.0, 1.2)]));
        let mut g = gate(true);
        check_speedup(&mut g, &[row(1.0, 1.0), row(4.0, 2.5)]);
        assert!(g.passed());
    }

    #[test]
    fn strict_gating_trend_findings() {
        let report = obs::trend::TrendReport {
            findings: vec![obs::trend::TrendFinding {
                command: "bench".into(),
                workload: "s1/sw1-eps0.2/global".into(),
                stage: "modeled".into(),
                kind: obs::trend::TrendKind::BitsChange {
                    from: 1,
                    to: 2,
                    at: 1,
                },
                gating: true,
                detail: String::new(),
            }],
            ..Default::default()
        };
        strict_only(|g| check_trend(g, &report));
    }

    #[test]
    fn failures_are_fatal_under_either_setting() {
        for strict in [false, true] {
            let mut g = gate(strict);
            g.fail("fingerprint mismatch");
            assert!(!g.passed());
            assert_eq!(g.finish("test"), 1);
            assert_eq!(g.outcome().regressions, 1);
        }
    }

    #[test]
    fn wall_clock_slowdown_is_advisory_drift_not_gating() {
        let base = doc_with(100.0, 100.0, 1.0);
        let slow = doc_with(100.0, 200.0, 1.0);
        let report = compare(&base, &slow);
        assert!(report.regressions().is_empty(), "{report:?}");
        let drift = report.wall_drift();
        assert_eq!(drift.len(), 1);
        assert_eq!(drift[0].stage, "build_table");
        assert!(!drift[0].gating);
    }

    #[test]
    fn identical_docs_have_zero_regressions() {
        let base = doc_with(100.0, 100.0, 1.0);
        let report = compare(&base, &base.clone());
        assert_eq!(report.checked, 2);
        assert!(report.deltas.is_empty(), "{report:?}");
        assert!(report.incomparable.is_empty());
        assert!(report.missing.is_empty());
    }

    #[test]
    fn speedup_is_reported_as_improvement_not_regression() {
        let base = doc_with(100.0, 100.0, 1.0);
        let fast = doc_with(50.0, 100.0, 1.0);
        let report = compare(&base, &fast);
        assert!(report.regressions().is_empty());
        assert_eq!(report.deltas.len(), 1);
        assert_eq!(report.deltas[0].verdict, Verdict::Improvement);
        assert!(report.deltas[0].gating);
    }

    #[test]
    fn noise_threshold_tracks_mad_with_floors() {
        let at = |median_ms: f64, mad_ms: f64| StageStats {
            median_ms,
            mad_ms,
            ..StageStats::default()
        };
        // Noisy wall baseline: the MAD term dominates.
        assert_eq!(noise_threshold("build_table", &at(100.0, 10.0)), 40.0);
        // Quiet wall baseline: the relative floor dominates.
        assert_eq!(noise_threshold("dbscan", &at(100.0, 0.0)), 12.0);
        // Microsecond-scale wall stage: the absolute floor dominates.
        assert_eq!(noise_threshold("disjoint_set", &at(0.01, 0.0)), 0.25);
        // The deterministic modeled stage gets a much tighter band.
        assert_eq!(noise_threshold("modeled", &at(100.0, 0.0)), 0.1);
        assert_eq!(noise_threshold("modeled", &at(0.01, 0.0)), 0.01);
        // A sub-threshold drift is not flagged.
        let base = doc_with(100.0, 100.0, 10.0);
        let drift = doc_with(100.0, 120.0, 10.0);
        assert!(compare(&base, &drift).deltas.is_empty());
    }

    #[test]
    fn scale_mismatch_is_incomparable_and_missing_is_reported() {
        let base = doc_with(100.0, 100.0, 1.0);
        let mut other = doc_with(500.0, 500.0, 1.0);
        other.workloads[0].points = 2000;
        let report = compare(&base, &other);
        assert!(report.deltas.is_empty());
        assert_eq!(report.incomparable.len(), 1);
        assert!(report.incomparable[0].contains("s1/test/global"));
        other.workloads.clear();
        let report = compare(&base, &other);
        assert_eq!(report.missing, vec!["s1/test/global".to_string()]);
        assert!(report.regressions().is_empty());
    }

    #[test]
    fn ledger_record_carries_stages_bits_and_gate() {
        let mut doc = doc_with(100.0, 250.0, 1.0);
        doc.workloads[0].modeled_time_bits = Some(0xdead_beef_dead_beef);
        let mut g = gate(true);
        g.shortfall("regressed");
        g.advisories = 2;
        let rec = ledger_record("bench", &doc, &g);
        assert_eq!(rec.command, "bench");
        assert!(!rec.gate.passed);
        assert_eq!(rec.gate.regressions, 1);
        assert_eq!(rec.gate.advisories, 2);
        let e = &rec.entries[0];
        assert_eq!(e.modeled_time_bits, Some(0xdead_beef_dead_beef));
        assert!(!e.stages["modeled"].wall, "modeled gates, never wall");
        assert!(e.stages["build_table"].wall);
        assert_eq!(e.stages["build_table"].median_ms, 250.0);
        let line = rec.to_json();
        let back = LedgerRecord::parse(&line).expect("record parses");
        assert_eq!(back.to_json(), line, "ledger round trip is exact");
    }
}
