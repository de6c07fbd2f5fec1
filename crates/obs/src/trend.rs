//! Cross-run trend analysis over the run ledger.
//!
//! The pairwise regression gate (`repro bench --compare`) only sees two
//! runs; a drift of a few percent per PR sits under its noise threshold
//! every single time and still compounds into a large regression over a
//! release cycle — exactly the 4-thread `build_table` story of PR 8.
//! This module reads the **series** instead: for every
//! (command, scale, workload, stage) it collects the stage medians of the
//! last `window` ledger records and runs a MAD-based step (change-point)
//! detector, so a level shift is flagged even when every adjacent pair
//! of runs is individually within noise.
//!
//! Two detectors:
//!
//! * **Step detection** (`detect_step`): scan every split of the
//!   series, compare the median level before and after, and flag the
//!   best split whose delta exceeds a noise threshold derived from the
//!   pre-split MAD plus relative/absolute floors (the same shape as the
//!   pairwise gate's noise threshold, `suite::gate::noise_threshold` —
//!   wall stages get wide floors, deterministic modeled stages narrow
//!   ones). Upward steps on modeled stages gate; wall-stage steps and
//!   improvements are advisory.
//! * **Bits flips** ([`TrendKind::BitsChange`]): any change of
//!   `modeled_time_bits` between consecutive records is flagged
//!   unconditionally and always gates — modeled time is bitwise
//!   deterministic by policy, so a flip is either an intentional model
//!   change (which must arrive as a baseline refresh,
//!   `LEDGER_BASELINE_REFRESH=1`) or a bug.
//!
//! Gating findings fail `repro report` under the measurement suite's
//! single strictness knob, `BENCH_STRICT=1`; otherwise they are advisory.

use crate::ledger::LedgerRecord;
use crate::stats::{mad, median};
use std::collections::BTreeMap;

/// Default number of trailing ledger records analyzed.
pub const DEFAULT_WINDOW: usize = 64;

/// Minimum records on each side of a candidate change point. Below
/// 2 + 2 the "levels" are single samples and the detector would flag
/// ordinary jitter.
const MIN_SEGMENT: usize = 2;

/// What a finding detected.
#[derive(Debug, Clone, PartialEq)]
pub enum TrendKind {
    /// A sustained level shift at record index `at` of the series.
    Step {
        /// Median of the series before the step (ms).
        base_ms: f64,
        /// Median of the series from the step onward (ms).
        cur_ms: f64,
        /// Threshold the delta had to exceed (ms).
        threshold_ms: f64,
        /// Series index of the first post-step record.
        at: usize,
    },
    /// `modeled_time_bits` changed between consecutive records without a
    /// baseline refresh.
    BitsChange { from: u64, to: u64, at: usize },
}

/// The identity of one series of runs: one command's records at one
/// dataset scale, for one workload id. A workload id does not name the
/// scale, and the same id at two scales is two different builds, so the
/// scale is part of the key. The detector and the dashboard both group by
/// this key.
#[derive(Debug, Clone)]
pub struct SeriesKey {
    pub command: String,
    pub scale: f64,
    pub workload: String,
}

impl SeriesKey {
    pub fn new(rec: &LedgerRecord, workload: &str) -> Self {
        SeriesKey {
            command: rec.command.clone(),
            scale: rec.scale,
            workload: workload.to_string(),
        }
    }

    /// `command/workload/stage @ scale s`, the name a finding or a
    /// dashboard card shows.
    pub fn label(&self, stage: &str) -> String {
        format!(
            "{}/{}/{stage} @ scale {}",
            self.command, self.workload, self.scale
        )
    }
}

impl Ord for SeriesKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.command
            .cmp(&other.command)
            .then(self.scale.total_cmp(&other.scale))
            .then_with(|| self.workload.cmp(&other.workload))
    }
}

impl PartialOrd for SeriesKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for SeriesKey {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for SeriesKey {}

/// One flagged series.
#[derive(Debug, Clone, PartialEq)]
pub struct TrendFinding {
    pub series: SeriesKey,
    pub stage: String,
    pub kind: TrendKind,
    /// Gating findings fail `repro report` under `BENCH_STRICT=1`:
    /// modeled-stage regressions and all bits flips. Wall-stage steps
    /// and improvements are advisory.
    pub gating: bool,
    pub detail: String,
}

/// Result of analyzing a ledger window.
#[derive(Debug, Clone, Default)]
pub struct TrendReport {
    pub findings: Vec<TrendFinding>,
    /// (command, scale, workload, stage) series examined.
    pub series: usize,
    /// Ledger records in the analyzed window.
    pub records: usize,
}

impl TrendReport {
    pub fn gating(&self) -> Vec<&TrendFinding> {
        self.findings.iter().filter(|f| f.gating).collect()
    }
}

/// Step threshold for a series whose pre-step segment has the given
/// median level and noise scale. Same philosophy as the pairwise gate:
/// wall stages carry wide floors (machine load moves them), modeled
/// stages narrow ones (deterministic by policy, so a 5% sustained move
/// is already meaningful). The `4 x scale` term adapts both to each
/// series' own measured run-to-run noise.
pub fn step_threshold(wall: bool, level_ms: f64, scale_ms: f64) -> f64 {
    if wall {
        (0.25_f64).max(0.10 * level_ms).max(4.0 * scale_ms)
    } else {
        (0.01_f64).max(0.05 * level_ms).max(4.0 * scale_ms)
    }
}

/// One point of a trend series.
#[derive(Debug, Clone, Copy)]
struct SeriesPoint {
    median_ms: f64,
    mad_ms: f64,
    wall: bool,
}

/// Scan every admissible split of `series` and return the most
/// significant step, if any exceeds its threshold. The noise scale is
/// the larger of the pre-split medians' MAD and the median of the
/// per-run MADs (a series of 1-trial runs has per-run MAD 0; a stable
/// series of noisy runs has near-zero cross-run MAD — either alone
/// underestimates noise).
fn detect_step(series: &[SeriesPoint]) -> Option<(usize, f64, f64, f64)> {
    let n = series.len();
    if n < 2 * MIN_SEGMENT {
        return None;
    }
    let medians: Vec<f64> = series.iter().map(|p| p.median_ms).collect();
    let run_mads: Vec<f64> = series.iter().map(|p| p.mad_ms).collect();
    let wall = series[0].wall;
    let mut best: Option<(usize, f64, f64, f64, f64)> = None; // (at, base, cur, thr, cost)
    for at in MIN_SEGMENT..=(n - MIN_SEGMENT) {
        let base = median(&medians[..at]);
        let cur = median(&medians[at..]);
        let scale = mad(&medians[..at]).max(median(&run_mads));
        let threshold = step_threshold(wall, base, scale);
        let delta = (cur - base).abs();
        if delta <= threshold {
            continue;
        }
        // Among splits that clear the gate, localize the change point by
        // the L1 cost of the two-segment fit: misplacing the split by one
        // run leaves a far-level point in the wrong segment, which this
        // cost punishes hard while delta/threshold barely moves.
        let cost = medians[..at].iter().map(|v| (v - base).abs()).sum::<f64>()
            + medians[at..].iter().map(|v| (v - cur).abs()).sum::<f64>();
        if best.is_none_or(|(.., c)| cost < c) {
            best = Some((at, base, cur, threshold, cost));
        }
    }
    best.map(|(at, base, cur, thr, _)| (at, base, cur, thr))
}

/// Analyze the last `window` records of the ledger.
pub fn analyze(records: &[LedgerRecord], window: usize) -> TrendReport {
    let start = records.len().saturating_sub(window.max(1));
    let records = &records[start..];
    let mut report = TrendReport {
        records: records.len(),
        ..TrendReport::default()
    };

    // Per series: the stage points, and the bits with their refresh flag.
    let mut stage_series: BTreeMap<(SeriesKey, String), Vec<SeriesPoint>> = BTreeMap::new();
    let mut bits_series: BTreeMap<SeriesKey, Vec<(u64, bool)>> = BTreeMap::new();
    for rec in records {
        for e in &rec.entries {
            let key = SeriesKey::new(rec, &e.workload);
            for (stage, p) in &e.stages {
                stage_series
                    .entry((key.clone(), stage.clone()))
                    .or_default()
                    .push(SeriesPoint {
                        median_ms: p.median_ms,
                        mad_ms: p.mad_ms,
                        wall: p.wall,
                    });
            }
            if let Some(bits) = e.modeled_time_bits {
                bits_series
                    .entry(key)
                    .or_default()
                    .push((bits, rec.baseline_refresh));
            }
        }
    }

    report.series = stage_series.len();
    for ((key, stage), series) in &stage_series {
        let Some((at, base, cur, threshold)) = detect_step(series) else {
            continue;
        };
        let wall = series[0].wall;
        let regression = cur > base;
        let pct = if base.abs() > 1e-12 {
            (cur - base) / base * 100.0
        } else {
            0.0
        };
        report.findings.push(TrendFinding {
            series: key.clone(),
            stage: stage.clone(),
            kind: TrendKind::Step {
                base_ms: base,
                cur_ms: cur,
                threshold_ms: threshold,
                at,
            },
            gating: regression && !wall,
            detail: format!(
                "{} step at run {at}/{}: {base:.3} ms -> {cur:.3} ms ({pct:+.1}%, threshold {threshold:.3} ms{})",
                if regression { "regression" } else { "improvement" },
                series.len(),
                if wall { ", wall-clock: advisory" } else { "" },
            ),
        });
    }

    for (key, series) in &bits_series {
        for (i, w) in series.windows(2).enumerate() {
            let ((from, _), (to, refresh)) = (w[0], w[1]);
            if from == to {
                continue;
            }
            if refresh {
                continue; // explicit baseline refresh: the change is declared
            }
            report.findings.push(TrendFinding {
                series: key.clone(),
                stage: "modeled_time_bits".into(),
                kind: TrendKind::BitsChange {
                    from,
                    to,
                    at: i + 1,
                },
                gating: true,
                detail: format!(
                    "modeled_time_bits changed {from:016x} -> {to:016x} at run {} without a baseline refresh",
                    i + 1
                ),
            });
        }
    }

    // Most severe first: gating findings ahead of advisory ones, stable
    // within each class (BTreeMap iteration keeps key order).
    report.findings.sort_by_key(|f| !f.gating as u8);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::tests::sample_record;
    use crate::ledger::{LedgerRecord, StagePoint};

    /// `n` bench records whose modeled medians follow `f(i)` with the
    /// given per-run MAD; wall stage follows `g(i)`.
    fn series(
        n: usize,
        modeled: impl Fn(usize) -> f64,
        wall: impl Fn(usize) -> f64,
        wall_mad: f64,
        bits: impl Fn(usize) -> u64,
    ) -> Vec<LedgerRecord> {
        (0..n)
            .map(|i| {
                let mut rec = sample_record(i as u64, modeled(i), bits(i));
                let e = &mut rec.entries[0];
                e.stages.insert(
                    "build_table".into(),
                    StagePoint {
                        median_ms: wall(i),
                        mad_ms: wall_mad,
                        wall: true,
                    },
                );
                rec
            })
            .collect()
    }

    /// Deterministic +/- jitter without a RNG.
    fn jitter(i: usize, amplitude: f64) -> f64 {
        let phase = [0.3, -0.8, 0.9, -0.2, 0.6, -1.0, 0.1, 0.7, -0.5, -0.4][i % 10];
        amplitude * phase
    }

    #[test]
    fn fifteen_percent_step_is_flagged_on_both_stage_kinds() {
        // 12 runs; the last 5 are 15% slower, with +/-1% jitter riding on
        // both levels — each adjacent pair is within pairwise noise.
        let recs = series(
            12,
            |i| (if i < 7 { 100.0 } else { 115.0 }) + jitter(i, 1.0),
            |i| (if i < 7 { 800.0 } else { 920.0 }) + jitter(i, 8.0),
            5.0,
            |_| 0xabcd,
        );
        let report = analyze(&recs, DEFAULT_WINDOW);
        let modeled = report
            .findings
            .iter()
            .find(|f| f.stage == "modeled")
            .expect("modeled step must be flagged");
        assert!(modeled.gating, "{modeled:?}");
        let TrendKind::Step {
            at,
            base_ms,
            cur_ms,
            ..
        } = modeled.kind
        else {
            panic!("expected step: {modeled:?}");
        };
        assert_eq!(at, 7, "step located at the true change point");
        assert!(base_ms < 102.0 && cur_ms > 113.0, "{modeled:?}");
        let wall = report
            .findings
            .iter()
            .find(|f| f.stage == "build_table")
            .expect("wall step must be flagged too");
        assert!(!wall.gating, "wall steps are advisory: {wall:?}");
        // No bits flip: bits were constant.
        assert!(report
            .findings
            .iter()
            .all(|f| f.stage != "modeled_time_bits"));
    }

    #[test]
    fn flat_noisy_series_is_not_flagged() {
        // 16 runs, flat level, +/-3% jitter on the wall stage and +/-0.5%
        // (formatting-grade) on the modeled stage.
        let recs = series(
            16,
            |i| 100.0 + jitter(i, 0.5),
            |i| 800.0 + jitter(i, 24.0),
            10.0,
            |_| 0xabcd,
        );
        let report = analyze(&recs, DEFAULT_WINDOW);
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        assert!(report.series >= 2);
    }

    #[test]
    fn bits_flip_always_flagged_even_when_medians_move_subthreshold() {
        // The formatted median barely moves (under every threshold) but
        // the bit pattern changes: must gate.
        let recs = series(
            6,
            |_| 100.0,
            |_| 800.0,
            5.0,
            |i| if i < 3 { 0x1111 } else { 0x2222 },
        );
        let report = analyze(&recs, DEFAULT_WINDOW);
        let flip = report
            .findings
            .iter()
            .find(|f| f.stage == "modeled_time_bits")
            .expect("bits flip must be flagged");
        assert!(flip.gating);
        assert_eq!(
            flip.kind,
            TrendKind::BitsChange {
                from: 0x1111,
                to: 0x2222,
                at: 3
            }
        );
        // Gating findings sort first.
        assert!(report.findings[0].gating);
    }

    #[test]
    fn bits_flip_at_a_baseline_refresh_is_allowed() {
        let mut recs = series(
            6,
            |_| 100.0,
            |_| 800.0,
            5.0,
            |i| if i < 3 { 0x1111 } else { 0x2222 },
        );
        recs[3].baseline_refresh = true;
        let report = analyze(&recs, DEFAULT_WINDOW);
        assert!(
            report
                .findings
                .iter()
                .all(|f| f.stage != "modeled_time_bits"),
            "{:?}",
            report.findings
        );
    }

    #[test]
    fn improvement_is_reported_but_not_gating() {
        let recs = series(
            10,
            |i| if i < 5 { 100.0 } else { 80.0 },
            |_| 800.0,
            5.0,
            |_| 0xabcd,
        );
        let report = analyze(&recs, DEFAULT_WINDOW);
        let f = report
            .findings
            .iter()
            .find(|f| f.stage == "modeled")
            .expect("improvement reported");
        assert!(!f.gating);
        assert!(f.detail.contains("improvement"));
    }

    #[test]
    fn window_limits_the_analyzed_span() {
        // A step 10 records ago disappears when the window only covers
        // the stable tail.
        let recs = series(
            20,
            |i| if i < 10 { 100.0 } else { 115.0 },
            |_| 800.0,
            5.0,
            |_| 0xabcd,
        );
        let full = analyze(&recs, DEFAULT_WINDOW);
        assert!(full.findings.iter().any(|f| f.stage == "modeled"));
        let tail = analyze(&recs, 8);
        assert_eq!(tail.records, 8);
        assert!(tail.findings.iter().all(|f| f.stage != "modeled"));
    }

    #[test]
    fn short_series_are_skipped() {
        let recs = series(3, |_| 100.0, |_| 800.0, 5.0, |_| 1);
        let report = analyze(&recs, DEFAULT_WINDOW);
        assert!(report.findings.is_empty());
    }

    /// `n` records alternating between scales 0.02 and 0.002 under the
    /// same workload id: the larger scale has a 10× modeled median and
    /// its own bits; `bits_small(i)` gives the 0.002 records' bits.
    fn two_scales(n: usize, bits_small: impl Fn(usize) -> u64) -> Vec<LedgerRecord> {
        (0..n)
            .map(|i| {
                let large = i % 2 == 0;
                let (modeled, bits) = if large {
                    (100.0, 0x3fb8)
                } else {
                    (10.0, bits_small(i))
                };
                let mut rec = sample_record(i as u64, modeled, bits);
                rec.scale = if large { 0.02 } else { 0.002 };
                rec
            })
            .collect()
    }

    #[test]
    fn records_at_two_scales_form_two_series() {
        let recs = two_scales(8, |_| 0x3f7b);
        let report = analyze(&recs, DEFAULT_WINDOW);
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        // modeled + build_table at each of the two scales.
        assert_eq!(report.series, 4);
    }

    #[test]
    fn bits_flip_at_one_scale_still_gates() {
        let recs = two_scales(8, |i| if i < 4 { 0x3f7b } else { 0x3f7c });
        let report = analyze(&recs, DEFAULT_WINDOW);
        let flips: Vec<_> = report
            .findings
            .iter()
            .filter(|f| f.stage == "modeled_time_bits")
            .collect();
        assert_eq!(flips.len(), 1, "{:?}", report.findings);
        let flip = flips[0];
        assert!(flip.gating);
        assert_eq!(flip.series.scale, 0.002);
        assert_eq!(
            flip.kind,
            TrendKind::BitsChange {
                from: 0x3f7b,
                to: 0x3f7c,
                at: 2
            }
        );
        assert_eq!(
            flip.series.label(&flip.stage),
            "bench/s1/sw1-eps0.2/global/modeled_time_bits @ scale 0.002"
        );
    }

    #[test]
    fn thresholds_have_floors_and_mad_terms() {
        assert_eq!(step_threshold(true, 100.0, 0.0), 10.0); // relative floor
        assert_eq!(step_threshold(true, 0.1, 0.0), 0.25); // absolute floor
        assert_eq!(step_threshold(true, 100.0, 10.0), 40.0); // MAD term
        assert_eq!(step_threshold(false, 100.0, 0.0), 5.0);
        assert_eq!(step_threshold(false, 0.01, 0.0), 0.01);
    }
}
