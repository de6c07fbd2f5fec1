//! Self-contained HTML dashboard for the run ledger (`repro report`).
//!
//! Renders the cross-run trajectory as a single zero-dependency HTML
//! document: inline SVG sparklines per (command, scale, workload, stage)
//! series, the threads-speedup curves from the latest sweep,
//! per-thread-count worker-utilization bars, the gate history table, and
//! the [`crate::trend`] findings. No JavaScript frameworks, no external CSS,
//! no network: the file opens from disk anywhere.
//!
//! The machine-readable payload is embedded as
//! `<script type="application/json" id="report-data">…</script>` with
//! `<` escaped as `<` (so no `</script>` can terminate the block
//! early). [`embedded_json`] extracts and unescapes it; `repro report`
//! round-trip-validates that payload through [`crate::json::parse`]
//! before the document is considered shippable.
//!
//! Palette: the workspace's validated reference palette — categorical
//! slots 1–3 (all-pairs safe) for the three speedup series, a sequential
//! blue ramp for utilization magnitude, and the reserved status colors
//! (always icon + word, never color alone) for gate outcomes. Light and
//! dark values are CSS custom properties; dark mode follows
//! `prefers-color-scheme` with a `data-theme` override.

use crate::ledger::LedgerRecord;
use crate::provenance::format_utc;
use crate::trend::{SeriesKey, TrendFinding, TrendKind, TrendReport};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Schema id / version of the embedded report payload.
pub const REPORT_SCHEMA: &str = "hybrid-dbscan/report";
pub const REPORT_VERSION: u64 = 1;

/// Escape text for HTML body/attribute positions.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
    out
}

/// One trend series extracted from the ledger, ready to draw.
struct Series {
    key: SeriesKey,
    stage: String,
    wall: bool,
    medians: Vec<f64>,
}

/// Group the stage medians into per-([`SeriesKey`], stage) series, in
/// ledger order — the grouping [`crate::trend::analyze`] uses.
fn collect_series(records: &[LedgerRecord]) -> Vec<Series> {
    let mut map: BTreeMap<(SeriesKey, String), Series> = BTreeMap::new();
    for rec in records {
        for e in &rec.entries {
            let key = SeriesKey::new(rec, &e.workload);
            for (stage, p) in &e.stages {
                map.entry((key.clone(), stage.clone()))
                    .or_insert_with(|| Series {
                        key: key.clone(),
                        stage: stage.clone(),
                        wall: p.wall,
                        medians: Vec::new(),
                    })
                    .medians
                    .push(p.median_ms);
            }
        }
    }
    map.into_values().collect()
}

/// Inline SVG sparkline: one thin polyline over the series, a dot on the
/// newest point, no grid (the card's min/max text carries the scale).
fn sparkline_svg(values: &[f64]) -> String {
    const W: f64 = 220.0;
    const H: f64 = 44.0;
    const PAD: f64 = 4.0;
    if values.len() < 2 {
        let v = values.first().copied().unwrap_or(0.0);
        return format!(
            r#"<svg class="spark" viewBox="0 0 220 44" role="img" aria-label="single sample {v:.3} ms"><circle cx="110" cy="22" r="3" fill="var(--series-1)"/></svg>"#
        );
    }
    let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let span = if (hi - lo).abs() < 1e-12 {
        1.0
    } else {
        hi - lo
    };
    let x = |i: usize| PAD + (W - 2.0 * PAD) * i as f64 / (values.len() - 1) as f64;
    let y = |v: f64| H - PAD - (H - 2.0 * PAD) * (v - lo) / span;
    let mut points = String::new();
    for (i, v) in values.iter().enumerate() {
        let _ = write!(points, "{:.1},{:.1} ", x(i), y(*v));
    }
    let (lx, ly) = (x(values.len() - 1), y(*values.last().unwrap()));
    format!(
        r#"<svg class="spark" viewBox="0 0 220 44" role="img" aria-label="{n} runs, {lo:.3} to {hi:.3} ms"><polyline points="{points}" fill="none" stroke="var(--series-1)" stroke-width="2" stroke-linejoin="round" stroke-linecap="round"/><circle cx="{lx:.1}" cy="{ly:.1}" r="3" fill="var(--series-1)" stroke="var(--surface-1)" stroke-width="2"/></svg>"#,
        n = values.len(),
    )
}

/// The step/bits badge for a series card, when trend analysis flagged it.
fn finding_badge(f: &TrendFinding) -> String {
    let (icon, class, label) = match &f.kind {
        TrendKind::Step {
            base_ms, cur_ms, ..
        } => {
            let pct = if base_ms.abs() > 1e-12 {
                (cur_ms - base_ms) / base_ms * 100.0
            } else {
                0.0
            };
            if f.gating {
                ("✗", "critical", format!("step {pct:+.1}%"))
            } else if *cur_ms > *base_ms {
                ("⚠", "serious", format!("drift {pct:+.1}%"))
            } else {
                ("✓", "good", format!("improved {pct:+.1}%"))
            }
        }
        TrendKind::BitsChange { .. } => ("✗", "critical", "bits changed".to_string()),
    };
    format!(
        r#"<span class="badge {class}">{icon} {}</span>"#,
        esc(&label)
    )
}

/// The threads-speedup chart: one polyline per stage over the thread
/// counts of the newest `threads` record. Categorical slots 1–3 (the
/// all-pairs-safe opening), legend + direct series identity via the
/// legend (3 series), single y axis.
fn speedup_chart(records: &[LedgerRecord]) -> String {
    let Some(rec) = records.iter().rev().find(|r| r.command == "threads") else {
        return String::new();
    };
    // (threads, [speedup per stage]) rows from the sweep entries.
    const STAGES: [(&str, &str, &str); 3] = [
        ("speedup_build_table", "build_table", "series-1"),
        ("speedup_dbscan", "dbscan", "series-2"),
        ("speedup_disjoint_set", "disjoint_set", "series-3"),
    ];
    let mut rows: Vec<(u64, [f64; 3])> = Vec::new();
    for e in &rec.entries {
        let Some(t) = e.metrics.get("threads").map(|v| *v as u64) else {
            continue;
        };
        let mut s = [1.0; 3];
        for (i, (key, ..)) in STAGES.iter().enumerate() {
            s[i] = e.metrics.get(*key).copied().unwrap_or(1.0);
        }
        rows.push((t, s));
    }
    rows.sort_by_key(|r| r.0);
    if rows.len() < 2 {
        return String::new();
    }
    const W: f64 = 520.0;
    const H: f64 = 220.0;
    const L: f64 = 40.0; // axis gutter
    const B: f64 = 28.0;
    const PAD: f64 = 10.0;
    let max_s = rows
        .iter()
        .flat_map(|(_, s)| s.iter().copied())
        .fold(1.0_f64, f64::max)
        .max(2.0)
        .ceil();
    let x = |i: usize| L + (W - L - PAD) * i as f64 / (rows.len() - 1) as f64;
    let y = |v: f64| H - B - (H - B - PAD) * v / max_s;
    let mut svg =
        format!(r#"<svg viewBox="0 0 {W} {H}" role="img" aria-label="speedup vs threads">"#);
    // Hairline gridlines + y labels at integer speedups.
    for g in 1..=(max_s as u64) {
        let gy = y(g as f64);
        let _ = write!(
            svg,
            r#"<line x1="{L}" y1="{gy:.1}" x2="{x2}" y2="{gy:.1}" stroke="var(--grid)" stroke-width="1"/><text x="{tx}" y="{ty:.1}" class="tick" text-anchor="end">{g}x</text>"#,
            x2 = W - PAD,
            tx = L - 6.0,
            ty = gy + 4.0,
        );
    }
    // x labels: thread counts.
    for (i, (t, _)) in rows.iter().enumerate() {
        let _ = write!(
            svg,
            r#"<text x="{tx:.1}" y="{ty}" class="tick" text-anchor="middle">{t}</text>"#,
            tx = x(i),
            ty = H - 8.0,
        );
    }
    // Baseline axis.
    let _ = write!(
        svg,
        r#"<line x1="{L}" y1="{by:.1}" x2="{x2}" y2="{by:.1}" stroke="var(--axis)" stroke-width="1"/>"#,
        by = y(0.0),
        x2 = W - PAD,
    );
    for (i, (_, name, var)) in STAGES.iter().enumerate() {
        let mut points = String::new();
        for (k, (_, s)) in rows.iter().enumerate() {
            let _ = write!(points, "{:.1},{:.1} ", x(k), y(s[i]));
        }
        let _ = write!(
            svg,
            r#"<polyline points="{points}" fill="none" stroke="var(--{var})" stroke-width="2" stroke-linejoin="round"><title>{name}</title></polyline>"#,
        );
        for (k, (_, s)) in rows.iter().enumerate() {
            let _ = write!(
                svg,
                r#"<circle cx="{cx:.1}" cy="{cy:.1}" r="3.5" fill="var(--{var})" stroke="var(--surface-1)" stroke-width="2"><title>{name} @ {t} threads: {v:.2}x</title></circle>"#,
                cx = x(k),
                cy = y(s[i]),
                t = rows[k].0,
                v = s[i],
            );
        }
    }
    svg.push_str("</svg>");

    // Legend (3 series → always present) and the table view.
    let mut legend = String::from(r#"<div class="legend">"#);
    for (_, name, var) in STAGES {
        let _ = write!(
            legend,
            r#"<span class="key"><span class="swatch" style="background:var(--{var})"></span>{name}</span>"#
        );
    }
    legend.push_str("</div>");
    let mut table = String::from(
        r#"<details><summary>table view</summary><table><thead><tr><th>threads</th><th>build_table</th><th>dbscan</th><th>disjoint_set</th></tr></thead><tbody>"#,
    );
    for (t, s) in &rows {
        let _ = write!(
            table,
            "<tr><td>{t}</td><td>{:.2}x</td><td>{:.2}x</td><td>{:.2}x</td></tr>",
            s[0], s[1], s[2]
        );
    }
    table.push_str("</tbody></table></details>");
    format!(
        r#"<section><h2>Thread scaling (latest sweep, {ts})</h2>{legend}{svg}{table}</section>"#,
        ts = esc(&format_utc(rec.provenance.timestamp_unix)),
    )
}

/// Worker-utilization bars from the newest `threads` (or `profile`)
/// record: one horizontal bar per sweep point, sequential blue (ordinal
/// start ≥ step 250 per the palette's surface-contrast rule), value
/// labels on every bar (relief for the light-mode contrast band).
fn utilization_bars(records: &[LedgerRecord]) -> String {
    let rec = records
        .iter()
        .rev()
        .find(|r| r.command == "threads")
        .or_else(|| records.iter().rev().find(|r| r.command == "profile"));
    let Some(rec) = rec else {
        return String::new();
    };
    let mut rows: Vec<(String, u64, f64)> = Vec::new();
    for e in &rec.entries {
        if let (Some(t), Some(u)) = (e.metrics.get("threads"), e.metrics.get("worker_util_pct")) {
            rows.push((e.workload.clone(), *t as u64, *u));
        }
    }
    rows.sort_by_key(|r| (r.0.clone(), r.1));
    if rows.is_empty() {
        return String::new();
    }
    // Ordinal blue ramp, light→dark with magnitude rank.
    const RAMP: [&str; 4] = ["#86b6ef", "#5598e7", "#2a78d6", "#1c5cab"];
    let mut html = format!(
        r#"<section><h2>Worker utilization ({} run)</h2><div class="bars">"#,
        esc(&rec.command)
    );
    let n = rows.len();
    for (i, (wl, t, u)) in rows.iter().enumerate() {
        let color = RAMP[(i * RAMP.len() / n.max(1)).min(RAMP.len() - 1)];
        let _ = write!(
            html,
            r#"<div class="bar-row"><span class="bar-label">{wl} · {t}t</span><span class="bar-track"><span class="bar-fill" style="width:{w:.1}%;background:{color}"></span></span><span class="bar-value">{u:.0}%</span></div>"#,
            wl = esc(wl),
            w = u.clamp(0.0, 100.0),
        );
    }
    html.push_str("</div></section>");
    html
}

/// Gate history table over the window: status is always icon + word.
fn gate_table(records: &[LedgerRecord]) -> String {
    let mut html = String::from(
        r#"<section><h2>Gate history</h2><table><thead><tr><th>when (UTC)</th><th>command</th><th>commit</th><th>scale</th><th>strict</th><th>regressions</th><th>advisories</th><th>outcome</th></tr></thead><tbody>"#,
    );
    for rec in records.iter().rev() {
        let (icon, class, word) = if rec.gate.passed {
            ("✓", "good", "pass")
        } else {
            ("✗", "critical", "fail")
        };
        let sha = if rec.provenance.git_dirty {
            format!("{}+dirty", rec.provenance.git_sha)
        } else {
            rec.provenance.git_sha.clone()
        };
        let _ = write!(
            html,
            r#"<tr><td>{ts}</td><td>{cmd}</td><td><code>{sha}</code></td><td>{scale}</td><td>{strict}</td><td>{reg}</td><td>{adv}</td><td><span class="badge {class}">{icon} {word}</span>{refresh}</td></tr>"#,
            ts = esc(&format_utc(rec.provenance.timestamp_unix)),
            cmd = esc(&rec.command),
            sha = esc(&sha),
            scale = rec.scale,
            strict = if rec.gate.strict { "yes" } else { "no" },
            reg = rec.gate.regressions,
            adv = rec.gate.advisories,
            refresh = if rec.baseline_refresh {
                r#" <span class="badge serious">⟳ baseline refresh</span>"#
            } else {
                ""
            },
        );
    }
    html.push_str("</tbody></table></section>");
    html
}

/// Trend-findings section: every finding as icon + label + detail text.
fn findings_section(trend: &TrendReport) -> String {
    let mut html = String::from("<section><h2>Trend findings</h2>");
    if trend.findings.is_empty() {
        let _ = write!(
            html,
            r#"<p><span class="badge good">✓ clean</span> no steps or bit flips across {} records / {} series.</p>"#,
            trend.records, trend.series
        );
    } else {
        html.push_str("<ul class=\"findings\">");
        for f in &trend.findings {
            let _ = write!(
                html,
                r#"<li>{badge} <strong>{key}</strong>: {detail}</li>"#,
                badge = finding_badge(f),
                key = esc(&f.series.label(&f.stage)),
                detail = esc(&f.detail),
            );
        }
        html.push_str("</ul>");
    }
    html.push_str("</section>");
    html
}

/// Sparkline small multiples, grouped per command, each card carrying
/// its own min/max/last text and any trend badge for that series.
fn sparkline_section(records: &[LedgerRecord], trend: &TrendReport) -> String {
    let series = collect_series(records);
    if series.is_empty() {
        return String::new();
    }
    let mut html = String::from("<section><h2>Stage trajectories</h2><div class=\"cards\">");
    let mut table = String::from(
        r#"<details><summary>table view (newest run last)</summary><table><thead><tr><th>series</th><th>kind</th><th>runs</th><th>medians (ms)</th></tr></thead><tbody>"#,
    );
    for s in &series {
        let lo = s.medians.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = s.medians.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let last = s.medians.last().copied().unwrap_or(0.0);
        let badge = trend
            .findings
            .iter()
            .find(|f| f.series == s.key && f.stage == s.stage)
            .map(finding_badge)
            .unwrap_or_default();
        let _ = write!(
            html,
            r#"<div class="card"><div class="card-head"><span class="card-title">{key}</span>{badge}</div>{svg}<div class="card-foot"><span>{kind}</span><span>min {lo:.3} · max {hi:.3} · last {last:.3} ms</span></div></div>"#,
            key = esc(&s.key.label(&s.stage)),
            svg = sparkline_svg(&s.medians),
            kind = if s.wall { "wall-clock" } else { "modeled" },
        );
        let _ = write!(
            table,
            "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>",
            esc(&s.key.label(&s.stage)),
            if s.wall { "wall" } else { "modeled" },
            s.medians.len(),
            s.medians
                .iter()
                .map(|v| format!("{v:.3}"))
                .collect::<Vec<_>>()
                .join(", "),
        );
    }
    table.push_str("</tbody></table></details>");
    html.push_str("</div>");
    html.push_str(&table);
    html.push_str("</section>");
    html
}

/// The machine-readable payload embedded in the document: the ledger
/// records (each already a canonical JSON object line) plus the trend
/// findings. Built by concatenating record lines — every line is itself
/// emitted by [`LedgerRecord::to_json`], so the result stays valid JSON
/// the shared parser accepts.
pub fn report_payload(records: &[LedgerRecord], trend: &TrendReport) -> String {
    let mut out = format!(r#"{{"schema":"{REPORT_SCHEMA}","version":{REPORT_VERSION},"records":["#);
    for (i, rec) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&rec.to_json());
    }
    out.push_str("],\"findings\":[");
    let mut w = crate::json::JsonWriter::new();
    w.begin_array();
    for f in &trend.findings {
        w.begin_object();
        w.field_str("command", &f.series.command);
        w.field_float("scale", f.series.scale);
        w.field_str("workload", &f.series.workload);
        w.field_str("stage", &f.stage);
        w.field_bool("gating", f.gating);
        w.field_str(
            "kind",
            match f.kind {
                TrendKind::Step { .. } => "step",
                TrendKind::BitsChange { .. } => "bits_change",
            },
        );
        w.field_str("detail", &f.detail);
        w.end_object();
    }
    w.end_array();
    let arr = w.finish();
    out.push_str(arr.trim_start_matches('[').trim_end_matches(']'));
    out.push_str("]}");
    out
}

/// Render the full dashboard document.
pub fn render_html(records: &[LedgerRecord], trend: &TrendReport) -> String {
    let payload = report_payload(records, trend);
    // `<` → `<` inside the embedded JSON: `<` only occurs inside
    // JSON strings, where the escape is equivalent, and it prevents a
    // literal `</script>` from terminating the block.
    let embedded = payload.replace('<', "\\u003c");
    let latest = records.last();
    let subtitle = latest.map_or_else(
        || "empty ledger".to_string(),
        |r| {
            format!(
                "{} records · newest {} ({}) · {}",
                records.len(),
                format_utc(r.provenance.timestamp_unix),
                r.provenance.git_sha,
                r.provenance.os,
            )
        },
    );
    let gating = trend.gating().len();
    let headline = if gating > 0 {
        format!(r#"<span class="badge critical">✗ {gating} gating finding(s)</span>"#)
    } else {
        r#"<span class="badge good">✓ no gating findings</span>"#.to_string()
    };
    format!(
        r#"<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>hybrid-dbscan run report</title>
<style>
.viz-root {{
  color-scheme: light;
  --surface-1: #fcfcfb; --page: #f9f9f7;
  --text-1: #0b0b0b; --text-2: #52514e; --muted: #898781;
  --grid: #e1e0d9; --axis: #c3c2b7; --border: rgba(11,11,11,0.10);
  --series-1: #2a78d6; --series-2: #eb6834; --series-3: #1baf7a;
  --good: #0ca30c; --warning: #fab219; --serious: #ec835a; --critical: #d03b3b;
}}
@media (prefers-color-scheme: dark) {{
  :root:where(:not([data-theme="light"])) .viz-root {{
    color-scheme: dark;
    --surface-1: #1a1a19; --page: #0d0d0d;
    --text-1: #ffffff; --text-2: #c3c2b7; --muted: #898781;
    --grid: #2c2c2a; --axis: #383835; --border: rgba(255,255,255,0.10);
    --series-1: #3987e5; --series-2: #d95926; --series-3: #199e70;
  }}
}}
:root[data-theme="dark"] .viz-root {{
  color-scheme: dark;
  --surface-1: #1a1a19; --page: #0d0d0d;
  --text-1: #ffffff; --text-2: #c3c2b7; --muted: #898781;
  --grid: #2c2c2a; --axis: #383835; --border: rgba(255,255,255,0.10);
  --series-1: #3987e5; --series-2: #d95926; --series-3: #199e70;
}}
.viz-root {{
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  background: var(--page); color: var(--text-1);
  margin: 0; padding: 24px; min-height: 100vh;
}}
.viz-root h1 {{ font-size: 20px; margin: 0 0 4px; }}
.viz-root h2 {{ font-size: 15px; margin: 0 0 10px; color: var(--text-1); }}
.viz-root .sub {{ color: var(--text-2); font-size: 13px; margin-bottom: 20px; }}
section {{
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 16px; margin-bottom: 16px;
}}
.cards {{ display: flex; flex-wrap: wrap; gap: 12px; }}
.card {{ border: 1px solid var(--border); border-radius: 6px; padding: 10px; width: 240px; }}
.card-head {{ display: flex; justify-content: space-between; gap: 6px; align-items: baseline; }}
.card-title {{ font-size: 12px; color: var(--text-2); word-break: break-all; }}
.card-foot {{ display: flex; justify-content: space-between; font-size: 11px; color: var(--muted); font-variant-numeric: tabular-nums; }}
.spark {{ width: 100%; height: 44px; display: block; margin: 6px 0; }}
.badge {{ font-size: 11px; white-space: nowrap; }}
.badge.good {{ color: var(--good); }}
.badge.warning {{ color: var(--warning); }}
.badge.serious {{ color: var(--serious); }}
.badge.critical {{ color: var(--critical); }}
table {{ border-collapse: collapse; font-size: 13px; width: 100%; }}
th {{ text-align: left; color: var(--text-2); font-weight: 600; }}
th, td {{ padding: 4px 10px 4px 0; border-bottom: 1px solid var(--grid); font-variant-numeric: tabular-nums; }}
.tick {{ font-size: 11px; fill: var(--muted); }}
.legend {{ display: flex; gap: 16px; font-size: 12px; color: var(--text-2); margin-bottom: 8px; }}
.key {{ display: inline-flex; align-items: center; gap: 6px; }}
.swatch {{ width: 10px; height: 10px; border-radius: 2px; display: inline-block; }}
.bars {{ display: flex; flex-direction: column; gap: 6px; }}
.bar-row {{ display: flex; align-items: center; gap: 10px; font-size: 12px; }}
.bar-label {{ width: 220px; color: var(--text-2); text-align: right; }}
.bar-track {{ flex: 1; height: 12px; background: var(--grid); border-radius: 4px; overflow: hidden; }}
.bar-fill {{ display: block; height: 100%; border-radius: 4px 0 0 4px; }}
.bar-value {{ width: 44px; font-variant-numeric: tabular-nums; }}
.findings {{ margin: 0; padding-left: 18px; font-size: 13px; }}
.findings li {{ margin-bottom: 6px; }}
details summary {{ cursor: pointer; color: var(--text-2); font-size: 12px; margin-top: 10px; }}
code {{ font-size: 12px; }}
</style>
</head>
<body class="viz-root">
<h1>hybrid-dbscan run report {headline}</h1>
<div class="sub">{subtitle}</div>
{findings}
{sparks}
{speedup}
{util}
{gates}
<script type="application/json" id="report-data">{embedded}</script>
</body>
</html>
"#,
        subtitle = esc(&subtitle),
        findings = findings_section(trend),
        sparks = sparkline_section(records, trend),
        speedup = speedup_chart(records),
        util = utilization_bars(records),
        gates = gate_table(records),
    )
}

/// Extract and unescape the embedded JSON payload of a rendered
/// dashboard. `repro report` feeds the result to [`crate::json::parse`]
/// as the shippability check.
pub fn embedded_json(html: &str) -> Result<String, String> {
    const OPEN: &str = r#"<script type="application/json" id="report-data">"#;
    const CLOSE: &str = "</script>";
    let start = html.find(OPEN).ok_or("no embedded report-data block")? + OPEN.len();
    let end = html[start..]
        .find(CLOSE)
        .ok_or("unterminated report-data block")?
        + start;
    Ok(html[start..end].replace("\\u003c", "<"))
}

/// Plain-text summary of the same report (the terminal rendering).
pub fn render_text(records: &[LedgerRecord], trend: &TrendReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== Run ledger report ==");
    let mut per_command: BTreeMap<&str, usize> = BTreeMap::new();
    for r in records {
        *per_command.entry(r.command.as_str()).or_default() += 1;
    }
    let counts = per_command
        .iter()
        .map(|(c, n)| format!("{c} x{n}"))
        .collect::<Vec<_>>()
        .join(", ");
    let _ = writeln!(
        out,
        "{} record(s) [{}], {} trend series over the {}-record window",
        records.len(),
        if counts.is_empty() { "-" } else { &counts },
        trend.series,
        trend.records
    );
    if let Some(r) = records.last() {
        let _ = writeln!(
            out,
            "newest: {} {} @ {} ({}, rustc {}, RAYON_NUM_THREADS={})",
            r.command,
            format_utc(r.provenance.timestamp_unix),
            r.provenance.git_sha,
            r.provenance.host,
            r.provenance.rustc.trim_start_matches("rustc "),
            r.provenance.rayon_num_threads,
        );
    }
    if trend.findings.is_empty() {
        let _ = writeln!(out, "trend: clean — no steps or bit flips");
    } else {
        for f in &trend.findings {
            let _ = writeln!(
                out,
                "  {} {}: {}",
                if f.gating { "GATING  " } else { "advisory" },
                f.series.label(&f.stage),
                f.detail
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, JsonValue};
    use crate::ledger::tests::sample_record;
    use crate::ledger::StagePoint;
    use crate::trend;

    fn sample_records(n: usize) -> Vec<LedgerRecord> {
        (0..n)
            .map(|i| {
                let mut rec = sample_record(i as u64, 100.0 + i as f64 * 0.05, 0xbeef);
                if i == n - 1 {
                    // Give the newest record a threads sweep so the
                    // speedup chart and utilization bars render.
                    rec.command = "threads".into();
                    rec.entries.clear();
                    for (t, speed, util) in [(1u64, 1.0, 96.0), (2, 1.7, 80.0), (4, 2.6, 62.0)] {
                        let mut e = crate::ledger::LedgerEntry {
                            workload: format!("threads/sw1-eps0.2/t{t}"),
                            modeled_time_bits: Some(0xbeef),
                            ..Default::default()
                        };
                        e.stages.insert(
                            "build_table".into(),
                            StagePoint {
                                median_ms: 800.0 / speed,
                                mad_ms: 4.0,
                                wall: true,
                            },
                        );
                        e.metrics.insert("threads".into(), t as f64);
                        e.metrics.insert("speedup_build_table".into(), speed);
                        e.metrics.insert("speedup_dbscan".into(), 1.0);
                        e.metrics.insert("speedup_disjoint_set".into(), speed * 0.9);
                        e.metrics.insert("worker_util_pct".into(), util);
                        rec.entries.push(e);
                    }
                }
                rec
            })
            .collect()
    }

    #[test]
    fn embedded_payload_round_trips_through_shared_parser() {
        let records = sample_records(6);
        let report = trend::analyze(&records, trend::DEFAULT_WINDOW);
        let html = render_html(&records, &report);
        let json = embedded_json(&html).expect("payload extractable");
        let v = parse(&json).expect("payload must parse");
        assert_eq!(
            v.get("schema").and_then(JsonValue::as_str),
            Some(REPORT_SCHEMA)
        );
        let recs = v.get("records").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(recs.len(), 6);
        // Each embedded record is a full ledger record the ledger parser
        // accepts byte-for-byte.
        for (rec, orig) in recs.iter().zip(&records) {
            let text = match rec {
                JsonValue::Obj(_) => {
                    // Re-render through the ledger round trip: the record
                    // line embedded verbatim must equal the original.
                    orig.to_json()
                }
                _ => panic!("record not an object"),
            };
            assert!(json.contains(&text), "record line embedded verbatim");
        }
        assert!(v.get("findings").and_then(JsonValue::as_arr).is_some());
    }

    #[test]
    fn escaped_embedding_cannot_break_out_of_the_script_block() {
        let mut records = sample_records(4);
        // A hostile-looking workload id: must not terminate the block.
        records[0].entries[0].workload = "evil</script><b>x".into();
        let report = trend::analyze(&records, trend::DEFAULT_WINDOW);
        let html = render_html(&records, &report);
        let start = html.find(r#"id="report-data">"#).unwrap();
        let block = &html[start..];
        let close = block.find("</script>").unwrap();
        assert!(
            !block[..close].contains("</script"),
            "escaped payload must not contain a literal close tag"
        );
        let json = embedded_json(&html).unwrap();
        assert!(parse(&json).is_ok());
        assert!(
            json.contains("evil</script><b>x"),
            "unescape restores the id"
        );
    }

    #[test]
    fn dashboard_renders_all_sections() {
        let records = sample_records(6);
        let report = trend::analyze(&records, trend::DEFAULT_WINDOW);
        let html = render_html(&records, &report);
        for needle in [
            "Stage trajectories",
            "Thread scaling",
            "Worker utilization",
            "Gate history",
            "Trend findings",
            "<polyline",            // sparkline + speedup marks
            "prefers-color-scheme", // dark mode is selected, not flipped
            "table view",           // accessibility table views
            "legend",               // ≥2 series → legend present
        ] {
            assert!(html.contains(needle), "missing {needle}");
        }
        // Status is never color-alone: icon + word accompany the badge.
        assert!(html.contains("✓ pass") || html.contains("✗ fail"));
    }

    #[test]
    fn empty_ledger_still_renders_a_valid_document() {
        let report = trend::analyze(&[], trend::DEFAULT_WINDOW);
        let html = render_html(&[], &report);
        assert!(html.contains("empty ledger"));
        let json = embedded_json(&html).unwrap();
        let v = parse(&json).expect("empty payload parses");
        assert_eq!(
            v.get("records")
                .and_then(JsonValue::as_arr)
                .map(|a| a.len()),
            Some(0)
        );
    }

    #[test]
    fn text_summary_names_gating_findings() {
        let mut records: Vec<LedgerRecord> = (0..6)
            .map(|i| sample_record(i, 100.0, if i < 3 { 0x1 } else { 0x2 }))
            .collect();
        records[0].command = "bench".into();
        let report = trend::analyze(&records, trend::DEFAULT_WINDOW);
        let text = render_text(&records, &report);
        assert!(text.contains("GATING"), "{text}");
        assert!(text.contains("modeled_time_bits"), "{text}");
    }

    #[test]
    fn series_at_two_scales_are_drawn_apart() {
        let mut records: Vec<LedgerRecord> = (0..4).map(|i| sample_record(i, 100.0, 0x1)).collect();
        records[1].scale = 0.02;
        let series = collect_series(&records);
        let modeled: Vec<_> = series.iter().filter(|s| s.stage == "modeled").collect();
        assert_eq!(modeled.len(), 2);
        assert_eq!(modeled[0].medians.len(), 3, "scale 0.002");
        assert_eq!(modeled[1].medians.len(), 1, "scale 0.02");
        let report = trend::analyze(&records, trend::DEFAULT_WINDOW);
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        let html = render_html(&records, &report);
        assert!(html.contains("bench/s1/sw1-eps0.2/global/modeled @ scale 0.02<"));
    }
}
