//! The CLI over the suite: `repro bench|threads|profile|shard|backend`
//! (one [`run`] over a [`super::Preset`]) and `repro report` (the trend
//! dashboard over the run ledger, under the same gate).
//!
//! Every preset measures through [`measure`], fails on any equivalence
//! mismatch, runs its own strict-mode check, self-validates and writes its
//! artifact through the one writer, and appends one ledger record.

use super::gate::{
    check_auto_selector, check_baseline, check_speedup, check_trend, fmt_ms, ledger_record, Gate,
};
use super::run::{measure, Measured, Mismatch, Row, MICRO_STAGES};
use super::{preset, Role};
use crate::common::{Options, TextTable};
use obs::analyze::{ProfileDoc, ProfileRun};
use obs::bench::{BenchDoc, WorkloadResult, SCHEMA_VERSION};
use obs::provenance::Provenance;
use obs::{dashboard, trend};

/// Run the preset named `command`; returns the process exit code.
pub fn run(command: &str, opts: &Options) -> i32 {
    let p = preset(command).unwrap_or_else(|| panic!("unknown preset '{command}'"));
    let workloads = p.workloads();
    println!("== {} ==", p.title);
    println!(
        "{} workloads at {:?} threads, warmup = {}, trials = {}; equivalence groups must match bitwise\n",
        workloads.len(),
        p.threads.counts(),
        opts.warmup,
        opts.trials
    );
    let m = measure(p, &workloads, opts);
    let mut gate = Gate::from_env();
    for mm in &m.mismatches {
        gate.fail(mm.detail.clone());
    }
    let rows: Vec<WorkloadResult> = m.rows.iter().map(|r| r.result.clone()).collect();
    let ids = rows.iter().map(|r| r.id.clone()).collect();
    let doc = BenchDoc {
        version: SCHEMA_VERSION,
        scale: opts.scale,
        trials: opts.trials as u64,
        warmup: opts.warmup as u64,
        host_threads: rayon::current_num_threads() as u64,
        provenance: Some(Provenance::collect(obs::bench::SCHEMA, SCHEMA_VERSION, ids)),
        workloads: rows,
    };
    print_rows(p.columns, &m.rows, &m.mismatches);
    match p.command {
        "bench" => {
            if let Some(path) = &opts.compare {
                check_baseline(&mut gate, path, &doc);
            }
        }
        "threads" => check_speedup(&mut gate, &doc.workloads),
        "backend" => check_auto_selector(&mut gate, &doc.workloads),
        _ => {}
    }
    if let Some(name) = p.artifact {
        let text = if p.command == "profile" {
            let profile = profile_doc(opts, &m, workloads.iter().map(|w| w.id.clone()).collect());
            print_diagnosis(&profile);
            round_trip(profile.to_json(), |t| {
                ProfileDoc::parse(t).map(|d| d.to_json())
            })
        } else {
            round_trip(doc.to_json(), |t| BenchDoc::parse(t).map(|d| d.to_json()))
        };
        if let Err(e) = text.and_then(|text| opts.write_artifact(name, &text)) {
            gate.fail(format!("{name}: {e}"));
        }
        opts.append_ledger(&ledger_record(p.command, &doc, &gate));
    }
    if let Some(rec) = &m.recorder {
        opts.write_observability(rec);
    }
    gate.finish(p.command)
}

/// Self-validation: a document must reparse through the shared JSON
/// layer and re-emit byte-identically.
fn round_trip(
    text: String,
    reparse: impl Fn(&str) -> Result<String, String>,
) -> Result<String, String> {
    match reparse(&text) {
        Ok(again) if again == text => Ok(text),
        Ok(_) => Err("emitted document is not a round-trip fixed point".into()),
        Err(e) => Err(format!("emitted document does not parse: {e}")),
    }
}

/// One table over `rows` (micro rows get their own, by stage), plus an
/// `equivalent` verdict per row.
fn print_rows(columns: &[&str], rows: &[Row], mismatches: &[Mismatch]) {
    let results = |micro: bool| -> Vec<&WorkloadResult> {
        rows.iter()
            .filter(|r| (r.workload.role == Role::Micro) == micro)
            .map(|r| &r.result)
            .collect()
    };
    table(&results(false), columns, mismatches);
    let micro = results(true);
    if !micro.is_empty() {
        println!("\n-- Micro stages (host wall-clock, advisory) --");
        table(&micro, MICRO_STAGES, mismatches);
    }
    if mismatches.is_empty() {
        println!("\n# every equivalence group matches bitwise");
    }
}

fn table(rows: &[&WorkloadResult], columns: &[&str], mismatches: &[Mismatch]) {
    let mut header = vec!["workload", "points"];
    header.extend(columns);
    header.push("equivalent");
    let mut t = TextTable::new(&header);
    for r in rows {
        let mut cells = vec![r.id.clone(), r.points.to_string()];
        cells.extend(columns.iter().map(|c| cell(r, c)));
        let bad = mismatches
            .iter()
            .any(|m| m.label.split(' ').next() == Some(r.id.as_str()));
        cells.push(if bad { "NO" } else { "yes" }.to_string());
        t.row(cells);
    }
    t.print();
}

/// A stage (median, ±MAD when nonzero), a fingerprint, or a metric.
fn cell(r: &WorkloadResult, column: &str) -> String {
    if let Some(s) = r.stages.get(column) {
        return match s.mad_ms > 0.0 {
            true => format!("{} ±{}", fmt_ms(s.median_ms), fmt_ms(s.mad_ms)),
            false => fmt_ms(s.median_ms),
        };
    }
    let hex = |v: Option<u64>| v.map_or("-".into(), |v| format!("{v:016x}"));
    match column {
        "kernel" => r.kernel.clone(),
        "table_fingerprint" => hex(r.table_fingerprint),
        "clustering_fingerprint" => hex(r.clustering_fingerprint),
        _ => match r.metrics.get(column) {
            Some(v) if v.fract() == 0.0 => format!("{v:.0}"),
            Some(v) => format!("{v:.2}"),
            None => "-".into(),
        },
    }
}

/// `PROFILE.json`: one run per profiled pass.
fn profile_doc(opts: &Options, m: &Measured, workload_ids: Vec<String>) -> ProfileDoc {
    use obs::analyze::{SCHEMA, SCHEMA_VERSION};
    let runs = m
        .rows
        .iter()
        .filter_map(|row| {
            let r = &row.result;
            let profiled = format!("{} profiled", r.id);
            Some(ProfileRun {
                workload: row.workload.id.clone(),
                scenario: r.scenario.clone(),
                kernel: r.kernel.clone(),
                threads: row.threads as u64,
                modeled_ms: r.stages.get("modeled").map_or(0.0, |s| s.median_ms),
                modeled_time_bits: r.modeled_time_bits.unwrap_or(0),
                bits_match_unprofiled: !m.mismatches.iter().any(|x| x.label == profiled),
                ..ProfileRun::from_analysis(row.profile.as_ref()?)
            })
        })
        .collect();
    ProfileDoc {
        version: SCHEMA_VERSION,
        scale: opts.scale,
        host_threads: rayon::current_num_threads() as u64,
        provenance: Some(Provenance::collect(SCHEMA, SCHEMA_VERSION, workload_ids)),
        runs,
    }
}

/// The full diagnosis of the S1 workload at the widest pool — the run a
/// scaling investigation reads first.
fn print_diagnosis(doc: &ProfileDoc) {
    let widest = doc.runs.iter().map(|r| r.threads).max().unwrap_or(0);
    let Some(run) = doc
        .runs
        .iter()
        .find(|r| r.scenario == "S1" && r.threads == widest)
    else {
        return;
    };
    println!(
        "\n--- diagnosis: {} at {} threads ---",
        run.workload, run.threads
    );
    for line in &run.diagnosis {
        println!("  {line}");
    }
    let mut t = TextTable::new(&["worker", "busy", "park", "queue-wait", "util", "tasks"]);
    for w in &run.workers {
        t.row(vec![
            w.name.clone(),
            fmt_ms(w.busy_ms),
            fmt_ms(w.park_ms),
            fmt_ms(w.queue_wait_ms),
            format!("{:.0}%", w.utilization_pct),
            format!("{} ({} stolen)", w.tasks, w.steals),
        ]);
    }
    t.print();
    for h in run.hotspots.iter().take(4) {
        println!(
            "  hotspot {:<12} {:>9.1} ms busy  {:>7.2} ms queue-wait  {} tasks",
            h.label, h.busy_ms, h.queue_wait_ms, h.tasks
        );
    }
}

/// `repro report`: load the ledger (`results/ledger/` or `--ledger DIR`),
/// run the [`obs::trend`] change-point analysis, print the summary, and
/// write the self-contained `REPORT.html` dashboard once its embedded
/// JSON payload round-trips through the shared parser. Returns the exit
/// code.
pub fn report(opts: &Options) -> i32 {
    let mut gate = Gate::from_env();
    let ledger = opts.run_ledger();
    println!(
        "== Run-ledger trend report ({}) ==\n",
        ledger.dir().display()
    );
    let loaded = ledger.load();
    for reason in &loaded.skipped {
        eprintln!("# report: skipped unreadable ledger line: {reason}");
    }
    if loaded.records.is_empty() {
        gate.fail(format!(
            "ledger at {} has no readable records (run `repro bench|threads|profile|shard` first)",
            ledger.dir().display()
        ));
        return gate.finish("report");
    }
    let report = trend::analyze(&loaded.records, trend::DEFAULT_WINDOW);
    print!("{}", dashboard::render_text(&loaded.records, &report));
    let html = dashboard::render_html(&loaded.records, &report);
    let payload = dashboard::embedded_json(&html).and_then(|json| {
        obs::json::parse(&json).map_err(|e| format!("embedded payload does not parse: {e}"))
    });
    match payload.and_then(|_| opts.write_artifact("REPORT.html", &html)) {
        Ok(path) => eprintln!("# report: open {} in any browser", path.display()),
        Err(e) => gate.fail(format!("REPORT.html: {e}")),
    }
    check_trend(&mut gate, &report);
    gate.finish("report")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::gate::compare;
    use obs::ledger::{Ledger, LedgerRecord};
    use std::path::PathBuf;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("repro-suite-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tiny() -> Options {
        Options {
            scale: 0.002,
            trials: 1,
            warmup: 0,
            ..Options::default()
        }
    }

    /// The record a preset would append, from a tiny real run.
    fn record(command: &str) -> (LedgerRecord, Measured) {
        let p = preset(command).unwrap();
        let m = measure(p, &p.workloads(), &tiny());
        assert!(m.mismatches.is_empty(), "{:?}", m.mismatches);
        let doc = BenchDoc {
            scale: 0.002,
            workloads: m.rows.iter().map(|r| r.result.clone()).collect(),
            ..BenchDoc::default()
        };
        (ledger_record(command, &doc, &Gate::default()), m)
    }

    #[test]
    fn bench_rows_keep_the_smoke_baseline_ids_and_self_compare_clean() {
        let baseline =
            BenchDoc::parse(include_str!("../../../../results/baselines/smoke.json")).unwrap();
        let p = preset("bench").unwrap();
        let m = measure(p, &p.workloads(), &tiny());
        assert!(m.mismatches.is_empty(), "{:?}", m.mismatches);
        let doc = BenchDoc {
            version: SCHEMA_VERSION,
            scale: 0.002,
            workloads: m.rows.into_iter().map(|r| r.result).collect(),
            ..BenchDoc::default()
        };
        let ids = |d: &BenchDoc| d.workloads.iter().map(|w| w.id.clone()).collect::<Vec<_>>();
        assert_eq!(ids(&doc), ids(&baseline), "bench ids are compare keys");
        let text = doc.to_json();
        assert!(round_trip(text.clone(), |t| BenchDoc::parse(t).map(|d| d.to_json())).is_ok());
        let pipeline = ["build_table", "dbscan", "disjoint_set", "modeled"];
        for wl in &doc.workloads {
            let stages: &[&str] = match wl.scenario.as_str() {
                "micro" => MICRO_STAGES,
                "shard" | "backend" => &["build_table", "modeled"],
                _ => &pipeline,
            };
            let mut have: Vec<&str> = wl.stages.keys().map(String::as_str).collect();
            have.sort_unstable();
            let mut want = stages.to_vec();
            want.sort_unstable();
            assert_eq!(have, want, "{}", wl.id);
            for (name, s) in &wl.stages {
                assert_eq!(s.trials, 1, "{}: {name}", wl.id);
                assert!(s.median_ms >= 0.0, "{}: {name}", wl.id);
            }
            if stages == pipeline {
                let k = wl.counters.get("kernels").expect("kernel counters");
                assert!(k.launches > 0, "{}", wl.id);
                assert!(k.mean_occupancy > 0.0, "{}", wl.id);
                assert!(wl.metrics["result_pairs"] > 0.0, "{}", wl.id);
            }
        }
        let report = compare(&baseline, &doc);
        assert!(report.checked >= 4 * 4 + MICRO_STAGES.len(), "{report:?}");
        assert!(report.missing.is_empty() && report.incomparable.is_empty());
        assert!(report.regressions().is_empty(), "{report:?}");
        let shard = doc.workload("shard/sw1-10x-eps0.2/k2-concurrent").unwrap();
        assert!(shard.metrics["speedup_vs_k1"] >= 1.6, "{:?}", shard.metrics);
        let with_speedup: Vec<&str> = doc
            .workloads
            .iter()
            .filter(|w| w.metrics.contains_key("speedup_vs_k1"))
            .map(|w| w.id.as_str())
            .collect();
        assert_eq!(with_speedup, ["shard/sw1-10x-eps0.2/k2-concurrent"]);
        assert!(shard.table_fingerprint.is_some());
        let ooc = doc.workload("shard/sw1-10x-eps0.2/k4-outofcore").unwrap();
        assert!(ooc.metrics["peak_bytes"] <= ooc.metrics["device_limit_bytes"]);
    }

    #[test]
    fn threads_and_profile_records_keep_their_ledger_keys() {
        let modeled_and_wall = |rec: &LedgerRecord, stages: &[&str]| {
            for e in &rec.entries {
                for &s in stages {
                    let point = e
                        .stages
                        .get(s)
                        .unwrap_or_else(|| panic!("{}: {s}", e.workload));
                    assert_eq!(point.wall, s != "modeled", "{}: {s}", e.workload);
                }
                assert!(e.modeled_time_bits.is_some());
            }
            // Stage values are milliseconds on every ledger line.
            assert!(rec.to_json().contains("\"median_ms\""));
        };
        let (rec, _) = record("threads");
        assert_eq!(rec.command, "threads");
        let counts = crate::suite::Threads::Scaling.counts();
        assert!(counts[0] == 1 && counts.windows(2).all(|w| w[0] < w[1]));
        let want: Vec<String> = counts
            .iter()
            .map(|t| format!("threads/sw1-eps0.2/t{t}"))
            .collect();
        let got: Vec<String> = rec.entries.iter().map(|e| e.workload.clone()).collect();
        assert_eq!(got, want);
        modeled_and_wall(&rec, &["build_table", "dbscan", "disjoint_set", "modeled"]);
        assert!(rec.entries[0].metrics.contains_key("speedup_build_table"));

        let (rec, m) = record("profile");
        let mut want = Vec::new();
        for id in [
            "s1/sw1-eps0.2/global",
            "s1/sw1-eps0.2/shared",
            "s2/sw4-eps0.1/global",
        ] {
            want.extend([1, 2, 4, 8].map(|t| format!("profile/{id}/t{t}")));
        }
        want.extend([1, 2, 4, 8].map(|t| format!("profile/s3/sdss1-eps0.2-minpts40/global/t{t}")));
        let got: Vec<String> = rec.entries.iter().map(|e| e.workload.clone()).collect();
        assert_eq!(got, want);
        modeled_and_wall(&rec, &["build_table", "dbscan", "modeled"]);
        assert!(rec.entries[0].metrics.contains_key("serial_fraction_build"));
        // Every row carries its profiled pass's diagnosis.
        for row in &m.rows {
            let a = row.profile.as_ref().expect("profiled pass");
            let names: Vec<&str> = a.stages.iter().map(|s| s.name.as_str()).collect();
            assert!(
                names.contains(&"build_table") && names.contains(&"dbscan"),
                "{names:?}"
            );
            for s in &a.stages {
                assert!((0.0..=1.0).contains(&s.serial_fraction), "{s:?}");
                assert!(s.amdahl_max_speedup >= 1.0, "{s:?}");
                assert!(!s.dominant.is_empty(), "{s:?}");
            }
            assert!(!a.diagnosis.is_empty() && !a.critical_path.is_empty());
        }
    }

    #[test]
    fn shard_smoke_matches_and_a_failed_artifact_write_exits_nonzero() {
        let dir = temp_dir("shard");
        std::fs::create_dir_all(&dir).unwrap();
        let ledger = dir.join("ledger");
        let opts = Options {
            csv_dir: Some(dir.join("out")),
            ledger: Some(ledger.clone()),
            ..tiny()
        };
        assert_eq!(run("shard", &opts), 0);
        let doc = std::fs::read_to_string(dir.join("out/SHARD_fingerprints.json")).unwrap();
        let doc = BenchDoc::parse(&doc).unwrap();
        assert_eq!(doc.workloads.len(), 4);
        for w in &doc.workloads {
            let first = &doc.workloads[0];
            assert!(w.table_fingerprint.is_some() && w.clustering_fingerprint.is_some());
            assert_eq!(w.table_fingerprint, first.table_fingerprint, "{}", w.id);
            assert_eq!(
                w.clustering_fingerprint, first.clustering_fingerprint,
                "{}",
                w.id
            );
            // The smoke's reference is an unsharded build, not k = 1.
            assert!(!w.metrics.contains_key("speedup_vs_k1"), "{}", w.id);
        }
        // `--csv` naming an existing regular file: nothing can be written.
        let file = dir.join("not-a-dir");
        std::fs::write(&file, "x").unwrap();
        let opts = Options {
            csv_dir: Some(file),
            ..opts
        };
        assert_eq!(run("shard", &opts), 1);
        let loaded = Ledger::at(ledger).load();
        assert_eq!(loaded.records.len(), 2);
        assert!(
            !loaded.records[1].gate.passed,
            "the failed write is on the record"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn report_runs_over_a_real_ledger_and_fails_on_an_empty_one() {
        let dir = temp_dir("report");
        let ledger = Ledger::at(dir.join("ledger"));
        let opts = Options {
            ledger: Some(ledger.dir().to_path_buf()),
            csv_dir: Some(dir.clone()),
            ..Options::default()
        };
        std::fs::create_dir_all(ledger.dir()).unwrap();
        assert_eq!(report(&opts), 1, "an empty ledger is an error");
        let (rec, _) = record("shard");
        for _ in 0..3 {
            ledger.append(&rec).unwrap();
        }
        assert_eq!(report(&opts), 0);
        let html = std::fs::read_to_string(dir.join("REPORT.html")).unwrap();
        let json = dashboard::embedded_json(&html).unwrap();
        let v = obs::json::parse(&json).expect("embedded payload parses");
        assert_eq!(
            v.get("records")
                .and_then(obs::json::JsonValue::as_arr)
                .map(|a| a.len()),
            Some(3)
        );
        let file = dir.join("REPORT.html");
        let opts = Options {
            csv_dir: Some(file),
            ..opts
        };
        assert_eq!(report(&opts), 1, "an unwritable dashboard fails the run");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
