//! The CLI over the suite: `repro bench|threads|profile|shard|backend`
//! (one [`run`] over a [`super::Preset`]) and `repro report` (the trend
//! dashboard over the run ledger, under the same gate).
//!
//! Every preset measures through [`measure`], fails on any equivalence
//! mismatch, runs its own strict-mode check, self-validates and writes its
//! artifact through the one writer, writes any requested `--trace` /
//! `--metrics` file (a failure, like asking a preset without a profiled
//! pass, fails the gate), and appends one ledger record.

use super::gate::{
    check_auto_selector, check_baseline, check_speedup, check_trend, fmt_ms, ledger_record, Gate,
};
use super::run::{measure, Mismatch, Row, MICRO_STAGES};
use super::{preset, Role};
use crate::common::{Options, TextTable};
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
    print_diagnosis(&m.rows, p.diagnosed_row(&workloads));
    if let Some(name) = p.artifact {
        if let Err(e) = round_trip(&doc).and_then(|text| opts.write_artifact(name, &text)) {
            gate.fail(format!("{name}: {e}"));
        }
    }
    // Before the ledger append, so the record's gate outcome shows a
    // trace or metrics file that was asked for and not written.
    match &m.recorder {
        Some(rec) => {
            for e in opts.write_observability(rec) {
                gate.fail(e);
            }
        }
        None if opts.trace.is_some() || opts.metrics.is_some() => gate.fail(format!(
            "--trace/--metrics: `{}` has no profiled pass to record (`threads` and `profile` have one)",
            p.command
        )),
        None => {}
    }
    if p.artifact.is_some() {
        opts.append_ledger(&ledger_record(p.command, &doc, &gate));
    }
    gate.finish(p.command)
}

/// Self-validation: a document must reparse through the shared JSON
/// layer and re-emit byte-identically.
fn round_trip(doc: &BenchDoc) -> Result<String, String> {
    let text = doc.to_json();
    match BenchDoc::parse(&text) {
        Ok(again) if again.to_json() == text => Ok(text),
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

/// The full diagnosis of the `diagnosed` row
/// ([`super::Preset::diagnosed_row`]), when it carries one.
fn print_diagnosis(rows: &[Row], diagnosed: Option<String>) {
    let Some((row, run)) = rows
        .iter()
        .filter(|r| Some(&r.result.id) == diagnosed.as_ref())
        .find_map(|r| Some((r, r.result.profile.as_ref()?)))
    else {
        return;
    };
    println!(
        "\n--- diagnosis: {} at {} threads ---",
        row.workload.id, row.threads
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
    use crate::suite::run::Measured;
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
        let text = round_trip(&doc).expect("a fixed point");
        assert!(
            !text.contains("\"profile\""),
            "bench rows have no profiled pass"
        );
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
            let a = row.result.profile.as_ref().expect("profiled pass");
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
        assert!(
            !doc.contains("\"profile\""),
            "shard rows have no profiled pass"
        );
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
    fn profile_writes_one_bench_doc_whose_rows_carry_their_diagnosis() {
        let dir = temp_dir("profile");
        let opts = Options {
            csv_dir: Some(dir.join("out")),
            ledger: Some(dir.join("ledger")),
            trace: Some(dir.join("trace.json")),
            metrics: Some(dir.join("metrics.json")),
            ..tiny()
        };
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(run("profile", &opts), 0);
        let text = std::fs::read_to_string(dir.join("out/PROFILE.json")).unwrap();
        let doc = BenchDoc::parse(&text).expect("PROFILE.json is a BenchDoc");
        assert_eq!(doc.to_json(), text, "byte-exact round trip");
        assert_eq!(doc.workloads.len(), 16);
        for w in &doc.workloads {
            let a = w.profile.as_ref().unwrap_or_else(|| panic!("{}", w.id));
            let names: Vec<&str> = a.stages.iter().map(|s| s.name.as_str()).collect();
            assert!(
                names.contains(&"build_table") && names.contains(&"dbscan"),
                "{}: {names:?}",
                w.id
            );
            assert!(
                !a.critical_path.is_empty() && !a.diagnosis.is_empty(),
                "{}",
                w.id
            );
        }
        for file in ["trace.json", "metrics.json"] {
            let text = std::fs::read_to_string(dir.join(file)).unwrap();
            assert!(obs::json::parse(&text).is_ok(), "{file}");
        }
        // The exported trace is the diagnosed row's profiled pass: S1 at
        // the widest pool, not whichever row was profiled last.
        let p = preset("profile").unwrap();
        let diagnosed = p.diagnosed_row(&p.workloads()).unwrap();
        assert_eq!(diagnosed, "profile/s1/sw1-eps0.2/global/t8");
        let trace = obs::json::parse(&std::fs::read_to_string(dir.join("trace.json")).unwrap());
        let trace = trace.unwrap();
        let rows: Vec<&str> = obs::json::req_arr(&trace, "traceEvents")
            .unwrap()
            .iter()
            .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some("trial"))
            .filter_map(|e| e.get("args")?.get("row")?.as_str())
            .collect();
        assert_eq!(rows, [diagnosed.as_str()]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_trace_that_is_not_written_fails_the_run() {
        let dir = temp_dir("trace");
        std::fs::create_dir_all(&dir).unwrap();
        let ledger = dir.join("ledger");
        // A preset without a profiled pass has nothing to trace.
        let opts = Options {
            csv_dir: Some(dir.join("out")),
            ledger: Some(ledger.clone()),
            trace: Some(dir.join("shard-trace.json")),
            ..tiny()
        };
        assert_eq!(run("shard", &opts), 1);
        assert!(!dir.join("shard-trace.json").exists());
        // A path that cannot be written.
        let opts = Options {
            trace: Some(dir.join("no-such-dir/trace.json")),
            ..opts
        };
        assert_eq!(run("threads", &opts), 1);
        let loaded = Ledger::at(ledger).load();
        assert_eq!(loaded.records.len(), 2);
        for rec in &loaded.records {
            assert!(
                !rec.gate.passed,
                "{}: the failure is on the record",
                rec.command
            );
        }
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
