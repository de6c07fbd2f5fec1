//! Schema for the measurement-suite documents (`BENCH_suite.json`,
//! `BENCH_threads.json`, `PROFILE.json`, `SHARD_fingerprints.json`, and
//! the baselines under `results/baselines/`).
//!
//! The measurement suite (`crates/bench::suite`) produces a
//! [`BenchDoc`] per run: one [`WorkloadResult`] per suite workload, each
//! carrying per-stage wall/modeled statistics ([`StageStats`]), per-kernel
//! device counters (re-using [`gpu_sim::profiler::ProfileStats`], the
//! profiler → observability contract), scalar metrics, and — on the rows
//! of a preset that sweeps thread counts — the profiled pass's scaling
//! diagnosis ([`RunAnalysis`]). Documents are
//! schema-versioned and round-trip exactly through [`crate::json`]:
//! `parse(doc.to_json()).to_json() == doc.to_json()`, which is what makes
//! checked-in baselines diffable and the regression gate trustworthy.

use crate::analyze::RunAnalysis;
use crate::json::{
    self, opt_hex, req_arr, req_f64, req_num_map, req_obj, req_str, req_u64, JsonWriter,
};
use crate::metrics::Metrics;
use crate::provenance::Provenance;
use gpu_sim::profiler::{KernelProfile, ProfileStats};
use std::collections::BTreeMap;

/// Document identifier; bump [`SCHEMA_VERSION`] on incompatible changes.
///
/// Version history: v1 had no provenance header and no per-workload
/// `modeled_time_bits`; v2 (PR 9) added both. [`BenchDoc::parse`] still
/// accepts v1 documents (the optional fields come back `None`) so
/// `--compare` against pre-PR-9 baselines keeps working. A row's
/// `profile` is optional within v2, so adding it needed no bump.
pub const SCHEMA: &str = "hybrid-dbscan/bench-suite";
pub const SCHEMA_VERSION: u64 = 2;

/// Robust summary of one stage's per-trial durations (milliseconds).
///
/// Medians and MAD rather than means: a single descheduled trial must not
/// move the number CI compares against a baseline. The MAD is what the
/// regression gate's noise threshold is derived from.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StageStats {
    pub trials: u64,
    pub median_ms: f64,
    pub mean_ms: f64,
    /// Median absolute deviation from the median.
    pub mad_ms: f64,
    /// Interquartile range (Q3 − Q1).
    pub iqr_ms: f64,
    pub min_ms: f64,
    pub max_ms: f64,
}

/// One suite workload's results.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WorkloadResult {
    /// Stable identifier, e.g. `s1/sw1-eps0.2/global`; the compare key.
    pub id: String,
    /// Paper scenario (`S1`/`S2`/`S3`).
    pub scenario: String,
    pub dataset: String,
    /// Kernel variant (`global`/`shared`).
    pub kernel: String,
    pub eps: f64,
    pub minpts: u64,
    /// Points actually clustered — baselines taken at a different scale
    /// are incomparable, and the gate detects that through this field.
    pub points: u64,
    /// Bit pattern of the modeled device time (`to_bits()` of the modeled
    /// seconds), serialized as a hex string. `None` on v1 documents and on
    /// workloads without a single modeled time.
    pub modeled_time_bits: Option<u64>,
    /// FNV fingerprints of the neighbor table and of the clustering (hex
    /// strings, like the bits): the equivalence witness of shard and
    /// backend rows. `None` on rows that build no table.
    pub table_fingerprint: Option<u64>,
    pub clustering_fingerprint: Option<u64>,
    /// Stage name → summary (`build_table`, `dbscan`, `disjoint_set`,
    /// `modeled`).
    pub stages: BTreeMap<String, StageStats>,
    /// Device-counter profiles, e.g. `kernels` (all launches of the run).
    pub counters: BTreeMap<String, ProfileStats>,
    /// Scalar outputs and telemetry (clusters, result_pairs, batch
    /// percentiles, …).
    pub metrics: BTreeMap<String, f64>,
    /// The profiled pass's scaling diagnosis (`profile`, `threads`);
    /// written under `"profile"` only when present.
    pub profile: Option<RunAnalysis>,
}

/// A full benchmark-suite document.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BenchDoc {
    pub version: u64,
    pub scale: f64,
    pub trials: u64,
    pub warmup: u64,
    pub host_threads: u64,
    /// Identity of the producing run. `None` only on parsed v1 documents;
    /// every v2 emitter stamps it.
    pub provenance: Option<Provenance>,
    pub workloads: Vec<WorkloadResult>,
}

impl BenchDoc {
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("schema", SCHEMA);
        w.field_uint("version", self.version);
        w.field_float("scale", self.scale);
        w.field_uint("trials", self.trials);
        w.field_uint("warmup", self.warmup);
        w.field_uint("host_threads", self.host_threads);
        if let Some(p) = &self.provenance {
            p.write_field(&mut w);
        }
        w.key("workloads");
        w.begin_array();
        for wl in &self.workloads {
            w.begin_object();
            w.field_str("id", &wl.id);
            w.field_str("scenario", &wl.scenario);
            w.field_str("dataset", &wl.dataset);
            w.field_str("kernel", &wl.kernel);
            w.field_float("eps", wl.eps);
            w.field_uint("minpts", wl.minpts);
            w.field_uint("points", wl.points);
            for (key, v) in [
                ("modeled_time_bits", wl.modeled_time_bits),
                ("table_fingerprint", wl.table_fingerprint),
                ("clustering_fingerprint", wl.clustering_fingerprint),
            ] {
                if let Some(v) = v {
                    w.field_hex(key, v);
                }
            }
            w.key("stages");
            w.begin_object();
            for (name, s) in &wl.stages {
                w.key(name);
                w.begin_object();
                w.field_uint("trials", s.trials);
                w.field_float("median_ms", s.median_ms);
                w.field_float("mean_ms", s.mean_ms);
                w.field_float("mad_ms", s.mad_ms);
                w.field_float("iqr_ms", s.iqr_ms);
                w.field_float("min_ms", s.min_ms);
                w.field_float("max_ms", s.max_ms);
                w.end_object();
            }
            w.end_object();
            w.key("counters");
            w.begin_object();
            for (name, p) in &wl.counters {
                w.key(name);
                w.begin_object();
                w.field_uint("launches", p.launches);
                w.field_uint("total_threads", p.total_threads);
                w.field_uint("total_blocks", p.total_blocks);
                w.field_float("time_ms", p.time_ms);
                w.field_float("mean_occupancy", p.mean_occupancy);
                w.field_float("gmem_gbps", p.gmem_gbps);
                w.field_uint("atomics", p.atomics);
                w.end_object();
            }
            w.end_object();
            w.key("metrics");
            w.begin_object();
            for (name, v) in &wl.metrics {
                w.field_float(name, *v);
            }
            w.end_object();
            if let Some(a) = &wl.profile {
                w.key("profile");
                a.write(&mut w);
            }
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }

    /// Parse a document produced by [`Self::to_json`] (e.g. a checked-in
    /// baseline). Schema and version are validated; field errors name the
    /// offending key.
    pub fn parse(text: &str) -> Result<BenchDoc, String> {
        let v = json::parse(text).map_err(|e| e.to_string())?;
        let schema = req_str(&v, "schema")?;
        if schema != SCHEMA {
            return Err(format!("unexpected schema '{schema}' (want '{SCHEMA}')"));
        }
        let version = req_u64(&v, "version")?;
        if !(1..=SCHEMA_VERSION).contains(&version) {
            return Err(format!(
                "unsupported schema version {version} (supported: 1..={SCHEMA_VERSION})"
            ));
        }
        let mut doc = BenchDoc {
            version,
            scale: req_f64(&v, "scale")?,
            trials: req_u64(&v, "trials")?,
            warmup: req_u64(&v, "warmup")?,
            host_threads: req_u64(&v, "host_threads")?,
            provenance: Provenance::parse_field(&v)?,
            workloads: Vec::new(),
        };
        for wl in req_arr(&v, "workloads")? {
            let mut out = WorkloadResult {
                id: req_str(wl, "id")?.to_string(),
                scenario: req_str(wl, "scenario")?.to_string(),
                dataset: req_str(wl, "dataset")?.to_string(),
                kernel: req_str(wl, "kernel")?.to_string(),
                eps: req_f64(wl, "eps")?,
                minpts: req_u64(wl, "minpts")?,
                points: req_u64(wl, "points")?,
                modeled_time_bits: opt_hex(wl, "modeled_time_bits")?,
                table_fingerprint: opt_hex(wl, "table_fingerprint")?,
                clustering_fingerprint: opt_hex(wl, "clustering_fingerprint")?,
                metrics: req_num_map(wl, "metrics")?,
                profile: (wl.get("profile").map(RunAnalysis::parse).transpose())
                    .map_err(|e| format!("profile: {e}"))?,
                ..WorkloadResult::default()
            };
            for (name, s) in req_obj(wl, "stages")? {
                out.stages.insert(
                    name.clone(),
                    StageStats {
                        trials: req_u64(s, "trials")?,
                        median_ms: req_f64(s, "median_ms")?,
                        mean_ms: req_f64(s, "mean_ms")?,
                        mad_ms: req_f64(s, "mad_ms")?,
                        iqr_ms: req_f64(s, "iqr_ms")?,
                        min_ms: req_f64(s, "min_ms")?,
                        max_ms: req_f64(s, "max_ms")?,
                    },
                );
            }
            for (name, p) in req_obj(wl, "counters")? {
                out.counters.insert(
                    name.clone(),
                    ProfileStats {
                        launches: req_u64(p, "launches")?,
                        total_threads: req_u64(p, "total_threads")?,
                        total_blocks: req_u64(p, "total_blocks")?,
                        time_ms: req_f64(p, "time_ms")?,
                        mean_occupancy: req_f64(p, "mean_occupancy")?,
                        gmem_gbps: req_f64(p, "gmem_gbps")?,
                        atomics: req_u64(p, "atomics")?,
                    },
                );
            }
            doc.workloads.push(out);
        }
        Ok(doc)
    }

    /// Look up a workload by id.
    pub fn workload(&self, id: &str) -> Option<&WorkloadResult> {
        self.workloads.iter().find(|w| w.id == id)
    }
}

/// Record a kernel profile's headline counters into a metrics registry
/// under `kernel.<name>.*` — the single wiring point between
/// [`gpu_sim::profiler::KernelProfile`] and [`Metrics`], shared by the
/// pipeline instrumentation (`HybridDbscan::record_gpu_phase`) and the
/// benchmark suite.
pub fn record_kernel_profile(m: &Metrics, name: &str, profile: &KernelProfile) {
    let s = profile.stats();
    m.counter_add(&format!("kernel.{name}.launches"), s.launches);
    m.counter_add(&format!("kernel.{name}.atomics"), s.atomics);
    m.gauge_set(&format!("kernel.{name}.mean_occupancy"), s.mean_occupancy);
    m.gauge_set(&format!("kernel.{name}.gmem_gbps"), s.gmem_gbps);
    m.gauge_set(&format!("kernel.{name}.time_ms"), s.time_ms);
    m.gauge_set(
        &format!("kernel.{name}.total_threads"),
        s.total_threads as f64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::provenance::HEADER_VERSION;

    fn sample_doc() -> BenchDoc {
        let mut wl = WorkloadResult {
            id: "s1/sw1-eps0.2/global".into(),
            scenario: "S1".into(),
            dataset: "SW1".into(),
            kernel: "global".into(),
            eps: 0.2,
            minpts: 4,
            points: 37292,
            modeled_time_bits: Some(u64::MAX),
            table_fingerprint: Some(0x0123_4567_89ab_cdef),
            clustering_fingerprint: Some(u64::MAX),
            ..WorkloadResult::default()
        };
        wl.stages.insert(
            "build_table".into(),
            StageStats {
                trials: 3,
                median_ms: 2410.5,
                mean_ms: 2400.25,
                mad_ms: 12.5,
                iqr_ms: 25.0,
                min_ms: 2380.0,
                max_ms: 2450.0,
            },
        );
        wl.counters.insert(
            "kernels".into(),
            ProfileStats {
                launches: 4,
                total_threads: 1024,
                total_blocks: 4,
                time_ms: 96.5,
                mean_occupancy: 0.85,
                gmem_gbps: 120.25,
                atomics: 17,
            },
        );
        wl.metrics.insert("clusters".into(), 64.0);
        wl.metrics.insert("result_pairs".into(), 17113506.0);
        BenchDoc {
            version: SCHEMA_VERSION,
            scale: 0.02,
            trials: 3,
            warmup: 1,
            host_threads: 4,
            provenance: Some(Provenance {
                header_version: HEADER_VERSION,
                schema: SCHEMA.into(),
                schema_version: SCHEMA_VERSION,
                git_sha: "ee9aa08269b9".into(),
                git_dirty: false,
                rustc: "rustc 1.95.0".into(),
                rayon_num_threads: "unset".into(),
                host: "test".into(),
                os: "linux/x86_64".into(),
                timestamp_unix: 1_754_611_200,
                workloads: vec!["s1/sw1-eps0.2/global".into()],
            }),
            workloads: vec![wl],
        }
    }

    #[test]
    fn round_trips_exactly() {
        let doc = sample_doc();
        let text = doc.to_json();
        let parsed = BenchDoc::parse(&text).expect("parse own output");
        assert_eq!(parsed, doc);
        assert_eq!(parsed.to_json(), text, "emission must be a fixed point");
    }

    #[test]
    fn rejects_wrong_schema_and_version() {
        let text = sample_doc().to_json();
        let wrong = text.replacen(SCHEMA, "something/else", 1);
        assert!(BenchDoc::parse(&wrong).unwrap_err().contains("schema"));
        let wrong = text.replacen(r#""version":2"#, r#""version":999"#, 1);
        assert!(BenchDoc::parse(&wrong).unwrap_err().contains("version"));
        assert!(BenchDoc::parse("{}").is_err());
        assert!(BenchDoc::parse("not json").is_err());
    }

    #[test]
    fn v1_documents_still_parse_without_provenance_or_bits() {
        // A pre-PR-9 baseline: version 1, no provenance header, no
        // per-workload modeled_time_bits. `--compare` must keep working.
        let mut doc = sample_doc();
        doc.version = 1;
        doc.provenance = None;
        doc.workloads[0].modeled_time_bits = None;
        doc.workloads[0].table_fingerprint = None;
        doc.workloads[0].clustering_fingerprint = None;
        let text = doc.to_json();
        assert!(!text.contains("provenance"));
        assert!(!text.contains("modeled_time_bits"));
        let parsed = BenchDoc::parse(&text).expect("v1 fallback");
        assert_eq!(parsed, doc);
        assert_eq!(parsed.to_json(), text, "v1 round-trip stays exact");
    }

    #[test]
    fn bits_survive_as_full_64bit_patterns() {
        let doc = sample_doc();
        let parsed = BenchDoc::parse(&doc.to_json()).unwrap();
        assert_eq!(parsed.workloads[0].modeled_time_bits, Some(u64::MAX));
        assert_eq!(
            parsed.workloads[0].table_fingerprint,
            Some(0x0123_4567_89ab_cdef)
        );
        assert_eq!(parsed.workloads[0].clustering_fingerprint, Some(u64::MAX));
        assert_eq!(
            parsed.provenance.as_ref().map(|p| p.git_sha.as_str()),
            Some("ee9aa08269b9")
        );
    }

    #[test]
    fn a_row_profile_round_trips_and_is_written_only_when_present() {
        use crate::analyze::{CriticalPathStep, Hotspot, StageAnalysis, WorkerUtilization};
        let mut doc = sample_doc();
        let text = doc.to_json();
        assert!(!text.contains("\"profile\""), "no analysis, no key");
        doc.workloads[0].profile = Some(RunAnalysis {
            wall_ms: 1234.5,
            stages: vec![StageAnalysis {
                name: "build_table".into(),
                wall_ms: 900.25,
                pool_busy_ms: 1800.5,
                pool_tasks: 64,
                serial_fraction: 0.91,
                amdahl_max_speedup: 1.1,
                dominant: "91% of wall time inside batch_loop".into(),
            }],
            workers: vec![WorkerUtilization {
                name: "rayon-worker-0".into(),
                busy_ms: 500.5,
                park_ms: 300.25,
                queue_wait_ms: 2.5,
                utilization_pct: 55.5,
                tasks: 32,
                steals: 12,
            }],
            critical_path: vec![CriticalPathStep {
                lane: "Compute".into(),
                label: "gpucalc".into(),
                start_ms: 0.125,
                dur_ms: 500.75,
            }],
            critical_path_ms: 500.75,
            hotspots: vec![Hotspot {
                label: "par_iter".into(),
                busy_ms: 1500.125,
                queue_wait_ms: 3.5,
                tasks: 64,
                steals: 12,
            }],
            diagnosis: vec!["build_table: serial fraction 0.91".into()],
        });
        let text = doc.to_json();
        let parsed = BenchDoc::parse(&text).expect("parse own output");
        assert_eq!(parsed, doc);
        assert_eq!(parsed.to_json(), text, "emission must be a fixed point");

        let broken = text.replacen("\"critical_path_ms\":500.750,", "", 1);
        assert_ne!(broken, text);
        let err = BenchDoc::parse(&broken).unwrap_err();
        assert!(
            err.contains("profile") && err.contains("critical_path_ms"),
            "{err}"
        );
    }

    #[test]
    fn workload_lookup_by_id() {
        let doc = sample_doc();
        assert!(doc.workload("s1/sw1-eps0.2/global").is_some());
        assert!(doc.workload("nope").is_none());
    }

    #[test]
    fn record_kernel_profile_names_match_pipeline_contract() {
        use gpu_sim::kernel::KernelReport;
        use gpu_sim::launch::LaunchConfig;
        use gpu_sim::SimDuration;

        let mut p = KernelProfile::new();
        p.record(&KernelReport {
            config: LaunchConfig::for_elements(1024, 256),
            threads_launched: 1024,
            duration: SimDuration::from_millis(2.0),
            counters: gpu_sim::cost::Counters {
                flops: 1024,
                global_read_bytes: 8192,
                atomics: 3,
                ..Default::default()
            },
            occupancy: 0.75,
        });
        let m = Metrics::new();
        record_kernel_profile(&m, "gpucalc_global", &p);
        let s = m.snapshot();
        assert_eq!(s.counters["kernel.gpucalc_global.launches"], 1);
        assert_eq!(s.counters["kernel.gpucalc_global.atomics"], 3);
        assert!(s.gauges["kernel.gpucalc_global.mean_occupancy"] > 0.0);
        assert!(s.gauges["kernel.gpucalc_global.gmem_gbps"] > 0.0);
        assert!(s.gauges["kernel.gpucalc_global.time_ms"] > 0.0);
    }
}
