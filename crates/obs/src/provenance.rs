//! Artifact provenance: who produced a document, from what tree, when.
//!
//! Every JSON artifact the workspace emits (the suite's `BenchDoc`s —
//! `BENCH_suite.json`, `BENCH_threads.json`, `PROFILE.json`,
//! `SHARD_fingerprints.json` — and the run-ledger records) carries a [`Provenance`] header so a number can
//! always be traced back to the commit, toolchain, and pool configuration
//! that produced it. Without this, cross-run comparison is guesswork: the
//! 4-thread `build_table` regression of PR 8 went unnoticed for two PRs
//! precisely because the overwritten artifacts carried no identity.
//!
//! Collection ([`Provenance::collect`]) is best-effort: `git`/`rustc` are
//! queried through subprocesses and degrade to `"unknown"` when absent,
//! so artifact emission never fails on a stripped container. The header
//! itself is versioned ([`HEADER_VERSION`]) independently of the schema
//! of the document that embeds it.

use crate::json::{req_arr, req_bool, req_str, req_u64, JsonValue, JsonWriter};
use std::process::Command;
use std::time::{SystemTime, UNIX_EPOCH};

/// Version of the provenance header layout itself.
pub const HEADER_VERSION: u64 = 1;

/// Identity of one artifact-producing run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Provenance {
    /// Header layout version ([`HEADER_VERSION`]).
    pub header_version: u64,
    /// Schema id of the embedding document (e.g. `hybrid-dbscan/bench-suite`).
    pub schema: String,
    /// Schema version of the embedding document.
    pub schema_version: u64,
    /// Abbreviated commit sha, `"unknown"` when git is unavailable.
    pub git_sha: String,
    /// True when the working tree had uncommitted changes.
    pub git_dirty: bool,
    /// `rustc -V` output, `"unknown"` when unavailable.
    pub rustc: String,
    /// `RAYON_NUM_THREADS` as seen by the run, `"unset"` when absent.
    pub rayon_num_threads: String,
    /// Hostname, `"unknown"` when undeterminable.
    pub host: String,
    /// `os/arch` pair, e.g. `linux/x86_64`.
    pub os: String,
    /// Wall timestamp of collection, seconds since the Unix epoch.
    pub timestamp_unix: u64,
    /// Workload ids covered by the embedding document.
    pub workloads: Vec<String>,
}

fn command_line(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().next()?.trim();
    if line.is_empty() {
        None
    } else {
        Some(line.to_string())
    }
}

fn hostname() -> Option<String> {
    if let Ok(h) = std::env::var("HOSTNAME") {
        if !h.is_empty() {
            return Some(h);
        }
    }
    std::fs::read_to_string("/proc/sys/kernel/hostname")
        .ok()
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
}

impl Provenance {
    /// Collect the header for a document of the given schema. Subprocess
    /// failures degrade to `"unknown"` rather than erroring: provenance
    /// must never be the reason an artifact fails to be written.
    pub fn collect(schema: &str, schema_version: u64, workloads: Vec<String>) -> Provenance {
        let git_sha = command_line("git", &["rev-parse", "--short=12", "HEAD"])
            .unwrap_or_else(|| "unknown".into());
        // `--untracked-files=no`: an untracked scratch file is not a
        // modified tree, and the dirty flag exists to catch exactly the
        // "benched uncommitted code" case.
        let git_dirty = Command::new("git")
            .args(["status", "--porcelain", "--untracked-files=no"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| !o.stdout.is_empty())
            .unwrap_or(false);
        Provenance {
            header_version: HEADER_VERSION,
            schema: schema.to_string(),
            schema_version,
            git_sha,
            git_dirty,
            rustc: command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()),
            rayon_num_threads: std::env::var("RAYON_NUM_THREADS")
                .ok()
                .filter(|v| !v.is_empty())
                .unwrap_or_else(|| "unset".into()),
            host: hostname().unwrap_or_else(|| "unknown".into()),
            os: format!("{}/{}", std::env::consts::OS, std::env::consts::ARCH),
            timestamp_unix: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0),
            workloads,
        }
    }

    /// Write `"provenance": {...}` into an open object.
    pub fn write_field(&self, w: &mut JsonWriter) {
        w.key("provenance");
        w.begin_object();
        w.field_uint("header_version", self.header_version);
        w.field_str("schema", &self.schema);
        w.field_uint("schema_version", self.schema_version);
        w.field_str("git_sha", &self.git_sha);
        w.field_bool("git_dirty", self.git_dirty);
        w.field_str("rustc", &self.rustc);
        w.field_str("rayon_num_threads", &self.rayon_num_threads);
        w.field_str("host", &self.host);
        w.field_str("os", &self.os);
        w.field_uint("timestamp_unix", self.timestamp_unix);
        w.key("workloads");
        w.begin_array();
        for id in &self.workloads {
            w.string(id);
        }
        w.end_array();
        w.end_object();
    }

    /// Parse the header out of a parsed document's `"provenance"` member.
    /// Returns `Ok(None)` when the member is absent (pre-header
    /// documents), `Err` when present but malformed.
    pub fn parse_field(doc: &JsonValue) -> Result<Option<Provenance>, String> {
        let Some(p) = doc.get("provenance") else {
            return Ok(None);
        };
        let parse = || -> Result<Provenance, String> {
            let s = |key: &str| req_str(p, key).map(str::to_string);
            let workloads = req_arr(p, "workloads")?
                .iter()
                .map(|v| v.as_str().map(str::to_string))
                .collect::<Option<Vec<_>>>()
                .ok_or("non-string workload id")?;
            Ok(Provenance {
                header_version: req_u64(p, "header_version")?,
                schema: s("schema")?,
                schema_version: req_u64(p, "schema_version")?,
                git_sha: s("git_sha")?,
                git_dirty: req_bool(p, "git_dirty")?,
                rustc: s("rustc")?,
                rayon_num_threads: s("rayon_num_threads")?,
                host: s("host")?,
                os: s("os")?,
                timestamp_unix: req_u64(p, "timestamp_unix")?,
                workloads,
            })
        };
        parse().map(Some).map_err(|e| format!("provenance: {e}"))
    }

    /// `YYYY-MM-DD HH:MM:SS UTC` rendering of [`Self::timestamp_unix`]
    /// (hand-rolled civil-from-days — no chrono in this workspace).
    pub fn timestamp_utc(&self) -> String {
        format_utc(self.timestamp_unix)
    }
}

/// Format a Unix timestamp as `YYYY-MM-DD HH:MM:SS UTC` using the
/// standard days-from-civil inverse (Howard Hinnant's algorithm).
pub fn format_utc(unix: u64) -> String {
    let days = (unix / 86_400) as i64;
    let secs = unix % 86_400;
    let (h, m, s) = (secs / 3600, (secs / 60) % 60, secs % 60);
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = if month <= 2 { y + 1 } else { y };
    format!("{year:04}-{month:02}-{d:02} {h:02}:{m:02}:{s:02} UTC")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn sample() -> Provenance {
        Provenance {
            header_version: HEADER_VERSION,
            schema: "hybrid-dbscan/bench-suite".into(),
            schema_version: 2,
            git_sha: "ee9aa08269b9".into(),
            git_dirty: true,
            rustc: "rustc 1.95.0".into(),
            rayon_num_threads: "4".into(),
            host: "ci-box".into(),
            os: "linux/x86_64".into(),
            timestamp_unix: 1_754_611_200,
            workloads: vec!["s1/sw1-eps0.2/global".into(), "micro/sw1-eps0.2".into()],
        }
    }

    #[test]
    fn header_round_trips_through_shared_parser() {
        let p = sample();
        let mut w = JsonWriter::new();
        w.begin_object();
        p.write_field(&mut w);
        w.end_object();
        let doc = parse(&w.finish()).expect("valid JSON");
        let back = Provenance::parse_field(&doc)
            .expect("parses")
            .expect("present");
        assert_eq!(back, p);
    }

    #[test]
    fn absent_header_parses_as_none() {
        let doc = parse(r#"{"schema":"x"}"#).unwrap();
        assert_eq!(Provenance::parse_field(&doc), Ok(None));
    }

    #[test]
    fn malformed_header_is_an_error_not_none() {
        let doc = parse(r#"{"provenance":{"git_sha":"abc"}}"#).unwrap();
        assert!(Provenance::parse_field(&doc).is_err());
    }

    #[test]
    fn collect_populates_every_field() {
        let p = Provenance::collect("hybrid-dbscan/test", 1, vec!["w1".into()]);
        assert_eq!(p.header_version, HEADER_VERSION);
        assert_eq!(p.schema, "hybrid-dbscan/test");
        assert_eq!(p.schema_version, 1);
        assert!(!p.git_sha.is_empty());
        assert!(!p.rustc.is_empty());
        assert!(!p.host.is_empty());
        assert!(p.os.contains('/'));
        assert_eq!(p.workloads, vec!["w1".to_string()]);
        // Collection must not panic or fail even if git/rustc are
        // missing; the timestamp is the only field guaranteed non-zero
        // on a live clock.
        assert!(p.timestamp_unix > 0);
    }

    #[test]
    fn utc_formatting_matches_known_dates() {
        assert_eq!(format_utc(0), "1970-01-01 00:00:00 UTC");
        assert_eq!(format_utc(86_399), "1970-01-01 23:59:59 UTC");
        // 2026-08-08 00:00:00 UTC.
        assert_eq!(format_utc(1_786_147_200), "2026-08-08 00:00:00 UTC");
        // Leap day.
        assert_eq!(format_utc(1_709_164_800), "2024-02-29 00:00:00 UTC");
    }
}
