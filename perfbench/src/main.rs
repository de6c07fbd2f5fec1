//! Closed-loop benchmark of the Hybrid-DBSCAN pipeline.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload s2_sweep --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One client sends a request, waits for its outputs, and sends the
//! next, for `--seconds` seconds. Set-up (inputs from the seed, device
//! and engine, one warm-up request) is repeated and timed on its own.
//! Every request's tables and clusterings must fingerprint-match the
//! warm-up's, and the warm-up's are checked against independent oracles
//! (see `Workload::verify`). The last stdout line is one JSON object:
//! `correct`, `attempted`, `failed`, and `metrics` — the end-to-end
//! metrics with `--trace 0`, the per-layer ones with `--trace 1`, whose
//! requests also time layer probes and so are not used for latency.

mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Layers, Outcome, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

const USAGE: &str = "usage: perfbench --workload <s2_sweep|s3_reuse|nd3_lattice> \
                     --seed <u64> --seconds <n> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, None, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds = seconds
        .filter(|s| *s > 0.0)
        .ok_or("--seconds must be positive")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Nearest-rank quantile of a non-empty sample.
fn quantile(v: &[f64], q: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Metrics in print order: (name, value, unit).
type Metrics = Vec<(&'static str, f64, &'static str)>;

/// The request latency is reported at p90 rather than the median. On a
/// shared 2-vCPU host whose speed drifts over minutes, the median of a
/// run moves far more than its p90 (30 s runs, IQR/median over ten
/// seeds: 0.10–0.22 for the median, 0.06–0.13 for p90). Every 30 s run
/// has over 100 requests, so p90 has at least ten samples beyond it.
fn end_to_end(latencies_ms: &[f64], clusterings: usize, setup_s: &[f64]) -> Metrics {
    let busy_s = latencies_ms.iter().sum::<f64>() / 1e3;
    vec![
        ("request_p90_ms", quantile(latencies_ms, 0.9), "ms"),
        ("clusterings_per_s", clusterings as f64 / busy_s, "1/s"),
        ("setup_s", median(setup_s), "s"),
    ]
}

/// Per-layer medians from the traced requests (one sample per table
/// build or clustering), plus the modeled device time and batch count of
/// one request's tables, which every request repeats exactly.
fn per_layer(l: &Layers, out: &Outcome) -> Metrics {
    let after_index: Vec<f64> = (0..l.build_table_ms.len())
        .map(|i| {
            l.build_table_ms[i] - l.presort_ms[i] - l.backend_select_ms[i] - l.index_build_ms[i]
        })
        .collect();
    let modeled: Vec<f64> = out.tables.iter().map(|t| t.modeled_ms).collect();
    let pairs: usize = out.tables.iter().map(|t| t.result_pairs).sum();
    let build_s = l.build_table_ms.iter().sum::<f64>() / 1e3;
    let requests = l.request_ms.len() as f64;
    vec![
        ("presort_ms", median(&l.presort_ms), "ms"),
        ("backend_select_ms", median(&l.backend_select_ms), "ms"),
        ("index_build_ms", median(&l.index_build_ms), "ms"),
        ("build_table_ms", median(&l.build_table_ms), "ms"),
        ("table_after_index_ms", median(&after_index), "ms"),
        ("cluster_ms", median(&l.cluster_ms), "ms"),
        ("traced_request_ms", median(&l.request_ms), "ms"),
        (
            "table_pairs_per_s",
            pairs as f64 * requests / build_s,
            "1/s",
        ),
        ("modeled_gpu_ms", median(&modeled), "ms"),
        (
            "wall_per_modeled",
            median(&l.build_table_ms) / median(&modeled),
            "ratio",
        ),
        (
            "batches",
            out.tables.iter().map(|t| t.n_batches).sum::<usize>() as f64,
            "count",
        ),
    ]
}

fn print_result(correct: bool, attempted: usize, failed: usize, metrics: &Metrics) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut ready = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let workload = Workload::setup(&args.workload, args.seed).expect("workload name checked");
        let warm = workload.request(None);
        setup_s.push(t0.elapsed().as_secs_f64());
        ready = Some((workload, warm));
    }
    let (workload, warm) = ready.expect("SETUP_REPS > 0");
    let warm = match warm {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: warm-up request failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let expected = warm.digest();

    let mut layers = args.trace.then(Layers::default);
    let mut latencies_ms = Vec::new();
    let (mut attempted, mut failed, mut clusterings) = (0usize, 0usize, 0usize);
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    while start.elapsed() < budget {
        attempted += 1;
        let t0 = Instant::now();
        let result = workload.request(layers.as_mut());
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        match result {
            Ok(out) if out.digest() == expected => {
                latencies_ms.push(ms);
                clusterings += out.clusterings.len();
            }
            Ok(_) => {
                eprintln!("perfbench: request {attempted} changed its outputs");
                failed += 1;
            }
            Err(e) => {
                eprintln!("perfbench: request {attempted} failed: {e}");
                failed += 1;
            }
        }
    }

    let verdict = workload.verify(&warm);
    if let Err(e) = &verdict {
        eprintln!("perfbench: wrong output: {e}");
    }
    if latencies_ms.is_empty() {
        eprintln!("perfbench: no request completed");
        return ExitCode::FAILURE;
    }
    let metrics = match &layers {
        None => end_to_end(&latencies_ms, clusterings, &setup_s),
        Some(l) => per_layer(l, &warm),
    };
    print_result(verdict.is_ok() && failed == 0, attempted, failed, &metrics);
    ExitCode::SUCCESS
}
