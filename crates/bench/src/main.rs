//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro <experiment> [--scale X] [--datasets A,B] [--trials N] [--quick]
//!
//! experiments:
//!   table1    fraction of sequential DBSCAN time in R-tree search
//!   table2    kernel efficiency (GPUCalcGlobal vs GPUCalcShared), S1
//!   figure2   strided batch-assignment diagram
//!   scenarios Tables III and V (the S2/S3 parameter definitions)
//!   figure3   response time vs eps, hybrid vs reference, S2
//!   figure4   multi-clustering totals + Table IV speedups, S2 (= table4)
//!   figure5   response time vs threads with table reuse, S3
//!   figure6   reuse speedup over per-variant reference, S3
//!   schedule  Gantt chart of the overlapped 3-stream batch schedule
//!   bench     continuous-benchmark suite with regression gating
//!             (writes BENCH_suite.json; --compare <baseline.json>)
//!   threads   host-pool scaling sweep on S1 (writes BENCH_threads.json)
//!   profile   suite workloads under the pool profiler at 1/2/4/8
//!             threads: serial fraction, Amdahl ceiling, per-worker
//!             utilization, critical path (writes PROFILE.json)
//!   shard     sharded-vs-unsharded fingerprint smoke
//!             (writes SHARD_fingerprints.json)
//!   backend   grid/tree/auto ε-search ablation smoke
//!   report    cross-run trend report over the run ledger
//!             (writes REPORT.html)
//!   ablations bandwidth / stream-count / block-size / index / alpha / split
//!   all       everything above in paper order
//! ```
//!
//! `--scale` sizes the synthetic datasets (default 0.02 of the published
//! sizes; the domain shrinks with sqrt(scale) so densities — and the
//! published ε values — stay meaningful). `--quick` is `--scale 0.005`.
//!
//! The paper's tables come from one pass per scenario ([`bench::paper`]):
//! Figures 3 and 4 read one S2 sweep, Figures 5 and 6 one S3 run, and
//! `all` runs each pass once.
//!
//! `bench`, `threads`, `profile`, `shard` and `backend` are presets of one
//! measurement suite ([`bench::suite`]); they and `report` share one gate,
//! strict under `BENCH_STRICT=1`.

use bench::common::Options;
use bench::paper::{self, Table, Table::*};
use bench::suite::presets;
use bench::{ablations, figure2, scenarios, schedule};

fn run_ablations(opts: &Options) {
    ablations::gdbscan(opts);
    println!();
    ablations::bandwidth(opts);
    println!();
    ablations::streams(opts);
    println!();
    ablations::blocksize(opts);
    println!();
    ablations::index(opts);
    println!();
    ablations::alpha(opts);
    println!();
    ablations::hybrid_split(opts);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("usage: repro <experiment> [options] (see --help)");
        std::process::exit(2);
    };
    if cmd == "--help" || cmd == "-h" || cmd == "help" {
        println!(
            "repro <table1|table2|figure2|figure3|figure4|table4|figure5|figure6|schedule|bench|threads|profile|shard|backend|report|ablations|all>\n      [--scale X] [--datasets A,B] [--trials N] [--warmup N] [--quick] [--csv DIR]\n      [--trace [FILE]] [--metrics [FILE]] [--compare BASELINE] [--ledger DIR]\n\n--trace writes a Chrome trace-event JSON (default trace.json; open with\nhttps://ui.perfetto.dev); --metrics writes a metrics snapshot JSON\n(default metrics.json). Instrumented experiments: table2, figure4,\nschedule, threads, profile; the other suite presets fail when asked.\n\ntable1..figure6 come from one pass per paper scenario: figure3 and\nfigure4/table4 read one S2 sweep, whose hybrid labels are checked against\nthe reference at every variant; figure5 and figure6 read one S3 run; all\nruns each pass once. --csv DIR writes each table as DIR/<name>.csv.\n\nbench, threads, profile, shard and backend are presets of one measurement\nsuite: --warmup untimed rounds, then --trials timed rounds interleaved\nacross the preset's thread counts, median/MAD per stage.\n  bench    S1/S2/S3, micro, shard-scaling and backend rows; writes\n           BENCH_suite.json; --compare BASELINE flags modeled-stage\n           regressions (baselines live under results/baselines/)\n  threads  the S1 row at {{1, 2, 4, all}} pool threads (RAYON_NUM_THREADS\n           sets all); writes BENCH_threads.json\n  profile  the S1/S2/S3 rows at 1/2/4/8 threads, each with one pass under\n           the pool profiler; writes PROFILE.json, whose rows carry the\n           serial fraction, Amdahl ceiling, per-worker utilization and\n           critical path of their profiled pass\n  shard    unsharded vs k=2/k=4 sharded builds; writes\n           SHARD_fingerprints.json\n  backend  grid vs tree vs auto epsilon-search on 2-D and 3-D/4-D data\nreport loads the run ledger every preset but backend appends to\n(results/ledger/ or --ledger DIR), runs cross-run step/bits-change\ndetection, and writes the REPORT.html dashboard. Set\nLEDGER_BASELINE_REFRESH=1 on a run that intentionally changes modeled\ntime bits.\n\nOne gate: always fatal are equivalence mismatches (fingerprints or\nmodeled bits across backends, shards, thread counts, trials and the\nprofiled pass), artifacts that fail their round trip or cannot be\nwritten, an unreadable ledger and an invalid dashboard. BENCH_STRICT=1\nalso fails on a modeled-stage regression or unreadable baseline, an auto\nselector match rate below 90%, a 4-thread build_table speedup below\n1.8x, and gating trend findings; without it they are advisory."
        );
        return;
    }
    let opts = match Options::parse(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "# scale = {} (of published dataset sizes), trials = {}",
        opts.scale, opts.trials
    );

    if let Some(table) = Table::parse(cmd) {
        paper::print(&[table], &opts);
        return;
    }
    match cmd.as_str() {
        "figure2" => figure2::print(),
        "table3" | "table5" | "scenarios" => scenarios::print(),
        "schedule" => schedule::print(&opts),
        "bench" | "threads" | "profile" | "shard" | "backend" | "report" => {
            let code = match cmd.as_str() {
                "report" => presets::report(&opts),
                preset => presets::run(preset, &opts),
            };
            std::process::exit(code);
        }
        "ablations" => run_ablations(&opts),
        "all" => {
            paper::print(&[Table1, Table2], &opts);
            println!("\n");
            figure2::print();
            println!("\n");
            paper::print(&[Figure3, Figure4, Figure5, Figure6], &opts);
            println!("\n");
            run_ablations(&opts);
        }
        other => {
            eprintln!("unknown experiment '{other}'");
            std::process::exit(2);
        }
    }
}
