#!/usr/bin/env bash
# Local CI gate: everything a PR must pass.
#
#   scripts/ci.sh            # build + test + fmt + docs + clippy
#   DIFF_STRICT=1 scripts/ci.sh     # make the long differential sweep fatal
#   BENCH_STRICT=1 scripts/ci.sh    # make measurement shortfalls fatal:
#                                   # modeled regressions, speedup floor,
#                                   # auto-selector rate, trend findings
#
# The 200-case differential sweep is advisory by default — it is the long
# randomized tier of a harness whose quick tier already gates fatally;
# build, tests, formatting, doc links and clippy are always fatal.

set -uo pipefail
cd "$(dirname "$0")/.."

failed=0
step() {
    local name="$1"
    shift
    echo "==> $name: $*"
    if "$@"; then
        echo "==> $name: OK"
    else
        echo "==> $name: FAILED"
        failed=1
    fi
    echo
}

step "build" cargo build --workspace --release
# Benchmark build and smoke: perfbench/ (BENCHMARK.json) is a standalone
# package over the library crates' public API, so an API change that
# breaks it must fail here. --locked fails if perfbench/Cargo.lock would
# change. perfbench exits 0 even on wrong output, so each workload's
# last stdout line must report "correct": true and "failed": 0.
step "perfbench build" \
    cargo build --release --offline --locked --manifest-path perfbench/Cargo.toml
# perfbench_smoke WORKLOAD [VAR=value ...]: one 1 s run under the given
# environment.
perfbench_smoke() {
    local last
    last=$(env "${@:2}" cargo run --release --offline --locked --quiet \
        --manifest-path perfbench/Cargo.toml -- \
        --workload "$1" --seed 1 --seconds 1 --trace 0 | tail -n 1) || return 1
    echo "$last"
    [[ "$last" == *'"correct": true,'* && "$last" == *'"failed": 0,'* ]]
}
# Each workload also runs on a one-thread pool, so the serial presort,
# row pass and sort paths are checked against the oracles too.
for workload in s2_sweep s3_reuse nd3_lattice; do
    step "perfbench smoke ($workload)" perfbench_smoke "$workload"
    step "perfbench smoke ($workload, RAYON_NUM_THREADS=1)" \
        perfbench_smoke "$workload" RAYON_NUM_THREADS=1
done
# s3_reuse's 16 clusterings share one table handle, whose core-level
# forest the first caller after the first clustering builds. On an
# oversubscribed pool several workers block on that build at once; their
# labels are still checked against the reference.
step "perfbench smoke (s3_reuse, RAYON_NUM_THREADS=4)" \
    perfbench_smoke s3_reuse RAYON_NUM_THREADS=4
# Result buffer storage is recycled through the device's host pool across
# builds; on an oversubscribed pool the stream workers take and return
# that storage concurrently, and every request's outputs are still
# checked against the warm-up's and the oracles.
step "perfbench smoke (s2_sweep, RAYON_NUM_THREADS=4)" \
    perfbench_smoke s2_sweep RAYON_NUM_THREADS=4
step "perfbench smoke (nd3_lattice, RAYON_NUM_THREADS=4)" \
    perfbench_smoke nd3_lattice RAYON_NUM_THREADS=4
# The test suite runs twice: serial (the rayon pool degraded to one
# thread) and at 4 threads. The determinism policy (DESIGN.md) promises
# identical results either way; both configurations must stay green.
step "test (RAYON_NUM_THREADS=1)" env RAYON_NUM_THREADS=1 cargo test --workspace -q
step "test (RAYON_NUM_THREADS=4)" env RAYON_NUM_THREADS=4 cargo test --workspace -q
# Quick differential tier (crates/core/tests/differential): all five
# clusterers and all three indexes against the brute-force oracle, at
# both pool sizes. Part of the workspace suite above, repeated here
# explicitly so a differential regression is named in the CI output.
step "differential quick (RAYON_NUM_THREADS=1)" \
    env RAYON_NUM_THREADS=1 cargo test -p hybrid-dbscan-core --test differential -q
step "differential quick (RAYON_NUM_THREADS=4)" \
    env RAYON_NUM_THREADS=4 cargo test -p hybrid-dbscan-core --test differential -q
# Bit pins (tests/modeled_pins.rs): table, clustering and modeled-time
# bits of fixed small builds, the 3-D estimation counts and CUDA-DClust's
# modeled time. Also part of the workspace suite above; repeated here so
# bit drift is named in the CI output.
step "modeled pins (RAYON_NUM_THREADS=1)" \
    env RAYON_NUM_THREADS=1 cargo test -q --test modeled_pins
step "modeled pins (RAYON_NUM_THREADS=4)" \
    env RAYON_NUM_THREADS=4 cargo test -q --test modeled_pins
# Host consumers (tests/border_differential.rs): seed expansion and the
# union-find read of the core-level forest against the reference on
# contested borders, exactly where the visit order fixes the answer. Also
# part of the workspace suite above; repeated here so a label change in
# either consumer is named in the CI output.
step "host consumers (RAYON_NUM_THREADS=1)" \
    env RAYON_NUM_THREADS=1 cargo test -q --test border_differential
step "host consumers (RAYON_NUM_THREADS=4)" \
    env RAYON_NUM_THREADS=4 cargo test -q --test border_differential
# Benchmark smoke tier: one tiny-scale trial of the full S1/S2/S3 suite
# plus the hot-path micro workload (grid build per layout, single kernel
# launches, table ingest — DESIGN.md §11), compared against the
# checked-in baseline (results/baselines/smoke.json).
# The step is fatal if the suite crashes or emits a document the shared
# parser rejects; regression gating is decided inside the binary, which
# exits nonzero on a deterministic-stage regression only under
# BENCH_STRICT=1 (wall-clock drift is always advisory — see DESIGN.md,
# "Benchmark methodology & regression policy").
#
# All smoke steps append their run records to a CI-local ledger copy
# (target/ci-ledger) seeded from the committed results/ledger, so CI runs
# feed the trend report without dirtying the checked-in run history.
rm -rf target/ci-ledger
mkdir -p target/ci-ledger
cp results/ledger/ledger.jsonl target/ci-ledger/ 2>/dev/null || true
step "bench smoke" ./target/release/repro bench \
    --scale 0.002 --trials 1 --warmup 0 --csv target/ci-bench \
    --compare results/baselines/smoke.json --ledger target/ci-ledger
# Profiler smoke tier: the suite workloads under the pool profiler at
# 1/2/4/8 threads (DESIGN.md §12). The binary itself is the gate: it
# exits nonzero if profiling moves modeled time bits at any thread count
# (determinism policy), if the emitted PROFILE.json is not a fixed
# point of the shared JSON parser, or if the requested trace or metrics
# file cannot be written.
step "profile smoke (RAYON_NUM_THREADS=4)" \
    env RAYON_NUM_THREADS=4 ./target/release/repro profile \
    --scale 0.002 --trials 1 --csv target/ci-profile --ledger target/ci-ledger \
    --trace target/ci-profile/trace.json --metrics target/ci-profile/metrics.json
# Thread-scaling smoke tier: the {1,2,4,all} pool sweep on a tiny S1
# workload. The binary is the gate: a determinism violation (modeled
# bits, clusters, or |R| differing across thread counts) always exits
# nonzero; the speedup_build_table >= 1.8 at 4 threads check is advisory
# unless BENCH_STRICT=1, because wall-clock speedup is unmeasurable on
# runners with fewer than 4 hardware threads.
step "threads smoke (RAYON_NUM_THREADS=8)" \
    env RAYON_NUM_THREADS=8 ./target/release/repro threads \
    --scale 0.002 --trials 1 --csv target/ci-threads --ledger target/ci-ledger

# Shard smoke tier (ISSUE 8): sharded vs unsharded table and clustering
# fingerprints at k=2 (both modes) and k=4 out-of-core. The binary exits
# nonzero on any mismatch — always fatal, like the bench smoke.
step "shard smoke" ./target/release/repro shard --scale 0.002 \
    --csv target/ci-shard --ledger target/ci-ledger

# Backend ablation smoke tier (ISSUE 10): grid vs tree vs auto ε-search
# on the ablation workloads (uniform + skewed 2-D, 3-D and 4-D
# lattices), run at one and at four host threads: the neighbor tables
# and clusterings must be bitwise identical across all three backends
# and both pool sizes. The binary exits nonzero on any fingerprint
# mismatch — always fatal; the auto-selector accuracy floor (>= 90% of
# workloads matching the modeled winner) is advisory unless
# BENCH_STRICT=1.
step "backend smoke (RAYON_NUM_THREADS=1)" \
    env RAYON_NUM_THREADS=1 ./target/release/repro backend --scale 0.002
step "backend smoke (RAYON_NUM_THREADS=4)" \
    env RAYON_NUM_THREADS=4 ./target/release/repro backend --scale 0.002

# Paper smoke tier: every paper table, Figure 2 and the ablations
# (`repro all`) on a tiny SDSS1, CSVs under target/ci-paper. The S2 pass
# compares the hybrid's labels with the reference's in full at every
# variant and aborts on the first difference, so the step is fatal.
step "paper smoke" ./target/release/repro all --scale 0.002 --datasets SDSS1 \
    --csv target/ci-paper

# Report smoke tier (ISSUE 9): render the trend dashboard over the
# CI-local ledger (committed history + the smoke runs above). The binary
# is the gate: it exits nonzero if the ledger is unreadable or the
# dashboard's embedded JSON payload fails round-trip validation. Always
# strict: its only gating trend findings are deterministic ones —
# modeled-time steps and bit flips outside a declared baseline refresh,
# per (command, scale, workload) series — so a finding here is a real
# change of modeled time, never host noise.
step "report smoke" env BENCH_STRICT=1 ./target/release/repro report \
    --ledger target/ci-ledger --csv target/ci-report
# The sharded differential tier, named and strict: every generator family
# plus the halo-straddling adversarial generator, k in {1,2,4}, 1/2/8
# threads, both execution modes, bitwise fingerprints and modeled-time
# bits. Part of the quick tier above; repeated under DIFF_STRICT=1 so a
# sharding regression is named in the CI output and always fatal.
step "differential quick (sharded, DIFF_STRICT=1)" \
    env DIFF_STRICT=1 RAYON_NUM_THREADS=4 \
    cargo test -p hybrid-dbscan-core --test differential sharded -q

step "fmt" cargo fmt --all --check
# Doc links: a broken intra-doc link (say, to a deleted item) or one to a
# private item fails the step.
step "docs" env RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links -D rustdoc::private_intra_doc_links" \
    cargo doc --workspace --no-deps --offline -q

step "clippy" cargo clippy --workspace --all-targets -- -D warnings

echo "==> differential sweep: DIFF_CASES=200 cargo test --test differential seeded_sweep"
if env DIFF_CASES=200 cargo test -p hybrid-dbscan-core --test differential seeded_sweep -q; then
    echo "==> differential sweep: OK"
elif [ "${DIFF_STRICT:-0}" = "1" ]; then
    echo "==> differential sweep: FAILED (strict)"
    failed=1
else
    echo "==> differential sweep: FAILED (advisory only; set DIFF_STRICT=1 to enforce)"
fi

exit "$failed"
