//! Parallel-vs-serial sort equivalence: `thrust::sort_by_key` sorts in
//! total `(key, value)` lexicographic order, whose sorted arrangement is
//! unique — so the parallel radix/counting/run paths (engaged on large
//! inputs when the pool has > 1 thread) must produce output *bytewise
//! identical* to the serial paths and to a std reference sort, on every
//! input. These tests drive both code paths over the same data via
//! explicit pool views and compare the bytes.
//!
//! Sizes are chosen to cross the internal dispatch thresholds:
//! `RADIX_MIN_PAIRS = 2^12` (std sort below, radix at and above) and
//! `RADIX_PAR_MIN_PAIRS = 2^16` (serial radix below, parallel at and
//! above). Key distributions cover the three radix regimes: presorted
//! keys (value-run repair), dense keys (counting sort), and sparse keys
//! (full-width 4×16-bit passes). Neighbor-row-shaped inputs drive the
//! per-run bitmap sort and its comparison-sort fallbacks on both the
//! presorted and the counting path.

use gpu_sim::thrust::sort_by_key;
use gpu_sim::Device;
use proptest::prelude::*;

/// Keep in sync with `thrust::RADIX_MIN_PAIRS` (private; asserted only
/// as a size landmark, not imported).
const RADIX_MIN_PAIRS: usize = 1 << 12;
/// Keep in sync with `thrust::RADIX_PAR_MIN_PAIRS`.
const RADIX_PAR_MIN_PAIRS: usize = 1 << 16;
/// Keep in sync with `thrust::BITMAP_BITS_PER_ITEM`.
const BITMAP_BITS_PER_ITEM: u64 = 64;
/// Keep in sync with `thrust::BITMAP_MAX_BITS`.
const BITMAP_MAX_BITS: u64 = 1 << 18;

/// Sort a copy of `pairs` on a `threads`-wide pool view; the modeled
/// duration depends only on the length, so only bytes are compared.
fn sort_with_threads(pairs: &[(u32, u32)], threads: usize) -> Vec<(u32, u32)> {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool view");
    pool.install(|| {
        let device = Device::k20c();
        let mut out = pairs.to_vec();
        sort_by_key(&device, &mut out);
        out
    })
}

/// Assert the sort on 1, 2 and 4 threads and std agree exactly.
fn assert_canonical(pairs: &[(u32, u32)]) {
    let mut reference = pairs.to_vec();
    reference.sort_unstable();
    for threads in [1, 2, 4] {
        assert_eq!(
            sort_with_threads(pairs, threads),
            reference,
            "{threads}-thread sort is not the canonical order"
        );
    }
}

// ---- adversarial fixed cases -------------------------------------------

/// Deterministic pseudo-random stream for the fixed cases (no rand
/// dependency on the hot path; splitmix64 is enough to decorrelate).
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

fn random_pairs(n: usize, key_bits: u32, seed: u64) -> Vec<(u32, u32)> {
    let mask = if key_bits >= 32 {
        u32::MAX
    } else {
        (1u32 << key_bits) - 1
    };
    let mut s = seed;
    (0..n)
        .map(|_| {
            let r = splitmix(&mut s);
            (((r >> 32) as u32) & mask, r as u32)
        })
        .collect()
}

#[test]
fn empty_and_single_element() {
    assert_canonical(&[]);
    assert_canonical(&[(7, 3)]);
}

#[test]
fn all_equal_keys_large() {
    // One giant equal-key run at parallel size: exercises the presorted
    // path's run repair and the counting sort's single bucket.
    let n = RADIX_PAR_MIN_PAIRS + 17;
    let mut s = 42u64;
    let pairs: Vec<(u32, u32)> = (0..n).map(|_| (5, splitmix(&mut s) as u32)).collect();
    assert_canonical(&pairs);
}

#[test]
fn presorted_input_large() {
    // Already fully sorted: every path must be the identity.
    let mut pairs = random_pairs(RADIX_PAR_MIN_PAIRS + 3, 32, 1);
    pairs.sort_unstable();
    assert_canonical(&pairs);
}

#[test]
fn presorted_keys_random_values_large() {
    // Non-decreasing keys with scrambled values: the is_sorted_by_key
    // fast path with real run-repair work, serial vs parallel.
    let mut pairs = random_pairs(RADIX_PAR_MIN_PAIRS + 9, 8, 2);
    pairs.sort_unstable_by_key(|&(k, _)| k);
    assert_canonical(&pairs);
}

#[test]
fn reverse_sorted_large() {
    let mut pairs = random_pairs(RADIX_PAR_MIN_PAIRS + 5, 32, 3);
    pairs.sort_unstable();
    pairs.reverse();
    assert_canonical(&pairs);
}

#[test]
fn radix_threshold_boundary() {
    // One below, at, and above the std-sort/radix dispatch boundary.
    for n in [RADIX_MIN_PAIRS - 1, RADIX_MIN_PAIRS, RADIX_MIN_PAIRS + 1] {
        assert_canonical(&random_pairs(n, 16, n as u64));
    }
}

#[test]
fn parallel_threshold_boundary() {
    // One below, at, and above the serial/parallel dispatch boundary —
    // dense keys (counting regime) and sparse keys (full radix regime).
    for n in [
        RADIX_PAR_MIN_PAIRS - 1,
        RADIX_PAR_MIN_PAIRS,
        RADIX_PAR_MIN_PAIRS + 1,
    ] {
        assert_canonical(&random_pairs(n, 14, n as u64)); // dense
        assert_canonical(&random_pairs(n, 32, n as u64 ^ 0xDEAD)); // sparse
    }
}

#[test]
fn parallel_output_is_thread_count_invariant() {
    // The chunk count tracks the thread count; the output must not.
    let pairs = random_pairs(RADIX_PAR_MIN_PAIRS + 1234, 20, 7);
    let two = sort_with_threads(&pairs, 2);
    let four = sort_with_threads(&pairs, 4);
    let eight = sort_with_threads(&pairs, 8);
    assert_eq!(two, four);
    assert_eq!(four, eight);
}

// ---- randomized property sweep -----------------------------------------

proptest! {
    // Small-to-medium inputs get many cases cheaply. The regime selector
    // spans the three key distributions: tiny dense keys (long equal
    // runs), mid-width keys, and full-width sparse keys.
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sort_matches_reference_small(
        regime in 0u8..3,
        seed in 0u64..u64::MAX,
        len in 0usize..6000,
    ) {
        let key_bits = match regime { 0 => 6, 1 => 12, _ => 32 };
        assert_canonical(&random_pairs(len, key_bits, seed));
    }
}

proptest! {
    // Parallel-sized inputs are expensive; a few cases suffice because
    // the fixed adversarial tests above pin the boundary behavior.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn sort_matches_reference_parallel_sized(
        regime in 0u8..3,
        seed in 0u64..u64::MAX,
        extra in 0usize..4096,
    ) {
        let key_bits = match regime { 0 => 12, 1 => 20, _ => 32 };
        let pairs = random_pairs(RADIX_PAR_MIN_PAIRS + extra, key_bits, seed);
        assert_canonical(&pairs);
    }
}

// ---- neighbor-row-shaped inputs (the bitmap run sort) ------------------

/// Fisher–Yates shuffle driven by splitmix.
fn shuffle<T>(xs: &mut [T], seed: &mut u64) {
    for i in (1..xs.len()).rev() {
        xs.swap(i, (splitmix(seed) % (i as u64 + 1)) as usize);
    }
}

/// `len ≥ 2` distinct values spanning exactly `[lo, lo + span)` (both
/// ends present), shuffled.
fn distinct_run(lo: u32, span: u64, len: usize, seed: &mut u64) -> Vec<u32> {
    assert!(len >= 2 && span >= len as u64 && u64::from(lo) + span - 1 <= u64::from(u32::MAX));
    let inner = len as u64 - 2;
    let mut run = vec![lo, (u64::from(lo) + span - 1) as u32];
    // One value per equal slice of the interior `(lo, lo + span - 1)`.
    if let Some(slice) = (span - 2).checked_div(inner) {
        run.extend(
            (0..inner).map(|i| (u64::from(lo) + 1 + i * slice + splitmix(seed) % slice) as u32),
        );
    }
    shuffle(&mut run, seed);
    run
}

/// Rows from `make_row(key, seed)` for keys 0, 1, … until they hold at
/// least `target` values.
fn rows_filling(
    target: usize,
    seed: u64,
    mut make_row: impl FnMut(u32, &mut u64) -> Vec<u32>,
) -> Vec<Vec<u32>> {
    let mut s = seed;
    let mut rows = Vec::new();
    let mut total = 0;
    while total < target {
        let row = make_row(rows.len() as u32, &mut s);
        total += row.len();
        rows.push(row);
    }
    rows
}

/// Pairs of `rows` (row index = key) with keys ascending — the presorted
/// path — and with rows in reverse key order — the counting path (keys
/// are dense) — each sorted at 1, 2 and 4 threads against std.
fn assert_rows_canonical(rows: &[Vec<u32>]) {
    let pairs = |keys: &mut dyn Iterator<Item = usize>| -> Vec<(u32, u32)> {
        keys.flat_map(|k| rows[k].iter().map(move |&v| (k as u32, v)))
            .collect()
    };
    assert_canonical(&pairs(&mut (0..rows.len())));
    assert_canonical(&pairs(&mut (0..rows.len()).rev()));
}

/// Serial-sized (radix path, below the parallel threshold) and
/// parallel-sized value totals.
const ROW_TOTALS: [usize; 2] = [RADIX_MIN_PAIRS * 3, RADIX_PAR_MIN_PAIRS + 1000];

#[test]
fn neighbor_rows_with_distinct_clustered_values() {
    // Rows of 1–150 distinct ids over a span of 4–27× the row length
    // near the key, as the grid kernels emit them: short rows take the
    // comparison sort, the rest the bitmap.
    for (i, total) in ROW_TOTALS.into_iter().enumerate() {
        for spread in [1, 4, 27] {
            let rows = rows_filling(total, (i * 31 + spread) as u64, |key, s| {
                let len = 1 + (splitmix(s) % 150) as usize;
                if len < 2 {
                    return vec![key];
                }
                distinct_run(key * 3, (spread * len) as u64, len, s)
            });
            assert_rows_canonical(&rows);
        }
    }
}

#[test]
fn neighbor_rows_with_repeated_values() {
    // Narrow runs that repeat values: the bitmap's popcount falls short
    // of the run length and the run takes the comparison sort.
    for (i, total) in ROW_TOTALS.into_iter().enumerate() {
        let rows = rows_filling(total, 90 + i as u64, |key, s| {
            let len = 16 + (splitmix(s) % 100) as usize;
            let repeats = splitmix(s).is_multiple_of(4);
            let mut row = distinct_run(key, 2 * len as u64, len, s);
            if repeats {
                let dup = row[len / 2];
                row[len - 1] = dup;
                shuffle(&mut row, s);
            }
            row
        });
        assert_rows_canonical(&rows);
    }
}

#[test]
fn runs_touching_zero_and_u32_max() {
    // Bitmap runs at both ends of the value range, and runs holding both
    // 0 and u32::MAX (a span of 2^32, far past the bitmap bounds).
    for (i, total) in ROW_TOTALS.into_iter().enumerate() {
        let rows = rows_filling(total, 7 + i as u64, |key, s| {
            let len = 16 + (splitmix(s) % 64) as usize;
            let span = 3 * len as u64;
            match key % 3 {
                0 => distinct_run(0, span, len, s),
                1 => distinct_run((u64::from(u32::MAX) + 1 - span) as u32, span, len, s),
                _ => distinct_run(0, 1 << 32, len, s),
            }
        });
        assert_rows_canonical(&rows);
    }
}

#[test]
fn spans_at_the_bitmap_bounds() {
    // Just inside and just past each span bound: the per-item bound on
    // short rows, and the overall bound on rows long enough that the
    // per-item bound does not bind.
    let short = 32usize;
    let long = (BITMAP_MAX_BITS / BITMAP_BITS_PER_ITEM) as usize * 2;
    for (len, bound) in [
        (short, BITMAP_BITS_PER_ITEM * short as u64),
        (long, BITMAP_MAX_BITS),
    ] {
        for span in [bound, bound + 1] {
            for (i, total) in ROW_TOTALS.into_iter().enumerate() {
                let rows = rows_filling(total, span ^ i as u64, |key, s| {
                    distinct_run(key * 5, span, len, s)
                });
                assert_rows_canonical(&rows);
            }
        }
    }
}
