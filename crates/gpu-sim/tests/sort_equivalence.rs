//! Sort equivalence of the batch tail: `thrust::sort_rows_into` sorts a
//! result buffer in total `(key, value)` lexicographic order, whose sorted
//! arrangement is unique — so its output must be *bytewise identical* to a
//! std reference sort at every thread count, on every input. These tests
//! commit pairs through a kernel launch, one window per block, run the
//! batch tail on explicit pool views and compare the bytes and the rows.
//!
//! Nearly every input here is one the row pass cannot read in place: some
//! run of equal keys is not above the previous run's (a key split across
//! two windows, or keys out of order), as a block-per-cell kernel
//! commits. Those inputs take the counting-scatter fallback. Sizes span
//! one row group and several at 2 and 4 threads; key distributions cover
//! long equal-key runs, mid-width keys and a wide, sparse key span.
//! Neighbor-row-shaped inputs drive the per-run bitmap sort and its
//! comparison-sort fallbacks.

use gpu_sim::thrust::sort_rows_into;
use gpu_sim::{BlockCtx, BlockKernel, Device, DeviceAppendBuffer, DeviceError, LaunchConfig};
use parking_lot::Mutex;
use proptest::prelude::*;
use std::mem::MaybeUninit;
use std::ops::Range;

/// Keep in sync with `thrust::ROW_GROUP_MIN_PAIRS`.
const ROW_GROUP_MIN_PAIRS: usize = 1 << 15;
/// Keep in sync with `thrust::BITMAP_BITS_PER_ITEM`.
const BITMAP_BITS_PER_ITEM: u64 = 64;
/// Keep in sync with `thrust::BITMAP_MAX_BITS`.
const BITMAP_MAX_BITS: u64 = 1 << 18;

/// Values and `(key, range)` rows, rows ordered by key.
type Rows = (Vec<u32>, Vec<(u32, Range<usize>)>);

/// Commits `windows[b]` as block `b`'s window.
struct CommitWindows<'a> {
    windows: &'a [Vec<(u32, u32)>],
    out: &'a DeviceAppendBuffer<(u32, u32)>,
}

impl BlockKernel for CommitWindows<'_> {
    fn run_block(&self, ctx: &mut BlockCtx) -> Result<(), DeviceError> {
        self.out
            .commit_block(ctx, &self.windows[ctx.block_idx as usize])
    }
}

/// Commit `windows` in one launch and run the batch tail on a
/// `threads`-wide pool view.
fn sort_with_threads(windows: &[Vec<(u32, u32)>], threads: usize) -> Rows {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool view");
    pool.install(|| {
        let device = Device::k20c();
        let n = windows.iter().map(Vec::len).sum();
        let mut buf = DeviceAppendBuffer::new(&device, n).unwrap();
        if !windows.is_empty() {
            let cfg = LaunchConfig::new(windows.len() as u32, 32);
            let kernel = CommitWindows { windows, out: &buf };
            device.launch(cfg, &kernel).unwrap();
        }
        let mut values = vec![MaybeUninit::uninit(); n];
        let rows = Mutex::new(Vec::new());
        sort_rows_into(&mut buf, &mut values, |key, range| {
            rows.lock().push((key, range))
        });
        // SAFETY: the batch tail writes every value.
        let values = values
            .into_iter()
            .map(|v| unsafe { v.assume_init() })
            .collect();
        let mut rows = rows.into_inner();
        rows.sort_by_key(|r| r.0);
        (values, rows)
    })
}

/// What a std sort of the windows' pairs gives.
fn reference(windows: &[Vec<(u32, u32)>]) -> Rows {
    let mut pairs = windows.concat();
    pairs.sort_unstable();
    let values = pairs.iter().map(|p| p.1).collect();
    let mut rows: Vec<(u32, Range<usize>)> = Vec::new();
    for (i, &(key, _)) in pairs.iter().enumerate() {
        match rows.last_mut() {
            Some((k, r)) if *k == key => r.end = i + 1,
            _ => rows.push((key, i..i + 1)),
        }
    }
    (values, rows)
}

/// Whether every run of equal keys, read in window order, is above the
/// previous run: the input the row pass reads in place.
fn runs_ascend(windows: &[Vec<(u32, u32)>]) -> bool {
    let mut last: Option<u32> = None;
    for w in windows {
        for (i, &(key, _)) in w.iter().enumerate() {
            if i == 0 || key != w[i - 1].0 {
                if last.is_some_and(|prev| key <= prev) {
                    return false;
                }
                last = Some(key);
            }
        }
    }
    true
}

/// Assert the batch tail on 1, 2 and 4 threads and std agree exactly.
fn assert_canonical(windows: &[Vec<(u32, u32)>]) {
    let want = reference(windows);
    for threads in [1, 2, 4] {
        let got = sort_with_threads(windows, threads);
        assert!(
            got == want,
            "{threads}-thread batch tail is not the canonical order"
        );
    }
}

/// [`assert_canonical`] for an input that takes the fallback.
fn assert_fallback_canonical(windows: &[Vec<(u32, u32)>]) {
    assert!(
        !runs_ascend(windows),
        "the row pass would read this in place"
    );
    assert_canonical(windows);
}

/// `pairs` cut into windows of `len` (the last may be shorter).
fn windows_of(pairs: &[(u32, u32)], len: usize) -> Vec<Vec<(u32, u32)>> {
    pairs.chunks(len).map(<[_]>::to_vec).collect()
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

/// `n` pairs with keys of `key_bits` bits and full-width values. Key
/// widths stay at most 20 bits: the fallback takes one counter per key of
/// the span, and result-set keys are point ids.
fn random_pairs(n: usize, key_bits: u32, seed: u64) -> Vec<(u32, u32)> {
    assert!(key_bits <= 20, "a key span of at most 2^20");
    let mask = (1u32 << key_bits) - 1;
    let mut s = seed;
    (0..n)
        .map(|_| {
            let r = splitmix(&mut s);
            (((r >> 32) as u32) & mask, r as u32)
        })
        .collect()
}

/// Enough pairs for several row groups at 2 and 4 threads, the size of
/// the large fixed cases.
const SEVERAL_GROUPS: usize = 2 * ROW_GROUP_MIN_PAIRS + 17;

#[test]
fn empty_and_single_element() {
    // The row pass reads these in place; the fallback's smallest inputs
    // are one key split across two windows, and two keys out of order.
    assert_canonical(&[]);
    assert_canonical(&[vec![(7, 3)]]);
    assert_fallback_canonical(&[vec![(7, 3)], vec![(7, 1)]]);
    assert_fallback_canonical(&[vec![(7, 3), (2, 9)]]);
}

#[test]
fn single_key_result_sets() {
    // One key, split across windows: a single row, so a single group at
    // every thread count. Random values (the comparison sort), and
    // distinct narrow values committed high first (the bitmap run sort).
    let mut s = 42u64;
    let random: Vec<(u32, u32)> = (0..SEVERAL_GROUPS)
        .map(|_| (5, splitmix(&mut s) as u32))
        .collect();
    assert_fallback_canonical(&windows_of(&random, 1000));
    let narrow: Vec<(u32, u32)> = (0..5000).rev().map(|v| (123_456, v * 3)).collect();
    assert_fallback_canonical(&windows_of(&narrow, 700));
}

#[test]
fn presorted_input_large() {
    // Already fully sorted, cut mid-row: the fallback must be the identity.
    let mut pairs = random_pairs(SEVERAL_GROUPS, 14, 1);
    pairs.sort_unstable();
    assert_fallback_canonical(&windows_of(&pairs, 1009));
}

#[test]
fn presorted_keys_random_values_large() {
    // Non-decreasing keys with scrambled values: real run-sort work.
    let mut pairs = random_pairs(SEVERAL_GROUPS, 8, 2);
    pairs.sort_unstable_by_key(|&(k, _)| k);
    assert_fallback_canonical(&windows_of(&pairs, 1009));
}

#[test]
fn reverse_sorted_large() {
    let mut pairs = random_pairs(SEVERAL_GROUPS, 20, 3);
    pairs.sort_unstable();
    pairs.reverse();
    assert_fallback_canonical(&windows_of(&pairs, 1000));
}

#[test]
fn wide_sparse_key_span() {
    // Keys 0 and ~10^6 with nothing between: the scatter's counters
    // cover the whole span, and only the two non-empty keys become rows.
    let pairs: Vec<(u32, u32)> = (0..3000u32)
        .map(|i| {
            (
                if i % 3 == 0 { 1_000_003 } else { 0 },
                i.wrapping_mul(2654435761),
            )
        })
        .collect();
    assert_fallback_canonical(&windows_of(&pairs, 256));
}

#[test]
fn group_threshold_boundary() {
    // One below, at, and above the size where 2 and 4 threads cut a
    // second row group.
    let at = 2 * ROW_GROUP_MIN_PAIRS;
    for n in [at - 1, at, at + 1] {
        assert_fallback_canonical(&windows_of(&random_pairs(n, 14, n as u64), 1000));
    }
}

#[test]
fn output_is_thread_count_invariant() {
    // The group count tracks the thread count; the output must not.
    let windows = windows_of(&random_pairs(SEVERAL_GROUPS + 1234, 20, 7), 999);
    let two = sort_with_threads(&windows, 2);
    let four = sort_with_threads(&windows, 4);
    let eight = sort_with_threads(&windows, 8);
    assert!(two == four, "2 and 4 threads differ");
    assert!(four == eight, "4 and 8 threads differ");
}

// ---- randomized property sweep -----------------------------------------

proptest! {
    // Small-to-medium inputs get many cases cheaply. The regime selector
    // spans the key widths: tiny dense keys (long equal runs), mid-width
    // keys, and wide keys over a 2^20 span.
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sort_matches_reference_small(
        regime in 0u8..3,
        seed in 0u64..u64::MAX,
        len in 2usize..6000,
        window in 1usize..300,
    ) {
        let key_bits = match regime { 0 => 6, 1 => 12, _ => 20 };
        let windows = windows_of(&random_pairs(len, key_bits, seed), window);
        assert_canonical(&windows);
    }
}

proptest! {
    // Inputs of several groups are expensive; a few cases suffice because
    // the fixed tests above pin the group boundaries.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn sort_matches_reference_several_groups(
        regime in 0u8..3,
        seed in 0u64..u64::MAX,
        extra in 0usize..4096,
    ) {
        let key_bits = match regime { 0 => 12, 1 => 16, _ => 20 };
        let pairs = random_pairs(SEVERAL_GROUPS + extra, key_bits, seed);
        assert_fallback_canonical(&windows_of(&pairs, 1000));
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

/// Pairs of `rows` (row index = key) with keys ascending, cut mid-row
/// into windows, and with rows in reverse key order — both fallback
/// inputs — each run at 1, 2 and 4 threads against std.
fn assert_rows_canonical(rows: &[Vec<u32>]) {
    let pairs = |keys: &mut dyn Iterator<Item = usize>| -> Vec<(u32, u32)> {
        keys.flat_map(|k| rows[k].iter().map(move |&v| (k as u32, v)))
            .collect()
    };
    assert_fallback_canonical(&windows_of(&pairs(&mut (0..rows.len())), 1009));
    assert_fallback_canonical(&windows_of(&pairs(&mut (0..rows.len()).rev()), 1009));
}

/// Value totals of one row group and of several at 2 and 4 threads.
const ROW_TOTALS: [usize; 2] = [12_000, SEVERAL_GROUPS];

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
