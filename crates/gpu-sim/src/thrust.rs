//! Device-side primitives in the style of the CUDA Thrust library.
//!
//! Algorithm 4 of the paper leaves the kernel's result set on the GPU and
//! sorts it by key with `thrust::sort_by_key` so identical keys become
//! adjacent before the D2H transfer. We reproduce the *contract* (the
//! unique `(key, value)` order, executed "on the device") and the *cost*
//! (a modeled device duration derived from radix-sort throughput); the
//! functional sort runs on the host pool.
//!
//! [`sort_rows_into`] is the batch tail of the pipeline: it sorts a result
//! buffer by key and moves the values into the neighbor table in one pass
//! over its rows. A thread-per-point kernel's blocks commit whole rows
//! with ascending keys, so that pass reads the block windows where they
//! lie. Other output (a block-per-cell kernel's) takes one stable counting
//! scatter over the key span instead, which puts each key's values in its
//! run of the output.
//!
//! Both sort each equal-key value run last. A run is one neighbor row:
//! distinct point ids within a narrow span (a few times the row length).
//! Such a run is sorted through a bitmap over `[min, max]`: set one bit
//! per value, check by popcount that no value repeated, and read the bits
//! back in ascending order, in O(len + span / 64) instead of a comparison
//! sort's O(len · log len). Runs that are short, wide, or hold repeated
//! values take the comparison sort. Both give the unique ascending order,
//! so the output does not depend on which path ran.

use crate::device::Device;
use crate::memory::DeviceAppendBuffer;
use crate::time::SimDuration;
use rayon::prelude::*;
use std::mem::MaybeUninit;
use std::ops::Range;

/// Sustained pair-sort throughput of a Kepler-class device running Thrust
/// radix sort on 8-byte key/value pairs, pairs per second.
const SORT_PAIRS_PER_SEC: f64 = 500.0e6;
/// Fixed overhead of a device sort invocation (temporary allocation,
/// kernel launches of the radix passes).
const SORT_OVERHEAD_US: f64 = 30.0;

/// Modeled duration of a device `sort_by_key` over `n` pairs.
pub fn sort_by_key_time(n: usize) -> SimDuration {
    SimDuration::from_micros(SORT_OVERHEAD_US)
        + SimDuration::from_secs(n as f64 / SORT_PAIRS_PER_SEC)
}

/// Runs shorter than this go straight to the comparison sort (insertion
/// sort at these lengths), which beats the bitmap's fixed costs.
const BITMAP_MIN_RUN: usize = 8;
/// Widest value span (`max − min + 1`), in bits per run item, that the
/// bitmap path takes: its set, count and read-back passes cost
/// O(len + span / 64), and a neighbor row's span is a few times its length.
const BITMAP_BITS_PER_ITEM: usize = 64;
/// Widest value span in bits overall, keeping the bitmap cache-resident.
const BITMAP_MAX_BITS: usize = 1 << 18;

thread_local! {
    /// Per-thread bitmap words, all zero between calls.
    static BITMAP: std::cell::RefCell<Vec<u64>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Sort one equal-key run's values, in place.
///
/// Neighbor rows hold distinct values (point ids) over a narrow span, so
/// a run whose span fits the bitmap bounds sets one bit per value over
/// `[min, max]` and reads the bits back in ascending order, in
/// O(len + span / 64). When the bitmap's popcount is short of the run
/// length, values repeat and the bitmap cannot hold them; that run, and a
/// run too wide or too short, takes the comparison sort. Every path yields
/// the same, unique ascending order.
fn sort_run(run: &mut [u32]) {
    let n = run.len();
    if n < BITMAP_MIN_RUN {
        run.sort_unstable();
        return;
    }
    let (lo, hi) = run
        .iter()
        .fold((u32::MAX, 0), |(lo, hi), &x| (lo.min(x), hi.max(x)));
    let span = (hi - lo) as usize + 1;
    if span > BITMAP_MAX_BITS || span > BITMAP_BITS_PER_ITEM * n {
        run.sort_unstable();
        return;
    }
    BITMAP.with_borrow_mut(|bitmap| {
        let words = span.div_ceil(64);
        if bitmap.len() < words {
            bitmap.resize(words, 0);
        }
        let bits = &mut bitmap[..words];
        for &x in run.iter() {
            let off = (x - lo) as usize;
            bits[off / 64] |= 1 << (off % 64);
        }
        let distinct: usize = bits.iter().map(|w| w.count_ones() as usize).sum();
        if distinct < n {
            bits.fill(0);
            run.sort_unstable();
            return;
        }
        let mut out = 0;
        for (i, word) in bits.iter_mut().enumerate() {
            let mut w = std::mem::take(word);
            while w != 0 {
                let v = lo + (i * 64) as u32 + w.trailing_zeros();
                run[out] = v;
                out += 1;
                w &= w - 1;
            }
        }
    });
}

/// Pairs per group below which the row pass keeps a result set on one
/// thread; the output is identical either way.
const ROW_GROUP_MIN_PAIRS: usize = 1 << 15;

/// One row found by a row pass: its key and the end of its values in the
/// output.
type Row = (u32, usize);

/// Sort the pairs committed to `result` by `(key, value)` and move their
/// values into `values` in one pass over the rows: `values` receives the
/// values in that total order, and `row(key, range)` is called once per
/// key with the range of its values. Returns the modeled device duration,
/// that of a device `sort_by_key` over the same pairs ([`sort_by_key_time`]).
///
/// A thread-per-point kernel commits whole rows per block, with keys
/// ascending in launch and block order. Such output is read where it
/// lies, window by window: each run of equal keys is one row, whose
/// values the bitmap run sort (see the module docs) sorts straight into
/// `values`. If some run's key is not above the previous run's — a
/// block-per-cell kernel's output, or a key split across two windows —
/// one stable counting scatter over the key span puts the values in
/// their rows instead, and each row is sorted the same way. A total order
/// has one sorted arrangement, so both give the same bytes.
///
/// A large result set is cut into contiguous groups of rows that run on
/// the pool; the bytes do not depend on the cut. `row` is called only
/// once every group has been read, so it sees each key once.
pub fn sort_rows_into(
    result: &mut DeviceAppendBuffer<(u32, u32)>,
    values: &mut [MaybeUninit<u32>],
    row: impl Fn(u32, Range<usize>) + Sync,
) -> SimDuration {
    let n = result.len();
    assert_eq!(values.len(), n, "one value slot per committed pair");
    let groups = match row_pass(&result.block_windows(), values) {
        Some(groups) => groups,
        None => scatter_rows(result.as_filled_slice(), values),
    };
    let claim = |(start, rows): &(usize, Vec<Row>)| {
        let mut start = *start;
        for &(key, end) in rows {
            row(key, start..end);
            start = end;
        }
    };
    if groups.len() > 1 {
        groups.par_iter().for_each(claim);
    } else {
        groups.iter().for_each(claim);
    }
    sort_by_key_time(n)
}

/// Number of groups a row pass over `n` pairs cuts its windows (or, in
/// the scatter, its rows) into.
fn row_groups(n: usize) -> usize {
    let threads = rayon::current_num_threads();
    if threads < 2 {
        return 1;
    }
    (n / ROW_GROUP_MIN_PAIRS).clamp(1, 4 * threads)
}

/// Read `windows` in order into `values` (their total length), one row
/// per run of equal keys, in groups on the pool. Returns each group's
/// output offset and rows, or `None` if some run's key is not above the
/// previous run's.
fn row_pass(
    windows: &[&[(u32, u32)]],
    values: &mut [MaybeUninit<u32>],
) -> Option<Vec<(usize, Vec<Row>)>> {
    let n = values.len();
    let per_group = n.div_ceil(row_groups(n));
    let mut jobs = Vec::new();
    let (mut rest, mut first, mut at, mut filled) = (values, 0, 0, 0);
    for (i, w) in windows.iter().enumerate() {
        filled += w.len();
        if filled >= (jobs.len() + 1) * per_group || i + 1 == windows.len() {
            let (out, tail) = std::mem::take(&mut rest).split_at_mut(filled - at);
            jobs.push((at, &windows[first..=i], out));
            (rest, first, at) = (tail, i + 1, filled);
        }
    }
    assert_eq!(filled, n, "the windows tile the output");
    let found: Vec<Option<Vec<Row>>> = if jobs.len() > 1 {
        jobs.par_iter_mut()
            .map(|(at, windows, out)| group_rows(windows, out, *at))
            .collect()
    } else {
        jobs.iter_mut()
            .map(|(at, windows, out)| group_rows(windows, out, *at))
            .collect()
    };
    let mut last = None;
    let mut groups = Vec::with_capacity(jobs.len());
    for ((at, ..), rows) in jobs.iter().zip(found) {
        let rows = rows?;
        if let (Some(prev), Some(&(key, _))) = (last, rows.first()) {
            if key <= prev {
                return None;
            }
        }
        last = rows.last().map_or(last, |r| Some(r.0));
        groups.push((*at, rows));
    }
    Some(groups)
}

/// One group of a row pass: copy each run's values of `windows` into
/// `out` and sort them there. Row ends are offset by `at`, the group's
/// place in the whole output.
fn group_rows(
    windows: &[&[(u32, u32)]],
    out: &mut [MaybeUninit<u32>],
    at: usize,
) -> Option<Vec<Row>> {
    let mut rows: Vec<Row> = Vec::new();
    let mut end = 0;
    for w in windows {
        let mut i = 0;
        while i < w.len() {
            let key = w[i].0;
            if rows.last().is_some_and(|&(prev, _)| key <= prev) {
                return None;
            }
            let len = w[i..].iter().take_while(|p| p.0 == key).count();
            let dst = &mut out[end..end + len];
            for (slot, p) in dst.iter_mut().zip(&w[i..i + len]) {
                slot.write(p.1);
            }
            // SAFETY: every slot of `dst` was written just above.
            sort_run(unsafe { &mut *(dst as *mut [MaybeUninit<u32>] as *mut [u32]) });
            end += len;
            i += len;
            rows.push((key, at + end));
        }
    }
    Some(rows)
}

/// Sort `pairs` by `(key, value)` into `values` (their length), whatever
/// their order: one stable counting scatter over the key span
/// `[min, max]` puts each key's values in its run, then the runs are
/// sorted by [`sort_run`] in groups on the pool. Returns each group's
/// output offset and rows, as [`row_pass`] does. Takes O(n + span) time
/// and one `u32` per key of the span; keys are point ids, so the span is
/// at most the point count.
fn scatter_rows(pairs: &[(u32, u32)], values: &mut [MaybeUninit<u32>]) -> Vec<(usize, Vec<Row>)> {
    let n = values.len();
    assert!(n <= u32::MAX as usize, "run ends fit the u32 cursors");
    let (lo, hi) = pairs
        .iter()
        .fold((u32::MAX, 0), |(lo, hi), &(k, _)| (lo.min(k), hi.max(k)));
    // cursor[k - lo]: where key k's next value goes; after the scatter,
    // the end of its run.
    let mut cursor = vec![0u32; hi.saturating_sub(lo) as usize + 1];
    for &(k, _) in pairs {
        cursor[(k - lo) as usize] += 1;
    }
    let mut start = 0;
    for c in &mut cursor {
        (*c, start) = (start, start + *c);
    }
    for &(k, v) in pairs {
        let c = &mut cursor[(k - lo) as usize];
        values[*c as usize].write(v);
        *c += 1;
    }
    let per_group = n.div_ceil(row_groups(n));
    let mut jobs = Vec::new();
    let (mut rest, mut rows, mut at, mut last) = (values, Vec::new(), 0, 0);
    for (k, &end) in cursor.iter().enumerate() {
        let end = end as usize;
        if end > last {
            rows.push((lo + k as u32, end));
            if end >= (jobs.len() + 1) * per_group || end == n {
                let (out, tail) = std::mem::take(&mut rest).split_at_mut(end - at);
                jobs.push((at, std::mem::take(&mut rows), out));
                (rest, at) = (tail, end);
            }
            last = end;
        }
    }
    let sort_group = |(at, rows, out): &mut (usize, Vec<Row>, &mut [MaybeUninit<u32>])| {
        // SAFETY: the scatter wrote every slot of `out`.
        let out = unsafe { &mut *(*out as *mut [MaybeUninit<u32>] as *mut [u32]) };
        let mut start = *at;
        for &(_, end) in rows.iter() {
            sort_run(&mut out[start - *at..end - *at]);
            start = end;
        }
    };
    if jobs.len() > 1 {
        jobs.par_iter_mut().for_each(sort_group);
    } else {
        jobs.iter_mut().for_each(sort_group);
    }
    jobs.into_iter().map(|(at, rows, _)| (at, rows)).collect()
}

/// Device-side exclusive prefix scan, with a modeled duration.
pub fn exclusive_scan(device: &Device, values: &[u32]) -> (Vec<u32>, SimDuration) {
    let mut out = Vec::with_capacity(values.len());
    let mut acc = 0u32;
    for &v in values {
        out.push(acc);
        acc += v;
    }
    // Scan reads and writes each element once.
    let bytes = 2.0 * std::mem::size_of_val(values) as f64;
    let t = SimDuration::from_micros(10.0)
        + SimDuration::from_secs(bytes / (device.props().mem_bandwidth_gbps * 1e9));
    (out, t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sort_time_scales_with_input() {
        assert!(sort_by_key_time(10_000_000) > sort_by_key_time(10_000));
        // ~500M pairs/s: 500M pairs should take about a second.
        let t = sort_by_key_time(500_000_000);
        assert!((t.as_secs() - 1.0).abs() < 0.01);
    }

    #[test]
    fn exclusive_scan_correct() {
        let d = Device::k20c();
        let (scan, _) = exclusive_scan(&d, &[3, 1, 4, 1, 5]);
        assert_eq!(scan, vec![0, 3, 4, 8, 9]);
        let (empty, _) = exclusive_scan(&d, &[]);
        assert!(empty.is_empty());
    }

    // ---- the row pass -------------------------------------------------

    use crate::kernel::BlockCtx;
    use crate::launch::LaunchConfig;
    use parking_lot::Mutex;

    /// Values and `(key, range)` rows, rows ordered by key.
    type Rows = (Vec<u32>, Vec<(u32, Range<usize>)>);

    /// Deterministic pseudo-random stream (xorshift64).
    fn stream(seed: u64) -> impl FnMut() -> u64 {
        let mut x = seed | 1;
        move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }
    }

    /// What a comparison sort of the windows' pairs gives.
    fn expected(windows: &[Vec<(u32, u32)>]) -> Rows {
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

    /// Commit `windows[b]` as block `b` of one launch, in `order`, then run
    /// the row pass on a `threads` pool view. Also returns whether the
    /// pass read the windows in place (false: it took the scatter).
    fn row_pass_of(windows: &[Vec<(u32, u32)>], order: &[usize], threads: usize) -> (Rows, bool) {
        let d = Device::k20c();
        let n = windows.iter().map(Vec::len).sum();
        let mut buf = DeviceAppendBuffer::new(&d, n).unwrap();
        let cfg = LaunchConfig::new(windows.len() as u32, 32);
        for &b in order {
            let ctx = BlockCtx::new(&d, cfg, 0, b as u32);
            buf.commit_block(&ctx, &windows[b]).unwrap();
        }
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let mut values = vec![MaybeUninit::uninit(); n];
        let in_place = pool.install(|| row_pass(&buf.block_windows(), &mut values).is_some());
        let rows = Mutex::new(Vec::new());
        let t = pool.install(|| {
            sort_rows_into(&mut buf, &mut values, |key, range| {
                rows.lock().push((key, range))
            })
        });
        assert_eq!(t, sort_by_key_time(n));
        // SAFETY: the row pass writes every value.
        let values = values
            .into_iter()
            .map(|v| unsafe { v.assume_init() })
            .collect();
        let mut rows = rows.into_inner();
        rows.sort_by_key(|r| r.0);
        ((values, rows), in_place)
    }

    /// Assert that the row pass gives `expected(windows)` for forward,
    /// reversed and shuffled commits at 1, 2 and 4 threads, and whether
    /// it read the windows in place (`true`) or took the scatter.
    fn assert_row_pass(windows: &[Vec<(u32, u32)>], in_place: bool) {
        let want = expected(windows);
        let forward: Vec<usize> = (0..windows.len()).collect();
        let reversed: Vec<usize> = forward.iter().rev().copied().collect();
        let mut shuffled = forward.clone();
        let mut next = stream(0x5EED);
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, next() as usize % (i + 1));
        }
        for order in [&forward, &reversed, &shuffled] {
            for threads in [1, 2, 4] {
                let (got, read_in_place) = row_pass_of(windows, order, threads);
                assert!(got == want, "{threads} threads: rows differ from a sort");
                assert_eq!(read_in_place, in_place, "{threads} threads");
            }
        }
    }

    /// Rows `keys` with lengths from `len` and values from `value(key, i)`,
    /// cut into windows of `per_window` whole rows each.
    fn rows(
        keys: Range<u32>,
        per_window: usize,
        mut len: impl FnMut(u32) -> usize,
        mut value: impl FnMut(u32, usize) -> u32,
    ) -> Vec<Vec<(u32, u32)>> {
        let keys: Vec<u32> = keys.collect();
        keys.chunks(per_window)
            .map(|chunk| {
                chunk
                    .iter()
                    .flat_map(|&k| (0..len(k)).map(move |i| (k, i)).collect::<Vec<_>>())
                    .map(|(k, i)| (k, value(k, i)))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn row_pass_sorts_short_rows_in_place() {
        let mut next = stream(1);
        let windows = rows(
            0..600,
            7,
            |k| 1 + k as usize % 7,
            |k, _| k + (next() % 50) as u32,
        );
        // Distinct values: a short row takes the comparison sort.
        let windows: Vec<Vec<(u32, u32)>> = windows
            .into_iter()
            .map(|mut w| {
                w.sort_unstable();
                w.dedup();
                w.reverse();
                w.sort_by_key(|p| p.0);
                w
            })
            .collect();
        assert_row_pass(&windows, true);
    }

    #[test]
    fn row_pass_sorts_bitmap_and_wide_rows() {
        let mut next = stream(2);
        let mut windows = rows(
            0..400,
            5,
            |k| 8 + k as usize % 90,
            |k, i| {
                // Narrow rows, scrambled: the bitmap path.
                k * 3 + ((i as u64 * 7919 + next() % 3) % 300) as u32
            },
        );
        for w in &mut windows {
            w.sort_unstable();
            w.dedup();
            let mut scramble = stream(w.len() as u64);
            for i in (1..w.len()).rev() {
                let j = scramble() as usize % (i + 1);
                if w[i].0 == w[j].0 {
                    w.swap(i, j);
                }
            }
        }
        // A span over 64 × len, a span exactly at the 2^18-bit bound and
        // one just past it.
        let len = BITMAP_MAX_BITS / BITMAP_BITS_PER_ITEM;
        let at_bound = |k: u32, extra: u32| -> Vec<(u32, u32)> {
            let top = (BITMAP_MAX_BITS as u32 - 1) + extra;
            let mut row: Vec<(u32, u32)> =
                (0..len as u32 - 1).map(|i| (k, top - 1 - i * 7)).collect();
            row.push((k, 0));
            row.insert(len / 2, (k, top));
            row
        };
        windows.push((0..16).map(|i| (400, 5000 - i * 100)).collect());
        windows.push(at_bound(401, 0));
        windows.push(at_bound(402, 1));
        assert_row_pass(&windows, true);
    }

    #[test]
    fn row_pass_keeps_repeated_values_and_extreme_ids() {
        let windows = vec![
            // Repeated values: the popcount fallback.
            vec![
                (0, 9),
                (0, 3),
                (0, 9),
                (0, 5),
                (0, 3),
                (0, 4),
                (0, 8),
                (0, 7),
                (0, 6),
            ],
            // Values at 0 and near u32::MAX, in narrow and wide rows.
            (0..20).rev().map(|v| (1, v)).collect(),
            (0..20).map(|i| (2, u32::MAX - 2 * i)).collect(),
            vec![(3, u32::MAX), (3, 0), (3, u32::MAX - 1), (3, 1)],
            (0..12).map(|i| (u32::MAX, u32::MAX - i)).collect(),
        ];
        assert_row_pass(&windows, true);
    }

    #[test]
    fn row_pass_splits_large_result_sets_across_the_pool() {
        // Enough pairs for several groups at 2 and 4 threads.
        let mut next = stream(3);
        let windows = rows(
            0..12_000,
            40,
            |k| 8 + k as usize % 17,
            |k, i| k.saturating_sub(40) + ((i * 5) as u32 ^ (next() % 4) as u32),
        );
        let windows: Vec<Vec<(u32, u32)>> = windows
            .into_iter()
            .map(|mut w| {
                w.sort_unstable();
                w.dedup();
                w.sort_by_key(|p| (p.0, std::cmp::Reverse(p.1)));
                w
            })
            .collect();
        assert!(windows.iter().map(Vec::len).sum::<usize>() > 4 * ROW_GROUP_MIN_PAIRS);
        assert_row_pass(&windows, true);
    }

    #[test]
    fn row_pass_scatters_when_a_key_spans_two_windows() {
        let windows = vec![
            vec![(0, 1), (1, 4), (1, 2)],
            vec![(1, 3), (2, 0)],
            vec![(3, 3)],
        ];
        assert_row_pass(&windows, false);
        // A single-key result set.
        assert_row_pass(&[vec![(9, 8), (9, 1)], vec![(9, 3)]], false);
        // Equal windows of one group each, every boundary splitting a key:
        // at 2 and 4 threads only the group boundaries see the splits.
        let row = |k: u32| (0..10).rev().map(move |i| (k, k + i));
        let windows: Vec<Vec<(u32, u32)>> = (0..4u32)
            .map(|w| {
                let (lo, hi) = (4000 * w, 4000 * (w + 1));
                let mut window: Vec<(u32, u32)> = row(lo).skip(5).collect();
                window.extend((lo + 1..hi).flat_map(row));
                window.extend(row(hi).take(5));
                window
            })
            .collect();
        assert!(windows.iter().all(|w| w.len() > ROW_GROUP_MIN_PAIRS));
        assert_row_pass(&windows, false);
    }

    #[test]
    fn row_pass_scatters_when_keys_are_out_of_order() {
        // Within a window, as a block-per-cell kernel commits.
        assert_row_pass(&[vec![(2, 1), (0, 0), (1, 5), (0, 2)], vec![(3, 3)]], false);
        // Keys 0 and ~10^6 with nothing between: only non-empty keys of
        // the span become rows.
        let windows = vec![
            vec![(1_000_000, 5), (0, 9), (1_000_000, 2)],
            vec![(0, 1), (1_000_000, 7), (0, 4)],
        ];
        assert_row_pass(&windows, false);
        // Across windows: each window ascending, the windows descending,
        // in several groups at 2 and 4 threads.
        let windows = rows(
            0..12_000,
            40,
            |k| 8 + k as usize % 5,
            |k, i| k + 20 - i as u32,
        );
        let windows: Vec<Vec<(u32, u32)>> = windows.into_iter().rev().collect();
        assert_row_pass(&windows, false);
    }
}
