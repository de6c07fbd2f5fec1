//! Device-side primitives in the style of the CUDA Thrust library.
//!
//! Algorithm 4 of the paper leaves the kernel's result set on the GPU and
//! sorts it by key with `thrust::sort_by_key` so identical keys become
//! adjacent before the D2H transfer. We reproduce the *contract* (the
//! unique `(key, value)` order, executed "on the device") and the *cost*
//! (a modeled device duration derived from radix-sort throughput); the
//! functional sort runs on the host pool.
//!
//! [`sort_by_key`] sorts pairs in place: a counting pass groups dense
//! keys, LSD radix passes sort the rest. [`sort_rows_into`] is the batch
//! tail of the pipeline: it sorts a result buffer by key and moves the
//! values into the neighbor table in one pass over its rows. A
//! thread-per-point kernel's blocks commit whole rows with ascending keys,
//! so that pass reads the block windows where they lie; other output is
//! sorted in place first.
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

/// Sort `(key, value)` pairs by key on the device, returning the modeled
/// device duration.
///
/// Ordering is total (`(key, value)` lexicographic): a total order has
/// exactly one sorted arrangement, so *any* correct sort of the same
/// pair set produces the same output — whichever kernel or backend
/// emitted it, in whatever order its blocks committed. This is the
/// canonicalization step the threading determinism policy (DESIGN.md)
/// requires before a result set becomes a table. The functional sort
/// here is an LSD radix sort over the packed
/// `(key << 32) | value` u64 — the same algorithm Thrust's `sort_by_key`
/// actually runs, and several times faster on the host than a
/// comparison sort because the pair comparator never executes.
///
/// The host-side sort does **not** hold the device `compute_lock`: its
/// modeled Compute-engine serialization is enforced where it belongs, on
/// the `schedule_chains` timeline ("sort" ops occupy `Engine::Compute`),
/// while the functional sort parallelizes freely on the pool so one
/// stream's sort can overlap another stream's kernel wall-clock.
pub fn sort_by_key(_device: &Device, pairs: &mut [(u32, u32)]) -> SimDuration {
    radix_sort_pairs(pairs);
    sort_by_key_time(pairs.len())
}

/// Number of pairs below which the std comparison sort beats the radix
/// passes' fixed costs (two scratch arrays, four 64 Ki histograms).
const RADIX_MIN_PAIRS: usize = 1 << 12;
/// Number of pairs below which the parallel scatter machinery (per-chunk
/// histograms, offset matrix, pool dispatch) costs more than it saves.
/// Below it the serial paths run — the output is identical either way
/// (total order ⇒ every correct sort is bitwise-canonical).
const RADIX_PAR_MIN_PAIRS: usize = 1 << 16;

/// LSD radix sort of `(u32, u32)` pairs in `(key, value)` lexicographic
/// order: pack each pair into `(key << 32) | value` (u64 order ≡ pair
/// order), then four stable counting passes over 16-bit digits, least
/// significant first. A pass whose digit is constant across the input is
/// detected from its histogram and skipped — result-set keys/values
/// rarely fill all 32 bits, so small inputs usually run 2 of 4 passes.
fn radix_sort_pairs(pairs: &mut [(u32, u32)]) {
    let n = pairs.len();
    if n < RADIX_MIN_PAIRS {
        pairs.sort_unstable();
        return;
    }
    let parallel = n >= RADIX_PAR_MIN_PAIRS && rayon::current_num_threads() > 1;
    // Dense-key regime (result sets: keys are point ids, so
    // max_key < |D| ≲ n): one stable counting pass groups the keys, then
    // each key's value run sorts locally — O(n + Σ r·log r) with
    // cache-resident run sorts, beating full-width radix passes.
    let max_key = pairs.iter().map(|&(k, _)| k).max().unwrap_or(0) as usize;
    if max_key < 4 * n {
        if parallel {
            par_counting_sort_by_key(pairs, max_key + 1);
        } else {
            counting_sort_by_key(pairs, max_key + 1);
        }
        return;
    }
    if parallel {
        par_radix_sort_u64(pairs);
        return;
    }
    let mut src: Vec<u64> = pairs
        .iter()
        .map(|&(k, v)| (u64::from(k) << 32) | u64::from(v))
        .collect();
    let mut dst: Vec<u64> = vec![0u64; n];
    for pass in 0..4 {
        let shift = pass * 16;
        let mut hist = vec![0u32; 1 << 16];
        for &x in &src {
            hist[((x >> shift) & 0xFFFF) as usize] += 1;
        }
        // Constant digit ⇒ the scatter would be the identity permutation.
        if hist[((src[0] >> shift) & 0xFFFF) as usize] as usize == n {
            continue;
        }
        let mut offset = 0u32;
        for h in hist.iter_mut() {
            let count = *h;
            *h = offset;
            offset += count;
        }
        for &x in &src {
            let d = ((x >> shift) & 0xFFFF) as usize;
            dst[hist[d] as usize] = x;
            hist[d] += 1;
        }
        std::mem::swap(&mut src, &mut dst);
    }
    for (p, &x) in pairs.iter_mut().zip(&src) {
        *p = ((x >> 32) as u32, x as u32);
    }
}

/// Shared mutable base pointer for parallel scatters whose destination
/// indices are proven disjoint across chunks by the offset construction.
#[derive(Clone, Copy)]
struct ScatterPtr<T>(*mut T);
// SAFETY: every parallel writer targets indices carved out for it alone
// (digit-major, chunk-minor offset windows / disjoint key runs).
unsafe impl<T: Send> Send for ScatterPtr<T> {}
unsafe impl<T: Send> Sync for ScatterPtr<T> {}

impl<T> ScatterPtr<T> {
    fn get(self) -> *mut T {
        self.0
    }
}

/// Source chunk count for the parallel passes. The output is invariant
/// to this value — the stable scatter with chunk-major offsets
/// reproduces exactly the serial left-to-right order — so it may track
/// the thread count without breaking bitwise thread-equivalence.
fn par_sort_chunks(n: usize) -> usize {
    (2 * rayon::current_num_threads())
        .min(n.div_ceil(1 << 15))
        .clamp(1, 64)
}

/// Per-chunk digit histograms: `hists[c][d]` = occurrences of digit `d`
/// in source chunk `c`. Each chunk's histogram is a pure function of its
/// slice, so the parallel map is deterministic.
fn par_digit_histograms<T, D>(
    src: &[T],
    n_chunks: usize,
    n_digits: usize,
    digit: &D,
) -> Vec<Vec<u32>>
where
    T: Sync,
    D: Fn(&T) -> usize + Sync,
{
    let n = src.len();
    let chunk_len = n.div_ceil(n_chunks);
    (0..n_chunks)
        .into_par_iter()
        .map(|c| {
            let lo = c * chunk_len;
            let hi = (lo + chunk_len).min(n);
            let mut hist = vec![0u32; n_digits];
            for x in &src[lo..hi] {
                hist[digit(x)] += 1;
            }
            hist
        })
        .collect()
}

/// Turn per-chunk histograms into per-chunk scatter cursors, in place:
/// `hists[c][d]` becomes the destination index of chunk `c`'s first
/// element with digit `d`. Digit-major, chunk-minor — precisely the
/// order a serial stable counting pass emits, so the parallel scatter is
/// a bit-exact reproduction of it. Returns the exclusive digit starts
/// (`starts[d]..starts[d+1]` = digit `d`'s run).
fn offsets_in_place(hists: &mut [Vec<u32>], n_digits: usize) -> Vec<u32> {
    let mut starts = Vec::with_capacity(n_digits + 1);
    let mut total = 0u32;
    for d in 0..n_digits {
        starts.push(total);
        for hist in hists.iter_mut() {
            let count = hist[d];
            hist[d] = total;
            total += count;
        }
    }
    starts.push(total);
    starts
}

/// One parallel stable counting pass: scatter `src` into `dst` ordered by
/// `digit`, stable within equal digits. Chunks write disjoint destination
/// windows (see [`offsets_in_place`]) so the pass is race-free and
/// byte-identical to the serial scatter.
fn par_stable_scatter<T, D>(src: &[T], dst: &mut [T], offsets: &mut [Vec<u32>], digit: &D)
where
    T: Copy + Send + Sync,
    D: Fn(&T) -> usize + Sync,
{
    let n = src.len();
    let n_chunks = offsets.len();
    let chunk_len = n.div_ceil(n_chunks);
    let base = ScatterPtr(dst.as_mut_ptr());
    offsets.par_iter_mut().enumerate().for_each(|(c, cursor)| {
        let lo = c * chunk_len;
        let hi = (lo + chunk_len).min(n);
        for x in &src[lo..hi] {
            let d = digit(x);
            // SAFETY: cursor[d] walks this chunk's private window for
            // digit d; windows are disjoint across (chunk, digit).
            unsafe { base.get().add(cursor[d] as usize).write(*x) };
            cursor[d] += 1;
        }
    });
}

/// Parallel LSD radix sort over the packed `(key << 32) | value` u64:
/// four 16-bit passes, each a per-chunk-histogram-partitioned stable
/// scatter, with the serial path's constant-digit skip. Produces the
/// unique `(key, value)` total order — bit-identical to the serial sort.
fn par_radix_sort_u64(pairs: &mut [(u32, u32)]) {
    let n = pairs.len();
    let n_chunks = par_sort_chunks(n);
    let mut src: Vec<u64> = pairs
        .par_iter()
        .map(|&(k, v)| (u64::from(k) << 32) | u64::from(v))
        .collect();
    let mut dst: Vec<u64> = vec![0u64; n];
    for pass in 0..4 {
        let shift = pass * 16;
        let digit = |x: &u64| ((x >> shift) & 0xFFFF) as usize;
        let mut hists = par_digit_histograms(&src, n_chunks, 1 << 16, &digit);
        // Constant digit ⇒ the scatter would be the identity permutation.
        let d0 = digit(&src[0]);
        let d0_total: u32 = hists.iter().map(|h| h[d0]).sum();
        if d0_total as usize == n {
            continue;
        }
        offsets_in_place(&mut hists, 1 << 16);
        par_stable_scatter(&src, &mut dst, &mut hists, &digit);
        std::mem::swap(&mut src, &mut dst);
    }
    let base = ScatterPtr(pairs.as_mut_ptr());
    let chunk_len = n.div_ceil(n_chunks);
    (0..n_chunks).into_par_iter().for_each(|c| {
        let lo = c * chunk_len;
        let hi = (lo + chunk_len).min(n);
        for (i, &x) in src[lo..hi].iter().enumerate() {
            // SAFETY: chunks unpack disjoint index ranges.
            unsafe { base.get().add(lo + i).write(((x >> 32) as u32, x as u32)) };
        }
    });
}

/// Parallel counting sort on the key: a histogram-partitioned stable
/// scatter of the values into per-key runs, parallel in-run value sorts
/// (runs are disjoint), and a parallel key write-back over disjoint run
/// ranges. Same structure — and bit-identical output — as the serial
/// [`counting_sort_by_key`].
fn par_counting_sort_by_key(pairs: &mut [(u32, u32)], n_keys: usize) {
    let n = pairs.len();
    let n_chunks = par_sort_chunks(n)
        // Keep the per-chunk histograms (n_chunks × n_keys u32) bounded
        // by the input's own footprint.
        .min((2 * n).div_ceil(n_keys))
        .max(1);
    if n_chunks < 2 {
        counting_sort_by_key(pairs, n_keys);
        return;
    }
    let digit = |p: &(u32, u32)| p.0 as usize;
    let mut hists = par_digit_histograms(pairs, n_chunks, n_keys, &digit);
    let starts = offsets_in_place(&mut hists, n_keys);

    // Stable scatter of the values into their key runs.
    let mut values = vec![0u32; n];
    {
        let base = ScatterPtr(values.as_mut_ptr());
        let chunk_len = n.div_ceil(n_chunks);
        hists.par_iter_mut().enumerate().for_each(|(c, cursor)| {
            let lo = c * chunk_len;
            let hi = (lo + chunk_len).min(n);
            for &(k, v) in &pairs[lo..hi] {
                // SAFETY: disjoint (chunk, key) windows, as above.
                unsafe { base.get().add(cursor[k as usize] as usize).write(v) };
                cursor[k as usize] += 1;
            }
        });
    }

    // Sort each key's value run and write the keys back; key ranges are
    // chunked so both loops touch disjoint regions of `values`/`pairs`.
    let key_chunks = (8 * rayon::current_num_threads()).clamp(1, 256);
    let keys_per_chunk = n_keys.div_ceil(key_chunks);
    let vals = ScatterPtr(values.as_mut_ptr());
    let out = ScatterPtr(pairs.as_mut_ptr());
    (0..key_chunks).into_par_iter().for_each(|kc| {
        let k_lo = kc * keys_per_chunk;
        let k_hi = (k_lo + keys_per_chunk).min(n_keys);
        for k in k_lo..k_hi {
            let (s, e) = (starts[k] as usize, starts[k + 1] as usize);
            if e == s {
                continue;
            }
            // SAFETY: key runs are disjoint slices of `values`, and the
            // write-back covers the same disjoint range of `pairs`.
            let run = unsafe { std::slice::from_raw_parts_mut(vals.get().add(s), e - s) };
            sort_run(run);
            for (i, &v) in run.iter().enumerate() {
                unsafe { out.get().add(s + i).write((k as u32, v)) };
            }
        }
    });
}

/// Counting sort on the key (one stable scatter of the values into
/// per-key runs), then an in-place [`sort_run`] of each run. Requires
/// keys in `0..n_keys`.
fn counting_sort_by_key(pairs: &mut [(u32, u32)], n_keys: usize) {
    let n = pairs.len();
    // ends[k] = cursor for key k during the scatter; afterwards the
    // exclusive end of k's run.
    let mut ends = vec![0u32; n_keys + 1];
    for &(k, _) in pairs.iter() {
        ends[k as usize + 1] += 1;
    }
    for k in 0..n_keys {
        ends[k + 1] += ends[k];
    }
    let mut values = vec![0u32; n];
    for &(k, v) in pairs.iter() {
        let slot = ends[k as usize];
        values[slot as usize] = v;
        ends[k as usize] = slot + 1;
    }
    let mut rest: &mut [u32] = &mut values;
    let mut consumed = 0usize;
    for &end in ends.iter().take(n_keys) {
        let end = end as usize;
        let (run, tail) = std::mem::take(&mut rest).split_at_mut(end - consumed);
        sort_run(run);
        rest = tail;
        consumed = end;
    }
    let mut i = 0usize;
    for (k, &end) in ends.iter().take(n_keys).enumerate() {
        let end = end as usize;
        while i < end {
            pairs[i] = (k as u32, values[i]);
            i += 1;
        }
    }
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
/// that of a [`sort_by_key`] over the same pairs.
///
/// A thread-per-point kernel commits whole rows per block, with keys
/// ascending in launch and block order. Such output is read where it
/// lies, window by window: each run of equal keys is one row, whose
/// values the bitmap run sort (see the module docs) sorts straight into
/// `values`. If some run's key is not above the previous run's — a
/// block-per-cell kernel's output, or a key split across two windows —
/// the pairs are first sorted in place by [`sort_by_key`]'s sort and then
/// read the same way. A total order has one sorted arrangement, so both
/// give the same bytes.
///
/// A large result set is cut into contiguous groups of windows that run
/// on the pool, each writing at the prefix sum of the window lengths
/// before it; the bytes do not depend on the cut. `row` is called only
/// once every group has read back with ascending keys, so it sees each
/// key once.
pub fn sort_rows_into(
    result: &mut DeviceAppendBuffer<(u32, u32)>,
    values: &mut [MaybeUninit<u32>],
    row: impl Fn(u32, Range<usize>) + Sync,
) -> SimDuration {
    let n = result.len();
    assert_eq!(values.len(), n, "one value slot per committed pair");
    let mut groups = row_pass(&result.block_windows(), values);
    if groups.is_none() {
        let pairs = result.as_filled_mut_slice();
        radix_sort_pairs(pairs);
        groups = row_pass(&cut_at_keys(pairs, row_groups(n)), values);
    }
    let groups = groups.expect("sorted pairs hold one run per key");
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

/// Number of groups a row pass over `n` pairs cuts its windows into.
fn row_groups(n: usize) -> usize {
    let threads = rayon::current_num_threads();
    if threads < 2 {
        return 1;
    }
    (n / ROW_GROUP_MIN_PAIRS).clamp(1, 4 * threads)
}

/// Cut key-sorted `pairs` into about `pieces` windows, each ending where
/// the key changes.
fn cut_at_keys(pairs: &[(u32, u32)], pieces: usize) -> Vec<&[(u32, u32)]> {
    let step = pairs.len().div_ceil(pieces).max(1);
    let mut windows = Vec::with_capacity(pieces);
    let mut rest = pairs;
    while !rest.is_empty() {
        let mut at = step.min(rest.len());
        while at < rest.len() && rest[at].0 == rest[at - 1].0 {
            at += 1;
        }
        let (head, tail) = rest.split_at(at);
        windows.push(head);
        rest = tail;
    }
    windows
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
    fn radix_sort_matches_comparison_sort() {
        // Pseudo-random pairs exercising all four digit passes, plus a
        // small-key regime where the upper passes are constant and skipped.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut step = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for (n, mask) in [
            (100_000usize, u64::MAX),
            (100_000, 0x0000_FFFF_0000_FFFF),
            (5000, 0x0000_0FFF_0000_0FFF),
            (100, u64::MAX), // below RADIX_MIN_PAIRS: std-sort path
            (0, u64::MAX),
        ] {
            let mut pairs: Vec<(u32, u32)> = (0..n)
                .map(|_| {
                    let r = step() & mask;
                    ((r >> 32) as u32, r as u32)
                })
                .collect();
            let mut expect = pairs.clone();
            expect.sort_unstable();
            radix_sort_pairs(&mut pairs);
            assert_eq!(pairs, expect, "n = {n}, mask = {mask:#x}");
        }
    }

    #[test]
    fn presorted_keys_with_shuffled_values_match_comparison_sort() {
        // Keys already non-decreasing (as a block-sequential kernel
        // appends them), values scrambled within runs. Large enough to
        // clear RADIX_MIN_PAIRS.
        let mut x = 0xDEAD_BEEF_CAFE_F00Du64;
        let mut step = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let n = 50_000usize;
        let mut pairs: Vec<(u32, u32)> = (0..n).map(|i| ((i / 13) as u32, step() as u32)).collect();
        let mut expect = pairs.clone();
        expect.sort_unstable();
        radix_sort_pairs(&mut pairs);
        assert_eq!(pairs, expect);
    }

    #[test]
    fn sort_groups_identical_keys() {
        let d = Device::k20c();
        let mut pairs = vec![(3, 1), (1, 9), (3, 0), (2, 5), (1, 2), (3, 7)];
        let t = sort_by_key(&d, &mut pairs);
        assert!(t > SimDuration::ZERO);
        assert_eq!(pairs, vec![(1, 2), (1, 9), (2, 5), (3, 0), (3, 1), (3, 7)]);
        // Keys are grouped (the property neighbor-table construction needs).
        for w in pairs.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
    }

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

    #[test]
    fn large_parallel_sort_is_correct() {
        let d = Device::k20c();
        let n = 100_000u32;
        let mut pairs: Vec<(u32, u32)> = (0..n)
            .map(|i| ((i.wrapping_mul(2654435761)) % 1000, i))
            .collect();
        sort_by_key(&d, &mut pairs);
        for w in pairs.windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert_eq!(pairs.len(), n as usize);
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
    /// pass left the buffer as committed (false: it sorted it first).
    fn row_pass_of(windows: &[Vec<(u32, u32)>], order: &[usize], threads: usize) -> (Rows, bool) {
        let d = Device::k20c();
        let n = windows.iter().map(Vec::len).sum();
        let mut buf = DeviceAppendBuffer::new(&d, n).unwrap();
        let cfg = LaunchConfig::new(windows.len() as u32, 32);
        for &b in order {
            let ctx = BlockCtx::new(&d, cfg, 0, b as u32);
            buf.commit_block(&ctx, &windows[b]).unwrap();
        }
        let committed = buf.as_filled_slice().to_vec();
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let mut values = vec![MaybeUninit::uninit(); n];
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
        let in_place = buf.as_filled_slice() == committed.as_slice();
        ((values, rows), in_place)
    }

    /// Assert that the row pass gives `expected(windows)` for forward,
    /// reversed and shuffled commits at 1, 2 and 4 threads, and whether
    /// it read the windows in place (`true`) or sorted them first.
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
    fn row_pass_sorts_first_when_a_key_spans_two_windows() {
        let windows = vec![
            vec![(0, 1), (1, 4), (1, 2)],
            vec![(1, 3), (2, 0)],
            vec![(3, 3)],
        ];
        assert_row_pass(&windows, false);
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
    fn row_pass_sorts_first_when_keys_are_out_of_order() {
        // Within a window, as a block-per-cell kernel commits.
        assert_row_pass(&[vec![(2, 1), (0, 0), (1, 5), (0, 2)], vec![(3, 3)]], false);
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
