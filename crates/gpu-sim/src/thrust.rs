//! Device-side primitives in the style of the CUDA Thrust library.
//!
//! Algorithm 4 of the paper leaves the kernel's result set on the GPU and
//! sorts it by key with `thrust::sort_by_key` so identical keys become
//! adjacent before the D2H transfer. We reproduce the *contract* (stable
//! grouping of keys, executed "on the device") and the *cost* (a modeled
//! device duration derived from radix-sort throughput); the functional
//! sort runs on the host pool.
//!
//! The functional sort first groups pairs by key — a no-op when the
//! kernel's blocks already drained in key order, a counting pass for
//! dense keys, LSD radix passes otherwise — and then sorts each equal-key
//! value run. A run is one neighbor row: distinct point ids within a
//! narrow span (a few times the row length). Such a run is sorted through
//! a bitmap over `[min, max]`: set one bit per value, check by popcount
//! that no value repeated, and read the bits back in ascending order, in
//! O(len + span / 64) instead of a comparison sort's O(len · log len).
//! Runs that are short, wide, or hold repeated values take the comparison
//! sort. Both give the unique `(key, value)` order, so the output does not
//! depend on which path ran.

use crate::device::Device;
use crate::time::SimDuration;
use rayon::prelude::*;

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
    // Presorted-key regime: the append buffer drains block commits in
    // block order, so a thread-per-point kernel's keys arrive
    // non-decreasing at every host thread count — only the values inside
    // each equal-key run need ordering. One O(n) check buys skipping the
    // grouping passes entirely; block-per-cell output fails the check and
    // the generic paths below produce the identical total order.
    if pairs.is_sorted_by_key(|&(k, _)| k) {
        if parallel {
            sort_value_runs_parallel(pairs);
        } else {
            sort_value_runs(pairs);
        }
        return;
    }
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

/// Parallel variant of [`sort_value_runs`]: discover run boundaries with
/// one serial scan (cheap, branch-predictable), then sort the disjoint
/// runs on the pool. Each run's sort is a pure function of its contents.
fn sort_value_runs_parallel(pairs: &mut [(u32, u32)]) {
    let n = pairs.len();
    let mut runs: Vec<(u32, u32)> = Vec::new();
    let mut i = 0usize;
    while i < n {
        let key = pairs[i].0;
        let start = i;
        while i < n && pairs[i].0 == key {
            i += 1;
        }
        if i - start > 1 {
            runs.push((start as u32, i as u32));
        }
    }
    let base = ScatterPtr(pairs.as_mut_ptr());
    runs.par_iter().for_each(|&(s, e)| {
        // SAFETY: runs are disjoint subslices.
        let run =
            unsafe { std::slice::from_raw_parts_mut(base.get().add(s as usize), (e - s) as usize) };
        sort_run(run);
    });
}

/// Sort each equal-key run by value, in place. Requires keys already
/// non-decreasing; yields the `(key, value)` lexicographic total order.
fn sort_value_runs(pairs: &mut [(u32, u32)]) {
    let mut i = 0usize;
    while i < pairs.len() {
        let key = pairs[i].0;
        let mut j = i + 1;
        while j < pairs.len() && pairs[j].0 == key {
            j += 1;
        }
        sort_run(&mut pairs[i..j]);
        i = j;
    }
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

/// An item of an equal-key run: a bare value, or a pair whose key is the
/// same across the run. Its `Ord` is then the order of its value.
trait RunItem: Copy + Ord {
    fn value(self) -> u32;
    fn with_value(self, v: u32) -> Self;
}

impl RunItem for u32 {
    fn value(self) -> u32 {
        self
    }
    fn with_value(self, v: u32) -> Self {
        v
    }
}

impl RunItem for (u32, u32) {
    fn value(self) -> u32 {
        self.1
    }
    fn with_value(self, v: u32) -> Self {
        (self.0, v)
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

/// Sort one equal-key run by value, in place.
///
/// Neighbor rows hold distinct values (point ids) over a narrow span, so
/// a run whose span fits the bitmap bounds sets one bit per value over
/// `[min, max]` and reads the bits back in ascending order, in
/// O(len + span / 64). When the bitmap's popcount is short of the run
/// length, values repeat and the bitmap cannot hold them; that run, and a
/// run too wide or too short, takes the comparison sort. Every path yields
/// the same, unique ascending order.
fn sort_run<T: RunItem>(run: &mut [T]) {
    let n = run.len();
    if n < BITMAP_MIN_RUN {
        run.sort_unstable();
        return;
    }
    let (lo, hi) = run.iter().fold((u32::MAX, 0), |(lo, hi), x| {
        (lo.min(x.value()), hi.max(x.value()))
    });
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
        for x in run.iter() {
            let off = (x.value() - lo) as usize;
            bits[off / 64] |= 1 << (off % 64);
        }
        let distinct: usize = bits.iter().map(|w| w.count_ones() as usize).sum();
        if distinct < n {
            bits.fill(0);
            run.sort_unstable();
            return;
        }
        let template = run[0];
        let mut out = 0;
        for (i, word) in bits.iter_mut().enumerate() {
            let mut w = std::mem::take(word);
            while w != 0 {
                let v = lo + (i * 64) as u32 + w.trailing_zeros();
                run[out] = template.with_value(v);
                out += 1;
                w &= w - 1;
            }
        }
    });
}

/// Device-side reduction (sum) of a `u64` array, with a modeled duration.
/// Like [`sort_by_key`], the functional work runs on the host pool
/// without holding the `compute_lock` — engine serialization is a
/// property of the modeled timeline, not of host execution.
pub fn reduce_sum(device: &Device, values: &[u64]) -> (u64, SimDuration) {
    let sum = values.par_iter().sum();
    // Reduction is bandwidth-bound: one read pass.
    let bytes = std::mem::size_of_val(values) as f64;
    let t = SimDuration::from_micros(10.0)
        + SimDuration::from_secs(bytes / (device.props().mem_bandwidth_gbps * 1e9));
    (sum, t)
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
        // The fast path: keys already non-decreasing (as a
        // block-sequential kernel appends them), values scrambled within
        // runs. Large enough to clear RADIX_MIN_PAIRS.
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
    fn reduce_sum_correct() {
        let d = Device::k20c();
        let values: Vec<u64> = (1..=1000).collect();
        let (sum, t) = reduce_sum(&d, &values);
        assert_eq!(sum, 500_500);
        assert!(t > SimDuration::ZERO);
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
}
