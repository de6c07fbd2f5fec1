//! The GPU kernels of Section IV, implemented against the `gpu-sim`
//! SIMT device. Every kernel is generic over the dimension `D`; the
//! paper's 2-D kernels are the `D = 2` instances.
//!
//! * [`GpuCalcGlobal`] — Algorithm 2: one thread per point, global memory
//!   only, with the strided batch assignment of Section VI baked into the
//!   gid→point mapping (Figure 2).
//! * [`GpuCalcShared`] — Algorithm 3: one block per non-empty grid cell
//!   (driven by the schedule `S`), origin/comparison cells paged through
//!   shared memory in block-size tiles with `__syncthreads()` barriers.
//! * [`NeighborCountKernel`] — the result-size estimation kernel of
//!   Section VI: counts (never materializes) the neighbors of a uniform
//!   sample of points.
//! * [`GpuCalcTree`] / [`TreeCountKernel`] — the same two roles over the
//!   packed kd-tree backend.
//!
//! All kernels emit key/value pairs `(k_j, v_j)` where `v_j ∈ N_ε(k_j)`
//! — the `atomic: gpuResultSet ∪ result` of the pseudo-code. Each block
//! stages its pairs locally and commits them to a [`DeviceAppendBuffer`]
//! with one cursor reservation (`BlockStage`); the buffer reads the
//! blocks back in block order, so a thread-per-point kernel's keys come
//! out ascending. Overflow is recorded in the buffer rather than corrupting
//! memory; the batching scheme's job is to make it never happen.
//!
//! **Host execution.** Every kernel, and CUDA-DClust's chain expansion,
//! finds hits with the one scan, `scan_members`: a cell's or leaf's
//! members are a contiguous run of the index-ordered coordinate mirror
//! ([`spatial::MemberStoreN`]), read in full-width [`SCAN_LANES`]-lane
//! chunks that yield a lane mask. Hits go through the one staging path,
//! `LaneBuf::push`: each chunk writes all of its lanes and advances by
//! the mask's popcount, without a branch per lane. Accounting is one path
//! too: `gpu_sim` only counts events, so each loop charges its totals
//! once per thread — the candidates of a range (`scan_events`), the
//! atomic and pair write of each staged hit (`BlockStage::charge`) —
//! instead of per chunk or per hit. The modeled events are exactly the
//! per-candidate and per-hit ones of the pseudo-code.

mod grid;
mod shared;
mod tree;

pub(crate) use grid::scan_stencil;
pub use grid::{GpuCalcGlobal, NeighborCountKernel};
pub use shared::GpuCalcShared;
pub use tree::{GpuCalcTree, TreeCountKernel};

use gpu_sim::cost::Counters;
use gpu_sim::kernel::{BlockCtx, ThreadCtx};
use gpu_sim::memory::DeviceAppendBuffer;
use spatial::{MembersViewN, SCAN_LANES};
use std::cell::Cell;
use std::ops::Range;

/// A result-set item: `key` is a point id, `value` a point id within ε of
/// it. Layout matches the 8-byte pairs the device sort operates on.
pub type NeighborPair = (u32, u32);

/// Number of points batch `batch` of `n_batches` processes in the strided
/// assignment of Section VI (batch `l` owns points `{g · n_b + l}`):
/// `ceil(|D| / n_b)` thread slots, minus slots whose strided id falls
/// past `|D|`. Every backend's thread-per-point kernel uses it, so the
/// batching scheme is backend-independent.
pub fn points_in_batch(n_points: usize, n_batches: usize, batch: usize) -> usize {
    debug_assert!(batch < n_batches);
    // gids g with g * n_batches + batch < n_points.
    n_points.saturating_sub(batch).div_ceil(n_batches)
}

/// Number of sample points the estimation kernels count for a database
/// of `n` at `stride` (thread `g` counts point `g · stride`).
pub fn sample_size(n: usize, stride: usize) -> usize {
    n.div_ceil(stride.max(1))
}

/// A growable buffer written a full [`SCAN_LANES`]-lane chunk at a time,
/// keeping the lanes of a mask: the branch-free stream compaction every
/// hit list goes through. The backing vector only grows, so a reused
/// buffer stops allocating once it has reached its largest size.
#[derive(Debug)]
pub(crate) struct LaneBuf<T> {
    buf: Vec<T>,
    len: usize,
}

impl<T: Copy + Default> LaneBuf<T> {
    pub(crate) const fn new() -> Self {
        LaneBuf {
            buf: Vec::new(),
            len: 0,
        }
    }

    /// The kept items.
    #[inline]
    pub(crate) fn as_slice(&self) -> &[T] {
        &self.buf[..self.len]
    }

    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub(crate) fn clear(&mut self) {
        self.len = 0;
    }

    /// Append `lane(j)` for every lane `j` set in `mask`, in lane order:
    /// all lanes are written and the length advances by the popcount.
    #[inline]
    pub(crate) fn push(&mut self, mask: u32, lane: impl Fn(usize) -> T) {
        if self.buf.len() < self.len + SCAN_LANES {
            let grown = (self.len + SCAN_LANES).max(2 * self.buf.len());
            self.buf.resize(grown, T::default());
        }
        let out = &mut self.buf[self.len..self.len + SCAN_LANES];
        let mut kept = 0;
        for j in 0..SCAN_LANES {
            // kept ≤ j < SCAN_LANES (a power of two), so the mask is a
            // no-op that lets the compiler drop the bounds check.
            out[kept & (SCAN_LANES - 1)] = lane(j);
            kept += (mask >> j & 1) as usize;
        }
        self.len += kept;
    }
}

thread_local! {
    /// This worker's block staging buffer. Every block the worker runs
    /// reuses its capacity, so staging allocates only while it grows.
    static BLOCK_STAGE: Cell<LaneBuf<NeighborPair>> = const { Cell::new(LaneBuf::new()) };
}

/// One block's result set, staged locally and committed to the device
/// buffer with one cursor reservation — the device idiom of a block-local
/// result set flushed by a single `atomicAdd`. Holds this worker's
/// staging buffer while the block runs and hands it back when dropped.
pub(crate) struct BlockStage(LaneBuf<NeighborPair>);

impl BlockStage {
    /// Take this worker's staging buffer, emptied. (Taken, not borrowed:
    /// a nested block on the same worker gets a fresh buffer.)
    pub(crate) fn take() -> Self {
        let mut pairs = BLOCK_STAGE.replace(LaneBuf::new());
        pairs.clear();
        BlockStage(pairs)
    }

    /// Number of pairs staged so far; a thread marks it before its scans
    /// and charges the difference.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }

    /// `atomic: gpuResultSet <- gpuResultSet ∪ result` for one chunk of
    /// point `key`'s scan: stage `(key, ids[j])` for every lane `j` set in
    /// `mask`.
    #[inline]
    pub(crate) fn push(&mut self, key: u32, ids: &[u32; SCAN_LANES], mask: u32) {
        self.0.push(mask, |j| (key, ids[j]));
    }

    /// Charge thread `t` for the pairs staged since `mark`: per hit, the
    /// device's result-set atomic and 8-byte pair write.
    #[inline]
    pub(crate) fn charge(&self, t: &mut ThreadCtx, mark: usize) {
        let hits = (self.len() - mark) as u64;
        t.charge_batch(Counters {
            atomics: hits,
            global_write_bytes: hits * std::mem::size_of::<NeighborPair>() as u64,
            ..Counters::default()
        });
    }

    /// Commit the staged pairs of block `ctx` to `result`. Overflow is
    /// recorded by the buffer; a real kernel cannot unwind, so neither do
    /// we.
    pub(crate) fn commit(self, ctx: &BlockCtx, result: &DeviceAppendBuffer<NeighborPair>) {
        let _ = result.commit_block(ctx, self.0.as_slice());
    }
}

impl Drop for BlockStage {
    fn drop(&mut self) {
        BLOCK_STAGE.set(std::mem::replace(&mut self.0, LaneBuf::new()));
    }
}

/// The modeled events of scanning `candidates` members from global
/// memory: per candidate, the `A[k]` id read, the `D` coordinate reads
/// and the `3D − 1` distance flops (5 in 2-D).
#[inline]
pub(crate) fn scan_events<const D: usize>(candidates: u64) -> Counters {
    Counters {
        flops: (3 * D as u64 - 1) * candidates,
        global_read_bytes: (std::mem::size_of::<u32>() + D * std::mem::size_of::<f64>()) as u64
            * candidates,
        ..Counters::default()
    }
}

/// The ε-neighborhood inner loop of every kernel: scan the members
/// `range` of `members` against `q` and hand each chunk's ids and hit
/// mask to `on_chunk`, in member order. Charges nothing — each caller
/// charges its own per-candidate events once from the range lengths.
///
/// The scan runs over full-width [`SCAN_LANES`]-lane chunks of the padded
/// member arrays and computes every axis of every lane, without a branch
/// on the data: lanes past `range.end` are masked off, so neither the
/// next run's members nor the padding can hit. Lane arithmetic
/// accumulates squares in axis order from zero (`0 + dx₀·dx₀` is
/// `dx₀·dx₀` exactly, a square never being `-0`), the exact rounding
/// sequence of [`spatial::PointN::distance_sq`], so hit decisions are
/// bit-identical to the scalar loop.
#[inline]
pub(crate) fn scan_members<const D: usize>(
    members: MembersViewN<'_, D>,
    range: Range<usize>,
    q: &[f64; D],
    eps_sq: f64,
    mut on_chunk: impl FnMut(&[u32; SCAN_LANES], u32),
) {
    let mut k = range.start;
    while k < range.end {
        let live = u32::MAX >> (32 - (range.end - k).min(SCAN_LANES));
        let lanes = k..k + SCAN_LANES;
        let mut d2 = [0.0f64; SCAN_LANES];
        for (col, &qk) in members.coords.iter().zip(q) {
            for (d, &x) in d2.iter_mut().zip(&col[lanes.clone()]) {
                let dx = qk - x;
                *d += dx * dx;
            }
        }
        let mut hits = 0;
        for (j, &d) in d2.iter().enumerate() {
            hits |= ((d <= eps_sq) as u32) << j;
        }
        let ids = members.ids[lanes].try_into().expect("a full chunk");
        on_chunk(ids, hits & live);
        k += SCAN_LANES;
    }
}

#[cfg(test)]
mod scan_tests;

#[cfg(test)]
pub(crate) mod test_support {
    use super::NeighborCountKernel;
    use gpu_sim::memory::DeviceCounter;
    use gpu_sim::Device;
    use spatial::{GridIndexN, MemberStoreN, Point2, PointN, PointStoreN};

    /// Size a result buffer the way the production pipeline does: run the
    /// Section VI estimation kernel (exact at stride 1) and add the same
    /// slack the tests always used — instead of O(n²) scratch.
    pub fn estimate_result_capacity<const D: usize>(
        device: &Device,
        store: &PointStoreN<D>,
        grid: &GridIndexN<D>,
        eps: f64,
    ) -> usize {
        let counter = DeviceCounter::new(device).unwrap();
        let members = MemberStoreN::gather(store.view(), grid.lookup());
        let kernel = NeighborCountKernel {
            points: store.view(),
            grid: grid.cells_view(),
            members: members.view(),
            geom: grid.geometry(),
            eps,
            stride: 1,
            counter: &counter,
        };
        device.launch(kernel.launch_config(256), &kernel).unwrap();
        counter.get() as usize + 64
    }

    /// A small mixed-density point set exercising multi-cell grids.
    pub fn mixed_points(n: usize) -> Vec<Point2> {
        (0..n)
            .map(|i| {
                let t = i as f64;
                if i % 3 == 0 {
                    // Clumped third.
                    Point2::new(
                        2.0 + (t * 0.618).fract() * 0.5,
                        2.0 + (t * 0.414).fract() * 0.5,
                    )
                } else {
                    // Spread remainder.
                    Point2::new((t * 0.777).fract() * 10.0, (t * 0.333).fract() * 10.0)
                }
            })
            .collect()
    }

    /// Deterministic pseudo-uniform points in `[0, extent)^D`.
    pub fn nd_points<const D: usize>(n: usize, extent: f64) -> Vec<PointN<D>> {
        (0..n)
            .map(|i| {
                let t = i as f64;
                PointN::from_coords(std::array::from_fn(|k| {
                    (t * (0.433 + 0.239 * k as f64)).fract() * extent
                }))
            })
            .collect()
    }

    /// All (key, value) neighbor pairs by brute force, sorted.
    pub fn brute_force_pairs<const D: usize>(data: &[PointN<D>], eps: f64) -> Vec<(u32, u32)> {
        let eps_sq = eps * eps;
        let mut out = Vec::new();
        for (i, p) in data.iter().enumerate() {
            for (j, q) in data.iter().enumerate() {
                if p.distance_sq(q) <= eps_sq {
                    out.push((i as u32, j as u32));
                }
            }
        }
        out.sort_unstable();
        out
    }
}
