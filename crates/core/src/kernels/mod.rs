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
//! with one cursor reservation ([`BlockStage`]); the buffer drains the
//! blocks in block order, so a thread-per-point kernel's keys come out
//! ascending. Overflow is recorded in the buffer rather than corrupting
//! memory; the batching scheme's job is to make it never happen.
//!

mod grid;
mod shared;
mod tree;

pub(crate) use grid::scan_stencil;
pub use grid::{GpuCalcGlobal, NeighborCountKernel};
pub use shared::GpuCalcShared;
pub use tree::{GpuCalcTree, TreeCountKernel};

use gpu_sim::kernel::{BlockCtx, ChargeBatch, ThreadCtx};
use gpu_sim::memory::DeviceAppendBuffer;
use spatial::PointsViewN;
use std::cell::Cell;

/// A result-set item: `key` is a point id, `value` a point id within ε of
/// it. Layout matches the 8-byte pairs the device sort operates on.
pub type NeighborPair = (u32, u32);

/// Chunk width of the ε-neighborhood inner loop. Eight f64 lanes are one
/// cache line per coordinate array and small enough for the autovectorizer
/// to keep the whole distance computation in SIMD registers.
pub(crate) const SCAN_LANES: usize = 8;

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

thread_local! {
    /// This worker's block staging buffer. Every block the worker runs
    /// reuses its capacity, so staging allocates only while it grows.
    static BLOCK_STAGE: Cell<Vec<NeighborPair>> = const { Cell::new(Vec::new()) };
}

/// One block's result set, staged locally and committed to the device
/// buffer with one cursor reservation — the device idiom of a block-local
/// result set flushed by a single `atomicAdd`. Holds this worker's
/// staging buffer while the block runs and hands it back when dropped.
pub(crate) struct BlockStage(Vec<NeighborPair>);

impl BlockStage {
    /// Take this worker's staging buffer, emptied. (Taken, not borrowed:
    /// a nested block on the same worker gets a fresh buffer.)
    pub(crate) fn take() -> Self {
        let mut pairs = BLOCK_STAGE.take();
        pairs.clear();
        BlockStage(pairs)
    }

    /// `atomic: gpuResultSet <- gpuResultSet ∪ result` for one chunk of
    /// point `pi`'s hits: charged per hit (batched: exact integer costs,
    /// the device's per-hit atomic and pair write) and staged for the
    /// block's commit.
    #[inline]
    pub(crate) fn hits(&mut self, t: &mut ThreadCtx, pi: usize, hits: &[u32]) {
        let mut charge = ChargeBatch {
            atomics: hits.len() as u64,
            ..ChargeBatch::default()
        };
        charge.write_global::<NeighborPair>(hits.len() as u64);
        t.charge_batch(charge);
        self.0.extend(hits.iter().map(|&cand| (pi as u32, cand)));
    }

    /// Commit the staged pairs of block `ctx` to `result`. Overflow is
    /// recorded by the buffer; a real kernel cannot unwind, so neither do
    /// we.
    pub(crate) fn commit(self, ctx: &BlockCtx, result: &DeviceAppendBuffer<NeighborPair>) {
        let _ = result.commit_block(ctx, &self.0);
    }
}

impl Drop for BlockStage {
    fn drop(&mut self) {
        BLOCK_STAGE.set(std::mem::take(&mut self.0));
    }
}

/// The shared ε-neighborhood inner loop of the grid and tree kernels:
/// scan the candidate ids `ids` and invoke `on_hits` once per chunk with
/// the candidates within the closed ε-ball around `q`, in id-list order
/// (so callers can append and account hits in bulk).
///
/// The scan runs chunk-wise over [`SCAN_LANES`]-wide lanes of the SoA
/// coordinate arrays:
///
/// * axis 0 is computed first for the whole chunk and the remaining axes
///   are skipped when every lane already has `fl(dx₀²) > ε²` — safe
///   because f64 rounding is monotone and each added square is
///   non-negative, so no such lane can be a hit;
/// * lane arithmetic accumulates squares in axis order, the exact
///   rounding sequence of [`spatial::PointN::distance_sq`], so hit
///   decisions are bit-identical to the scalar loop;
/// * `gpu_sim` accounting is charged once per chunk via [`ChargeBatch`]
///   (per candidate: the `A[k]` id read, the `D` coordinate reads, and
///   `3D − 1` distance flops — 5 in 2-D), which the cost model guarantees
///   is bitwise identical to per-element charging.
#[inline]
pub(crate) fn scan_ids<const D: usize>(
    t: &mut ThreadCtx,
    points: PointsViewN<'_, D>,
    ids: &[u32],
    q: &[f64; D],
    eps_sq: f64,
    mut on_hits: impl FnMut(&mut ThreadCtx, &[u32]),
) {
    let mut k = 0usize;
    let end = ids.len();
    while k < end {
        let c = (end - k).min(SCAN_LANES);
        let mut batch = ChargeBatch {
            flops: (3 * D as u64 - 1) * c as u64,
            ..ChargeBatch::default()
        };
        batch.read_global::<u32>(c as u64);
        batch.read_global::<f64>((D * c) as u64);
        t.charge_batch(batch);

        let chunk = &ids[k..k + c];
        let mut d2 = [0.0f64; SCAN_LANES];
        let mut all_far = true;
        for (j, &id) in chunk.iter().enumerate() {
            let dx = q[0] - points.coords[0][id as usize];
            d2[j] = dx * dx;
            all_far &= d2[j] > eps_sq;
        }
        if !all_far {
            // Axis-major lane loop mirroring the SoA layout; `q` and
            // `coords` are indexed by the same axis on purpose.
            #[allow(clippy::needless_range_loop)]
            for axis in 1..D {
                for (j, &id) in chunk.iter().enumerate() {
                    let dx = q[axis] - points.coords[axis][id as usize];
                    d2[j] += dx * dx;
                }
            }
            let mut hits = [0u32; SCAN_LANES];
            let mut h = 0;
            for (j, &id) in chunk.iter().enumerate() {
                if d2[j] <= eps_sq {
                    hits[h] = id;
                    h += 1;
                }
            }
            if h > 0 {
                on_hits(t, &hits[..h]);
            }
        }
        k += c;
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::NeighborCountKernel;
    use gpu_sim::memory::DeviceCounter;
    use gpu_sim::Device;
    use spatial::{GridIndexN, Point2, PointN, PointStoreN};

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
        let kernel = NeighborCountKernel {
            points: store.view(),
            grid: grid.cells_view(),
            lookup: grid.lookup(),
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
