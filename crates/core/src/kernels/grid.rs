//! The thread-per-point grid kernels: GPUCalcGlobal (Algorithm 2 of the
//! paper) and the result-size estimation kernel (Section VI).
//!
//! One thread computes the ε-neighborhood of one point using only global
//! memory: it loads its point, enumerates the ≤`3^D` grid cells that can
//! contain neighbors (9 in 2-D), resolves each cell's `[A_min, A_max]`
//! range of the lookup array (a direct read on the dense layout, plus
//! binary-search key probes on the sparse one), computes distances over
//! that run of the `A`-ordered member mirror with the one chunked scan
//! ([`super::scan_members`]), and stages each hit as a `(point, neighbor)`
//! pair for its block's one commit to the device result buffer.
//!
//! **Batching** (Section VI): with `n_b` batches, batch `l` processes the
//! points `{gid · n_b + l}` — a strided assignment over the spatially
//! sorted database, so every batch sees a uniform spatial sample and the
//! per-batch result sizes `|R_l|` stay consistent (Figure 2). The launch
//! covers `ceil(|D| / n_b)` points.
//!
//! **Estimation**: to size the batch buffers, the batching scheme needs an
//! estimate `a_b` of the total result-set size. [`NeighborCountKernel`]
//! computes the *exact* neighbor count `e_b` of a uniformly distributed
//! sample of `f·|D|` points (`f = 0.01` by default) — uniform because the
//! database is spatially sorted, so a fixed stride is a uniform spatial
//! sample. It returns only a single counter ("does not return a result
//! set R, which requires significant overhead"), so it runs in negligible
//! time; the estimate is then `a_b = e_b / f`.

use super::{points_in_batch, sample_size, scan_events, scan_members, BlockStage, NeighborPair};
use gpu_sim::error::DeviceError;
use gpu_sim::kernel::{BlockCtx, BlockKernel, ThreadCtx};
use gpu_sim::launch::LaunchConfig;
use gpu_sim::memory::{DeviceAppendBuffer, DeviceCounter};
use spatial::grid::{CellRange, CellsView};
use spatial::{GridGeometryN, MembersViewN, PointsViewN, SCAN_LANES};

/// Resolve and load cell `h`'s `[start, end)` range from `G`, charging
/// the modeled cost: the `CellRange` read itself, plus — for the sparse
/// layout only — the binary-search key probes that locate it.
#[inline]
pub(crate) fn load_cell_range(t: &mut ThreadCtx, grid: &CellsView<'_>, h: u64) -> CellRange {
    let probes = grid.probe_reads();
    if probes > 0 {
        t.read_global::<u64>(probes);
    }
    t.read_global::<CellRange>(1);
    grid.range_of(h)
}

/// One thread's ε-neighborhood of point `pi` through the grid: the point
/// load, the stencil arithmetic, then each stencil cell's resolution and
/// chunked scan over its run of `members` (the mirror in `A` order),
/// handing every chunk's ids and hit mask to `on_chunk`. The scans'
/// per-candidate events are charged once, from the cells' summed
/// lengths. With `skip_dense_at`, a point whose own cell holds at least
/// that many points returns before scanning.
#[inline]
#[allow(clippy::too_many_arguments)]
pub(crate) fn scan_stencil<const D: usize>(
    t: &mut ThreadCtx,
    points: PointsViewN<'_, D>,
    grid: &CellsView<'_>,
    members: MembersViewN<'_, D>,
    geom: &GridGeometryN<D>,
    eps_sq: f64,
    pi: usize,
    skip_dense_at: Option<usize>,
    mut on_chunk: impl FnMut(&[u32; SCAN_LANES], u32),
) {
    // point <- D[gid'] (registers).
    t.read_global::<f64>(D as u64);
    let q = points.get(pi);
    // cellIDsArr <- getNeighborCells(gid): pure arithmetic, ~5 flops per
    // axis.
    t.charge_flops(5 * D as u64);
    let c = geom.cell_coords_of(&q);
    if let Some(threshold) = skip_dense_at {
        // Split-kernel mask: dense cells belong to GPUCalcShared.
        t.read_global::<CellRange>(1);
        if grid.range_of(geom.key_of_coords(&c)).len() >= threshold {
            return;
        }
    }
    let mut candidates = 0;
    geom.for_each_stencil_cell(&c, |h| {
        // lookupMin/Max <- G[cellID].
        let range = load_cell_range(t, grid, h);
        candidates += range.len() as u64;
        let run = range.start as usize..range.end as usize;
        scan_members(members, run, &q.coords, eps_sq, &mut on_chunk);
    });
    t.charge_batch(scan_events::<D>(candidates));
}

/// Algorithm 2: thread-per-point ε-neighborhood kernel over global memory.
pub struct GpuCalcGlobal<'a, const D: usize> {
    /// `D` (device-resident, spatially sorted), as the SoA coordinate view.
    pub points: PointsViewN<'a, D>,
    /// `G`: per-cell ranges into `A`, in either layout.
    pub grid: CellsView<'a>,
    /// `A` (point ids grouped by cell) with the points' coordinates in the
    /// same order: the host-side mirror the scans read.
    pub members: MembersViewN<'a, D>,
    /// Grid geometry (device constants).
    pub geom: GridGeometryN<D>,
    /// Search radius; must equal the grid's cell width.
    pub eps: f64,
    /// Batch number `l ∈ 0..n_batches`.
    pub batch: usize,
    /// Total number of batches `n_b`.
    pub n_batches: usize,
    /// `gpuResultSet`: the atomic result buffer.
    pub result: &'a DeviceAppendBuffer<NeighborPair>,
    /// Split-kernel mask (the paper's future-work hybrid): when set,
    /// threads whose point lives in a cell with at least this many points
    /// return immediately — those cells are processed by GPUCalcShared.
    /// `None` (the default everywhere in the paper's pipeline) disables
    /// the mask.
    pub skip_dense_at: Option<usize>,
}

impl<const D: usize> GpuCalcGlobal<'_, D> {
    /// The launch configuration covering this batch at `block_dim`.
    pub fn launch_config(&self, block_dim: u32) -> LaunchConfig {
        let n = points_in_batch(self.points.len(), self.n_batches, self.batch);
        LaunchConfig::for_elements(n.max(1), block_dim)
    }
}

impl<const D: usize> BlockKernel for GpuCalcGlobal<'_, D> {
    fn run_block(&self, ctx: &mut BlockCtx) -> Result<(), DeviceError> {
        let n_points = self.points.len();
        let eps_sq = self.eps * self.eps;
        let in_batch = points_in_batch(n_points, self.n_batches, self.batch) as u64;

        let mut stage = BlockStage::take();
        ctx.for_each_thread(|t| {
            if t.gid >= in_batch {
                return;
            }
            // Strided batch assignment: gid -> point id.
            let pi = (t.gid as usize) * self.n_batches + self.batch;
            debug_assert!(pi < n_points);
            let mark = stage.len();
            scan_stencil(
                t,
                self.points,
                &self.grid,
                self.members,
                &self.geom,
                eps_sq,
                pi,
                self.skip_dense_at,
                |ids, mask| stage.push(pi as u32, ids, mask),
            );
            stage.charge(t, mark);
        });
        stage.commit(ctx, self.result);
        Ok(())
    }
}

/// Counts neighbors-within-ε over a strided sample of the database.
pub struct NeighborCountKernel<'a, const D: usize> {
    /// `D` (device-resident, spatially sorted), as the SoA coordinate view.
    pub points: PointsViewN<'a, D>,
    /// `G`, in either layout.
    pub grid: CellsView<'a>,
    /// `A` with the points' coordinates in the same order.
    pub members: MembersViewN<'a, D>,
    /// Grid geometry.
    pub geom: GridGeometryN<D>,
    /// Search radius.
    pub eps: f64,
    /// Sample stride: thread `g` counts the neighbors of point
    /// `g · stride`. A stride of `1/f` samples the fraction `f`.
    pub stride: usize,
    /// The device counter accumulating `e_b`.
    pub counter: &'a DeviceCounter,
}

impl<const D: usize> NeighborCountKernel<'_, D> {
    /// Launch configuration covering the sample at `block_dim`.
    pub fn launch_config(&self, block_dim: u32) -> LaunchConfig {
        LaunchConfig::for_elements(
            sample_size(self.points.len(), self.stride).max(1),
            block_dim,
        )
    }
}

impl<const D: usize> BlockKernel for NeighborCountKernel<'_, D> {
    fn run_block(&self, ctx: &mut BlockCtx) -> Result<(), DeviceError> {
        let n_points = self.points.len();
        let stride = self.stride.max(1);
        let samples = sample_size(n_points, stride) as u64;
        let eps_sq = self.eps * self.eps;

        ctx.for_each_thread(|t| {
            if t.gid >= samples {
                return;
            }
            let pi = (t.gid as usize) * stride;
            debug_assert!(pi < n_points);
            let mut local = 0u64;
            scan_stencil(
                t,
                self.points,
                &self.grid,
                self.members,
                &self.geom,
                eps_sq,
                pi,
                None,
                |_, mask| local += mask.count_ones() as u64,
            );
            // One atomic per thread, not per hit.
            t.charge_atomic();
            self.counter.add(local);
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::{
        brute_force_pairs, estimate_result_capacity, mixed_points, nd_points,
    };
    use super::*;
    use gpu_sim::Device;
    use spatial::distance::brute_force_count;
    use spatial::{GridIndexN, GridLayout, MemberStoreN, Point2, PointN, PointStoreN};

    fn run_kernel<const D: usize>(
        data: &[PointN<D>],
        eps: f64,
        n_batches: usize,
        layout: GridLayout,
    ) -> (Vec<(u32, u32)>, Vec<gpu_sim::KernelReport>) {
        let device = Device::k20c();
        let grid = GridIndexN::build_with_layout(data, eps, layout);
        let store = PointStoreN::from_points(data);
        let members = MemberStoreN::gather(store.view(), grid.lookup());
        // Size the result buffer the way production does: via the
        // estimation kernel (exact at stride 1), not O(n²) scratch.
        let cap = estimate_result_capacity(&device, &store, &grid, eps);
        let result = DeviceAppendBuffer::new(&device, cap).unwrap();
        let mut reports = Vec::new();
        for batch in 0..n_batches {
            let kernel = GpuCalcGlobal {
                points: store.view(),
                grid: grid.cells_view(),
                members: members.view(),
                geom: grid.geometry(),
                eps,
                batch,
                n_batches,
                result: &result,
                skip_dense_at: None,
            };
            let cfg = kernel.launch_config(256);
            reports.push(device.launch(cfg, &kernel).unwrap());
        }
        let mut result = result;
        assert!(!result.overflowed());
        let mut pairs = result.as_filled_slice().to_vec();
        pairs.sort_unstable();
        (pairs, reports)
    }

    fn pairs_of<const D: usize>(data: &[PointN<D>], eps: f64, n_batches: usize) -> Vec<(u32, u32)> {
        run_kernel(data, eps, n_batches, GridLayout::Sparse).0
    }

    fn count<const D: usize>(
        data: &[PointN<D>],
        eps: f64,
        stride: usize,
    ) -> (u64, gpu_sim::KernelReport) {
        let device = Device::k20c();
        let grid = GridIndexN::build(data, eps);
        let store = PointStoreN::from_points(data);
        let members = MemberStoreN::gather(store.view(), grid.lookup());
        let counter = DeviceCounter::new(&device).unwrap();
        let kernel = NeighborCountKernel {
            points: store.view(),
            grid: grid.cells_view(),
            members: members.view(),
            geom: grid.geometry(),
            eps,
            stride,
            counter: &counter,
        };
        let report = device.launch(kernel.launch_config(256), &kernel).unwrap();
        (counter.get(), report)
    }

    #[test]
    fn single_batch_matches_brute_force() {
        let data = mixed_points(300);
        for eps in [0.3, 1.0, 2.5] {
            let (pairs, _) = run_kernel(&data, eps, 1, GridLayout::Dense);
            assert_eq!(pairs, brute_force_pairs(&data, eps), "eps = {eps}");
        }
        let p3 = nd_points::<3>(250, 4.0);
        let p4 = nd_points::<4>(180, 3.0);
        for eps in [0.5, 1.1] {
            assert_eq!(pairs_of(&p3, eps, 1), brute_force_pairs(&p3, eps));
            assert_eq!(pairs_of(&p4, eps, 1), brute_force_pairs(&p4, eps));
        }
    }

    #[test]
    fn batched_union_equals_unbatched() {
        let data = mixed_points(500);
        let eps = 0.8;
        let (unbatched, _) = run_kernel(&data, eps, 1, GridLayout::Dense);
        for n_batches in [2, 3, 5, 7] {
            let (batched, _) = run_kernel(&data, eps, n_batches, GridLayout::Dense);
            assert_eq!(batched, unbatched, "n_batches = {n_batches}");
        }
        let data = nd_points::<3>(350, 4.0);
        let unbatched = pairs_of(&data, 0.7, 1);
        for n_batches in [2, 4, 5] {
            assert_eq!(pairs_of(&data, 0.7, n_batches), unbatched);
        }
    }

    #[test]
    fn both_layouts_produce_identical_pairs() {
        let data = mixed_points(300);
        let (dense, _) = run_kernel(&data, 0.6, 1, GridLayout::Dense);
        let (sparse, _) = run_kernel(&data, 0.6, 1, GridLayout::Sparse);
        assert_eq!(dense, sparse);
        assert_eq!(dense, brute_force_pairs(&data, 0.6));
        let data = nd_points::<3>(200, 3.0);
        let (dense, _) = run_kernel(&data, 0.8, 1, GridLayout::Dense);
        assert_eq!(dense, pairs_of(&data, 0.8, 1));
    }

    #[test]
    fn points_in_batch_partitions_database() {
        for n in [1usize, 10, 999, 1000, 1001] {
            for nb in [1usize, 2, 3, 7] {
                let total: usize = (0..nb).map(|l| points_in_batch(n, nb, l)).sum();
                assert_eq!(total, n, "n = {n}, nb = {nb}");
            }
        }
    }

    #[test]
    fn thread_count_tracks_points() {
        let data = mixed_points(1000);
        let (_, reports) = run_kernel(&data, 0.5, 1, GridLayout::Dense);
        // n_GPU = ceil(1000/256)*256 = 1024 (Table II's "roughly |D|").
        assert_eq!(reports[0].threads_launched, 1024);
    }

    #[test]
    fn batches_report_fewer_threads_each() {
        let data = mixed_points(1000);
        let (_, reports) = run_kernel(&data, 0.5, 4, GridLayout::Dense);
        for r in &reports {
            assert_eq!(r.threads_launched, 256);
        }
    }

    #[test]
    fn every_point_has_self_pair() {
        let data = mixed_points(100);
        let (pairs, _) = run_kernel(&data, 0.4, 3, GridLayout::Dense);
        for i in 0..data.len() as u32 {
            assert!(
                pairs.binary_search(&(i, i)).is_ok(),
                "missing self pair for {i}"
            );
        }
    }

    #[test]
    fn duplicate_points_all_pair_up() {
        let data = vec![Point2::new(1.0, 1.0); 8];
        let (pairs, _) = run_kernel(&data, 0.1, 2, GridLayout::Dense);
        assert_eq!(pairs.len(), 64, "8 coincident points produce 8x8 pairs");
    }

    #[test]
    fn overflow_is_reported_not_lost() {
        let data = mixed_points(200);
        let eps = 1.0;
        let device = Device::k20c();
        let grid = GridIndexN::build(&data, eps);
        let store = PointStoreN::from_points(&data);
        let members = MemberStoreN::gather(store.view(), grid.lookup());
        // Deliberately undersized buffer.
        let result = DeviceAppendBuffer::new(&device, 10).unwrap();
        let kernel = GpuCalcGlobal {
            points: store.view(),
            grid: grid.cells_view(),
            members: members.view(),
            geom: grid.geometry(),
            eps,
            batch: 0,
            n_batches: 1,
            result: &result,
            skip_dense_at: None,
        };
        device.launch(kernel.launch_config(256), &kernel).unwrap();
        assert!(result.overflowed());
        assert!(result.rejected() > 0);
    }

    #[test]
    fn pairs_match_tree_backend() {
        // Grid and tree backends must emit identical pair sets — the
        // cross-backend guarantee in d > 2.
        let data = nd_points::<3>(300, 4.0);
        let eps = 0.8;
        let device = Device::k20c();
        let store = PointStoreN::from_points(&data);
        let tree = spatial::PackedKdTree::<3>::build(store.view());
        let members = MemberStoreN::gather(store.view(), tree.view().ids);
        let mut result = DeviceAppendBuffer::new(&device, 300 * 300).unwrap();
        let kernel = super::super::GpuCalcTree {
            points: store.view(),
            tree: tree.view(),
            members: members.view(),
            eps,
            batch: 0,
            n_batches: 1,
            result: &result,
        };
        device.launch(kernel.launch_config(256), &kernel).unwrap();
        assert!(!result.overflowed());
        let mut tree_pairs = result.as_filled_slice().to_vec();
        tree_pairs.sort_unstable();
        assert_eq!(pairs_of(&data, eps, 1), tree_pairs);
    }

    #[test]
    fn stride_one_counts_exactly() {
        let data = mixed_points(250);
        let eps = 0.8;
        let expected: usize = data.iter().map(|q| brute_force_count(&data, q, eps)).sum();
        assert_eq!(count(&data, eps, 1).0 as usize, expected);
        let data = nd_points::<4>(200, 3.0);
        let expected: usize = data.iter().map(|q| brute_force_count(&data, q, 0.9)).sum();
        assert_eq!(count(&data, 0.9, 1).0 as usize, expected);
    }

    #[test]
    fn strided_count_matches_sampled_brute_force() {
        let data = mixed_points(400);
        let eps = 0.5;
        let stride = 7;
        let expected: usize = data
            .iter()
            .step_by(stride)
            .map(|q| brute_force_count(&data, q, eps))
            .sum();
        let (got, _) = count(&data, eps, stride);
        assert_eq!(got as usize, expected);
    }

    #[test]
    fn estimate_scales_to_total() {
        // The 1-in-100 sample times 100 should land near the true total
        // for a reasonably mixed dataset.
        let data = mixed_points(5000);
        let eps = 0.5;
        let (sampled, _) = count(&data, eps, 100);
        let (exact, _) = count(&data, eps, 1);
        let estimate = sampled * 100;
        let ratio = estimate as f64 / exact as f64;
        assert!(
            (0.5..2.0).contains(&ratio),
            "estimate {estimate} vs exact {exact} (ratio {ratio:.2})"
        );
    }

    #[test]
    fn atomics_are_one_per_sample_thread() {
        let data = mixed_points(512);
        let (_, report) = count(&data, 0.5, 2);
        assert_eq!(report.counters.atomics, 256);
    }

    #[test]
    fn sample_size_arithmetic() {
        assert_eq!(sample_size(1000, 100), 10);
        assert_eq!(sample_size(1001, 100), 11);
        assert_eq!(sample_size(5, 100), 1);
        assert_eq!(sample_size(100, 1), 100);
    }

    #[test]
    fn count_kernel_is_much_cheaper_than_listing() {
        // The estimation kernel writes no result set: its global write
        // traffic must be zero.
        let data = mixed_points(1000);
        let (_, report) = count(&data, 1.0, 100);
        assert_eq!(report.counters.global_write_bytes, 0);
    }
}
