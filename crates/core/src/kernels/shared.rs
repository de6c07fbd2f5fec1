//! The GPUCalcShared kernel (Algorithm 3 of the paper).
//!
//! One thread *block* processes one non-empty grid cell (the *origin*
//! cell), given by the schedule `S`. The block pages the origin cell's
//! points and each adjacent *comparison* cell's points from global into
//! shared memory in block-size tiles, synchronizes, and then each thread
//! compares its origin point against every staged comparison point —
//! exploiting shared-memory bandwidth for the O(m·n) distance work. The
//! staged tiles are SoA (one array per axis, same byte footprint), copied
//! from the `A`-ordered member mirror (a cell's tile is a contiguous run
//! of it), and the per-thread compare loop is the one chunked scan,
//! [`super::scan_members`], over the staged tile — same hits, same
//! modeled cost. The kernel is generic over `D`: the stencil (9 cells in
//! 2-D, `3^D` in general) comes from the grid geometry.
//!
//! The paper's pseudo-code assumes cells no larger than the block; the
//! real implementation (and this one) adds the outer tiling loop it
//! mentions ("if there are more points in a cell than the block size,
//! then an additional loop is needed").
//!
//! Why this kernel loses (Table II): every block pays the fixed block
//! overhead and the staging traffic even when its cell holds a handful of
//! points, and idle lanes in each warp are dragged along at warp cost —
//! the sparser/more uniform the data (small ε, SDSS-like), the more
//! blocks, the worse the total. The experiment harness reproduces exactly
//! that trade-off.

use super::grid::load_cell_range;
use super::{scan_members, BlockStage, NeighborPair};
use gpu_sim::error::DeviceError;
use gpu_sim::kernel::{BlockCtx, BlockKernel};
use gpu_sim::launch::LaunchConfig;
use gpu_sim::memory::DeviceAppendBuffer;
use spatial::grid::{CellsView, MAX_STENCIL};
use spatial::{GridGeometryN, MembersViewN, SCAN_LANES};

/// Algorithm 3: block-per-cell ε-neighborhood kernel staging through
/// shared memory.
pub struct GpuCalcShared<'a, const D: usize> {
    /// `G`: per-cell ranges into `A`, in either layout.
    pub grid: CellsView<'a>,
    /// `A` (point ids grouped by cell) with the points' coordinates in the
    /// same order: the host-side mirror the tiles are staged from.
    pub members: MembersViewN<'a, D>,
    /// Grid geometry (device constants).
    pub geom: GridGeometryN<D>,
    /// Search radius; must equal the grid's cell width.
    pub eps: f64,
    /// The schedule `S`: keys of the non-empty cells this launch
    /// processes, one block each. For a batched execution, a sub-slice of
    /// the full schedule.
    pub schedule: &'a [u64],
    /// `gpuResultSet`: the atomic result buffer.
    pub result: &'a DeviceAppendBuffer<NeighborPair>,
}

impl<const D: usize> GpuCalcShared<'_, D> {
    /// Launch configuration: one block per scheduled cell. `N` (the total
    /// thread count of Algorithm 3) is `|S| · block_dim` — the `n_GPU`
    /// reported in Table II.
    pub fn launch_config(&self, block_dim: u32) -> LaunchConfig {
        // Two point tiles plus the origin-id tile.
        let shared_bytes =
            block_dim as usize * (2 * D * std::mem::size_of::<f64>() + std::mem::size_of::<u32>());
        LaunchConfig::new(self.schedule.len() as u32, block_dim).with_shared_mem(shared_bytes)
    }
}

impl<const D: usize> BlockKernel for GpuCalcShared<'_, D> {
    fn run_block(&self, ctx: &mut BlockCtx) -> Result<(), DeviceError> {
        let bd = ctx.block_dim as usize;
        let eps_sq = self.eps * self.eps;
        let point_words = D as u64;

        // cellToProc <- S[blockID].
        let cell = self.schedule[ctx.block_idx as usize];
        let origin_range = self.grid.range_of(cell);
        let m_origin = origin_range.len();

        // shared pntsOriginCell[blockDim.x], pntsCompCell[blockDim.x] —
        // staged SoA (one array per axis), the same bytes per thread as
        // the interleaved layout.
        let mut s_origin: [Vec<f64>; D] = [(); D].map(|_| Vec::new());
        let mut s_comp: [Vec<f64>; D] = [(); D].map(|_| Vec::new());
        for tile in [&mut s_origin, &mut s_comp] {
            for axis in tile.iter_mut() {
                *axis = ctx.alloc_shared(bd)?;
            }
        }
        // The compare scan reads the comparison tile in full-width chunks:
        // pad its host arrays (not the modeled allocation) to a whole
        // chunk.
        for axis in s_comp.iter_mut() {
            axis.resize(bd.next_multiple_of(SCAN_LANES), f64::NAN);
        }
        // Origin point ids travel with the staged coordinates (the result
        // pair needs them); a real kernel stages them in shared memory too.
        let mut s_origin_ids: Vec<u32> = ctx.alloc_shared(bd)?;

        let mut stage = BlockStage::take();

        // Thread 0 fetches the neighbor-cell list; synchronize().
        let mut cell_ids = [0u64; MAX_STENCIL];
        let mut n_cells = 0;
        ctx.phase(|t| {
            if t.tid == 0 {
                let _ = load_cell_range(t, &self.grid, cell);
                t.charge_flops(5 * D as u64);
                (cell_ids, n_cells) = self.geom.neighbor_cells(cell);
            }
        });

        // Outer tiling over the origin cell (the "additional loop" for
        // cells larger than the block).
        let origin_tiles = m_origin.div_ceil(bd).max(1);
        for ot in 0..origin_tiles {
            let o_base = origin_range.start as usize + ot * bd;
            let o_count = (m_origin - ot * bd).min(bd);

            // Stage the origin tile: one point per thread. The kernel is
            // "oblivious to the number of data points per cell" (paper,
            // §IV-B): every thread executes the load sequence in lockstep
            // (cost), but only in-range lanes store real points
            // (function).
            ctx.phase(|t| {
                let k = t.tid as usize;
                t.read_global::<u32>(1);
                t.read_global::<f64>(point_words);
                t.access_shared::<f64>(point_words);
                if k < o_count {
                    // lookupOffset <- G[cellToProc].min + threadId.x;
                    // dataID <- A[lookupOffset]; copy D[dataID] to shared.
                    for (axis, s) in s_origin.iter_mut().enumerate() {
                        s[k] = self.members.coords[axis][o_base + k];
                    }
                    s_origin_ids[k] = self.members.ids[o_base + k];
                }
            });

            // Loop over the comparison cells.
            for &comp_cell in &cell_ids[..n_cells] {
                let comp_range = self.grid.range_of(comp_cell);
                let m_comp = comp_range.len();
                if m_comp == 0 {
                    continue;
                }
                let comp_tiles = m_comp.div_ceil(bd);
                for ct in 0..comp_tiles {
                    let c_base = comp_range.start as usize + ct * bd;
                    let c_count = (m_comp - ct * bd).min(bd);

                    // Stage the comparison tile; synchronize(). All lanes
                    // execute the loads in lockstep (cost).
                    ctx.phase(|t| {
                        let k = t.tid as usize;
                        t.read_global::<u32>(1);
                        t.read_global::<f64>(point_words);
                        t.access_shared::<f64>(point_words);
                        if k < c_count {
                            for (axis, s) in s_comp.iter_mut().enumerate() {
                                s[k] = self.members.coords[axis][c_base + k];
                            }
                        }
                    });

                    // Compare: thread k owns origin point k (if staged)
                    // and scans the staged comparison tile from shared
                    // memory with the one chunked scan (the tile's ids
                    // are the run of `A` it was staged from). Lanes
                    // without an origin point idle, but the warp-max
                    // accounting still charges their warp the active
                    // lanes' cost — and the block keeps paying the
                    // staging loads and barriers above, which is what
                    // sinks this kernel on sparse cells (Table II).
                    let tile = MembersViewN {
                        coords: std::array::from_fn(|a| s_comp[a].as_slice()),
                        ids: &self.members.ids[c_base..],
                    };
                    ctx.phase(|t| {
                        let k = t.tid as usize;
                        if k >= o_count {
                            return;
                        }
                        let p: [f64; D] = std::array::from_fn(|axis| s_origin[axis][k]);
                        let pid = s_origin_ids[k];
                        t.access_shared::<f64>(point_words);
                        t.access_shared::<f64>(point_words * c_count as u64);
                        // Per candidate: 3D - 1 DP ops for the distance
                        // plus ~7 ops of loop index, compare and branch
                        // arithmetic (the DP dependency chain pipelines
                        // poorly inside a warp).
                        t.charge_flops((3 * point_words + 6) * c_count as u64);
                        let mark = stage.len();
                        scan_members(tile, 0..c_count, &p, eps_sq, |ids, mask| {
                            stage.push(pid, ids, mask)
                        });
                        stage.charge(t, mark);
                    });
                }
            }
        }
        stage.commit(ctx, self.result);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::{brute_force_pairs, estimate_result_capacity, mixed_points};
    use super::*;
    use gpu_sim::Device;
    use spatial::{GridIndex, MemberStoreN, Point2, PointStore};

    fn run_kernel(
        data: &[Point2],
        eps: f64,
        block_dim: u32,
    ) -> (Vec<(u32, u32)>, gpu_sim::KernelReport) {
        let device = Device::k20c();
        let grid = GridIndex::build(data, eps);
        let store = PointStore::from_points(data);
        let members = MemberStoreN::gather(store.view(), grid.lookup());
        // Size via the estimation kernel (exact at stride 1), as
        // production does — not O(n²) scratch.
        let cap = estimate_result_capacity(&device, &store, &grid, eps);
        let result = DeviceAppendBuffer::new(&device, cap).unwrap();
        let kernel = GpuCalcShared {
            grid: grid.cells_view(),
            members: members.view(),
            geom: grid.geometry(),
            eps,
            schedule: grid.non_empty_cells(),
            result: &result,
        };
        let report = device
            .launch(kernel.launch_config(block_dim), &kernel)
            .unwrap();
        let mut result = result;
        assert!(!result.overflowed());
        let mut pairs = result.as_filled_slice().to_vec();
        pairs.sort_unstable();
        (pairs, report)
    }

    #[test]
    fn matches_brute_force() {
        let data = mixed_points(300);
        for eps in [0.3, 1.0, 2.5] {
            let (pairs, _) = run_kernel(&data, eps, 64);
            assert_eq!(pairs, brute_force_pairs(&data, eps), "eps = {eps}");
        }
    }

    #[test]
    fn matches_global_kernel_results() {
        let data = mixed_points(400);
        let eps = 0.7;
        let (shared_pairs, _) = run_kernel(&data, eps, 64);
        assert_eq!(shared_pairs, brute_force_pairs(&data, eps));
    }

    #[test]
    fn cells_larger_than_block_are_tiled() {
        // 500 coincident-ish points in one cell, block of 64: the origin
        // and comparison tiling loops must cover everything.
        let data: Vec<Point2> = (0..300)
            .map(|i| Point2::new(0.001 * (i % 17) as f64, 0.001 * (i % 13) as f64))
            .collect();
        let (pairs, report) = run_kernel(&data, 1.0, 64);
        assert_eq!(pairs.len(), 300 * 300);
        assert_eq!(
            report.config.grid_dim, 1,
            "single non-empty cell = single block"
        );
    }

    #[test]
    fn thread_count_is_blocks_times_block_dim() {
        let data = mixed_points(500);
        let eps = 0.4;
        let grid = GridIndex::build(&data, eps);
        let (_, report) = run_kernel(&data, eps, 128);
        assert_eq!(
            report.threads_launched,
            grid.non_empty_cells().len() as u64 * 128,
            "n_GPU = non-empty cells x block size (Table II)"
        );
    }

    #[test]
    fn schedule_subset_processes_only_those_cells() {
        let data = mixed_points(200);
        let eps = 0.9;
        let device = Device::k20c();
        let grid = GridIndex::build(&data, eps);
        let store = PointStore::from_points(&data);
        let members = MemberStoreN::gather(store.view(), grid.lookup());
        let cap = estimate_result_capacity(&device, &store, &grid, eps);
        let full_schedule = grid.non_empty_cells();
        // Split the schedule in two and verify the union matches.
        let mid = full_schedule.len() / 2;
        let mut all_pairs = Vec::new();
        for part in [&full_schedule[..mid], &full_schedule[mid..]] {
            let result = DeviceAppendBuffer::new(&device, cap).unwrap();
            let kernel = GpuCalcShared {
                grid: grid.cells_view(),
                members: members.view(),
                geom: grid.geometry(),
                eps,
                schedule: part,
                result: &result,
            };
            if !part.is_empty() {
                device.launch(kernel.launch_config(64), &kernel).unwrap();
            }
            let mut result = result;
            all_pairs.extend_from_slice(result.as_filled_slice());
        }
        all_pairs.sort_unstable();
        assert_eq!(all_pairs, brute_force_pairs(&data, eps));
    }

    #[test]
    fn shared_memory_request_scales_with_block() {
        let data = mixed_points(50);
        let grid = GridIndex::build(&data, 1.0);
        let store = PointStore::from_points(&data);
        let members = MemberStoreN::gather(store.view(), grid.lookup());
        let device = Device::k20c();
        let result = DeviceAppendBuffer::new(&device, 10_000).unwrap();
        let kernel = GpuCalcShared {
            grid: grid.cells_view(),
            members: members.view(),
            geom: grid.geometry(),
            eps: 1.0,
            schedule: grid.non_empty_cells(),
            result: &result,
        };
        let cfg = kernel.launch_config(256);
        assert_eq!(cfg.shared_mem_bytes, 256 * (2 * 16 + 4));
        assert!(cfg.validate(device.props()).is_ok());
    }
}
