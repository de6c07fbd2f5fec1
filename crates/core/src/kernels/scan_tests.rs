//! The one member scan and its accounting, at the run lengths around the
//! lane width: cell and leaf runs of 0, 1, 7, 8, 9, 16 and 17 members,
//! the last run of `A` (whose chunks reach into the padding), and
//! coincident points, in 2-D and 3-D.
//!
//! Pairs and counts are checked against brute force. Accounting is
//! checked against reference kernels that charge every candidate and
//! every hit one element at a time through the id gather: per thread
//! (one-point batches) for the calc kernels, per launch for the count
//! kernels — equal counters and bitwise-equal modeled durations.

use super::grid::load_cell_range;
use super::test_support::brute_force_pairs;
use super::{
    points_in_batch, scan_members, GpuCalcGlobal, GpuCalcTree, NeighborCountKernel, NeighborPair,
    TreeCountKernel,
};
use gpu_sim::error::DeviceError;
use gpu_sim::kernel::{BlockCtx, BlockKernel, ThreadCtx};
use gpu_sim::launch::LaunchConfig;
use gpu_sim::memory::{DeviceAppendBuffer, DeviceCounter};
use gpu_sim::{Device, KernelReport};
use spatial::grid::CellsView;
use spatial::packed_tree::LEAF_AXIS;
use spatial::{
    GridGeometryN, GridIndexN, MemberStoreN, MembersViewN, PackedKdTree, PointN, PointStoreN,
    PointsViewN, TreeView, SCAN_LANES,
};

/// The run lengths around the lane width.
const LENGTHS: [usize; 6] = [1, 7, 8, 9, 16, 17];

const BLOCK: u32 = 32;

#[test]
fn scan_masks_every_lane_past_the_run() {
    // Every array entry, the padding included, coincides with the query,
    // so any lane the live mask failed to clear would be a hit.
    let n = 40;
    let coords = vec![0.5f64; n + SCAN_LANES];
    let ids: Vec<u32> = (0..(n + SCAN_LANES) as u32).collect();
    let members = MembersViewN::<3> {
        coords: [&coords; 3],
        ids: &ids,
    };
    for start in [0, 3, 8, 23] {
        for len in [0, 1, 7, 8, 9, 16, 17] {
            let end = (start + len).min(n);
            let mut got = Vec::new();
            scan_members(members, start..end, &[0.5; 3], 0.0, |chunk, mask| {
                got.extend(
                    (0..SCAN_LANES)
                        .filter(|j| mask >> j & 1 == 1)
                        .map(|j| chunk[j]),
                );
            });
            let want: Vec<u32> = (start as u32..end as u32).collect();
            assert_eq!(got, want, "run {start}..{end}");
        }
    }
}

#[test]
fn scan_hits_equal_brute_force_at_every_run_length() {
    // A run straddling chunks with hits and misses mixed in each chunk,
    // scanned from every start, including runs ending at the last member.
    let pts: Vec<PointN<2>> = (0..41)
        .map(|i| PointN::from_coords([(i % 5) as f64 * 0.3, (i % 3) as f64 * 0.4]))
        .collect();
    let store = PointStoreN::from_points(&pts);
    let order: Vec<u32> = (0..41).rev().collect();
    let members = MemberStoreN::gather(store.view(), &order);
    let q = pts[7];
    let eps_sq = 0.5f64 * 0.5;
    for start in 0..=41 {
        for len in [0, 1, 7, 8, 9, 16, 17] {
            let end = (start + len).min(41);
            let mut got = Vec::new();
            scan_members(
                members.view(),
                start..end,
                &q.coords,
                eps_sq,
                |chunk, mask| {
                    got.extend(
                        (0..SCAN_LANES)
                            .filter(|j| mask >> j & 1 == 1)
                            .map(|j| chunk[j]),
                    );
                },
            );
            let want: Vec<u32> = order[start..end]
                .iter()
                .copied()
                .filter(|&id| q.distance_sq(&pts[id as usize]) <= eps_sq)
                .collect();
            assert_eq!(got, want, "run {start}..{end}");
        }
    }
}

/// Groups of coincident points, one per entry of [`LENGTHS`], plus one
/// group of 17 spread along the diagonal of its cell (hits and misses
/// within a chunk). Groups sit 10ε apart, so each fills one cell and the
/// rest of its stencil is empty (runs of 0). The spread group comes
/// last in `A`, so its run ends at the padding.
fn cell_groups<const D: usize>(eps: f64) -> Vec<PointN<D>> {
    let mut pts = Vec::new();
    for (g, &len) in LENGTHS.iter().enumerate() {
        let c = 10.0 * eps * g as f64;
        pts.extend(std::iter::repeat_n(PointN::from_coords([c; D]), len));
    }
    // Group 0 sits at the grid origin; the spread group starts a twentieth
    // of a cell in, so no rounding moves a member across a cell edge.
    let c = 10.0 * LENGTHS.len() as f64 + 0.05;
    pts.extend((0..17).map(|i| PointN::from_coords([(c + 0.055 * i as f64) * eps; D])));
    pts
}

/// GpuCalcGlobal / NeighborCountKernel with every candidate and hit
/// charged one element at a time, through the id gather.
struct PerElementGrid<'a, const D: usize> {
    points: PointsViewN<'a, D>,
    grid: CellsView<'a>,
    lookup: &'a [u32],
    geom: GridGeometryN<D>,
    eps: f64,
    /// Threads map to points `gid * step + first`, `count` of them.
    step: usize,
    first: usize,
    count: usize,
    /// Count kernel: one atomic per thread instead of one per hit.
    count_only: bool,
}

impl<const D: usize> BlockKernel for PerElementGrid<'_, D> {
    fn run_block(&self, ctx: &mut BlockCtx) -> Result<(), DeviceError> {
        let eps_sq = self.eps * self.eps;
        ctx.for_each_thread(|t| {
            if t.gid as usize >= self.count {
                return;
            }
            let q = self.points.get(t.gid as usize * self.step + self.first);
            t.read_global::<f64>(D as u64);
            t.charge_flops(5 * D as u64);
            let c = self.geom.cell_coords_of(&q);
            self.geom.for_each_stencil_cell(&c, |h| {
                let r = load_cell_range(t, &self.grid, h);
                for &id in &self.lookup[r.start as usize..r.end as usize] {
                    candidate(
                        t,
                        &q,
                        &self.points.get(id as usize),
                        eps_sq,
                        self.count_only,
                    );
                }
            });
            if self.count_only {
                t.charge_atomic();
            }
        });
        Ok(())
    }
}

/// One candidate's per-element charges: the id read, the coordinate
/// reads, the distance flops and, for a listing kernel's hit, the atomic
/// and pair write.
fn candidate<const D: usize>(
    t: &mut ThreadCtx,
    q: &PointN<D>,
    p: &PointN<D>,
    eps_sq: f64,
    count_only: bool,
) {
    t.read_global::<u32>(1);
    t.read_global::<f64>(D as u64);
    t.charge_flops(3 * D as u64 - 1);
    if !count_only && q.distance_sq(p) <= eps_sq {
        t.charge_atomic();
        t.write_global::<NeighborPair>(1);
    }
}

/// GpuCalcTree / TreeCountKernel with every node, candidate and hit
/// charged one element at a time, through the leaf id gather.
struct PerElementTree<'a, const D: usize> {
    points: PointsViewN<'a, D>,
    tree: TreeView<'a>,
    eps: f64,
    step: usize,
    first: usize,
    count: usize,
    count_only: bool,
}

impl<const D: usize> BlockKernel for PerElementTree<'_, D> {
    fn run_block(&self, ctx: &mut BlockCtx) -> Result<(), DeviceError> {
        let (eps, eps_sq) = (self.eps, self.eps * self.eps);
        ctx.for_each_thread(|t| {
            if t.gid as usize >= self.count {
                return;
            }
            let q = self.points.get(t.gid as usize * self.step + self.first);
            t.read_global::<f64>(D as u64);
            t.charge_flops(2 * D as u64);
            let mut stack = vec![0usize];
            while let Some(node) = stack.pop() {
                t.read_global_dependent::<f64>(1);
                t.read_global::<u32>(1);
                let axis = self.tree.axes[node];
                if axis == LEAF_AXIS {
                    let r = self.tree.ranges[node];
                    for &id in &self.tree.ids[r.start as usize..r.end as usize] {
                        candidate(
                            t,
                            &q,
                            &self.points.get(id as usize),
                            eps_sq,
                            self.count_only,
                        );
                    }
                    continue;
                }
                t.charge_flops(2);
                let (a, split) = (axis as usize, self.tree.splits[node]);
                if q.coords[a] + eps >= split {
                    stack.push(2 * node + 2);
                }
                if q.coords[a] - eps <= split {
                    stack.push(2 * node + 1);
                }
            }
            if self.count_only {
                t.charge_atomic();
            }
        });
        Ok(())
    }
}

fn launch<K: BlockKernel>(device: &Device, threads: usize, kernel: &K) -> KernelReport {
    device
        .launch(LaunchConfig::for_elements(threads.max(1), BLOCK), kernel)
        .unwrap()
}

fn assert_same_charges(got: &KernelReport, want: &KernelReport, what: &str) {
    assert_eq!(got.counters, want.counters, "{what}");
    assert_eq!(
        got.duration.as_secs().to_bits(),
        want.duration.as_secs().to_bits(),
        "{what}: {} vs {} µs",
        got.duration.as_micros(),
        want.duration.as_micros()
    );
}

/// Pairs, counts and charges of the grid kernels on `data` at `eps`.
fn check_grid<const D: usize>(data: &[PointN<D>], eps: f64) {
    let device = Device::k20c();
    let grid = GridIndexN::build(data, eps);
    let store = PointStoreN::from_points(data);
    let members = MemberStoreN::gather(store.view(), grid.lookup());
    let n = data.len();
    let reference = |first, step, count, count_only| PerElementGrid {
        points: store.view(),
        grid: grid.cells_view(),
        lookup: grid.lookup(),
        geom: grid.geometry(),
        eps,
        step,
        first,
        count,
        count_only,
    };

    let counter = DeviceCounter::new(&device).unwrap();
    let count = NeighborCountKernel {
        points: store.view(),
        grid: grid.cells_view(),
        members: members.view(),
        geom: grid.geometry(),
        eps,
        stride: 1,
        counter: &counter,
    };
    let got = launch(&device, n, &count);
    let want = launch(&device, n, &reference(0, 1, n, true));
    assert_same_charges(&got, &want, &format!("{D}-D grid count"));
    let pairs = brute_force_pairs(data, eps);
    assert_eq!(counter.get() as usize, pairs.len());

    // One launch per point: the report's counters are that thread's.
    let mut result = DeviceAppendBuffer::new(&device, pairs.len()).unwrap();
    for batch in 0..n {
        let kernel = GpuCalcGlobal {
            points: store.view(),
            grid: grid.cells_view(),
            members: members.view(),
            geom: grid.geometry(),
            eps,
            batch,
            n_batches: n,
            result: &result,
            skip_dense_at: None,
        };
        assert_eq!(points_in_batch(n, n, batch), 1);
        let got = launch(&device, 1, &kernel);
        let want = launch(&device, 1, &reference(batch, n, 1, false));
        assert_same_charges(&got, &want, &format!("{D}-D grid point {batch}"));
    }
    assert!(!result.overflowed());
    let mut got = result.as_filled_slice().to_vec();
    got.sort_unstable();
    assert_eq!(got, pairs, "{D}-D grid pairs");
}

/// Pairs, counts and charges of the tree kernels on `data` at `eps`,
/// over a tree with leaves of `leaf_size`.
fn check_tree<const D: usize>(data: &[PointN<D>], eps: f64, leaf_size: usize) {
    let device = Device::k20c();
    let store = PointStoreN::from_points(data);
    let tree = PackedKdTree::<D>::build_with_leaf_size(store.view(), leaf_size);
    let members = MemberStoreN::gather(store.view(), tree.view().ids);
    let n = data.len();
    let reference = |first, step, count, count_only| PerElementTree {
        points: store.view(),
        tree: tree.view(),
        eps,
        step,
        first,
        count,
        count_only,
    };

    let counter = DeviceCounter::new(&device).unwrap();
    let count = TreeCountKernel {
        points: store.view(),
        tree: tree.view(),
        members: members.view(),
        eps,
        stride: 1,
        counter: &counter,
    };
    let got = launch(&device, n, &count);
    let want = launch(&device, n, &reference(0, 1, n, true));
    assert_same_charges(
        &got,
        &want,
        &format!("{D}-D tree count, leaves {leaf_size}"),
    );
    let pairs = brute_force_pairs(data, eps);
    assert_eq!(counter.get() as usize, pairs.len());

    let mut result = DeviceAppendBuffer::new(&device, pairs.len()).unwrap();
    for batch in 0..n {
        let kernel = GpuCalcTree {
            points: store.view(),
            tree: tree.view(),
            members: members.view(),
            eps,
            batch,
            n_batches: n,
            result: &result,
        };
        let got = launch(&device, 1, &kernel);
        let want = launch(&device, 1, &reference(batch, n, 1, false));
        assert_same_charges(&got, &want, &format!("{D}-D tree point {batch}"));
    }
    assert!(!result.overflowed());
    let mut got = result.as_filled_slice().to_vec();
    got.sort_unstable();
    assert_eq!(got, pairs, "{D}-D tree pairs, leaves {leaf_size}");
}

/// Lengths of the tree's leaf runs.
fn leaf_lengths<const D: usize>(data: &[PointN<D>], leaf_size: usize) -> Vec<usize> {
    let store = PointStoreN::from_points(data);
    let tree = PackedKdTree::<D>::build_with_leaf_size(store.view(), leaf_size);
    let v = tree.view();
    (0..v.axes.len())
        .filter(|&node| v.axes[node] == LEAF_AXIS)
        .map(|node| v.ranges[node].len())
        .collect()
}

fn grid_runs<const D: usize>() {
    let eps = 0.7;
    let data = cell_groups::<D>(eps);
    let grid = GridIndexN::build(&data, eps);
    let mut lengths: Vec<usize> = grid
        .non_empty_cells()
        .iter()
        .map(|&h| grid.range_of(h).len())
        .collect();
    let last = *grid.non_empty_cells().last().unwrap();
    assert_eq!(grid.range_of(last).end as usize, data.len());
    assert_eq!(grid.range_of(last).len(), 17, "the spread group ends A");
    lengths.sort_unstable();
    assert_eq!(lengths, [1, 7, 8, 9, 16, 17, 17], "one cell per group");
    check_grid(&data, eps);
}

#[test]
fn grid_kernels_at_every_run_length_2d() {
    grid_runs::<2>();
}

#[test]
fn grid_kernels_at_every_run_length_3d() {
    grid_runs::<3>();
}

/// Four leaves of each length in [`LENGTHS`] (`4L` points split twice),
/// with every point doubled by a coincident twin in the 2-D case.
fn tree_runs<const D: usize>(twins: bool) {
    for leaf_size in LENGTHS {
        let n = 4 * leaf_size;
        let data: Vec<PointN<D>> = (0..n)
            .map(|i| {
                let i = if twins { i / 2 } else { i };
                let t = i as f64;
                PointN::from_coords(std::array::from_fn(|k| {
                    (t * (0.357 + 0.191 * k as f64)).fract() * 3.0
                }))
            })
            .collect();
        let lengths = leaf_lengths(&data, leaf_size);
        assert!(lengths.iter().all(|&l| l == leaf_size), "{lengths:?}");
        for eps in [0.4, 1.1] {
            check_tree(&data, eps, leaf_size);
        }
    }
}

#[test]
fn tree_kernels_at_every_leaf_length_2d() {
    tree_runs::<2>(true);
}

#[test]
fn tree_kernels_at_every_leaf_length_3d() {
    tree_runs::<3>(false);
}

#[test]
fn tree_kernels_on_coincident_groups() {
    // The grid's group layout through the tree: leaves of coincident
    // points, cut wherever the leaf size falls.
    let data = cell_groups::<3>(0.7);
    for leaf_size in [1, 8, 9] {
        check_tree(&data, 0.7, leaf_size);
    }
    check_tree(&cell_groups::<2>(0.7), 0.7, 17);
}
