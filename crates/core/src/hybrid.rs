//! Hybrid-DBSCAN (Algorithm 4): the end-to-end pipeline.
//!
//! ```text
//! host                         device (simulated)
//! ────────────────────────────────────────────────────────────────
//! spatial pre-sort of D
//! grid construction (G, A)
//!            ── H2D: D, G, A ──────────────▶
//!                                estimation kernel → e_b
//! batch plan (Eq. 1)
//! pinned staging buffers
//! for each batch l (3 streams):
//!                                GPUCalcGlobal/Shared (strided)
//!                                thrust sort_by_key on R_l
//!            ◀── D2H into pinned staging ──
//! ingest R_l values into T
//! ────────────────────────────────────────────────────────────────
//! DBSCAN(T, minpts) — possibly many times with different minpts
//! ```
//!
//! The table build runs as six stages: prepare (validation, pre-sort,
//! backend selection, host index) → upload → estimate → plan (Equation 1
//! fitted to device memory) → execute (the stream workers, with exact-|R|
//! replanning on overflow) → finalize (the modeled schedule, telemetry
//! and the handle). [`HybridDbscan::build_table`] is generic over the
//! dimension `D`: one prepare, upload and estimate front half and one
//! per-batch kernel launcher serve 2-D and d > 2 alike, and plan, execute
//! and finalize see only `n`, ε, the [`HybridConfig`] and that launcher.
//!
//! The *functional* work executes eagerly (kernels really compute the
//! pairs, the sort really sorts, the builder really assembles `T`); the
//! *device timing* is modeled, and the per-batch operation chains are
//! replayed through the stream scheduler to produce the overlapped
//! GPU-phase makespan — deterministic regardless of host load. Every op
//! in those chains is modeled, including the host-lane table ingest (a
//! bandwidth model over the staged pair count): wall-measured time must
//! never enter the schedule, or `modeled_time` would vary run to run and
//! with the rayon pool's thread count (see DESIGN.md, "Threading model &
//! determinism policy"). Only the host DBSCAN stage and the explicitly
//! named `wall_time` fields are wall-clock measurements.

use crate::backend::{select_backend, BackendDecision, ChosenBackend, IndexBackend};
use crate::batch::{BatchConfig, BatchPlan};
use crate::dbscan::{Clustering, Dbscan, TableSource};
use crate::kernels::{
    GpuCalcGlobal, GpuCalcShared, GpuCalcTree, NeighborCountKernel, NeighborPair, TreeCountKernel,
};
use crate::levels::CoreForest;
use crate::table::{NeighborTable, NeighborTableBuilder};
use gpu_sim::device::Device;
use gpu_sim::error::DeviceError;
use gpu_sim::hostmem::PinnedBuffer;
use gpu_sim::memory::{DeviceAppendBuffer, DeviceBuffer, DeviceCounter};
use gpu_sim::profiler::KernelProfile;
use gpu_sim::stream::{schedule_chains, OpSpec};
use gpu_sim::thrust;
use gpu_sim::time::{SimDuration, SimTime};
use gpu_sim::timeline::{Engine, Timeline};
use gpu_sim::KernelReport;
use obs::{Recorder, SpanGuard};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use spatial::grid::{CellRange, CellsView};
use spatial::presort::{spatial_sort_permutation, SortPermutation};
use spatial::{GridIndexN, MemberStoreN, PackedKdTree, Point2, PointN, PointStoreN, TreeView};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Which ε-neighborhood kernel to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum KernelChoice {
    /// GPUCalcGlobal (Algorithm 2) — the paper's winner, used by default.
    Global,
    /// GPUCalcShared (Algorithm 3) — evaluated in Table II.
    Shared,
}

/// Configuration of a Hybrid-DBSCAN run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HybridConfig {
    pub kernel: KernelChoice,
    /// Which ε-search index to build and traverse (grid, tree, or
    /// per-workload auto-selection). The shared kernel always uses the
    /// grid regardless of this setting. Defaults to `Grid` — the paper's
    /// structure, and bit-for-bit the pre-backend pipeline.
    pub backend: IndexBackend,
    /// Threads per block (paper: 256).
    pub block_dim: u32,
    /// Batching-scheme tunables.
    pub batch: BatchConfig,
    /// Overflow-recovery retries (each replans `n_b` from the exact
    /// counted |R|). The published α makes retries unnecessary; this
    /// guards adversarial estimates.
    pub max_retries: usize,
}

impl Default for HybridConfig {
    fn default() -> Self {
        HybridConfig {
            kernel: KernelChoice::Global,
            backend: IndexBackend::Grid,
            block_dim: 256,
            batch: BatchConfig::default(),
            max_retries: 4,
        }
    }
}

/// Host lanes ingesting batch results into `T` (paper: the 3 batching
/// threads double as constructors).
const HOST_LANES: usize = 3;

/// Bytes of one result pair in the device and staging buffers.
const PAIR_BYTES: usize = std::mem::size_of::<NeighborPair>();

/// Sustained host-lane ingest throughput, pairs per second: one pass of
/// run detection over the sorted keys plus a memcpy-class copy of the
/// 8-byte pairs into the builder's per-batch segment.
const INGEST_PAIRS_PER_SEC: f64 = 400.0e6;
/// Fixed per-batch ingest overhead (builder bookkeeping, segment setup).
const INGEST_OVERHEAD_US: f64 = 5.0;

/// Modeled duration of ingesting `n` staged pairs into the table builder.
///
/// A pure function of the pair count — the determinism policy (DESIGN.md)
/// forbids wall-measured durations in the scheduled op chains, since the
/// schedule's makespan feeds [`GpuPhaseReport::modeled_time`], which must
/// be bitwise identical across runs and thread counts.
fn ingest_time_model(n: usize) -> SimDuration {
    SimDuration::from_micros(INGEST_OVERHEAD_US)
        + SimDuration::from_secs(n as f64 / INGEST_PAIRS_PER_SEC)
}

/// Timing and profiling of the GPU phase (neighbor-table construction).
#[derive(Debug, Clone)]
pub struct GpuPhaseReport {
    /// Modeled time of the whole table-construction phase: uploads,
    /// estimation, pinned allocation, and the overlapped batch schedule.
    /// This is the paper's "Hybrid: GPU Time" curve.
    pub modeled_time: SimDuration,
    /// Host wall-clock time actually spent (for honesty in reports).
    pub wall_time: std::time::Duration,
    /// The batch plan actually executed. If overflow retries occurred this
    /// is the *retried* plan (replanned `n_batches`), not the initial one —
    /// post-retry telemetry must describe the run that produced the
    /// results, and `plan.n_batches` always equals [`Self::n_batches`].
    pub plan: BatchPlan,
    /// Batches actually run (= `plan.n_batches`).
    pub n_batches: usize,
    /// Total result-set pairs produced (`|R|` = `|B|`).
    pub result_pairs: usize,
    /// Pairs produced by each executed batch, in batch order — the
    /// planned-vs-actual telemetry behind the batching scheme's
    /// estimation-accuracy metrics.
    pub per_batch_pairs: Vec<usize>,
    /// Aggregated kernel launches.
    pub kernel_profile: KernelProfile,
    /// Estimation-kernel sample count `e_b`.
    pub e_b: u64,
    /// Which ε-search backend ran, and why (the `Auto` policy's inputs).
    pub backend: BackendDecision,
    /// Overflow retries performed.
    pub retries: usize,
    /// Batches run by overflowed (discarded) passes across all retries.
    pub discarded_batches: usize,
    /// Pairs materialized then thrown away by overflowed passes — the
    /// true cost of a bad estimate.
    pub discarded_pairs: usize,
    /// Component breakdown of `modeled_time` (the serial preamble parts)
    /// and of the overlapped batch schedule (per-engine sums; these
    /// overlap, so they exceed `batch_schedule_time`).
    pub breakdown: GpuPhaseBreakdown,
    /// The full batch schedule (per-op placements); render with
    /// [`gpu_sim::stream::Schedule::render_gantt`] to visualize the
    /// copy/compute overlap.
    pub schedule: gpu_sim::stream::Schedule,
}

/// Where the GPU phase spends its modeled time.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct GpuPhaseBreakdown {
    pub upload_time: SimDuration,
    pub estimation_time: SimDuration,
    pub pinned_alloc_time: SimDuration,
    /// Makespan of the overlapped per-batch schedule.
    pub batch_schedule_time: SimDuration,
    /// Serial sums per operation kind (overlapped in the schedule).
    pub kernel_time: SimDuration,
    pub sort_time: SimDuration,
    pub d2h_time: SimDuration,
    pub ingest_time: SimDuration,
}

/// Timing breakdown of a full run (the three curves of Figure 3).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct HybridTimings {
    /// Table construction (modeled device + overlapped host).
    pub gpu_phase: SimDuration,
    /// Host DBSCAN over the table (measured).
    pub dbscan: SimDuration,
    /// `gpu_phase + dbscan`.
    pub total: SimDuration,
}

/// The output of [`HybridDbscan::run`].
#[derive(Debug, Clone)]
pub struct HybridResult {
    /// Cluster labels in the *caller's* point order.
    pub clustering: Clustering,
    pub timings: HybridTimings,
    pub gpu: GpuPhaseReport,
}

/// A constructed neighbor table together with the permutation needed to
/// translate between caller order and table (spatially sorted) order.
pub struct TableHandle {
    /// `T`, keyed in spatially-sorted id space (device layout).
    pub table: NeighborTable,
    /// `perm[k]` = original index of sorted position `k`.
    pub perm: Vec<u32>,
    /// Visit order for DBSCAN: sorted-space ids in ascending original-id
    /// order (`visit_order[i] = sorted position of original point i`), so
    /// table-driven runs match the reference implementation's border
    /// assignments exactly.
    pub visit_order: Vec<u32>,
    pub gpu: GpuPhaseReport,
    /// The core-level forest every clustering after the first reads its
    /// labels from, built by the first call that needs it.
    forest: OnceLock<CoreForest>,
    /// Set by the first [`HybridDbscan::cluster_with_table`] call.
    clustered: AtomicBool,
}

/// Errors from a Hybrid-DBSCAN run.
#[derive(Debug)]
pub enum HybridError {
    Device(DeviceError),
    /// The result buffers kept overflowing after `max_retries` replans.
    RetriesExhausted {
        attempts: usize,
    },
    /// The input cannot be indexed: empty data, ε not positive and
    /// finite, a non-finite coordinate, or more points than `u32` ids.
    /// Nothing was uploaded.
    InvalidInput(String),
}

impl std::fmt::Display for HybridError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HybridError::Device(e) => write!(f, "device error: {e}"),
            HybridError::RetriesExhausted { attempts } => {
                write!(f, "batch buffers overflowed after {attempts} attempts")
            }
            HybridError::InvalidInput(why) => write!(f, "invalid input: {why}"),
        }
    }
}

impl std::error::Error for HybridError {}

impl From<DeviceError> for HybridError {
    fn from(e: DeviceError) -> Self {
        HybridError::Device(e)
    }
}

/// The prepare stage's input check, run before the pre-sort: a NaN would
/// break the pre-sort's total order and the grid's cell mapping, and
/// point ids are `u32` on the device. The sharded build runs it too,
/// before its global pre-sort and slab plan.
pub(crate) fn validate_input<const D: usize>(
    eps: f64,
    mut points: impl ExactSizeIterator<Item = [f64; D]>,
) -> Result<(), HybridError> {
    let n = points.len();
    let why = if n == 0 {
        "cannot cluster an empty database".to_string()
    } else if n > u32::MAX as usize {
        format!("{n} points exceed the u32 point-id space")
    } else if !(eps > 0.0 && eps.is_finite()) {
        format!("eps must be positive and finite, got {eps}")
    } else if let Some(i) = points.position(|p| !p.iter().all(|c| c.is_finite())) {
        format!("point {i} has a non-finite coordinate")
    } else {
        return Ok(());
    };
    Err(HybridError::InvalidInput(why))
}

/// `visit_order[original id] = sorted position`: the inverse of `perm`.
pub(crate) fn visit_order(perm: &[u32]) -> Vec<u32> {
    let mut order = vec![0u32; perm.len()];
    for (k, &orig) in perm.iter().enumerate() {
        order[orig as usize] = k as u32;
    }
    order
}

/// DBSCAN over a table in sorted-id space: points are visited in the
/// caller's original order (via `visit_order`) and the labels mapped back
/// through `perm`, so the result is *identical* to the reference
/// implementation's — not merely equivalent.
pub(crate) fn cluster_sorted_table(
    table: &NeighborTable,
    perm: &[u32],
    visit_order: &[u32],
    minpts: usize,
) -> Clustering {
    Dbscan::new(minpts)
        .run_with_order(&TableSource::new(table), Some(visit_order))
        .unpermute(perm)
}

/// Output of one batch pass: the filled builder, per-batch operation
/// chains for scheduling, the kernel profile, and the per-batch pair
/// counts.
type BatchPassOutput = (
    NeighborTableBuilder,
    Vec<Vec<OpSpec>>,
    KernelProfile,
    Vec<usize>,
);

/// Result of one full pass over the batches.
enum BatchPass {
    /// No buffer overflowed: the pass's outputs are final.
    Complete(BatchPassOutput),
    /// At least one batch overflowed. The pass ran *every* batch anyway
    /// (the append cursor counts attempts past capacity), so the true
    /// `|R|` is now known exactly and the caller can replan with
    /// Equation 1 instead of blindly doubling `n_b`.
    Overflowed {
        /// Exact total append attempts across all batches (= `|R|`).
        required_total: u64,
        /// Largest single-batch requirement — the minimal buffer size
        /// that makes the current batch assignment overflow-free.
        max_required: usize,
        /// Pairs materialized (then discarded) by the failed pass.
        produced_pairs: usize,
        /// Batches the failed pass ran (all of them — discarded work).
        batches: usize,
    },
}

/// Device-resident `G`, in either layout. Dense is the single flat range
/// array (one H2D transfer); sparse uploads the sorted non-empty `u64`
/// keys and their ranges — O(|D|) device memory instead of one range per
/// cell of the bounding box.
pub(crate) enum DeviceCells {
    Dense(DeviceBuffer<CellRange>),
    Sparse {
        keys: DeviceBuffer<u64>,
        ranges: DeviceBuffer<CellRange>,
    },
}

impl DeviceCells {
    /// Upload `G` to the device, returning the summed H2D transfer time.
    pub(crate) fn upload(
        device: &Device,
        cells: CellsView<'_>,
    ) -> Result<(Self, SimDuration), DeviceError> {
        Ok(match cells {
            CellsView::Dense(ranges) => {
                let (buf, t) = DeviceBuffer::from_host(device, ranges, false)?;
                (DeviceCells::Dense(buf), t)
            }
            CellsView::Sparse { keys, ranges } => {
                let (keys, t_k) = DeviceBuffer::from_host(device, keys, false)?;
                let (ranges, t_r) = DeviceBuffer::from_host(device, ranges, false)?;
                (DeviceCells::Sparse { keys, ranges }, t_k + t_r)
            }
        })
    }

    /// The device-resident `G` as the layout-agnostic kernel view.
    pub(crate) fn view(&self) -> CellsView<'_> {
        match self {
            DeviceCells::Dense(ranges) => CellsView::Dense(ranges.as_slice()),
            DeviceCells::Sparse { keys, ranges } => CellsView::Sparse {
                keys: keys.as_slice(),
                ranges: ranges.as_slice(),
            },
        }
    }
}

/// Device-resident packed kd-tree: the four SoA node-pool buffers
/// (splits, axes, leaf ranges, reordered ids — the tree's `A`).
struct TreeBuffers {
    splits: DeviceBuffer<f64>,
    axes: DeviceBuffer<u32>,
    ranges: DeviceBuffer<CellRange>,
    ids: DeviceBuffer<u32>,
}

impl TreeBuffers {
    /// Upload the node pool, returning the summed H2D transfer time.
    fn upload<const D: usize>(
        device: &Device,
        tree: &PackedKdTree<D>,
    ) -> Result<(Self, SimDuration), DeviceError> {
        let v = tree.view();
        let (splits, t0) = DeviceBuffer::from_host(device, v.splits, false)?;
        let (axes, t1) = DeviceBuffer::from_host(device, v.axes, false)?;
        let (ranges, t2) = DeviceBuffer::from_host(device, v.ranges, false)?;
        let (ids, t3) = DeviceBuffer::from_host(device, v.ids, false)?;
        Ok((
            TreeBuffers {
                splits,
                axes,
                ranges,
                ids,
            },
            t0 + t1 + t2 + t3,
        ))
    }

    fn view(&self) -> TreeView<'_> {
        TreeView {
            splits: self.splits.as_slice(),
            axes: self.axes.as_slice(),
            ranges: self.ranges.as_slice(),
            ids: self.ids.as_slice(),
        }
    }
}

/// The prepare stage's host index, before its device upload — split from
/// [`DeviceIndex`] so `ConstructIndex` stays inside the `index_build`
/// span while the H2D transfers land in `h2d_upload`.
enum HostIndex<const D: usize> {
    Grid(GridIndexN<D>),
    Tree(PackedKdTree<D>),
}

/// The search index after the upload stage: the host grid (its geometry
/// and schedule drive the kernels) with `G` and `A` on the device, or the
/// uploaded kd-tree node pool.
enum DeviceIndex<const D: usize> {
    Grid {
        grid: GridIndexN<D>,
        cells: DeviceCells,
        /// `A`, held for device-memory accounting: the kernels scan its
        /// host-side mirror ([`Prepared::members`]).
        _lookup: DeviceBuffer<u32>,
    },
    Tree(TreeBuffers),
}

/// What the upload stage leaves on the device.
struct Uploaded<const D: usize> {
    /// `D`, held for device-memory accounting.
    _points: DeviceBuffer<PointN<D>>,
    index: DeviceIndex<D>,
    /// Summed H2D time of `D` and the index.
    time: SimDuration,
}

/// The prepare stage's output: the sorted points with their SoA mirrors
/// and the chosen backend's host index.
struct Prepared<const D: usize> {
    perm: SortPermutation,
    sorted: Vec<PointN<D>>,
    /// The SoA coordinate store the kernels load each thread's point from
    /// (host-side layout only — the device upload stays the one point
    /// array).
    store: PointStoreN<D>,
    /// The same coordinates in the index's member order (`A` for the
    /// grid, leaf order for the tree): the runs the kernels' inner loops
    /// scan. Host-side layout only, like `store`.
    members: MemberStoreN<D>,
    decision: BackendDecision,
    index: HostIndex<D>,
}

/// The estimate stage's output.
struct Estimate {
    report: KernelReport,
    /// Estimation-kernel sample count `e_b`.
    e_b: u64,
}

/// The execute stage's output: the filled builder and the batch facts
/// the finalize stage schedules and reports.
struct Executed {
    /// The executed (post-retry) plan.
    plan: BatchPlan,
    builder: NeighborTableBuilder,
    chains: Vec<Vec<OpSpec>>,
    /// Batch kernels only; finalize folds in the estimation launch.
    profile: KernelProfile,
    per_batch_pairs: Vec<usize>,
    pinned_alloc_time: SimDuration,
    retries: usize,
    discarded_batches: usize,
    discarded_pairs: usize,
}

/// The whole-build wall clock and `build_table` span, opened by
/// [`HybridDbscan::begin`] and closed by the finalize stage.
struct BuildScope<'r> {
    wall_start: Instant,
    span: Option<SpanGuard<'r>>,
}

/// The Hybrid-DBSCAN engine (Algorithm 4).
pub struct HybridDbscan {
    device: Device,
    config: HybridConfig,
    recorder: Option<Arc<Recorder>>,
    /// Device index for recorded timeline ops (sharded runs give each
    /// shard its own lane group in the Chrome trace).
    trace_device: u32,
}

impl HybridDbscan {
    pub fn new(device: &Device, config: HybridConfig) -> Self {
        HybridDbscan {
            device: device.clone(),
            config,
            recorder: None,
            trace_device: 0,
        }
    }

    /// Attach an [`obs::Recorder`]: every subsequent run records spans,
    /// device-timeline operations, and batching/kernel metrics into it.
    pub fn with_recorder(mut self, recorder: Arc<Recorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Record device-timeline ops under device index `device` (default 0)
    /// so per-shard runs land on distinct Chrome-trace lane groups.
    pub fn with_trace_lane(mut self, device: u32) -> Self {
        self.trace_device = device;
        self
    }

    pub fn config(&self) -> &HybridConfig {
        &self.config
    }

    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Full Algorithm 4: construct `T` on the (simulated) GPU, then run
    /// DBSCAN over it. Labels are returned in the caller's point order.
    pub fn run(
        &self,
        data: &[Point2],
        eps: f64,
        minpts: usize,
    ) -> Result<HybridResult, HybridError> {
        let rec = self.recorder.as_deref();
        let run_span = rec.map(|r| {
            let mut s = r.span("hybrid_dbscan", "run");
            s.arg("n_points", data.len())
                .arg("eps", eps)
                .arg("minpts", minpts);
            s
        });
        let handle = self.build_table(data, eps)?;
        let dbscan_span = rec.map(|r| r.span("dbscan", "host"));
        let (clustering, dbscan_time) = Self::cluster_with_table(&handle, minpts);
        drop(dbscan_span);
        if let Some(r) = rec {
            r.metrics()
                .observe("dbscan.duration_ms", dbscan_time.as_millis());
            r.metrics()
                .gauge_set("dbscan.clusters", clustering.num_clusters() as f64);
        }
        drop(run_span);
        let timings = HybridTimings {
            gpu_phase: handle.gpu.modeled_time,
            dbscan: dbscan_time,
            total: handle.gpu.modeled_time + dbscan_time,
        };
        Ok(HybridResult {
            clustering,
            timings,
            gpu: handle.gpu,
        })
    }

    /// Run DBSCAN over an existing table handle (the data-reuse path,
    /// scenario S3). Returns labels in caller order plus the measured
    /// DBSCAN duration.
    ///
    /// The first call on a handle runs Algorithm 1 over `T`. Every later
    /// call reads its clustering off the handle's core-level forest (see
    /// `levels`), built once by the first of them, so a table clustered
    /// at many `minpts` is scanned for core points once. Building the
    /// forest costs more than one seed expansion, so a table clustered
    /// once never builds it. Both paths give identical labels.
    ///
    /// # Panics
    ///
    /// If `minpts` is 0, like [`Dbscan::new`].
    pub fn cluster_with_table(handle: &TableHandle, minpts: usize) -> (Clustering, SimDuration) {
        assert!(minpts >= 1, "minpts must be at least 1");
        let t0 = Instant::now();
        // The flag only picks a path (both give the same labels); the
        // forest is published by the `OnceLock`.
        let clustering = if handle.clustered.swap(true, Ordering::Relaxed) {
            handle
                .forest
                .get_or_init(|| CoreForest::build(&handle.table))
                .snapshot(&handle.table, &handle.perm, &handle.visit_order, minpts)
        } else {
            cluster_sorted_table(&handle.table, &handle.perm, &handle.visit_order, minpts)
        };
        (clustering, t0.elapsed().into())
    }

    /// Construct the neighbor table `T` for `data` at `eps` (lines 2-8 of
    /// Algorithm 4, including the batching scheme of Section VI) — the
    /// front half of the stage pipeline (see the module docs), the same
    /// at every dimension.
    ///
    /// Every backend and kernel yields the same table: all enumerate the
    /// exact closed ε-ball with the same rounding order, the count
    /// kernels make `e_b` (hence the plan) equal, and the canonical device
    /// sort erases append-order differences.
    pub fn build_table<const D: usize>(
        &self,
        data: &[PointN<D>],
        eps: f64,
    ) -> Result<TableHandle, HybridError> {
        let scope = self.begin(data.len(), eps);
        let prep = self.prepare(data, eps)?;
        let up = self.upload(&prep.sorted, prep.index)?;
        let (n, points, block_dim) = (data.len(), prep.store.view(), self.config.block_dim);
        let members = prep.members.view();
        let dev = &self.device;
        let est = self.estimate(n, |stride, counter| match &up.index {
            DeviceIndex::Grid { grid, cells, .. } => {
                let k = NeighborCountKernel {
                    points,
                    grid: cells.view(),
                    members,
                    geom: grid.geometry(),
                    eps,
                    stride,
                    counter,
                };
                dev.launch(k.launch_config(block_dim), &k)
            }
            DeviceIndex::Tree(tree) => {
                let k = TreeCountKernel {
                    points,
                    tree: tree.view(),
                    members,
                    eps,
                    stride,
                    counter,
                };
                dev.launch(k.launch_config(block_dim), &k)
            }
        })?;
        let mut plan = self.plan(est.e_b, n)?;
        let shared_batches = match (&up.index, self.config.kernel) {
            (DeviceIndex::Grid { grid, .. }, KernelChoice::Shared) => {
                Some(self.pack_shared(grid, &mut plan)?)
            }
            _ => None,
        };
        let executed = self.execute(
            n,
            eps,
            plan,
            |batch, n_batches, result: &DeviceAppendBuffer<NeighborPair>| match &up.index {
                DeviceIndex::Tree(tree) => {
                    let k = GpuCalcTree {
                        points,
                        tree: tree.view(),
                        members,
                        eps,
                        batch,
                        n_batches,
                        result,
                    };
                    Some(dev.launch(k.launch_config(block_dim), &k))
                }
                DeviceIndex::Grid { grid, cells, .. } => match &shared_batches {
                    None => {
                        let k = GpuCalcGlobal {
                            points,
                            grid: cells.view(),
                            members,
                            geom: grid.geometry(),
                            eps,
                            batch,
                            n_batches,
                            result,
                            skip_dense_at: None,
                        };
                        Some(dev.launch(k.launch_config(block_dim), &k))
                    }
                    // An empty shared batch launches nothing.
                    Some(batches) if batches[batch].is_empty() => None,
                    Some(batches) => {
                        let k = GpuCalcShared {
                            grid: cells.view(),
                            members,
                            geom: grid.geometry(),
                            eps,
                            schedule: &batches[batch],
                            result,
                        };
                        Some(dev.launch(k.launch_config(block_dim), &k))
                    }
                },
            },
        )?;
        Ok(self.finalize(scope, prep.perm, prep.decision, up.time, est, executed))
    }

    /// A host-category span on the attached recorder, if any.
    fn span(&self, name: &'static str) -> Option<SpanGuard<'_>> {
        self.recorder.as_deref().map(|r| r.span(name, "host"))
    }

    /// Open a table build: start its wall clock and `build_table` span.
    fn begin(&self, n: usize, eps: f64) -> BuildScope<'_> {
        BuildScope {
            wall_start: Instant::now(),
            span: self.recorder.as_deref().map(|r| {
                let mut s = r.span("build_table", "hybrid");
                s.arg("n_points", n).arg("eps", eps);
                s
            }),
        }
    }

    /// Prepare stage: validate, pre-sort, select the backend, and build
    /// the host index.
    fn prepare<const D: usize>(
        &self,
        data: &[PointN<D>],
        eps: f64,
    ) -> Result<Prepared<D>, HybridError> {
        validate_input(eps, data.iter().map(|p| p.coords))?;
        let _span = self.span("index_build");
        // Spatial pre-sort (Section IV): improves locality and makes the
        // strided batch assignment a uniform spatial sample.
        let perm = spatial_sort_permutation(data);
        let sorted = perm.apply(data);
        // Both backends enumerate the exact closed ε-ball, so the table
        // is bitwise identical either way; the choice only moves modeled
        // cost. The cell-driven shared kernel always forces the grid.
        let shared_kernel = self.config.kernel == KernelChoice::Shared;
        let decision = select_backend(self.config.backend, shared_kernel, &sorted, eps);
        let store = PointStoreN::from_points(&sorted);
        let index = match decision.chosen {
            // A cell space beyond u64 keys is refused here, before any
            // upload, instead of wrapping into a wrong grid.
            ChosenBackend::Grid => HostIndex::Grid(
                GridIndexN::try_build(&sorted, eps).map_err(HybridError::InvalidInput)?,
            ),
            ChosenBackend::Tree => HostIndex::Tree(PackedKdTree::build(store.view())),
        };
        let order = match &index {
            HostIndex::Grid(grid) => grid.lookup(),
            HostIndex::Tree(tree) => tree.view().ids,
        };
        let members = MemberStoreN::gather(store.view(), order);
        Ok(Prepared {
            perm,
            sorted,
            store,
            members,
            decision,
            index,
        })
    }

    /// Upload stage: H2D of the sorted points `D` plus the search index —
    /// `(G, A)` for the grid, the four node-pool arrays for the tree
    /// (pageable: one-off inputs).
    fn upload<const D: usize>(
        &self,
        sorted: &[PointN<D>],
        index: HostIndex<D>,
    ) -> Result<Uploaded<D>, HybridError> {
        let _span = self.span("h2d_upload");
        let (points, up_d) = DeviceBuffer::from_host(&self.device, sorted, false)?;
        let (index, up_index) = match index {
            HostIndex::Grid(grid) => {
                let (cells, t_g) = DeviceCells::upload(&self.device, grid.cells_view())?;
                let (lookup, t_a) = DeviceBuffer::from_host(&self.device, grid.lookup(), false)?;
                (
                    DeviceIndex::Grid {
                        grid,
                        cells,
                        _lookup: lookup,
                    },
                    t_g + t_a,
                )
            }
            HostIndex::Tree(tree) => {
                let (bufs, t) = TreeBuffers::upload(&self.device, &tree)?;
                (DeviceIndex::Tree(bufs), t)
            }
        };
        Ok(Uploaded {
            _points: points,
            index,
            time: up_d + up_index,
        })
    }

    /// Estimate stage: run the result-size count kernel `count(stride,
    /// counter)` over the configured sample. Both backends' count kernels
    /// are exact at a given stride, so `e_b` — and with it the batch plan
    /// — is backend-independent.
    fn estimate(
        &self,
        n: usize,
        count: impl FnOnce(usize, &DeviceCounter) -> Result<KernelReport, DeviceError>,
    ) -> Result<Estimate, HybridError> {
        let span = self.span("estimation_kernel");
        let counter = DeviceCounter::new(&self.device)?;
        // The stride and the estimate scaling must come from the same
        // place (BatchConfig), or the realized sample fraction and the
        // assumed one drift apart and bias a_b.
        let stride = self.config.batch.stride_for(n);
        let report = count(stride, &counter)?;
        let e_b = counter.get();
        if let Some(mut s) = span {
            s.arg("e_b", e_b).arg("stride", stride);
        }
        Ok(Estimate { report, e_b })
    }

    /// Device result buffers (and pinned staging buffers) for `plan`: one
    /// per stream, never more than there are batches.
    fn n_buffers(&self, plan: &BatchPlan) -> usize {
        self.config.batch.n_streams.min(plan.n_batches).max(1)
    }

    /// Plan stage: Equation 1 over `e_b`, fitted to the remaining device
    /// memory with a 10 % headroom. The plan scales `e_b` by the realized
    /// sample size, not by 1/f (see `BatchConfig::estimate_total`).
    fn plan(&self, e_b: u64, n: usize) -> Result<BatchPlan, HybridError> {
        let plan = self.config.batch.plan(e_b, n);
        let available = self.device.available_bytes();
        plan.fit_to_memory(
            available.saturating_sub(available / 10),
            PAIR_BYTES,
            self.n_buffers(&plan),
        )
        .ok_or(HybridError::Device(DeviceError::OutOfMemory {
            requested_bytes: PAIR_BYTES,
            available_bytes: available,
        }))
    }

    /// The shared kernel's batches: load-bound cell packings rather than
    /// point strides (see [`pack_shared_cells`]). One dense cell may force
    /// a larger buffer than Equation 1 chose; `plan` is updated to the
    /// packing's buffer size and batch count.
    fn pack_shared<const D: usize>(
        &self,
        grid: &GridIndexN<D>,
        plan: &mut BatchPlan,
    ) -> Result<Vec<Vec<u64>>, HybridError> {
        let (batches, required) = pack_shared_cells(grid, plan.buffer_items);
        if required > plan.buffer_items {
            let available = self.device.available_bytes();
            let budget = available.saturating_sub(available / 10);
            let requested_bytes = required * PAIR_BYTES * self.n_buffers(plan);
            if requested_bytes > budget {
                return Err(HybridError::Device(DeviceError::OutOfMemory {
                    requested_bytes,
                    available_bytes: budget,
                }));
            }
            plan.buffer_items = required;
        }
        plan.n_batches = batches.len().max(1);
        Ok(batches)
    }

    /// Execute stage: allocate one pinned staging buffer and one device
    /// result buffer per stream, run every batch through `launch(batch,
    /// n_batches, result)` (`None`: an empty batch, nothing launched) and,
    /// on overflow, replan from the exact counted |R| and rerun.
    fn execute<L>(
        &self,
        n: usize,
        eps: f64,
        mut plan: BatchPlan,
        launch: L,
    ) -> Result<Executed, HybridError>
    where
        L: Fn(
                usize,
                usize,
                &DeviceAppendBuffer<NeighborPair>,
            ) -> Option<Result<KernelReport, DeviceError>>
            + Sync,
    {
        let n_buffers = self.n_buffers(&plan);
        let alloc = |items: usize| -> Result<_, DeviceError> {
            let pinned: Vec<PinnedBuffer<NeighborPair>> = (0..n_buffers)
                .map(|_| PinnedBuffer::new(&self.device, items))
                .collect();
            let dev: Vec<DeviceAppendBuffer<NeighborPair>> = (0..n_buffers)
                .map(|_| DeviceAppendBuffer::new(&self.device, items))
                .collect::<Result<_, _>>()?;
            Ok((pinned, dev))
        };
        let (mut pinned, mut dev_buffers) = alloc(plan.buffer_items)?;
        let pinned_alloc_time: SimDuration = pinned.iter().map(|p| p.alloc_time()).sum();

        let span = self.span("batch_loop");
        let mut retries = 0;
        let mut discarded_batches = 0usize;
        let mut discarded_pairs = 0usize;
        let (builder, chains, profile, per_batch_pairs) = loop {
            match self.run_batches(n, eps, &plan, &launch, &mut dev_buffers, &mut pinned)? {
                BatchPass::Complete(out) => break out,
                BatchPass::Overflowed {
                    required_total,
                    max_required,
                    produced_pairs,
                    batches,
                } => {
                    retries += 1;
                    discarded_batches += batches;
                    discarded_pairs += produced_pairs;
                    if retries > self.config.max_retries {
                        return Err(HybridError::RetriesExhausted { attempts: retries });
                    }
                    if plan.n_batches < n {
                        // The failed pass counted every append attempt,
                        // so |R| is known exactly: apply Equation 1 to
                        // the true total with a small safety margin.
                        // This lands on the minimal batch count instead
                        // of overshooting by powers of two, keeping the
                        // executed n_b monotone in the configured α.
                        // Per-batch skew can still defeat the uniform-
                        // batch assumption; fall back to doubling then.
                        let margin = plan.effective_alpha.max(self.config.batch.alpha).max(0.05);
                        let replanned = plan.replan_for_total(required_total, margin);
                        plan = if replanned.n_batches > plan.n_batches {
                            replanned
                        } else {
                            plan.with_doubled_batches()
                        };
                        // More batches than points is pure overhead.
                        plan.n_batches = plan.n_batches.min(n);
                    } else {
                        // Already one point per batch and still
                        // overflowing: the buffer is smaller than a
                        // single ε-neighborhood, and no batch split can
                        // fix that. Grow the buffers to the exact
                        // largest requirement — deterministic success
                        // on the next pass.
                        plan.buffer_items = plan.buffer_items.max(max_required).max(1);
                        // Release the old set first: a device that fits
                        // the grown set must not fail for holding both.
                        pinned.clear();
                        dev_buffers.clear();
                        (pinned, dev_buffers) = alloc(plan.buffer_items)?;
                    }
                }
            }
        };
        if let Some(mut s) = span {
            s.arg("n_batches", plan.n_batches).arg("retries", retries);
        }
        Ok(Executed {
            plan,
            builder,
            chains,
            profile,
            per_batch_pairs,
            pinned_alloc_time,
            retries,
            discarded_batches,
            discarded_pairs,
        })
    }

    /// Finalize stage: replay the batch chains through the 3-stream
    /// scheduler for the modeled GPU-phase time (serial preamble —
    /// uploads, estimation, pinned allocation — plus the overlapped batch
    /// makespan), finalize `T`, record telemetry, and close the build.
    fn finalize(
        &self,
        scope: BuildScope<'_>,
        perm: SortPermutation,
        decision: BackendDecision,
        upload_time: SimDuration,
        est: Estimate,
        ex: Executed,
    ) -> TableHandle {
        let mut timeline = Timeline::new(HOST_LANES);
        let schedule = schedule_chains(&mut timeline, &ex.chains, self.config.batch.n_streams);
        let sum_label = |label: &str| -> SimDuration {
            ex.chains
                .iter()
                .flatten()
                .filter(|op| op.label == label)
                .map(|op| op.duration)
                .sum()
        };
        let breakdown = GpuPhaseBreakdown {
            upload_time,
            estimation_time: est.report.duration,
            pinned_alloc_time: ex.pinned_alloc_time,
            batch_schedule_time: schedule.makespan,
            kernel_time: sum_label("kernel"),
            sort_time: sum_label("sort"),
            d2h_time: sum_label("d2h"),
            ingest_time: sum_label("ingest"),
        };
        let modeled_time =
            upload_time + est.report.duration + ex.pinned_alloc_time + schedule.makespan;
        let table = ex.builder.finalize();
        let mut gpu = GpuPhaseReport {
            modeled_time,
            wall_time: std::time::Duration::ZERO,
            plan: ex.plan,
            n_batches: ex.plan.n_batches,
            result_pairs: ex.per_batch_pairs.iter().sum(),
            per_batch_pairs: ex.per_batch_pairs,
            kernel_profile: ex.profile,
            e_b: est.e_b,
            backend: decision,
            retries: ex.retries,
            discarded_batches: ex.discarded_batches,
            discarded_pairs: ex.discarded_pairs,
            breakdown,
            schedule,
        };
        if let Some(r) = self.recorder.as_deref() {
            self.record_gpu_phase(r, &gpu, &est.report);
        }
        gpu.kernel_profile.record(&est.report);
        gpu.wall_time = scope.wall_start.elapsed();
        if let Some(mut s) = scope.span {
            s.arg("backend", decision.chosen.name());
            s.arg("modeled_ms", format!("{:.3}", modeled_time.as_millis()));
            s.set_sim(SimTime::ZERO, modeled_time);
        }
        let perm = perm.as_slice().to_vec();
        TableHandle {
            table,
            visit_order: visit_order(&perm),
            perm,
            gpu,
            forest: OnceLock::new(),
            clustered: AtomicBool::new(false),
        }
    }

    /// Record the GPU phase into an [`obs::Recorder`]: the device-timeline
    /// track (preamble + overlapped batch schedule, same labels as
    /// [`gpu_sim::stream::Schedule::render_gantt`]) and the batching /
    /// kernel metrics. `gpu.kernel_profile` holds the batch kernels only.
    fn record_gpu_phase(&self, r: &Recorder, gpu: &GpuPhaseReport, est_report: &KernelReport) {
        // Device track: the serial preamble occupies its engines back to
        // back, then the batch schedule replays shifted past it.
        let (dev, breakdown, schedule) = (self.trace_device, &gpu.breakdown, &gpu.schedule);
        let mut t = SimTime::ZERO;
        r.record_device_op_on(dev, Engine::H2D, "upload", 0, 0, t, breakdown.upload_time);
        t = t + breakdown.upload_time;
        r.record_device_op_on(
            dev,
            Engine::Compute,
            "estimation",
            0,
            0,
            t,
            breakdown.estimation_time,
        );
        t = t + breakdown.estimation_time;
        r.record_device_op_on(
            dev,
            Engine::Host(0),
            "pinned_alloc",
            0,
            0,
            t,
            breakdown.pinned_alloc_time,
        );
        t = t + breakdown.pinned_alloc_time;
        r.record_schedule_on(dev, schedule, t - SimTime::ZERO);

        // Batching-scheme telemetry: how good was the estimate, and how
        // much of the overestimated buffers did the batches actually use?
        let (m, plan, actual) = (r.metrics(), &gpu.plan, gpu.result_pairs);
        m.counter_add("batch.e_b", gpu.e_b);
        m.gauge_set(
            "estimation.sample_fraction",
            self.config.batch.sample_fraction,
        );
        m.counter_add("batch.batches_run", gpu.per_batch_pairs.len() as u64);
        m.counter_add("batch.retries", gpu.retries as u64);
        m.counter_add("batch.discarded_batches", gpu.discarded_batches as u64);
        m.counter_add("batch.discarded_pairs", gpu.discarded_pairs as u64);
        m.counter_add("batch.result_pairs", actual as u64);
        m.gauge_set("batch.estimated_total", plan.estimated_total as f64);
        m.gauge_set("batch.overestimation_factor", 1.0 + plan.effective_alpha);
        if plan.estimated_total > 0 {
            m.gauge_set(
                "batch.estimation_accuracy",
                actual as f64 / plan.estimated_total as f64,
            );
        }
        let capacity = (plan.buffer_items * gpu.per_batch_pairs.len()).max(1);
        m.gauge_set("batch.buffer_utilization", actual as f64 / capacity as f64);
        for &pairs in &gpu.per_batch_pairs {
            m.observe("batch.pairs", pairs as f64);
            m.observe(
                "batch.fill_fraction",
                pairs as f64 / plan.buffer_items.max(1) as f64,
            );
        }

        // Backend-selection telemetry: what ran and what the sampled
        // statistics said (zeros when the decision didn't need stats).
        let decision = &gpu.backend;
        m.counter_add(
            match decision.chosen {
                ChosenBackend::Grid => "backend.grid_runs",
                ChosenBackend::Tree => "backend.tree_runs",
            },
            1,
        );
        m.gauge_set("backend.cell_cv", decision.cell_cv);
        m.gauge_set("backend.mean_occupancy", decision.mean_occupancy);

        // Per-kernel profile metrics (the estimation launch is kept
        // separate from the batch kernels so their occupancies don't mix).
        let kernel_name = match (decision.chosen, self.config.kernel) {
            (ChosenBackend::Tree, _) => "gpucalc_tree",
            (ChosenBackend::Grid, KernelChoice::Global) => "gpucalc_global",
            (ChosenBackend::Grid, KernelChoice::Shared) => "gpucalc_shared",
        };
        obs::bench::record_kernel_profile(m, kernel_name, &gpu.kernel_profile);
        m.counter_add("kernel.estimation.launches", 1);
        m.gauge_set("kernel.estimation.occupancy", est_report.occupancy);
        let est_secs = est_report.duration.as_secs();
        m.gauge_set(
            "kernel.estimation.gmem_gbps",
            if est_secs == 0.0 {
                0.0
            } else {
                est_report.counters.global_bytes() as f64 / est_secs / 1e9
            },
        );

        // Schedule-shape metrics: overlap achieved by the 3 streams.
        let serial = schedule.serial_time().as_secs();
        let makespan = schedule.makespan.as_secs();
        m.gauge_set("schedule.makespan_ms", schedule.makespan.as_millis());
        m.gauge_set(
            "schedule.overlap_factor",
            if makespan == 0.0 {
                0.0
            } else {
                serial / makespan
            },
        );
    }

    /// Run all batches of `plan` as a wall-clock pipeline mirroring the
    /// modeled stream schedule: one pool-driven worker per stream, each
    /// owning its device/pinned buffer pair and executing its batches
    /// (`l ≡ stream (mod n_buffers)`, the serial loop's exact buffer
    /// assignment) kernel → sort → D2H → ingest in order. Kernels still
    /// serialize on the device's compute engine, but the host-side sort,
    /// staging copy, and table ingest of batch *l* now overlap the kernel
    /// of batch *l+1* in wall-clock, exactly as the modeled 3-stream
    /// schedule overlaps them on the timeline.
    ///
    /// Returns [`BatchPass::Overflowed`] (with exact per-batch
    /// requirement counts for replanning) if any batch overflowed its
    /// buffer, otherwise the filled builder, the per-batch operation
    /// chains for scheduling, the kernel profile, and the per-batch pair
    /// counts.
    ///
    /// INVARIANT (threading policy, DESIGN.md): every outcome a worker
    /// produces — kernel report, sorted sequence, staged length, modeled
    /// durations — is a pure function of its batch index, and the drain
    /// loop below merges them in batch order. The pipeline therefore
    /// yields bit-identical tables, profiles, and `modeled_time` at every
    /// thread count, including 1 (where the workers simply run one after
    /// another).
    fn run_batches<L>(
        &self,
        n: usize,
        eps: f64,
        plan: &BatchPlan,
        launch: &L,
        dev_buffers: &mut [DeviceAppendBuffer<NeighborPair>],
        pinned: &mut [PinnedBuffer<NeighborPair>],
    ) -> Result<BatchPass, HybridError>
    where
        L: Fn(
                usize,
                usize,
                &DeviceAppendBuffer<NeighborPair>,
            ) -> Option<Result<KernelReport, DeviceError>>
            + Sync,
    {
        let n_b = plan.n_batches;
        let n_buffers = dev_buffers.len();
        let builder = NeighborTableBuilder::new(eps, n, n_b);

        /// What one batch hands from its stream worker to the drain loop.
        struct BatchOutcome {
            /// `None` marks an empty batch (no launch).
            report: Option<KernelReport>,
            sort_time: SimDuration,
            d2h_time: SimDuration,
            staged_len: usize,
            /// Exact pairs this batch needed: every append attempt,
            /// counted past capacity. A pure function of the batch, so
            /// an overflowed pass yields the true `|R|` deterministically.
            required: usize,
        }
        let outcomes: Vec<Mutex<Option<BatchOutcome>>> =
            (0..n_b).map(|_| Mutex::new(None)).collect();
        let abort = AtomicBool::new(false);
        let overflowed = AtomicBool::new(false);
        // Lowest-batch-index error among those observed wins, so the
        // surfaced error does not depend on worker interleaving.
        let first_error: Mutex<Option<(usize, HybridError)>> = Mutex::new(None);

        let worker = |stream: usize,
                      buf: &mut DeviceAppendBuffer<NeighborPair>,
                      stage: &mut PinnedBuffer<NeighborPair>| {
            let mut l = stream;
            while l < n_b && !abort.load(Ordering::Relaxed) {
                buf.reset();

                // Kernel launch (functional execution + modeled duration);
                // the device's compute engine admits one kernel at a time.
                let report = match launch(l, n_b, buf) {
                    None => {
                        // Empty batch: no launch, empty chain.
                        *outcomes[l].lock() = Some(BatchOutcome {
                            report: None,
                            sort_time: SimDuration::ZERO,
                            d2h_time: SimDuration::ZERO,
                            staged_len: 0,
                            required: 0,
                        });
                        l += n_buffers;
                        continue;
                    }
                    Some(Ok(report)) => report,
                    Some(Err(e)) => {
                        let mut slot = first_error.lock();
                        if slot.as_ref().is_none_or(|&(l0, _)| l < l0) {
                            *slot = Some((l, e.into()));
                        }
                        abort.store(true, Ordering::Relaxed);
                        return;
                    }
                };

                if buf.overflowed() {
                    // Keep going instead of aborting: the remaining
                    // batches still run their kernels, so every batch
                    // reports its exact requirement and the retry can
                    // replan from the true |R| (which *worker* notices
                    // first is schedule-dependent, but per-batch
                    // requirements are not — the whole pass's pairs are
                    // discarded and only the counts escape).
                    overflowed.store(true, Ordering::Relaxed);
                    *outcomes[l].lock() = Some(BatchOutcome {
                        report: Some(report),
                        sort_time: SimDuration::ZERO,
                        d2h_time: SimDuration::ZERO,
                        staged_len: 0,
                        required: buf.len() + buf.rejected(),
                    });
                    l += n_buffers;
                    continue;
                }
                if overflowed.load(Ordering::Relaxed) {
                    // Another batch already overflowed: this pass is
                    // doomed, so skip the canonicalization / transfer /
                    // ingest and just report this batch's exact count.
                    *outcomes[l].lock() = Some(BatchOutcome {
                        report: Some(report),
                        sort_time: SimDuration::ZERO,
                        d2h_time: SimDuration::ZERO,
                        staged_len: 0,
                        required: buf.len(),
                    });
                    l += n_buffers;
                    continue;
                }

                // Host-side sort by key (Thrust), so identical keys are
                // adjacent before the transfer. The buffer has already
                // drained its block commits in block order (keys ascending
                // for the thread-per-point kernels, so only value runs
                // need sorting). INVARIANT (threading policy, DESIGN.md):
                // this total-order sort is what makes every kernel and
                // backend hand the staging copy and table ingest the same
                // sequence for the same pair set.
                let sort_time = thrust::sort_by_key(&self.device, buf.as_filled_mut_slice());

                // D2H straight into this stream's pinned staging area.
                // The staging buffer is reused by batch l + n_buffers —
                // same stream, so reuse serializes by construction
                // (Algorithm 4's rationale for copying values out into
                // buffer B).
                let (staged_len, d2h_time) = buf.download_into(stage);

                // Host: copy the values out of staging into T, off the
                // driving thread — the builder's lock-free claims let
                // streams ingest concurrently. The chain op's duration
                // is modeled from the staged pair count, never measured.
                builder.ingest_batch(l, stage.as_slice());

                *outcomes[l].lock() = Some(BatchOutcome {
                    report: Some(report),
                    sort_time,
                    d2h_time,
                    staged_len,
                    required: staged_len,
                });
                l += n_buffers;
            }
        };

        // Drive the stream workers. With one buffer or one thread the
        // pipeline degenerates to the workers running back to back on
        // this thread — same batch work, same outcomes.
        if n_buffers > 1 && rayon::current_num_threads() > 1 {
            rayon::scope(|s| {
                for (stream, (buf, stage)) in
                    dev_buffers.iter_mut().zip(pinned.iter_mut()).enumerate()
                {
                    let worker = &worker;
                    s.spawn(move |_| worker(stream, buf, stage));
                }
            });
        } else {
            for (stream, (buf, stage)) in dev_buffers.iter_mut().zip(pinned.iter_mut()).enumerate()
            {
                worker(stream, buf, stage);
            }
        }

        if let Some((_, e)) = first_error.into_inner() {
            return Err(e);
        }
        if overflowed.load(Ordering::Relaxed) {
            let mut required_total = 0u64;
            let mut max_required = 0usize;
            let mut produced_pairs = 0usize;
            for slot in &outcomes {
                let out = slot
                    .lock()
                    .take()
                    .expect("pipeline finished without an outcome for some batch");
                required_total += out.required as u64;
                max_required = max_required.max(out.required);
                produced_pairs += out.required.min(plan.buffer_items);
            }
            return Ok(BatchPass::Overflowed {
                required_total,
                max_required,
                produced_pairs,
                batches: n_b,
            });
        }

        // Drain outcomes in batch index order. `KernelProfile::record`
        // folds f64 sums and `schedule_chains` consumes chains
        // positionally, so this ordered merge — not the workers'
        // completion order — is what keeps `modeled_time_bits` and the
        // profile bit-identical to the serial loop.
        let mut chains: Vec<Vec<OpSpec>> = Vec::with_capacity(n_b);
        let mut profile = KernelProfile::new();
        let mut per_batch_pairs: Vec<usize> = Vec::with_capacity(n_b);
        for slot in &outcomes {
            let out = slot
                .lock()
                .take()
                .expect("pipeline finished without an outcome for some batch");
            match out.report {
                None => {
                    chains.push(Vec::new());
                    per_batch_pairs.push(0);
                }
                Some(report) => {
                    profile.record(&report);
                    per_batch_pairs.push(out.staged_len);
                    let ingest_time = ingest_time_model(out.staged_len);
                    chains.push(vec![
                        OpSpec::new(Engine::Compute, report.duration, "kernel"),
                        OpSpec::new(Engine::Compute, out.sort_time, "sort"),
                        OpSpec::new(Engine::D2H, out.d2h_time, "d2h"),
                        OpSpec::new(
                            Engine::Host(chains.len() % HOST_LANES),
                            ingest_time,
                            "ingest",
                        ),
                    ]);
                }
            }
        }

        Ok(BatchPass::Complete((
            builder,
            chains,
            profile,
            per_batch_pairs,
        )))
    }
}

/// Pack the non-empty cells of `grid` into batches for the shared kernel.
///
/// The paper's strided point assignment does not apply to a block-per-cell
/// kernel: one dense cell can emit more pairs than a whole batch budget.
/// Instead we bound each cell's output conservatively by
/// `m_h × Σ_{h' ∈ adj(h)} m_{h'}` (every pair a cell's blocks can emit is
/// counted) and first-fit cells, in schedule order, into batches whose
/// summed bound stays within `capacity`. Overflow is therefore impossible
/// by construction. Returns the batches and the capacity actually needed
/// (which exceeds `capacity` only when a single cell's bound does).
fn pack_shared_cells<const D: usize>(
    grid: &GridIndexN<D>,
    capacity: usize,
) -> (Vec<Vec<u64>>, usize) {
    let cells = grid.cells_view();
    let mut required = capacity.max(1);
    let mut bounds = Vec::with_capacity(grid.non_empty_cells().len());
    for &h in grid.non_empty_cells() {
        let m = cells.range_of(h).len();
        let (adj, n_adj) = grid.neighbor_cells(h);
        let neighborhood: usize = adj[..n_adj].iter().map(|&a| cells.range_of(a).len()).sum();
        let bound = m * neighborhood;
        required = required.max(bound);
        bounds.push((h, bound));
    }
    let mut batches: Vec<Vec<u64>> = Vec::new();
    let mut current: Vec<u64> = Vec::new();
    let mut load = 0usize;
    for (h, bound) in bounds {
        if load + bound > required && !current.is_empty() {
            batches.push(std::mem::take(&mut current));
            load = 0;
        }
        current.push(h);
        load += bound;
    }
    if !current.is_empty() {
        batches.push(current);
    }
    (batches, required)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dbscan::GridSource;
    use crate::kernels::test_support::mixed_points;
    use spatial::GridIndex;

    /// A 1-D line with a denser middle third. Per-point neighbor counts
    /// are near-constant within each region and strided batches sample
    /// both regions evenly, so per-batch result sizes have low skew —
    /// the regime of the paper's datasets, unlike `mixed_points`.
    fn gradient_line_points(n: usize) -> Vec<Point2> {
        let mut x = 0.0f64;
        (0..n)
            .map(|i| {
                let step = if (n / 3..2 * n / 3).contains(&i) {
                    0.07
                } else {
                    0.1
                };
                x += step;
                Point2::new(x, 0.5)
            })
            .collect()
    }

    fn tiny_batch_config(buffer_items: usize) -> BatchConfig {
        BatchConfig {
            alpha: 0.05,
            sample_fraction: 0.05,
            static_threshold: 0, // always static sizing
            static_buffer_items: buffer_items,
            n_streams: 3,
        }
    }

    #[test]
    fn run_matches_direct_grid_dbscan() {
        let data = mixed_points(600);
        let device = Device::k20c();
        let hybrid = HybridDbscan::new(&device, HybridConfig::default());
        for (eps, minpts) in [(0.5, 4), (1.0, 8), (0.25, 2)] {
            let result = hybrid.run(&data, eps, minpts).unwrap();
            let grid = GridIndex::build(&data, eps);
            let direct = Dbscan::new(minpts).run(&GridSource::new(&grid, &data));
            assert!(
                result.clustering.equivalent_to(&direct),
                "eps={eps} minpts={minpts}: {} vs {} clusters",
                result.clustering.num_clusters(),
                direct.num_clusters()
            );
        }
    }

    #[test]
    fn multi_batch_run_matches_single_batch() {
        let data = mixed_points(800);
        let device = Device::k20c();
        let one = HybridDbscan::new(&device, HybridConfig::default());
        let many_cfg = HybridConfig {
            batch: tiny_batch_config(2000), // forces several batches
            ..HybridConfig::default()
        };
        let many = HybridDbscan::new(&device, many_cfg);

        let r1 = one.run(&data, 0.6, 4).unwrap();
        let rn = many.run(&data, 0.6, 4).unwrap();
        assert!(rn.gpu.n_batches > 1, "test must exercise batching");
        assert!(r1.clustering.equivalent_to(&rn.clustering));
        assert_eq!(r1.gpu.result_pairs, rn.gpu.result_pairs);
    }

    #[test]
    fn shared_kernel_produces_identical_clustering() {
        let data = mixed_points(500);
        let device = Device::k20c();
        let global = HybridDbscan::new(&device, HybridConfig::default());
        let shared = HybridDbscan::new(
            &device,
            HybridConfig {
                kernel: KernelChoice::Shared,
                ..HybridConfig::default()
            },
        );
        let rg = global.run(&data, 0.7, 4).unwrap();
        let rs = shared.run(&data, 0.7, 4).unwrap();
        assert!(rg.clustering.equivalent_to(&rs.clustering));
        assert_eq!(rg.gpu.result_pairs, rs.gpu.result_pairs);
    }

    #[test]
    fn shared_kernel_multi_batch_matches() {
        let data = mixed_points(500);
        let device = Device::k20c();
        let cfg = HybridConfig {
            kernel: KernelChoice::Shared,
            batch: tiny_batch_config(3000),
            ..HybridConfig::default()
        };
        let hybrid = HybridDbscan::new(&device, cfg);
        let r = hybrid.run(&data, 0.7, 4).unwrap();
        assert!(r.gpu.n_batches > 1);
        let grid = GridIndex::build(&data, 0.7);
        let direct = Dbscan::new(4).run(&GridSource::new(&grid, &data));
        assert!(r.clustering.equivalent_to(&direct));
    }

    #[test]
    fn overflow_recovery_replans_batches() {
        let data = mixed_points(400);
        let device = Device::k20c();
        // Lie to the planner: a strongly negative α makes Equation 1 plan
        // far too few batches for the (exact, stride-1) estimate, so the
        // static per-stream buffers must overflow and the retry path
        // kicks in. (The old trick of a sample "fraction" above 1 no
        // longer works: the estimate is scaled by the realized sample
        // size, so any f with stride 1 yields an exact a_b.)
        let cfg = HybridConfig {
            batch: BatchConfig {
                alpha: -0.9,
                sample_fraction: 1.0,
                static_threshold: 0,       // static-buffer path
                static_buffer_items: 2000, // far below |R| / n_b
                n_streams: 3,
            },
            max_retries: 16,
            ..HybridConfig::default()
        };
        let hybrid = HybridDbscan::new(&device, cfg);
        let r = hybrid.run(&data, 1.0, 4).unwrap();
        assert!(r.gpu.retries > 0, "undersized plan must trigger retries");
        // The failed pass counted the true |R|, so the executed plan is
        // the minimal Equation-1 plan for it (margin 5%), not a blind
        // power-of-two overshoot.
        let minimal = (1.05 * r.gpu.result_pairs as f64 / 2000.0).ceil() as usize;
        assert_eq!(r.gpu.plan.n_batches, minimal.min(data.len()));
        assert_eq!(r.gpu.plan.estimated_total, r.gpu.result_pairs as u64);
        // Discarded-work accounting covers every retried batch.
        assert!(r.gpu.discarded_batches > 0);
        assert!(r.gpu.discarded_pairs > 0);
        // And the result is still correct.
        let grid = GridIndex::build(&data, 1.0);
        let direct = Dbscan::new(4).run(&GridSource::new(&grid, &data));
        assert!(r.clustering.equivalent_to(&direct));
    }

    /// A `side³` unit lattice whose middle third along x is compressed
    /// to spacing 0.7 — the 3-D analogue of [`gradient_line_points`].
    fn gradient_lattice_points(side: usize) -> Vec<spatial::PointN<3>> {
        let mut points = Vec::with_capacity(side * side * side);
        for y in 0..side {
            for z in 0..side {
                let mut x = 0.0f64;
                for k in 0..side {
                    x += if (side / 3..2 * side / 3).contains(&k) {
                        0.7
                    } else {
                        1.0
                    };
                    points.push(spatial::PointN::from_coords([x, y as f64, z as f64]));
                }
            }
        }
        points
    }

    /// The α-sweep static buffers: exact estimate (`a_b = |R|`), fixed
    /// `b_b`, so Equation 1 alone sets `n_b`.
    fn sweep_batch_config(alpha: f64, buffer_items: usize) -> BatchConfig {
        BatchConfig {
            alpha,
            sample_fraction: 1.0,
            static_threshold: 0,
            static_buffer_items: buffer_items,
            n_streams: 3,
        }
    }

    /// Check an α sweep of `(α, retries, executed n_b)`: the executed
    /// n_b must be non-increasing until the sweep enters the retry-free
    /// region (beyond that it legitimately grows with α, since buffers
    /// are fixed and Equation 1 scales with it), and no retried α may
    /// overshoot the first retry-free count by power-of-two doubling.
    fn assert_monotone_alpha_sweep(executed: &[(f64, usize, usize)]) {
        assert!(
            executed.iter().any(|&(_, retries, _)| retries > 0),
            "sweep must exercise the retry path: {executed:?}"
        );
        let first_retry_free = executed
            .iter()
            .position(|&(_, retries, _)| retries == 0)
            .expect("some α must be retry-free");
        for w in executed[..=first_retry_free].windows(2) {
            assert!(
                w[1].2 <= w[0].2,
                "executed n_batches must be non-increasing entering the \
                 retry-free region: {executed:?}"
            );
        }
        // A retried α may not execute more than ~25% above the first
        // retry-free batch count.
        let baseline = executed[first_retry_free].2 as f64;
        for &(alpha, retries, n) in &executed[..first_retry_free] {
            assert!(
                retries > 0 && (n as f64) <= baseline * 1.25,
                "α={alpha}: executed {n} vs retry-free {baseline}: {executed:?}"
            );
        }
    }

    #[test]
    fn executed_batches_monotone_entering_retry_free_region() {
        // Regression for the α-sweep anomaly: a retry at a small α used
        // to *double* n_b, making the executed batch count jump far above
        // what a slightly larger (retry-free) α needs (the ablation
        // showed 310 + retry at α=0.00 vs 162 at α=0.05). With the exact
        // replan the sweep stays monotone into the retry-free region.
        //
        // Calibration (all deterministic): |R| = 33,314 at eps 0.35, so
        // with b_b = 980 the α=0.00 plan of 34 batches has a max fill of
        // 985 (0.5% skew vs 0.02% headroom — overflow), while every
        // α ≥ 0.01 plan fits. The replan executes ceil(1.05·|R|/980) =
        // 36 batches; the old doubling executed 68.
        let data = gradient_line_points(4000);
        let device = Device::k20c();
        let mut executed: Vec<(f64, usize, usize)> = Vec::new();
        for alpha in [0.0, 0.01, 0.05, 0.2, 0.5] {
            let cfg = HybridConfig {
                batch: sweep_batch_config(alpha, 980),
                max_retries: 8,
                ..HybridConfig::default()
            };
            let hybrid = HybridDbscan::new(&device, cfg);
            let r = hybrid.run(&data, 0.35, 4).unwrap();
            executed.push((alpha, r.gpu.retries, r.gpu.n_batches));
        }
        assert_monotone_alpha_sweep(&executed);
        // Pin the executed sweep shape (deterministic pipeline).
        let shape: Vec<(usize, usize)> = executed.iter().map(|&(_, r, n)| (r, n)).collect();
        assert_eq!(
            shape,
            vec![(1, 36), (0, 35), (0, 36), (0, 41), (0, 51)],
            "{executed:?}"
        );

        // The same sweep in 3-D through `build_table_nd`, which shares
        // the execute stage. |R| = 29,520 at eps 1.5: with b_b = 1000
        // the α ≤ 0.01 plans of 30 batches overflow and replan to
        // ceil(1.05·|R|/1000) = 31, the first retry-free plan (α = 0.05)
        // also runs 31; doubling would have run 60. A retry always ends
        // above the Equation 1 count, which is how it is detected here.
        let data = gradient_lattice_points(12);
        let mut executed: Vec<(f64, usize, usize)> = Vec::new();
        for alpha in [0.0, 0.01, 0.05, 0.2, 0.5] {
            let cfg = sweep_batch_config(alpha, 1000);
            let h = crate::nd::build_table_nd(&device, &data, 1.5, IndexBackend::Grid, &cfg, 256)
                .unwrap();
            let retried = h.n_batches > cfg.plan(h.e_b, data.len()).n_batches;
            executed.push((alpha, retried as usize, h.n_batches));
        }
        assert_monotone_alpha_sweep(&executed);
        let shape: Vec<(usize, usize)> = executed.iter().map(|&(_, r, n)| (r, n)).collect();
        assert_eq!(
            shape,
            vec![(1, 31), (1, 31), (0, 31), (0, 36), (0, 45)],
            "{executed:?}"
        );
    }

    /// Build a 2-D and a 3-D table from the same `(x, y)` points (z = 0)
    /// and return both errors; both builds must fail.
    fn invalid_in_2d_and_3d(points: &[(f64, f64)], eps: f64) -> [HybridError; 2] {
        let device = Device::k20c();
        let d2: Vec<Point2> = points.iter().map(|&(x, y)| Point2::new(x, y)).collect();
        let d3: Vec<spatial::PointN<3>> = points
            .iter()
            .map(|&(x, y)| spatial::PointN::from_coords([x, y, 0.0]))
            .collect();
        let e2 = HybridDbscan::new(&device, HybridConfig::default())
            .build_table(&d2, eps)
            .err()
            .expect("2-D build must fail");
        let e3 = crate::nd::build_table_nd(
            &device,
            &d3,
            eps,
            IndexBackend::Auto,
            &BatchConfig::default(),
            256,
        )
        .err()
        .expect("3-D build must fail");
        assert_eq!(device.used_bytes(), 0, "nothing may stay uploaded");
        [e2, e3]
    }

    fn assert_invalid_input(errors: [HybridError; 2], needle: &str) {
        for e in errors {
            assert!(
                matches!(&e, HybridError::InvalidInput(why) if why.contains(needle)),
                "expected InvalidInput({needle}..), got {e:?}"
            );
        }
    }

    #[test]
    fn empty_input_is_a_typed_error() {
        assert_invalid_input(invalid_in_2d_and_3d(&[], 1.0), "empty");
    }

    #[test]
    fn bad_eps_is_a_typed_error() {
        let points = [(0.0, 0.0), (1.0, 1.0)];
        for eps in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert_invalid_input(invalid_in_2d_and_3d(&points, eps), "eps");
        }
    }

    #[test]
    fn non_finite_coordinate_is_a_typed_error() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let points = [(0.0, 0.0), (1.0, 1.0), (2.0, bad), (3.0, 3.0)];
            assert_invalid_input(invalid_in_2d_and_3d(&points, 1.0), "point 2");
        }
    }

    #[test]
    fn cell_space_overflow_is_a_typed_error() {
        // An ε-grid beyond u64 cell keys (~10^20 cells), and one whose
        // extent/ε ratio is infinite: refused before any upload instead
        // of panicking or wrapping into a wrong grid.
        let beyond_u64 = [(0.0, 0.0), (1e7, 1e7), (1e7, 1e7)];
        assert_invalid_input(invalid_in_2d_and_3d(&beyond_u64, 1e-3), "u64");
        let infinite = [(0.0, 0.0), (1e300, 1e300), (1e300, 1e300)];
        assert_invalid_input(invalid_in_2d_and_3d(&infinite, 1e-10), "u64");

        // ~10^18 cells still fit u64 keys: the sparse grid builds the
        // exact table (3 self pairs + the duplicate pair both ways).
        let device = Device::k20c();
        let huge = [
            Point2::new(0.0, 0.0),
            Point2::new(1e6, 1e6),
            Point2::new(1e6, 1e6),
        ];
        let h = HybridDbscan::new(&device, HybridConfig::default())
            .build_table(&huge, 1e-3)
            .unwrap();
        assert_eq!(h.gpu.result_pairs, 5);
        let huge3 = huge.map(|p| PointN::from_coords([p.x(), p.y(), 0.0]));
        let cfg = BatchConfig::default();
        let h3 = crate::nd::build_table_nd(&device, &huge3, 1e-3, IndexBackend::Grid, &cfg, 256)
            .unwrap();
        assert_eq!(h3.result_pairs, 5);
    }

    #[test]
    fn point_count_beyond_u32_ids_is_a_typed_error() {
        // Checked before any coordinate is read, so the iterators below
        // are never walked.
        let n = u32::MAX as usize + 1;
        let e2 = validate_input(1.0, (0..n).map(|_| [0.0; 2]));
        let e3 = validate_input(1.0, (0..n).map(|_| [0.0; 3]));
        assert_invalid_input([e2.unwrap_err(), e3.unwrap_err()], "u32");
    }

    #[test]
    fn post_retry_report_and_metrics_describe_executed_plan() {
        // After overflow recovery the report's plan (and the recorded
        // telemetry) must describe the *retried* plan, not the initial
        // one, and count the retries.
        let data = mixed_points(400);
        let device = Device::k20c();
        let cfg = HybridConfig {
            batch: BatchConfig {
                alpha: -0.9,
                sample_fraction: 1.0,
                static_threshold: 0,
                static_buffer_items: 2000,
                n_streams: 3,
            },
            max_retries: 16,
            ..HybridConfig::default()
        };
        let rec = Arc::new(obs::Recorder::new());
        let hybrid = HybridDbscan::new(&device, cfg).with_recorder(rec.clone());
        let r = hybrid.run(&data, 1.0, 4).unwrap();
        assert!(r.gpu.retries > 0, "test must exercise the retry path");
        // The executed plan is the one in the report.
        assert_eq!(r.gpu.plan.n_batches, r.gpu.n_batches);
        assert_eq!(r.gpu.per_batch_pairs.len(), r.gpu.n_batches);
        let initial = cfg.batch.plan(r.gpu.e_b, data.len());
        assert!(
            r.gpu.plan.n_batches > initial.n_batches,
            "retried plan must have more batches than the initial plan"
        );
        // Telemetry: the retry counter and the batch count reflect the
        // executed run.
        let m = rec.metrics().snapshot();
        assert_eq!(m.counters["batch.retries"], r.gpu.retries as u64);
        assert_eq!(m.counters["batch.batches_run"], r.gpu.n_batches as u64);
        assert_eq!(
            m.counters["batch.discarded_batches"],
            r.gpu.discarded_batches as u64
        );
        assert_eq!(
            m.counters["batch.discarded_pairs"],
            r.gpu.discarded_pairs as u64
        );
        assert!(
            r.gpu.discarded_batches > 0,
            "retried passes must be accounted as discarded work"
        );
        assert_eq!(
            m.histograms["batch.pairs"].count, r.gpu.n_batches as u64,
            "per-batch telemetry must come from the executed plan"
        );
    }

    #[test]
    fn fractional_sample_stride_estimate_is_unbiased() {
        // Regression for the estimation-stride bias: with f = 0.03 the
        // stride is round(1/0.03) = 33, whose realized fraction differs
        // from f. The report's estimated total must equal the unbiased
        // scaling of e_b by the realized sample size.
        // Large enough that the MIN_SAMPLE stride clamp is inactive and
        // the f-derived stride is what the kernel actually runs.
        let data = mixed_points(3000);
        let device = Device::k20c();
        let cfg = HybridConfig {
            batch: BatchConfig {
                sample_fraction: 0.03,
                ..BatchConfig::default()
            },
            ..HybridConfig::default()
        };
        let hybrid = HybridDbscan::new(&device, cfg);
        let r = hybrid.run(&data, 0.6, 4).unwrap();
        let batch = &cfg.batch;
        assert_eq!(batch.stride_for(data.len()), 33);
        let sample = batch.sample_size(data.len());
        assert_eq!(sample, data.len().div_ceil(33));
        let unbiased = (r.gpu.e_b as f64 * data.len() as f64 / sample as f64).ceil() as u64;
        assert_eq!(r.gpu.plan.estimated_total, unbiased.max(1));
        // The naive e_b / f scaling differs — the bias this fixes.
        let naive = (r.gpu.e_b as f64 / 0.03).ceil() as u64;
        assert_ne!(
            naive, unbiased,
            "test data must exercise the non-integral-stride bias"
        );
    }

    #[test]
    fn table_reuse_across_minpts() {
        let data = mixed_points(500);
        let device = Device::k20c();
        let hybrid = HybridDbscan::new(&device, HybridConfig::default());
        let handle = hybrid.build_table(&data, 0.8).unwrap();
        let grid = GridIndex::build(&data, 0.8);
        for minpts in [2, 4, 8, 16] {
            let (clustering, _) = HybridDbscan::cluster_with_table(&handle, minpts);
            let direct = Dbscan::new(minpts).run(&GridSource::new(&grid, &data));
            assert!(clustering.equivalent_to(&direct), "minpts = {minpts}");
        }
    }

    #[test]
    #[should_panic(expected = "minpts must be at least 1")]
    fn zero_minpts_panics_on_the_first_call() {
        let data = mixed_points(50);
        let device = Device::k20c();
        let handle = HybridDbscan::new(&device, HybridConfig::default())
            .build_table(&data, 0.8)
            .unwrap();
        HybridDbscan::cluster_with_table(&handle, 0);
    }

    #[test]
    #[should_panic(expected = "minpts must be at least 1")]
    fn zero_minpts_panics_on_a_later_call() {
        let data = mixed_points(50);
        let device = Device::k20c();
        let handle = HybridDbscan::new(&device, HybridConfig::default())
            .build_table(&data, 0.8)
            .unwrap();
        HybridDbscan::cluster_with_table(&handle, 4);
        HybridDbscan::cluster_with_table(&handle, 4);
        HybridDbscan::cluster_with_table(&handle, 0);
    }

    #[test]
    fn timings_are_populated() {
        let data = mixed_points(300);
        let device = Device::k20c();
        let hybrid = HybridDbscan::new(&device, HybridConfig::default());
        let r = hybrid.run(&data, 0.5, 4).unwrap();
        assert!(r.timings.gpu_phase > SimDuration::ZERO);
        assert!(r.timings.total.as_secs() >= r.timings.gpu_phase.as_secs());
        assert!(r.gpu.result_pairs > 0);
        assert!(r.gpu.e_b > 0);
        assert!(r.gpu.kernel_profile.launches >= 2, "estimation + >=1 batch");
    }

    #[test]
    fn device_memory_is_released_after_run() {
        let data = mixed_points(300);
        let device = Device::k20c();
        let hybrid = HybridDbscan::new(&device, HybridConfig::default());
        let _ = hybrid.run(&data, 0.5, 4).unwrap();
        assert_eq!(
            device.used_bytes(),
            0,
            "all device allocations must be dropped"
        );
    }

    #[test]
    fn tiny_device_forces_memory_fitting() {
        // A device with little memory: the plan must shrink buffers and
        // still produce correct results.
        let data = mixed_points(400);
        let device = Device::tiny(2 * 1024 * 1024);
        let hybrid = HybridDbscan::new(&device, HybridConfig::default());
        let r = hybrid.run(&data, 0.8, 4).unwrap();
        let grid = GridIndex::build(&data, 0.8);
        let direct = Dbscan::new(4).run(&GridSource::new(&grid, &data));
        assert!(r.clustering.equivalent_to(&direct));
    }

    #[test]
    fn per_batch_pairs_sum_to_total() {
        let data = mixed_points(800);
        let device = Device::k20c();
        let cfg = HybridConfig {
            batch: tiny_batch_config(2000),
            ..HybridConfig::default()
        };
        let hybrid = HybridDbscan::new(&device, cfg);
        let r = hybrid.run(&data, 0.6, 4).unwrap();
        assert!(r.gpu.per_batch_pairs.len() > 1);
        assert_eq!(r.gpu.per_batch_pairs.len(), r.gpu.n_batches);
        assert_eq!(
            r.gpu.per_batch_pairs.iter().sum::<usize>(),
            r.gpu.result_pairs
        );
    }

    #[test]
    fn recorder_captures_spans_device_track_and_metrics() {
        let data = mixed_points(400);
        let device = Device::k20c();
        let rec = Arc::new(obs::Recorder::new());
        let hybrid = HybridDbscan::new(&device, HybridConfig::default()).with_recorder(rec.clone());
        let r = hybrid.run(&data, 0.6, 4).unwrap();

        // Host spans: the run tree exists and is parented correctly.
        let spans = rec.spans();
        let run_span = spans.iter().find(|s| s.name == "hybrid_dbscan").unwrap();
        let build = spans.iter().find(|s| s.name == "build_table").unwrap();
        assert_eq!(build.parent, Some(run_span.id));
        assert!(
            build.sim_dur_us.is_some(),
            "build_table carries its sim window"
        );
        for name in ["index_build", "estimation_kernel", "batch_loop", "dbscan"] {
            assert!(spans.iter().any(|s| s.name == name), "missing span {name}");
        }

        // Device track: preamble + schedule ops, labels matching the
        // Gantt, total op count = 3 preamble + schedule ops.
        let ops = rec.device_ops();
        assert_eq!(ops.len(), 3 + r.gpu.schedule.ops.len());
        for label in r.gpu.schedule.op_labels() {
            assert!(
                ops.iter().any(|o| o.label == label),
                "missing device op {label}"
            );
        }

        // Metrics: estimation accuracy and kernel telemetry present.
        let m = rec.metrics().snapshot();
        assert_eq!(m.counters["batch.e_b"], r.gpu.e_b);
        assert_eq!(m.counters["batch.result_pairs"], r.gpu.result_pairs as u64);
        let acc = m.gauges["batch.estimation_accuracy"];
        assert!(acc > 0.0 && acc.is_finite(), "accuracy {acc}");
        assert!(m.gauges["kernel.gpucalc_global.mean_occupancy"] > 0.0);
        assert!(m.gauges["kernel.estimation.occupancy"] > 0.0);
        assert_eq!(m.histograms["batch.pairs"].count, r.gpu.n_batches as u64);
    }

    #[test]
    fn device_lane_events_do_not_overlap_in_recorder() {
        let data = mixed_points(600);
        let device = Device::k20c();
        let cfg = HybridConfig {
            batch: tiny_batch_config(2000),
            ..HybridConfig::default()
        };
        let rec = Arc::new(obs::Recorder::new());
        let hybrid = HybridDbscan::new(&device, cfg).with_recorder(rec.clone());
        let r = hybrid.build_table(&data, 0.6).unwrap();
        assert!(r.gpu.n_batches > 1);
        let mut ops = rec.device_ops();
        ops.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
        for engine in [Engine::H2D, Engine::Compute, Engine::D2H, Engine::Host(0)] {
            let lane: Vec<_> = ops.iter().filter(|o| o.engine == engine).collect();
            for w in lane.windows(2) {
                assert!(
                    w[1].start_us >= w[0].start_us + w[0].dur_us - 1e-6,
                    "overlap on {engine:?}: {w:?}"
                );
            }
        }
    }

    #[test]
    fn labels_are_in_caller_order() {
        // Shuffle the input; the two coincident-cluster memberships must
        // land on the right original indices.
        let mut data = Vec::new();
        for i in 0..40 {
            data.push(Point2::new(100.0 + (i % 7) as f64 * 0.01, 0.0)); // clump B first
        }
        for i in 0..40 {
            data.push(Point2::new((i % 7) as f64 * 0.01, 0.0)); // clump A second
        }
        let device = Device::k20c();
        let hybrid = HybridDbscan::new(&device, HybridConfig::default());
        let r = hybrid.run(&data, 0.5, 3).unwrap();
        let labels = r.clustering.labels();
        // Points 0..40 (clump at x~100) share one label; 40..80 the other.
        for i in 1..40 {
            assert_eq!(labels[i], labels[0]);
            assert_eq!(labels[40 + i], labels[40]);
        }
        assert_ne!(labels[0], labels[40]);
    }

    #[test]
    fn tree_backend_matches_grid_bitwise() {
        let data = mixed_points(600);
        let device = Device::k20c();
        let grid = HybridDbscan::new(&device, HybridConfig::default());
        let tree = HybridDbscan::new(
            &device,
            HybridConfig {
                backend: IndexBackend::Tree,
                ..HybridConfig::default()
            },
        );
        let hg = grid.build_table(&data, 0.6).unwrap();
        let ht = tree.build_table(&data, 0.6).unwrap();
        assert_eq!(hg.gpu.backend.chosen, ChosenBackend::Grid);
        assert_eq!(ht.gpu.backend.chosen, ChosenBackend::Tree);
        // Exact count kernels on both sides → identical e_b → identical
        // batch plan → (after the canonical device sort) identical tables.
        assert_eq!(hg.gpu.e_b, ht.gpu.e_b);
        assert_eq!(hg.gpu.n_batches, ht.gpu.n_batches);
        assert_eq!(hg.gpu.per_batch_pairs, ht.gpu.per_batch_pairs);
        assert_eq!(
            crate::shard::table_fingerprint(&hg.table),
            crate::shard::table_fingerprint(&ht.table)
        );
        let (cg, _) = HybridDbscan::cluster_with_table(&hg, 4);
        let (ct, _) = HybridDbscan::cluster_with_table(&ht, 4);
        assert_eq!(
            crate::shard::clustering_fingerprint(&cg),
            crate::shard::clustering_fingerprint(&ct)
        );
    }

    #[test]
    fn tree_backend_multi_batch_matches_grid() {
        let data = mixed_points(800);
        let device = Device::k20c();
        let mk = |backend| {
            HybridConfig {
                backend,
                batch: tiny_batch_config(2000), // forces several batches
                ..HybridConfig::default()
            }
        };
        let hg = HybridDbscan::new(&device, mk(IndexBackend::Grid))
            .build_table(&data, 0.6)
            .unwrap();
        let ht = HybridDbscan::new(&device, mk(IndexBackend::Tree))
            .build_table(&data, 0.6)
            .unwrap();
        assert!(ht.gpu.n_batches > 1, "test must exercise batching");
        assert_eq!(hg.gpu.per_batch_pairs, ht.gpu.per_batch_pairs);
        assert_eq!(
            crate::shard::table_fingerprint(&hg.table),
            crate::shard::table_fingerprint(&ht.table)
        );
    }

    #[test]
    fn auto_backend_resolves_and_matches_grid() {
        let data = mixed_points(600);
        let device = Device::k20c();
        let auto = HybridDbscan::new(
            &device,
            HybridConfig {
                backend: IndexBackend::Auto,
                ..HybridConfig::default()
            },
        );
        let ha = auto.build_table(&data, 0.6).unwrap();
        assert_eq!(ha.gpu.backend.requested, IndexBackend::Auto);
        assert_eq!(ha.gpu.backend.reason, "auto");
        let hg = HybridDbscan::new(&device, HybridConfig::default())
            .build_table(&data, 0.6)
            .unwrap();
        assert_eq!(
            crate::shard::table_fingerprint(&hg.table),
            crate::shard::table_fingerprint(&ha.table)
        );
    }

    #[test]
    fn shared_kernel_overrides_tree_request() {
        let data = mixed_points(400);
        let device = Device::k20c();
        let hybrid = HybridDbscan::new(
            &device,
            HybridConfig {
                kernel: KernelChoice::Shared,
                backend: IndexBackend::Tree,
                ..HybridConfig::default()
            },
        );
        let r = hybrid.run(&data, 0.7, 4).unwrap();
        assert_eq!(r.gpu.backend.chosen, ChosenBackend::Grid);
        assert_eq!(r.gpu.backend.reason, "shared-kernel");
        let grid = GridIndex::build(&data, 0.7);
        let direct = Dbscan::new(4).run(&GridSource::new(&grid, &data));
        assert!(r.clustering.equivalent_to(&direct));
    }
}
