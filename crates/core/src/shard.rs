//! Sharding the hybrid pipeline across simulated devices with ε-halo
//! merge (DESIGN.md §14).
//!
//! [`ShardedHybrid`] spatially partitions the database into `k` x-quantile
//! slabs ([`spatial::ShardPlan`]), runs one full [`HybridDbscan`] table
//! build per shard — each shard's local database is its owned slab plus
//! the ε-halo, so every owned point's ε-neighborhood is complete — and
//! merges the per-shard tables into one global [`NeighborTable`] whose
//! rows are **bitwise identical** to the unsharded build's. A caller
//! clusters the merged table with one disjoint-set pass,
//! `dbscan_disjoint_set(&h.table, minpts).unpermute(&h.perm)`;
//! cross-shard edges are exactly the halo columns of owned rows, so the
//! union-find stitches boundary clusters without any dedicated message
//! passing.
//!
//! ## Why the merge is exact
//!
//! The global spatial pre-sort is a total order (bin key, then exact
//! coordinates, then index). Each shard's local database is collected in
//! ascending global-sorted order, and the per-shard pre-sort uses the same
//! comparator — so the shard's sorted order is the *restriction* of the
//! global one and the local→global index map is strictly increasing.
//! The batch tail (`thrust::sort_rows_into`) writes every row as its
//! unique ascending order of ids in both builds, whichever of its paths
//! ran; a monotone map of an ascending row is ascending. An owned row
//! therefore maps element-for-element onto the unsharded row.
//!
//! ## Execution modes
//!
//! * [`ShardMode::Concurrent`] — one fresh simulated device per shard
//!   (same properties and cost models as the configured device), shards
//!   executing concurrently on the rayon pool. Modeled time is the *max*
//!   over shards: the devices are independent.
//! * [`ShardMode::OutOfCore`] — shards tile *sequentially* through the
//!   single configured device, so a dataset whose working set exceeds the
//!   device's global memory completes anyway (each shard's footprint is
//!   roughly `1/k` of the whole). Modeled time is the *sum* over shards;
//!   [`ShardedTableHandle::peak_bytes`] reports the high-water mark
//!   against the capacity.
//!
//! Determinism: every per-shard output is a pure function of its shard;
//! merge, clustering, and fingerprints fold in shard/index order. The
//! sharded result — table rows, labels, and each shard's modeled-time
//! bits — is identical at every thread count, and `k = 1` degenerates to
//! the unsharded build exactly.

use crate::hybrid::{
    validate_input, visit_order, HybridConfig, HybridDbscan, HybridError, TableHandle,
};
use crate::table::NeighborTable;
use crate::Clustering;
use gpu_sim::device::Device;
use gpu_sim::time::SimDuration;
use obs::Recorder;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use spatial::presort::spatial_sort_permutation;
use spatial::{Point2, ShardPlan};
use std::sync::Arc;

/// How shards map onto simulated devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShardMode {
    /// One device per shard, shards running concurrently; modeled time is
    /// the slowest shard.
    Concurrent,
    /// All shards tile sequentially through the single configured device
    /// (out-of-core); modeled time is the sum of the shards.
    OutOfCore,
}

/// Configuration of a sharded run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShardConfig {
    /// Number of shards `k` (1 = the unsharded pipeline, verbatim).
    pub shards: usize,
    pub mode: ShardMode,
    /// Per-shard pipeline settings; each shard runs its own estimation
    /// kernel and derives its own batch plan from this `BatchConfig`.
    pub hybrid: HybridConfig,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            shards: 2,
            mode: ShardMode::Concurrent,
            hybrid: HybridConfig::default(),
        }
    }
}

/// Telemetry of one shard's table build.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ShardReport {
    /// Points in the shard's local database (owned + halo).
    pub n_points: usize,
    /// Points the shard owns (whose global rows it produced).
    pub owned_points: usize,
    /// Halo points replicated from neighboring shards.
    pub halo_points: usize,
    /// Modeled GPU-phase time of this shard's build.
    pub modeled_time: SimDuration,
    /// Batches the shard's plan executed.
    pub n_batches: usize,
    /// Result pairs the shard produced (owned + halo rows).
    pub result_pairs: usize,
}

/// A merged neighbor table in global sorted-id space, plus the shard
/// telemetry and the permutation back to caller order.
pub struct ShardedTableHandle {
    /// The merged `T`, keyed in the *global* spatially-sorted id space —
    /// row contents bitwise identical to the unsharded build's.
    pub table: NeighborTable,
    /// `perm[k]` = original index of global sorted position `k`.
    pub perm: Vec<u32>,
    /// `visit_order[i]` = sorted position of original point `i`.
    pub visit_order: Vec<u32>,
    /// Combined modeled GPU-phase time (max over shards when concurrent,
    /// sum when out-of-core).
    pub modeled_time: SimDuration,
    /// Per-shard builds, in shard order.
    pub shards: Vec<ShardReport>,
    /// High-water device-memory mark: the largest per-device peak
    /// (concurrent) or the single device's peak (out-of-core).
    pub peak_bytes: usize,
}

/// The sharded Hybrid-DBSCAN pipeline.
pub struct ShardedHybrid {
    device: Device,
    config: ShardConfig,
    recorder: Option<Arc<Recorder>>,
}

impl ShardedHybrid {
    pub fn new(device: &Device, config: ShardConfig) -> Self {
        ShardedHybrid {
            device: device.clone(),
            config,
            recorder: None,
        }
    }

    /// Attach an [`obs::Recorder`]: each shard's device timeline lands on
    /// its own Chrome-trace lane group (`shard1 Compute`, …).
    pub fn with_recorder(mut self, recorder: Arc<Recorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    pub fn config(&self) -> &ShardConfig {
        &self.config
    }

    fn shard_hybrid(&self, device: &Device, lane: u32) -> HybridDbscan {
        let h = HybridDbscan::new(device, self.config.hybrid).with_trace_lane(lane);
        match &self.recorder {
            Some(rec) => h.with_recorder(rec.clone()),
            None => h,
        }
    }

    /// Build the merged neighbor table. `k = 1` delegates to the
    /// unsharded [`HybridDbscan::build_table`] verbatim.
    pub fn build_table(
        &self,
        data: &[Point2],
        eps: f64,
    ) -> Result<ShardedTableHandle, HybridError> {
        // Before the pre-sort and the slab plan, for every k: a non-finite
        // coordinate falls in no slab, and empty data or a bad ε has no
        // quantiles.
        validate_input(eps, data.iter().map(|p| p.coords))?;
        let k = self.config.shards.max(1);
        if k == 1 {
            let handle = self.shard_hybrid(&self.device, 0).build_table(data, eps)?;
            let n = data.len();
            return Ok(ShardedTableHandle {
                modeled_time: handle.gpu.modeled_time,
                shards: vec![ShardReport {
                    n_points: n,
                    owned_points: n,
                    halo_points: 0,
                    modeled_time: handle.gpu.modeled_time,
                    n_batches: handle.gpu.n_batches,
                    result_pairs: handle.gpu.result_pairs,
                }],
                peak_bytes: self.device.peak_bytes(),
                table: handle.table,
                perm: handle.perm,
                visit_order: handle.visit_order,
            });
        }

        // Global pre-sort: the merged table lives in this id space, the
        // same space the unsharded build uses.
        let perm = spatial_sort_permutation(data);
        let sorted: Vec<Point2> = perm.apply(data);
        let n = sorted.len();
        let plan = ShardPlan::quantiles(&sorted, k, eps);

        // Partition in ascending global-sorted order, so each shard's
        // local order restricts the global total order (see module docs).
        let mut locals: Vec<Vec<Point2>> = vec![Vec::new(); k];
        let mut local_to_global: Vec<Vec<u32>> = vec![Vec::new(); k];
        // owner_row[i] = (owning shard, local index there) of global row i.
        let mut owner_row: Vec<(u32, u32)> = Vec::with_capacity(n);
        let mut owned_counts = vec![0usize; k];
        for (i, p) in sorted.iter().enumerate() {
            let owner = plan.owner_of(p);
            for (j, (local, l2g)) in locals.iter_mut().zip(&mut local_to_global).enumerate() {
                if plan.sees(j, p) {
                    if j == owner {
                        owner_row.push((j as u32, local.len() as u32));
                        owned_counts[j] += 1;
                    }
                    local.push(*p);
                    l2g.push(i as u32);
                }
            }
        }
        debug_assert_eq!(owner_row.len(), n);

        // Per-shard devices and table builds. A shard that owns nothing
        // (degenerate quantiles) contributes no rows and is skipped
        // outright — whatever halo points it sees are owned, and built,
        // elsewhere.
        let devices: Vec<Device> = match self.config.mode {
            ShardMode::Concurrent => (0..k)
                .map(|_| {
                    Device::with_props(
                        self.device.props().clone(),
                        *self.device.cost_model(),
                        *self.device.transfer_model(),
                    )
                })
                .collect(),
            ShardMode::OutOfCore => vec![self.device.clone(); k],
        };
        let slots: Vec<Mutex<Option<Result<TableHandle, HybridError>>>> =
            (0..k).map(|_| Mutex::new(None)).collect();
        let build_shard = |j: usize| {
            if owned_counts[j] == 0 {
                return;
            }
            let hybrid = self.shard_hybrid(&devices[j], j as u32);
            *slots[j].lock() = Some(hybrid.build_table(&locals[j], eps));
        };
        match self.config.mode {
            ShardMode::Concurrent if rayon::current_num_threads() > 1 => {
                rayon::scope(|s| {
                    for j in 0..k {
                        let build_shard = &build_shard;
                        s.spawn(move |_| build_shard(j));
                    }
                });
            }
            // Out-of-core (or a 1-thread pool): shards tile one at a time
            // through the device; each build frees its allocations on
            // completion, so the next shard starts from an empty device.
            _ => {
                for j in 0..k {
                    build_shard(j);
                }
            }
        }
        let mut handles: Vec<Option<TableHandle>> = Vec::with_capacity(k);
        for slot in &slots {
            match slot.lock().take() {
                Some(Ok(h)) => handles.push(Some(h)),
                Some(Err(e)) => return Err(e),
                None => handles.push(None),
            }
        }

        // Merge: walk global rows in order; each owner shard's local row,
        // mapped through the monotone local→global index map, is the
        // global row verbatim.
        let total_values: usize = handles
            .iter()
            .flatten()
            .map(|h| h.table.num_entries())
            .sum();
        let mut ranges: Vec<(u64, u64)> = Vec::with_capacity(n);
        // Owned rows only: halo rows (computed with truncated
        // neighborhoods) are discarded, so the merged |B| is smaller than
        // the sum of the shard tables.
        let mut values: Vec<u32> = Vec::with_capacity(total_values / k + 1);
        for &(j, l) in &owner_row {
            let handle = handles[j as usize]
                .as_ref()
                .expect("owner shard skipped despite owning points");
            let l2g = &local_to_global[j as usize];
            let row = handle.table.neighbors(handle.visit_order[l as usize]);
            let start = values.len() as u64;
            values.extend(row.iter().map(|&v| l2g[handle.perm[v as usize] as usize]));
            debug_assert!(
                values[start as usize..].windows(2).all(|w| w[0] < w[1]),
                "monotone local→global map must preserve row order"
            );
            ranges.push((start, values.len() as u64));
        }
        let table = NeighborTable::from_parts(eps, ranges, values);

        // Telemetry + combined modeled time.
        let mut shards = Vec::with_capacity(k);
        let mut modeled_time = SimDuration::ZERO;
        let mut peak_bytes = 0usize;
        for (j, handle) in handles.iter().enumerate() {
            let owned = owned_counts[j];
            let (shard_time, batches, pairs) = match handle {
                Some(h) => (h.gpu.modeled_time, h.gpu.n_batches, h.gpu.result_pairs),
                None => (SimDuration::ZERO, 0, 0),
            };
            let built = if handle.is_some() { locals[j].len() } else { 0 };
            shards.push(ShardReport {
                n_points: built,
                owned_points: owned,
                halo_points: built.saturating_sub(owned),
                modeled_time: shard_time,
                n_batches: batches,
                result_pairs: pairs,
            });
            modeled_time = match self.config.mode {
                ShardMode::Concurrent => modeled_time.max(shard_time),
                ShardMode::OutOfCore => modeled_time + shard_time,
            };
            peak_bytes = peak_bytes.max(devices[j].peak_bytes());
        }
        if let Some(rec) = &self.recorder {
            let m = rec.metrics();
            m.counter_add("shard.shards", k as u64);
            m.gauge_set("shard.modeled_ms", modeled_time.as_millis());
            m.gauge_set("shard.peak_bytes", peak_bytes as f64);
            for s in &shards {
                m.observe("shard.halo_points", s.halo_points as f64);
            }
        }

        let perm = perm.as_slice().to_vec();
        Ok(ShardedTableHandle {
            table,
            visit_order: visit_order(&perm),
            perm,
            modeled_time,
            shards,
            peak_bytes,
        })
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

#[inline]
fn fnv_fold(h: u64, x: u64) -> u64 {
    let mut h = h;
    for byte in x.to_le_bytes() {
        h ^= byte as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a fingerprint of a neighbor table's *content*: per-row lengths and
/// neighbor ids in row order (plus ε bits). Independent of the internal
/// segment layout, which differs between the batched builder and the
/// sharded merge even when every row is identical.
pub fn table_fingerprint(table: &NeighborTable) -> u64 {
    let mut h = FNV_OFFSET;
    h = fnv_fold(h, table.num_points() as u64);
    h = fnv_fold(h, table.eps().to_bits());
    for i in 0..table.num_points() as u32 {
        let row = table.neighbors(i);
        h = fnv_fold(h, row.len() as u64);
        for &v in row {
            h = fnv_fold(h, v as u64);
        }
    }
    h
}

/// FNV-1a fingerprint of a clustering (labels in order, then the cluster
/// count).
pub fn clustering_fingerprint(clustering: &Clustering) -> u64 {
    let mut h = FNV_OFFSET;
    for l in clustering.labels() {
        h = fnv_fold(h, l.cluster_id().map_or(u64::MAX, |k| k as u64));
    }
    fnv_fold(h, clustering.num_clusters() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disjoint_set::dbscan_disjoint_set;
    use crate::kernels::test_support::mixed_points;

    /// What the module docs describe: the merged table, clustered by one
    /// disjoint-set pass, labels in the caller's point order.
    fn sharded_clustering(
        device: &Device,
        cfg: ShardConfig,
        data: &[Point2],
        eps: f64,
        minpts: usize,
    ) -> Clustering {
        let h = ShardedHybrid::new(device, cfg)
            .build_table(data, eps)
            .unwrap();
        dbscan_disjoint_set(&h.table, minpts).unpermute(&h.perm)
    }

    fn unsharded_table(device: &Device, data: &[Point2], eps: f64) -> TableHandle {
        HybridDbscan::new(device, HybridConfig::default())
            .build_table(data, eps)
            .unwrap()
    }

    #[test]
    fn sharded_rows_match_unsharded_bitwise() {
        let data = mixed_points(600);
        let device = Device::k20c();
        let reference = unsharded_table(&device, &data, 0.6);
        for k in [1, 2, 3, 4] {
            for mode in [ShardMode::Concurrent, ShardMode::OutOfCore] {
                let cfg = ShardConfig {
                    shards: k,
                    mode,
                    hybrid: HybridConfig::default(),
                };
                let sharded = ShardedHybrid::new(&device, cfg)
                    .build_table(&data, 0.6)
                    .unwrap();
                assert_eq!(sharded.perm, reference.perm, "k={k} {mode:?}");
                for i in 0..data.len() as u32 {
                    assert_eq!(
                        sharded.table.neighbors(i),
                        reference.table.neighbors(i),
                        "row {i} differs at k={k} {mode:?}"
                    );
                }
                assert_eq!(
                    table_fingerprint(&sharded.table),
                    table_fingerprint(&reference.table),
                    "k={k} {mode:?}"
                );
            }
        }
    }

    #[test]
    fn sharded_clustering_is_k_invariant() {
        let data = mixed_points(500);
        let device = Device::k20c();
        let mut prints = Vec::new();
        for k in [1, 2, 4] {
            let cfg = ShardConfig {
                shards: k,
                mode: ShardMode::Concurrent,
                hybrid: HybridConfig::default(),
            };
            let c = sharded_clustering(&device, cfg, &data, 0.5, 4);
            prints.push(clustering_fingerprint(&c));
        }
        assert!(
            prints.windows(2).all(|w| w[0] == w[1]),
            "clustering must not depend on k: {prints:?}"
        );
    }

    #[test]
    fn sharded_clustering_matches_disjoint_set_on_unsharded_table() {
        let data = mixed_points(400);
        let device = Device::k20c();
        let reference = unsharded_table(&device, &data, 0.7);
        let expected = dbscan_disjoint_set(&reference.table, 4).unpermute(&reference.perm);
        let cfg = ShardConfig {
            shards: 3,
            mode: ShardMode::Concurrent,
            hybrid: HybridConfig::default(),
        };
        let c = sharded_clustering(&device, cfg, &data, 0.7, 4);
        assert_eq!(c.labels(), expected.labels());
    }

    #[test]
    fn shard_reports_partition_ownership() {
        let data = mixed_points(600);
        let device = Device::k20c();
        let cfg = ShardConfig {
            shards: 4,
            mode: ShardMode::Concurrent,
            hybrid: HybridConfig::default(),
        };
        let handle = ShardedHybrid::new(&device, cfg)
            .build_table(&data, 0.5)
            .unwrap();
        assert_eq!(handle.shards.len(), 4);
        let owned: usize = handle.shards.iter().map(|s| s.owned_points).sum();
        assert_eq!(owned, data.len(), "ownership must partition the data");
        assert!(
            handle.shards.iter().any(|s| s.halo_points > 0),
            "a 4-way split of clustered data must replicate halo points"
        );
        for s in &handle.shards {
            assert_eq!(s.n_points, s.owned_points + s.halo_points);
        }
        assert!(handle.peak_bytes > 0);
        assert!(handle.modeled_time > SimDuration::ZERO);
    }

    #[test]
    fn concurrent_modeled_time_is_max_out_of_core_is_sum() {
        let data = mixed_points(500);
        let device = Device::k20c();
        let mk = |mode| {
            let cfg = ShardConfig {
                shards: 3,
                mode,
                hybrid: HybridConfig::default(),
            };
            ShardedHybrid::new(&device, cfg)
                .build_table(&data, 0.6)
                .unwrap()
        };
        let conc = mk(ShardMode::Concurrent);
        let ooc = mk(ShardMode::OutOfCore);
        let max = conc
            .shards
            .iter()
            .map(|s| s.modeled_time)
            .fold(SimDuration::ZERO, SimDuration::max);
        let sum: SimDuration = ooc.shards.iter().map(|s| s.modeled_time).sum();
        assert_eq!(conc.modeled_time, max);
        assert_eq!(ooc.modeled_time, sum);
        // Same shard geometry either way: the builds are identical, only
        // the device placement differs.
        for (a, b) in conc.shards.iter().zip(&ooc.shards) {
            assert_eq!(a.n_points, b.n_points);
            assert_eq!(a.result_pairs, b.result_pairs);
            assert_eq!(a.modeled_time, b.modeled_time);
        }
    }

    #[test]
    fn out_of_core_completes_where_unsharded_ooms() {
        // Size the device so the whole dataset's working set does not fit
        // but a quarter of it does: the unsharded build must OOM and the
        // 4-shard out-of-core tiling must complete with the exact same
        // rows (compared via the fingerprint against a large device).
        let data = mixed_points(2000);
        let big = Device::k20c();
        let reference = unsharded_table(&big, &data, 0.4);

        let tiny = Device::tiny(48 * 1024);
        let unsharded = HybridDbscan::new(&tiny, HybridConfig::default()).build_table(&data, 0.4);
        assert!(
            unsharded.is_err(),
            "tiny device must not fit the full build"
        );

        let cfg = ShardConfig {
            shards: 4,
            mode: ShardMode::OutOfCore,
            hybrid: HybridConfig::default(),
        };
        let sharded = ShardedHybrid::new(&Device::tiny(48 * 1024), cfg)
            .build_table(&data, 0.4)
            .unwrap();
        assert_eq!(
            table_fingerprint(&sharded.table),
            table_fingerprint(&reference.table)
        );
        assert!(
            sharded.peak_bytes <= 48 * 1024,
            "out-of-core peak {} must respect the device limit",
            sharded.peak_bytes
        );
    }

    #[test]
    fn halo_straddling_exact_eps_pairs_merge_correctly() {
        // Adversarial boundary case: pairs at *exactly* ε across the shard
        // boundary, plus duplicates sitting on the boundary itself. The
        // closed ε-ball must keep them neighbors in the sharded build.
        let eps = 0.5;
        let mut data = Vec::new();
        for i in 0..50 {
            let x = i as f64 * 0.25;
            data.push(Point2::new(x, 0.0));
            data.push(Point2::new(x, eps)); // exact-ε vertical partner
        }
        data.push(Point2::new(6.25, 0.0)); // duplicate of a mid point
        let device = Device::k20c();
        let reference = unsharded_table(&device, &data, eps);
        for k in [2, 4] {
            let cfg = ShardConfig {
                shards: k,
                mode: ShardMode::Concurrent,
                hybrid: HybridConfig::default(),
            };
            let sharded = ShardedHybrid::new(&device, cfg)
                .build_table(&data, eps)
                .unwrap();
            for i in 0..data.len() as u32 {
                assert_eq!(
                    sharded.table.neighbors(i),
                    reference.table.neighbors(i),
                    "row {i} at k={k}"
                );
            }
        }
    }

    #[test]
    fn more_shards_than_distinct_x_positions() {
        // Degenerate quantiles: some shards own nothing and are skipped.
        let mut data = vec![Point2::new(1.0, 0.0); 30];
        data.extend((0..10).map(|i| Point2::new(2.0, i as f64 * 0.1)));
        let device = Device::k20c();
        let reference = unsharded_table(&device, &data, 0.3);
        let cfg = ShardConfig {
            shards: 6,
            mode: ShardMode::Concurrent,
            hybrid: HybridConfig::default(),
        };
        let sharded = ShardedHybrid::new(&device, cfg)
            .build_table(&data, 0.3)
            .unwrap();
        assert_eq!(
            table_fingerprint(&sharded.table),
            table_fingerprint(&reference.table)
        );
        assert!(
            sharded
                .shards
                .iter()
                .any(|s| s.owned_points == 0 && s.n_batches == 0),
            "zero-owner shards must skip their builds: {:?}",
            sharded.shards
        );
    }

    #[test]
    fn fingerprints_detect_differences() {
        let data = mixed_points(200);
        let device = Device::k20c();
        let a = unsharded_table(&device, &data, 0.5);
        let b = unsharded_table(&device, &data, 0.55);
        assert_ne!(table_fingerprint(&a.table), table_fingerprint(&b.table));
        let ca = dbscan_disjoint_set(&a.table, 4);
        let cb = dbscan_disjoint_set(&a.table, 40);
        assert_ne!(clustering_fingerprint(&ca), clustering_fingerprint(&cb));
    }

    #[test]
    fn trace_lanes_are_per_shard() {
        let data = mixed_points(300);
        let device = Device::k20c();
        let rec = Arc::new(obs::Recorder::new());
        let cfg = ShardConfig {
            shards: 2,
            mode: ShardMode::Concurrent,
            hybrid: HybridConfig::default(),
        };
        ShardedHybrid::new(&device, cfg)
            .with_recorder(rec.clone())
            .build_table(&data, 0.5)
            .unwrap();
        let ops = rec.device_ops();
        assert!(ops.iter().any(|o| o.device == 0));
        assert!(
            ops.iter().any(|o| o.device == 1),
            "shard 1 must record on its own lane group"
        );
        let json = obs::chrome::export(&rec);
        assert!(
            json.contains("shard1 Compute"),
            "trace must name shard lanes"
        );
    }
}
