//! G-DBSCAN (Andrade et al. 2013) — the paper's reference \[6\], as a
//! comparator.
//!
//! Where Hybrid-DBSCAN computes neighbor lists on the GPU and clusters on
//! the host, G-DBSCAN keeps *everything* on the GPU: it materializes the
//! ε-proximity graph (vertex degrees, prefix sum, adjacency fill — all
//! brute-force `O(|D|²)`, no index) and then identifies clusters with
//! level-synchronous breadth-first searches over the graph. The paper
//! groups it with CUDA-DClust and Mr. Scan as the "cluster on the GPU,
//! then merge" family it deliberately departs from.
//!
//! This implementation follows the published structure on the simulated
//! device:
//!
//! 1. `DegreeKernel` — one thread per point, scans all of `D`, counts
//!    neighbors within ε (brute force, as published).
//! 2. Device exclusive scan over the degrees → adjacency offsets.
//! 3. `AdjacencyKernel` — one thread per point, fills its adjacency slice.
//! 4. `BfsLevelKernel` — one thread per point and BFS level: frontier
//!    points mark their unvisited neighbors as the next frontier. One BFS
//!    per cluster, seeded from each unvisited core point.
//!
//! Labels match DBSCAN's on core points and noise exactly; border points
//! follow BFS arrival order (the same ambiguity class as DBSCAN's own
//! visit order — the tests compare accordingly).

use crate::dbscan::{Clustering, PointLabel};
use gpu_sim::device::Device;
use gpu_sim::error::DeviceError;
use gpu_sim::kernel::{BlockCtx, BlockKernel};
use gpu_sim::launch::LaunchConfig;
use gpu_sim::memory::{DeviceBuffer, DeviceCounter, RawAlloc};
use gpu_sim::profiler::KernelProfile;
use gpu_sim::thrust;
use gpu_sim::time::SimDuration;
use spatial::Point2;
use std::sync::atomic::{AtomicU32, Ordering};

/// Brute-force degree kernel: thread `i` counts `|N_ε(p_i)|` over all of
/// `D` (G-DBSCAN builds the complete proximity graph without an index).
struct DegreeKernel<'a> {
    data: &'a [Point2],
    eps: f64,
    degrees: &'a [AtomicU32],
}

impl BlockKernel for DegreeKernel<'_> {
    fn run_block(&self, ctx: &mut BlockCtx) -> Result<(), DeviceError> {
        let n = self.data.len();
        let eps_sq = self.eps * self.eps;
        ctx.for_each_thread(|t| {
            if t.gid >= n as u64 {
                return;
            }
            let p = self.data[t.gid as usize];
            t.read_global::<Point2>(1);
            // The whole database streams past every thread; on hardware
            // this is tiled through shared memory, so charge shared-rate
            // traffic plus the distance arithmetic.
            t.access_shared::<Point2>(n as u64);
            t.charge_flops(5 * n as u64);
            let mut deg = 0u32;
            for q in self.data {
                if p.distance_sq(q) <= eps_sq {
                    deg += 1;
                }
            }
            t.write_global::<u32>(1);
            self.degrees[t.gid as usize].store(deg, Ordering::Relaxed);
        });
        Ok(())
    }
}

/// Adjacency-fill kernel: thread `i` writes the ids of its neighbors into
/// its `[offset_i, offset_i + degree_i)` slice of the adjacency array.
struct AdjacencyKernel<'a> {
    data: &'a [Point2],
    eps: f64,
    offsets: &'a [u32],
    adjacency: &'a [AtomicU32],
}

impl BlockKernel for AdjacencyKernel<'_> {
    fn run_block(&self, ctx: &mut BlockCtx) -> Result<(), DeviceError> {
        let n = self.data.len();
        let eps_sq = self.eps * self.eps;
        ctx.for_each_thread(|t| {
            if t.gid >= n as u64 {
                return;
            }
            let i = t.gid as usize;
            let p = self.data[i];
            t.read_global::<Point2>(1);
            t.read_global::<u32>(1);
            t.access_shared::<Point2>(n as u64);
            t.charge_flops(5 * n as u64);
            let mut cursor = self.offsets[i] as usize;
            for (j, q) in self.data.iter().enumerate() {
                if p.distance_sq(q) <= eps_sq {
                    t.write_global::<u32>(1);
                    self.adjacency[cursor].store(j as u32, Ordering::Relaxed);
                    cursor += 1;
                }
            }
        });
        Ok(())
    }
}

/// One level of the level-synchronous BFS: every frontier vertex retires
/// into the visited set and pushes its unvisited neighbors (core
/// expansion only — border vertices join but do not expand).
struct BfsLevelKernel<'a> {
    offsets: &'a [u32],
    degrees: &'a [u32],
    adjacency: &'a [u32],
    core: &'a [bool],
    /// 1 = in current frontier.
    frontier: &'a [AtomicU32],
    next_frontier: &'a [AtomicU32],
    /// Cluster label per vertex (u32::MAX = unvisited).
    labels: &'a [AtomicU32],
    cluster: u32,
    /// Number of vertices added to the next frontier.
    produced: &'a DeviceCounter,
}

impl BlockKernel for BfsLevelKernel<'_> {
    fn run_block(&self, ctx: &mut BlockCtx) -> Result<(), DeviceError> {
        let n = self.offsets.len();
        ctx.for_each_thread(|t| {
            if t.gid >= n as u64 {
                return;
            }
            let v = t.gid as usize;
            t.read_global::<u32>(1);
            if self.frontier[v].load(Ordering::Relaxed) == 0 {
                return;
            }
            self.frontier[v].store(0, Ordering::Relaxed);
            // Border vertices join the cluster but do not expand it.
            if !self.core[v] {
                return;
            }
            let start = self.offsets[v] as usize;
            let deg = self.degrees[v] as usize;
            t.read_global::<u32>(deg as u64 + 2);
            t.charge_flops(deg as u64);
            for &u in &self.adjacency[start..start + deg] {
                // Claim unvisited neighbors for this cluster.
                if self.labels[u as usize]
                    .compare_exchange(u32::MAX, self.cluster, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
                {
                    t.charge_atomic();
                    t.write_global::<u32>(1);
                    self.next_frontier[u as usize].store(1, Ordering::Relaxed);
                    self.produced.add(1);
                }
            }
        });
        Ok(())
    }
}

/// Timing and profiling of a G-DBSCAN run.
#[derive(Debug, Clone)]
pub struct GDbscanReport {
    /// Modeled device time: graph construction + scan + all BFS levels.
    pub modeled_time: SimDuration,
    /// Of which graph construction (degree + scan + adjacency).
    pub graph_time: SimDuration,
    /// Total BFS kernel launches (levels summed over clusters).
    pub bfs_levels: usize,
    /// Edges in the proximity graph (= |R|, the hybrid's pair count).
    pub edges: usize,
    pub kernel_profile: KernelProfile,
}

/// Result of [`g_dbscan`].
pub struct GDbscanResult {
    pub clustering: Clustering,
    pub report: GDbscanReport,
}

/// Run G-DBSCAN on the simulated device.
pub fn g_dbscan(
    device: &Device,
    data: &[Point2],
    eps: f64,
    minpts: usize,
) -> Result<GDbscanResult, DeviceError> {
    assert!(!data.is_empty(), "cannot cluster an empty database");
    let n = data.len();
    let block = 256;
    let mut profile = KernelProfile::new();
    let mut total = SimDuration::ZERO;

    // Upload D.
    let (d_buf, up) = DeviceBuffer::from_host(device, data, false)?;
    total += up;

    // Phase 1: degrees.
    let degrees_dev: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
    let _degrees_alloc = RawAlloc::new(device, n * 4)?;
    let degree_kernel = DegreeKernel {
        data: d_buf.as_slice(),
        eps,
        degrees: &degrees_dev,
    };
    let report = device.launch(LaunchConfig::for_elements(n, block), &degree_kernel)?;
    total += report.duration;
    profile.record(&report);
    let degrees: Vec<u32> = degrees_dev
        .iter()
        .map(|d| d.load(Ordering::Relaxed))
        .collect();

    // Phase 2: exclusive scan -> offsets.
    let (offsets, scan_t) = thrust::exclusive_scan(device, &degrees);
    total += scan_t;
    let edges = degrees.iter().map(|&d| d as usize).sum::<usize>();

    // Phase 3: adjacency fill.
    let _adjacency_alloc = RawAlloc::new(device, edges * 4)?;
    let adjacency: Vec<AtomicU32> = (0..edges).map(|_| AtomicU32::new(0)).collect();
    let adj_kernel = AdjacencyKernel {
        data: d_buf.as_slice(),
        eps,
        offsets: &offsets,
        adjacency: &adjacency,
    };
    let report = device.launch(LaunchConfig::for_elements(n, block), &adj_kernel)?;
    total += report.duration;
    profile.record(&report);
    let adjacency: Vec<u32> = adjacency
        .iter()
        .map(|a| a.load(Ordering::Relaxed))
        .collect();
    let graph_time = total;

    // Phase 4: cluster identification by repeated level-synchronous BFS.
    let core: Vec<bool> = degrees.iter().map(|&d| (d as usize) >= minpts).collect();
    let labels: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(u32::MAX)).collect();
    let frontier: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
    let next_frontier: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
    let produced = DeviceCounter::new(device)?;
    let mut bfs_levels = 0usize;
    let mut n_clusters = 0u32;

    for seed in 0..n as u32 {
        if !core[seed as usize] || labels[seed as usize].load(Ordering::Relaxed) != u32::MAX {
            continue;
        }
        let cluster = n_clusters;
        n_clusters += 1;
        labels[seed as usize].store(cluster, Ordering::Relaxed);
        frontier[seed as usize].store(1, Ordering::Relaxed);
        loop {
            produced.reset();
            let kernel = BfsLevelKernel {
                offsets: &offsets,
                degrees: &degrees,
                adjacency: &adjacency,
                core: &core,
                frontier: &frontier,
                next_frontier: &next_frontier,
                labels: &labels,
                cluster,
                produced: &produced,
            };
            let report = device.launch(LaunchConfig::for_elements(n, block), &kernel)?;
            total += report.duration;
            profile.record(&report);
            bfs_levels += 1;
            if produced.get() == 0 {
                break;
            }
            // Swap frontiers (copy, since the buffers are shared refs).
            for (f, nf) in frontier.iter().zip(&next_frontier) {
                f.store(nf.swap(0, Ordering::Relaxed), Ordering::Relaxed);
            }
        }
        // Clear any frontier residue before the next seed.
        for f in &frontier {
            f.store(0, Ordering::Relaxed);
        }
    }

    let label_vec: Vec<PointLabel> = labels
        .iter()
        .map(|l| match l.load(Ordering::Relaxed) {
            u32::MAX => PointLabel::NOISE,
            k => PointLabel::cluster(k),
        })
        .collect();

    Ok(GDbscanResult {
        clustering: Clustering::from_labels(label_vec),
        report: GDbscanReport {
            modeled_time: total,
            graph_time,
            bfs_levels,
            edges,
            kernel_profile: profile,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dbscan::{Dbscan, GridSource};
    use crate::kernels::test_support::mixed_points;
    use spatial::GridIndex;

    fn check_against_dbscan(data: &[Point2], eps: f64, minpts: usize) {
        let device = Device::k20c();
        let g = g_dbscan(&device, data, eps, minpts).unwrap();
        let grid = GridIndex::build(data, eps);
        let d = Dbscan::new(minpts).run(&GridSource::new(&grid, data));

        assert_eq!(
            g.clustering.num_clusters(),
            d.num_clusters(),
            "cluster count"
        );
        // Noise agreement is exact.
        for i in 0..data.len() {
            assert_eq!(
                g.clustering.labels()[i].is_noise(),
                d.labels()[i].is_noise(),
                "noise disagreement at {i}"
            );
        }
        // Core same-cluster relation agrees exactly.
        let eps_sq = eps * eps;
        let cores: Vec<usize> = (0..data.len())
            .filter(|&i| {
                data.iter()
                    .filter(|q| data[i].distance_sq(q) <= eps_sq)
                    .count()
                    >= minpts
            })
            .collect();
        for w in cores.windows(2) {
            let same_g = g.clustering.labels()[w[0]] == g.clustering.labels()[w[1]];
            let same_d = d.labels()[w[0]] == d.labels()[w[1]];
            assert_eq!(same_g, same_d, "core pair {w:?}");
        }
    }

    #[test]
    fn matches_dbscan_structure() {
        let data = mixed_points(300);
        for (eps, minpts) in [(0.5, 4), (1.0, 8), (0.3, 2)] {
            check_against_dbscan(&data, eps, minpts);
        }
    }

    #[test]
    fn edge_count_equals_hybrid_pair_count() {
        use crate::hybrid::{HybridConfig, HybridDbscan};
        let data = mixed_points(250);
        let eps = 0.6;
        let device = Device::k20c();
        let g = g_dbscan(&device, &data, eps, 4).unwrap();
        let h = HybridDbscan::new(&device, HybridConfig::default())
            .build_table(&data, eps)
            .unwrap();
        assert_eq!(g.report.edges, h.gpu.result_pairs, "same ε-graph");
    }

    #[test]
    fn graph_construction_scales_quadratically() {
        // The O(n^2) indexless graph construction is the published
        // bottleneck: doubling n must roughly quadruple the graph time
        // (at small n, fixed launch overheads damp the ratio).
        let device = Device::k20c();
        let small = g_dbscan(&device, &mixed_points(1000), 0.4, 4).unwrap();
        let large = g_dbscan(&device, &mixed_points(4000), 0.4, 4).unwrap();
        let ratio = large.report.graph_time.as_secs() / small.report.graph_time.as_secs();
        assert!(
            ratio > 6.0,
            "graph time grew only {ratio:.2}x for 4x points (expect ~16x)"
        );
        assert!(small.report.bfs_levels >= 1);
    }

    #[test]
    fn all_noise_when_minpts_too_large() {
        let data = mixed_points(100);
        let device = Device::k20c();
        let g = g_dbscan(&device, &data, 0.2, 1000).unwrap();
        assert_eq!(g.clustering.num_clusters(), 0);
        assert_eq!(g.clustering.noise_count(), 100);
    }

    #[test]
    fn device_memory_released() {
        let data = mixed_points(150);
        let device = Device::k20c();
        let _ = g_dbscan(&device, &data, 0.5, 4).unwrap();
        assert_eq!(device.used_bytes(), 0);
    }
}
