//! CUDA-DClust (Böhm et al., CIKM 2009) — the paper's reference \[5\], as a
//! comparator.
//!
//! The original on-GPU DBSCAN: many *chains* (sub-clusters) grow in
//! parallel, one thread block each, expanding density-reachability from
//! seed points through an index. When a chain reaches a point already
//! owned by another chain, a **collision** is recorded; after all points
//! are assigned or marked noise, the host resolves the collision matrix
//! to merge chains into final clusters. Mr. Scan (the paper's reference
//! \[7\]) scales this same design out; Hybrid-DBSCAN's motivation section
//! positions itself against exactly this family.
//!
//! Faithful structural choices here:
//!
//! * a bounded number of chains expand concurrently (one block each, so a
//!   launch with few live chains underutilizes the device — the approach's
//!   published weakness);
//! * chains claim points with atomic compare-and-swap; claims of
//!   already-owned points by/of *core* points record collisions;
//! * border points stay with the first chain that claimed them (the same
//!   ambiguity class as DBSCAN's visit order);
//! * the collision matrix is resolved on the host with union-find.
//!
//! Unlike the original (which searches its own directory structure), the
//! expansion kernel searches the same grid index the rest of this
//! repository uses — favorable to CUDA-DClust, so the comparison with
//! Hybrid-DBSCAN is conservative.

use crate::dbscan::{Clustering, PointLabel};
use crate::hybrid::{validate_input, DeviceCells, HybridError};
use crate::kernels::{scan_stencil, LaneBuf};
use crate::levels::find;
use gpu_sim::device::Device;
use gpu_sim::error::DeviceError;
use gpu_sim::kernel::{BlockCtx, BlockKernel};
use gpu_sim::launch::LaunchConfig;
use gpu_sim::memory::{DeviceBuffer, RawAlloc};
use gpu_sim::profiler::KernelProfile;
use gpu_sim::time::SimDuration;
use parking_lot::Mutex;
use spatial::grid::CellsView;
use spatial::{GridGeometry, MemberStoreN, MembersViewN, Point2, PointStore, PointsView};
use std::sync::atomic::{AtomicU32, Ordering};

/// Sentinel: point not yet owned by any chain.
const UNOWNED: u32 = u32::MAX;

/// Per-launch expansion kernel: block `b` expands chain `b`'s frontier.
///
/// Each block walks its chain's frontier points; threads of the block
/// cooperatively scan the 9 candidate grid cells of each frontier point
/// (thread `t` handles candidate `t, t+blockDim, …`), claiming in-range
/// points for the chain and recording core-core contacts with foreign
/// chains as collisions.
struct ChainExpandKernel<'a> {
    points: PointsView<'a>,
    grid: CellsView<'a>,
    /// `A` with the points' coordinates in the same order (the host-side
    /// mirror the scans read).
    members: MembersViewN<'a, 2>,
    geom: GridGeometry,
    eps: f64,
    minpts: usize,
    /// Frontier points per active chain (`chains[b]` drives block `b`).
    frontiers: &'a [Vec<u32>],
    /// Chain id of each active block.
    chain_ids: &'a [u32],
    /// Point → owning chain (UNOWNED if none yet).
    owner: &'a [AtomicU32],
    /// Point → cached neighbor count (0 = unknown).
    degree: &'a [AtomicU32],
    /// Next frontier per chain (host-merged between launches).
    next: &'a Mutex<Vec<Vec<u32>>>,
    /// Collision pairs (chain, chain).
    collisions: &'a Mutex<Vec<(u32, u32)>>,
}

impl ChainExpandKernel<'_> {
    /// Replace `out` with the neighbor ids of `p` within ε via the grid,
    /// charging `t`.
    fn neighbors(&self, t: &mut gpu_sim::kernel::ThreadCtx, pi: u32, out: &mut LaneBuf<u32>) {
        out.clear();
        scan_stencil(
            t,
            self.points,
            &self.grid,
            self.members,
            &self.geom,
            self.eps * self.eps,
            pi as usize,
            None,
            |ids, mask| out.push(mask, |j| ids[j]),
        );
    }
}

impl BlockKernel for ChainExpandKernel<'_> {
    fn run_block(&self, ctx: &mut BlockCtx) -> Result<(), DeviceError> {
        let b = ctx.block_idx as usize;
        let chain = self.chain_ids[b];
        let frontier = &self.frontiers[b];
        let mut next_local: Vec<u32> = Vec::new();
        let mut collisions_local: Vec<(u32, u32)> = Vec::new();

        // The frontier points are processed by the whole block; the
        // cooperative scan is simulated per-thread with work divided at
        // candidate granularity (thread 0 carries the bookkeeping).
        ctx.for_each_thread(|t| {
            if t.tid != 0 {
                // Lockstep cost of the cooperative scan: the per-point
                // neighborhood work is spread over the block, so each
                // lane pays roughly 1/blockDim of thread 0's charges; the
                // warp-max accounting already takes thread 0's path as
                // the block's cost, so other lanes charge nothing extra.
                return;
            }
            let (mut nbrs, mut qn) = (LaneBuf::new(), LaneBuf::new());
            for &pi in frontier {
                self.neighbors(t, pi, &mut nbrs);
                self.degree[pi as usize].store(nbrs.len() as u32, Ordering::Relaxed);
                if nbrs.len() < self.minpts {
                    // Frontier point turned out not to be core: it stays
                    // a border member of this chain but does not expand.
                    continue;
                }
                for &q in nbrs.as_slice() {
                    t.charge_atomic();
                    match self.owner[q as usize].compare_exchange(
                        UNOWNED,
                        chain,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    ) {
                        Ok(_) => {
                            t.write_global::<u32>(1);
                            next_local.push(q);
                        }
                        Err(other) if other != chain => {
                            // Claimed by a foreign chain: a collision iff
                            // q is itself core (border points do not merge
                            // clusters). q's degree may be unknown; count
                            // it on the spot (extra index search — the
                            // cost CUDA-DClust pays for collisions).
                            let deg = {
                                let cached = self.degree[q as usize].load(Ordering::Relaxed);
                                if cached > 0 {
                                    cached as usize
                                } else {
                                    self.neighbors(t, q, &mut qn);
                                    self.degree[q as usize]
                                        .store(qn.len() as u32, Ordering::Relaxed);
                                    qn.len()
                                }
                            };
                            if deg >= self.minpts {
                                t.write_global::<u32>(2);
                                collisions_local.push((chain, other));
                            }
                        }
                        Err(_) => {}
                    }
                }
            }
        });

        if !next_local.is_empty() {
            self.next.lock()[b].extend_from_slice(&next_local);
        }
        if !collisions_local.is_empty() {
            self.collisions.lock().extend_from_slice(&collisions_local);
        }
        Ok(())
    }
}

/// Timing and structure of a CUDA-DClust run.
#[derive(Debug, Clone)]
pub struct CudaDclustReport {
    /// Modeled device time over all expansion launches (+ upload).
    pub modeled_time: SimDuration,
    /// Expansion kernel launches.
    pub launches: usize,
    /// Chains created before collision resolution.
    pub chains: usize,
    /// Collision pairs recorded.
    pub collisions: usize,
    pub kernel_profile: KernelProfile,
}

/// Result of [`cuda_dclust`].
pub struct CudaDclustResult {
    pub clustering: Clustering,
    pub report: CudaDclustReport,
}

/// Run CUDA-DClust with up to `max_chains` concurrent chains per launch.
///
/// The input is checked first, as the hybrid build checks it: empty data,
/// ε not positive and finite, or a non-finite coordinate is a
/// [`HybridError::InvalidInput`], and nothing is uploaded.
pub fn cuda_dclust(
    device: &Device,
    data: &[Point2],
    eps: f64,
    minpts: usize,
    max_chains: usize,
) -> Result<CudaDclustResult, HybridError> {
    validate_input(eps, data.iter().map(|p| p.coords))?;
    let max_chains = max_chains.clamp(1, 1024);
    let n = data.len();
    let grid = spatial::GridIndex::build(data, eps);
    let store = PointStore::from_points(data);
    let geom = grid.geometry();

    let mut profile = KernelProfile::new();
    let mut total = SimDuration::ZERO;

    // Device-resident inputs.
    // D stays one Point2 upload (the SoA mirror is host-side layout);
    // the buffer is held for device-memory accounting.
    let (_d_buf, up_d) = DeviceBuffer::from_host(device, data, false)?;
    let (g_buf, up_g) = DeviceCells::upload(device, grid.cells_view())?;
    // A is uploaded and charged; the kernel scans its host-side mirror.
    let (_a_buf, up_a) = DeviceBuffer::from_host(device, grid.lookup(), false)?;
    let members = MemberStoreN::gather(store.view(), grid.lookup());
    total += up_d + up_g + up_a;
    // Ownership + degree arrays live on the device.
    let _state_alloc = RawAlloc::new(device, n * 8)?;

    let owner: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(UNOWNED)).collect();
    let degree: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
    let collisions: Mutex<Vec<(u32, u32)>> = Mutex::new(Vec::new());

    let mut n_chains = 0u32;
    let mut launches = 0usize;
    let mut seed_cursor = 0u32;

    // Active chains and their frontiers.
    let mut active: Vec<(u32, Vec<u32>)> = Vec::new();

    loop {
        // Refill the active set with fresh seeds (one new chain per
        // unowned seed point), up to max_chains.
        while active.len() < max_chains && (seed_cursor as usize) < n {
            let s = seed_cursor;
            seed_cursor += 1;
            if owner[s as usize]
                .compare_exchange(UNOWNED, n_chains, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                active.push((n_chains, vec![s]));
                n_chains += 1;
            }
        }
        if active.is_empty() {
            break;
        }

        // One launch expands every active chain's frontier by one hop.
        let frontiers: Vec<Vec<u32>> = active.iter().map(|(_, f)| f.clone()).collect();
        let chain_ids: Vec<u32> = active.iter().map(|(c, _)| *c).collect();
        let next: Mutex<Vec<Vec<u32>>> = Mutex::new(vec![Vec::new(); active.len()]);
        let kernel = ChainExpandKernel {
            points: store.view(),
            grid: g_buf.view(),
            members: members.view(),
            geom,
            eps,
            minpts,
            frontiers: &frontiers,
            chain_ids: &chain_ids,
            owner: &owner,
            degree: &degree,
            next: &next,
            collisions: &collisions,
        };
        let report = device.launch(LaunchConfig::new(active.len() as u32, 32), &kernel)?;
        total += report.duration;
        profile.record(&report);
        launches += 1;

        // Chains with an empty next frontier retire.
        let next = next.into_inner();
        active = chain_ids
            .into_iter()
            .zip(next)
            .filter(|(_, f)| !f.is_empty())
            .collect();
    }

    // Host-side collision resolution: union-find over chains.
    let mut parent: Vec<u32> = (0..n_chains).collect();
    let collision_pairs = collisions.into_inner();
    for &(a, b) in &collision_pairs {
        let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
        if ra != rb {
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            parent[hi as usize] = lo;
        }
    }

    // Final labels: singleton chains whose seed is not core are noise
    // (their seed never expanded and nothing claimed them); otherwise a
    // chain's merged root numbers the cluster. A chain is "real" iff any
    // of its members is core.
    let mut chain_has_core = vec![false; n_chains as usize];
    for i in 0..n {
        let c = owner[i].load(Ordering::Relaxed);
        if c != UNOWNED && degree[i].load(Ordering::Relaxed) as usize >= minpts {
            chain_has_core[c as usize] = true;
        }
    }
    // Propagate core-ness through merges.
    let mut root_has_core = vec![false; n_chains as usize];
    for c in 0..n_chains {
        if chain_has_core[c as usize] {
            let r = find(&mut parent, c);
            root_has_core[r as usize] = true;
        }
    }
    // Dense cluster numbering over core-bearing roots.
    let mut root_label = vec![u32::MAX; n_chains as usize];
    let mut next_label = 0u32;
    for c in 0..n_chains {
        let r = find(&mut parent, c);
        if root_has_core[r as usize] && root_label[r as usize] == u32::MAX {
            root_label[r as usize] = next_label;
            next_label += 1;
        }
    }

    // Every point was claimed or seeded, and every owned point was
    // expanded once, so ownership and degree are total.
    let mut labels: Vec<PointLabel> = (0..n)
        .map(|i| {
            let c = owner[i].load(Ordering::Relaxed);
            debug_assert_ne!(c, UNOWNED, "seeding covers every point");
            let r = find(&mut parent, c);
            if root_has_core[r as usize] {
                PointLabel::cluster(root_label[r as usize])
            } else {
                PointLabel::NOISE
            }
        })
        .collect();

    // Border fixup (host side, part of collision resolution): a point
    // stranded in a coreless chain — its seed round found too few
    // neighbors before any cluster reached it — is still a border point
    // of any cluster whose core lies within ε (DBSCAN's noise→border
    // reclaim). Assign deterministically to the smallest-id core
    // neighbor's cluster.
    for i in 0..n {
        if !labels[i].is_noise() {
            continue;
        }
        let mut adopt: Option<u32> = None;
        grid.query_visit(data, &data[i], |j| {
            if adopt.is_some() {
                return;
            }
            if degree[j as usize].load(Ordering::Relaxed) as usize >= minpts {
                let rc = find(&mut parent, owner[j as usize].load(Ordering::Relaxed));
                if root_has_core[rc as usize] {
                    adopt = Some(root_label[rc as usize]);
                }
            }
        });
        if let Some(k) = adopt {
            labels[i] = PointLabel::cluster(k);
        }
    }
    let labels = labels;

    Ok(CudaDclustResult {
        clustering: Clustering::from_labels(labels),
        report: CudaDclustReport {
            modeled_time: total,
            launches,
            chains: n_chains as usize,
            collisions: collision_pairs.len(),
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

    fn check_structure(data: &[Point2], eps: f64, minpts: usize, max_chains: usize) {
        let device = Device::k20c();
        let c = cuda_dclust(&device, data, eps, minpts, max_chains).unwrap();
        let grid = GridIndex::build(data, eps);
        let d = Dbscan::new(minpts).run(&GridSource::new(&grid, data));

        assert_eq!(
            c.clustering.num_clusters(),
            d.num_clusters(),
            "cluster count (max_chains={max_chains})"
        );
        // Noise agreement is exact.
        for i in 0..data.len() {
            assert_eq!(
                c.clustering.labels()[i].is_noise(),
                d.labels()[i].is_noise(),
                "noise disagreement at {i}"
            );
        }
        // Core same-cluster relation is exact.
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
            let same_c = c.clustering.labels()[w[0]] == c.clustering.labels()[w[1]];
            let same_d = d.labels()[w[0]] == d.labels()[w[1]];
            assert_eq!(same_c, same_d, "core pair {w:?}");
        }
    }

    #[test]
    fn matches_dbscan_structure() {
        let data = mixed_points(400);
        for (eps, minpts) in [(0.5, 4), (1.0, 8)] {
            check_structure(&data, eps, minpts, 64);
        }
    }

    #[test]
    fn chain_count_does_not_change_clusters() {
        // Few chains (serialized growth) and many chains (heavy
        // collisions) must produce the same clustering structure.
        let data = mixed_points(300);
        for max_chains in [1, 4, 256] {
            check_structure(&data, 0.6, 4, max_chains);
        }
    }

    #[test]
    fn collisions_occur_with_many_chains() {
        // A single dense clump seeded by many chains must collide.
        let data: Vec<Point2> = (0..200)
            .map(|i| Point2::new(0.01 * (i % 15) as f64, 0.01 * (i / 15) as f64))
            .collect();
        let device = Device::k20c();
        let c = cuda_dclust(&device, &data, 0.5, 4, 128).unwrap();
        assert_eq!(c.clustering.num_clusters(), 1, "one clump, one cluster");
        assert!(
            c.report.collisions > 0,
            "parallel chains into one clump must collide"
        );
        assert!(c.report.chains > 1);
    }

    #[test]
    fn all_noise_extreme() {
        let data = mixed_points(100);
        let device = Device::k20c();
        let c = cuda_dclust(&device, &data, 0.2, 1000, 32).unwrap();
        assert_eq!(c.clustering.num_clusters(), 0);
        assert_eq!(c.clustering.noise_count(), 100);
    }

    #[test]
    fn device_memory_released() {
        let data = mixed_points(150);
        let device = Device::k20c();
        let _ = cuda_dclust(&device, &data, 0.5, 4, 32).unwrap();
        assert_eq!(device.used_bytes(), 0);
    }
}
