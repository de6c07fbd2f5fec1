//! The analytic SIMT cost model.
//!
//! Kernels count abstract events (flops, global/shared memory traffic,
//! atomics, dependent reads) per simulated thread as they execute.
//! [`crate::kernel`] prices each thread's counts as cycles, aggregates
//! thread cycles to warp granularity (lockstep: a warp costs the
//! *maximum* over its threads, so divergence and idle lanes are paid for),
//! sums warps into per-block cycles, and this module turns block cycles
//! into a kernel duration by scheduling blocks onto SMs at the achievable
//! occupancy, with a device-bandwidth bound.
//!
//! Constants are calibrated to a Kepler-class device (Tesla K20c) only to
//! the degree the paper's *comparative* results require — per DESIGN.md,
//! absolute times are not expected to match the paper's testbed.

use crate::launch::LaunchConfig;
use crate::time::SimDuration;
use serde::{Deserialize, Serialize};

/// Per-event cycle/byte charges and scheduling constants.
///
/// The per-event cycle constants are integers: a thread's cycles are its
/// event counts priced once, which equals summing the charges one by one
/// bit for bit only because every term is then exact in f64 (see
/// [`crate::kernel`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Cycles per floating-point op (fused multiply-add counts as one).
    /// The paper's kernels compute double-precision distances; Kepler
    /// issues DP at 1/3 the SP rate, hence the default of 3.
    pub cycles_per_flop: f64,
    /// Effective cycles per 32-bit global-memory access issued by a
    /// thread. Calibrated to the *exposed* latency of dependent gather
    /// loads (index chase through A into D), which occupancy only
    /// partially hides — the dominant cost of both ε-neighborhood kernels
    /// on Kepler.
    pub cycles_per_global_word: f64,
    /// Effective cycles per 32-bit shared-memory access. The default of 2
    /// reflects the 2-way bank conflicts of 64-bit (f64 coordinate)
    /// accesses on Kepler's 4-byte-banked shared memory.
    pub cycles_per_shared_word: f64,
    /// Cycles per global atomic operation (contended RMW on Kepler).
    pub cycles_per_atomic: f64,
    /// Fixed cycles charged to every block (scheduling/launch bookkeeping).
    /// This is what makes block-per-cell kernels with tiny cells expensive.
    pub block_overhead_cycles: f64,
    /// Fixed host-side kernel launch overhead.
    pub launch_overhead: SimDuration,
    /// Fraction of memory cycles hidden per unit occupancy: at occupancy
    /// `o`, memory cycles are scaled by `1 - latency_hiding * o`.
    pub latency_hiding: f64,
    /// Fraction of charged global *reads* served by the on-chip cache
    /// hierarchy (Kepler read-only/L2 cache): redundant per-thread reads
    /// of shared grid cells mostly hit cache, so only the miss fraction
    /// reaches DRAM for the bandwidth bound.
    pub read_cache_hit: f64,
    /// Cycles charged to every warp at each block-level barrier
    /// (`__syncthreads()`), penalizing barrier-heavy kernels.
    pub barrier_cycles: f64,
    /// Extra cycles per *dependent* global read — a load whose address is
    /// computed from the value of the previous load (pointer/index chase,
    /// e.g. descending a packed tree node by node). Streaming reads charge
    /// only `cycles_per_global_word` because independent loads pipeline;
    /// a dependent chain exposes issue-to-use latency the scheduler cannot
    /// overlap within the thread, so each hop pays this surcharge on top
    /// of the word cost. This is what makes tree traversal pay for its
    /// depth where the grid's direct cell indexing does not.
    pub dependent_read_cycles: f64,
}

impl CostModel {
    /// Defaults calibrated for a K20c-class device.
    pub fn kepler() -> Self {
        CostModel {
            cycles_per_flop: 3.0,
            cycles_per_global_word: 100.0,
            cycles_per_shared_word: 2.0,
            cycles_per_atomic: 24.0,
            block_overhead_cycles: 600.0,
            launch_overhead: SimDuration::from_micros(8.0),
            latency_hiding: 0.5,
            read_cache_hit: 0.75,
            barrier_cycles: 40.0,
            // ~half the exposed global-word latency: the chased node is
            // usually resident in the read-only cache (tree pools are
            // small), but the address dependence still serializes issue.
            dependent_read_cycles: 50.0,
        }
    }
}

/// Event counters accumulated by a kernel execution (per-thread during
/// execution, merged to kernel totals in the report).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Counters {
    /// Floating-point operations.
    pub flops: u64,
    /// Bytes read from global memory.
    pub global_read_bytes: u64,
    /// Bytes written to global memory.
    pub global_write_bytes: u64,
    /// Bytes read from or written to shared memory.
    pub shared_bytes: u64,
    /// Global atomic operations.
    pub atomics: u64,
}

impl Counters {
    /// Cycles this event mix costs a single thread under `model`.
    pub fn thread_cycles(&self, model: &CostModel) -> f64 {
        self.flops as f64 * model.cycles_per_flop
            + (self.global_read_bytes + self.global_write_bytes) as f64 / 4.0
                * model.cycles_per_global_word
            + self.shared_bytes as f64 / 4.0 * model.cycles_per_shared_word
            + self.atomics as f64 * model.cycles_per_atomic
    }

    pub fn merge(&mut self, other: &Counters) {
        self.flops += other.flops;
        self.global_read_bytes += other.global_read_bytes;
        self.global_write_bytes += other.global_write_bytes;
        self.shared_bytes += other.shared_bytes;
        self.atomics += other.atomics;
    }

    /// Total bytes that hit the global-memory system.
    pub fn global_bytes(&self) -> u64 {
        self.global_read_bytes + self.global_write_bytes
    }
}

/// Convert aggregate block cycles into a kernel duration.
///
/// * `block_cycles` — per-block warp-cycle costs (sum of per-warp maxima,
///   as accumulated by `BlockCtx::phase`).
/// * `cfg` — the launch configuration (for occupancy).
///
/// The model:
/// 1. Memory-bandwidth bound: DRAM traffic (cache-filtered reads + all
///    writes) over device bandwidth.
/// 2. Issue bound: total warp cycles over the device's aggregate issue
///    width (`sm_count × warp_schedulers` warps per cycle), scaled by a
///    latency-hiding factor that improves with occupancy.
/// 3. Kernel time = max(issue bound, bandwidth bound) + overheads.
pub fn kernel_duration(
    props: &crate::device::DeviceProps,
    model: &CostModel,
    cfg: &LaunchConfig,
    block_cycles: &[f64],
    totals: &Counters,
) -> SimDuration {
    if block_cycles.is_empty() {
        return model.launch_overhead;
    }
    let occupancy = cfg.occupancy(props);

    // Memory-bandwidth bound: reads mostly hit the on-chip caches.
    let dram_bytes = totals.global_read_bytes as f64 * (1.0 - model.read_cache_hit)
        + totals.global_write_bytes as f64;
    let bw_time = dram_bytes / (props.mem_bandwidth_gbps * 1e9);

    // Issue bound: warp cycles over aggregate scheduler width; higher
    // occupancy hides a fraction of stall cycles.
    let hiding = 1.0 - model.latency_hiding * occupancy;
    let total_cycles: f64 =
        block_cycles.iter().sum::<f64>() + model.block_overhead_cycles * block_cycles.len() as f64;
    let issue_width = (props.sm_count * props.warp_schedulers) as f64;
    let compute_time = total_cycles * hiding / issue_width / (props.clock_ghz * 1e9);

    model.launch_overhead + SimDuration::from_secs(compute_time.max(bw_time))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceProps;

    fn props() -> DeviceProps {
        DeviceProps::k20c()
    }

    #[test]
    fn thread_cycles_compose_linearly() {
        let m = CostModel::kepler();
        let c = Counters {
            flops: 10,
            global_read_bytes: 40,
            ..Default::default()
        };
        assert_eq!(
            c.thread_cycles(&m),
            10.0 * m.cycles_per_flop + 10.0 * m.cycles_per_global_word
        );
    }

    #[test]
    fn merge_accumulates() {
        let mut a = Counters {
            flops: 1,
            atomics: 2,
            ..Default::default()
        };
        let b = Counters {
            flops: 3,
            shared_bytes: 8,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.flops, 4);
        assert_eq!(a.atomics, 2);
        assert_eq!(a.shared_bytes, 8);
    }

    #[test]
    fn empty_kernel_costs_launch_overhead_only() {
        let m = CostModel::kepler();
        let cfg = LaunchConfig::new(0, 256);
        let d = kernel_duration(&props(), &m, &cfg, &[], &Counters::default());
        assert_eq!(d, m.launch_overhead);
    }

    #[test]
    fn more_blocks_cost_more() {
        let m = CostModel::kepler();
        let cfg = LaunchConfig::new(1000, 256);
        let one = kernel_duration(&props(), &m, &cfg, &[1000.0; 100], &Counters::default());
        let two = kernel_duration(&props(), &m, &cfg, &[1000.0; 10000], &Counters::default());
        assert!(two > one);
    }

    #[test]
    fn bandwidth_bound_kicks_in() {
        let m = CostModel::kepler();
        let cfg = LaunchConfig::new(16, 256);
        // Tiny compute but a huge memory footprint: duration must be at
        // least DRAM traffic / bandwidth. Writes are not cache-filtered.
        let totals = Counters {
            global_write_bytes: 208_000_000_000,
            ..Default::default()
        };
        let d = kernel_duration(&props(), &m, &cfg, &[1.0; 16], &totals);
        assert!(
            d.as_secs() >= 1.0,
            "208 GB at 208 GB/s is >= 1 s, got {}",
            d.as_secs()
        );
        // Reads are filtered by the cache-hit fraction.
        let reads = Counters {
            global_read_bytes: 208_000_000_000,
            ..Default::default()
        };
        let dr = kernel_duration(&props(), &m, &cfg, &[1.0; 16], &reads);
        assert!(dr < d, "cached reads must cost less than writes");
        assert!(dr.as_secs() >= 0.2, "cache miss fraction still pays DRAM");
    }

    #[test]
    fn block_overhead_penalizes_many_tiny_blocks() {
        let m = CostModel::kepler();
        // Same total work split into 100 vs 100_000 blocks.
        let few_cfg = LaunchConfig::new(100, 256);
        let many_cfg = LaunchConfig::new(100_000, 256);
        let few = kernel_duration(
            &props(),
            &m,
            &few_cfg,
            &[10_000.0; 100],
            &Counters::default(),
        );
        let many = kernel_duration(
            &props(),
            &m,
            &many_cfg,
            &[10.0; 100_000],
            &Counters::default(),
        );
        assert!(
            many > few,
            "per-block overhead must dominate for tiny blocks: {} vs {}",
            many.as_micros(),
            few.as_micros()
        );
    }
}
