//! Kernel execution: the block-synchronous SIMT model.
//!
//! A kernel implements [`BlockKernel::run_block`], which executes one
//! thread block. Inside a block, the CUDA thread structure is simulated in
//! *barrier-delimited phases*: [`BlockCtx::phase`] runs a closure once per
//! thread id, and the implicit barrier between phases corresponds to
//! `__syncthreads()`. Because the threads of a block are simulated
//! sequentially on one host thread, shared memory is ordinary data
//! allocated with [`BlockCtx::alloc_shared`] and phases may freely read
//! what earlier phases wrote — exactly the guarantee `__syncthreads()`
//! provides on hardware.
//!
//! Blocks themselves run in parallel on the host's rayon pool, matching
//! CUDA's guarantee that distinct blocks only communicate through global
//! memory atomics.
//!
//! ## Cost accounting
//!
//! Each simulated thread charges events ([`ThreadCtx`] charge methods) as
//! it executes. At each phase boundary the per-thread cycle counts are
//! folded at **warp granularity**: a warp costs the *maximum* over its 32
//! lanes (SIMT lockstep), so divergent or idle lanes are paid for — the
//! effect that makes the paper's block-per-cell shared-memory kernel lose
//! to the thread-per-point global kernel on sparse cells. Per-block cycles
//! are then converted to a kernel duration by [`crate::cost`].

use crate::cost::{kernel_duration, Counters};
use crate::device::Device;
use crate::error::DeviceError;
use crate::launch::LaunchConfig;
use crate::time::SimDuration;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::sync::atomic::Ordering;

/// Per-thread execution context handed to phase closures.
pub struct ThreadCtx {
    /// Thread index within the block (`threadIdx.x`).
    pub tid: u32,
    /// Global thread id (`blockIdx.x * blockDim.x + threadIdx.x`).
    pub gid: u64,
    counters: Counters,
    cycles: f64,
    flop_cost: f64,
    global_word_cost: f64,
    shared_word_cost: f64,
    atomic_cost: f64,
    dependent_read_cost: f64,
}

impl ThreadCtx {
    /// Charge `n` floating-point operations.
    #[inline]
    pub fn charge_flops(&mut self, n: u64) {
        self.counters.flops += n;
        self.cycles += n as f64 * self.flop_cost;
    }

    /// Charge a global-memory read of `bytes`.
    #[inline]
    pub fn charge_global_read(&mut self, bytes: u64) {
        self.counters.global_read_bytes += bytes;
        self.cycles += bytes as f64 / 4.0 * self.global_word_cost;
    }

    /// Charge a global-memory read of `n` elements of type `T`.
    #[inline]
    pub fn read_global<T>(&mut self, n: u64) {
        self.charge_global_read(n * std::mem::size_of::<T>() as u64);
    }

    /// Charge a global-memory write of `bytes`.
    #[inline]
    pub fn charge_global_write(&mut self, bytes: u64) {
        self.counters.global_write_bytes += bytes;
        self.cycles += bytes as f64 / 4.0 * self.global_word_cost;
    }

    /// Charge a global-memory write of `n` elements of type `T`.
    #[inline]
    pub fn write_global<T>(&mut self, n: u64) {
        self.charge_global_write(n * std::mem::size_of::<T>() as u64);
    }

    /// Charge shared-memory traffic of `bytes` (read or write).
    #[inline]
    pub fn charge_shared(&mut self, bytes: u64) {
        self.counters.shared_bytes += bytes;
        self.cycles += bytes as f64 / 4.0 * self.shared_word_cost;
    }

    /// Charge shared-memory traffic of `n` elements of type `T`.
    #[inline]
    pub fn access_shared<T>(&mut self, n: u64) {
        self.charge_shared(n * std::mem::size_of::<T>() as u64);
    }

    /// Charge `n` *dependent* global reads of element type `T` — loads
    /// whose addresses chain through previous loads (tree/pointer
    /// traversal). Counts the same bytes as [`ThreadCtx::read_global`]
    /// plus the cost model's per-hop latency surcharge
    /// ([`crate::cost::CostModel::dependent_read_cycles`]), which is an
    /// integer constant so the cycle total stays exact in f64.
    #[inline]
    pub fn read_global_dependent<T>(&mut self, n: u64) {
        self.read_global::<T>(n);
        self.cycles += n as f64 * self.dependent_read_cost;
    }

    /// Charge one global atomic RMW (e.g. the result-set `atomicAdd`).
    #[inline]
    pub fn charge_atomic(&mut self) {
        self.counters.atomics += 1;
        self.cycles += self.atomic_cost;
    }

    /// Charge an aggregated batch of events in one call.
    ///
    /// Semantically identical to issuing the individual charge calls
    /// element by element; kernels use it to account a whole inner-loop
    /// chunk at once so the host-side bookkeeping overhead is paid per
    /// chunk, not per candidate. With the integer-valued cost models
    /// shipped in this crate the cycle total is *bitwise* identical to
    /// per-element accounting: every term below is an exact integer in
    /// f64 (byte counts are multiples of 4, and dividing by 4.0 is exact
    /// regardless), and f64 addition of exact integers below 2^53 is
    /// exact and therefore associative. See the `chunked accounting`
    /// test, which pins this equivalence.
    #[inline]
    pub fn charge_batch(&mut self, b: ChargeBatch) {
        self.counters.flops += b.flops;
        self.counters.global_read_bytes += b.global_read_bytes;
        self.counters.global_write_bytes += b.global_write_bytes;
        self.counters.shared_bytes += b.shared_bytes;
        self.counters.atomics += b.atomics;
        self.cycles += b.flops as f64 * self.flop_cost
            + b.global_read_bytes as f64 / 4.0 * self.global_word_cost
            + b.global_write_bytes as f64 / 4.0 * self.global_word_cost
            + b.shared_bytes as f64 / 4.0 * self.shared_word_cost
            + b.atomics as f64 * self.atomic_cost;
    }
}

/// An aggregated set of cost events, charged in one call via
/// [`ThreadCtx::charge_batch`]. Counts are raw event totals (bytes for
/// memory traffic), exactly as the per-element charge methods take them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChargeBatch {
    /// Floating-point operations.
    pub flops: u64,
    /// Global-memory bytes read.
    pub global_read_bytes: u64,
    /// Global-memory bytes written.
    pub global_write_bytes: u64,
    /// Shared-memory bytes accessed (read or write).
    pub shared_bytes: u64,
    /// Global atomic RMW operations.
    pub atomics: u64,
}

impl ChargeBatch {
    /// Accumulate `n` global reads of element type `T` into the batch.
    #[inline]
    pub fn read_global<T>(&mut self, n: u64) {
        self.global_read_bytes += n * std::mem::size_of::<T>() as u64;
    }

    /// Accumulate `n` global writes of element type `T` into the batch.
    #[inline]
    pub fn write_global<T>(&mut self, n: u64) {
        self.global_write_bytes += n * std::mem::size_of::<T>() as u64;
    }

    /// Accumulate `n` shared-memory accesses of element type `T`.
    #[inline]
    pub fn access_shared<T>(&mut self, n: u64) {
        self.shared_bytes += n * std::mem::size_of::<T>() as u64;
    }
}

/// Per-block execution context.
pub struct BlockCtx {
    /// `blockIdx.x`.
    pub block_idx: u32,
    /// `blockDim.x`.
    pub block_dim: u32,
    /// `gridDim.x`.
    pub grid_dim: u32,
    /// The launch's ordinal on its device: append buffers drain the
    /// windows of sequential launches in launch order.
    pub(crate) launch: u64,
    warp_size: u32,
    shared_used: usize,
    shared_limit: usize,
    flop_cost: f64,
    global_word_cost: f64,
    shared_word_cost: f64,
    atomic_cost: f64,
    dependent_read_cost: f64,
    barrier_cost: f64,
    block_cycles: f64,
    counters: Counters,
}

impl BlockCtx {
    /// Block `block_idx` of launch number `launch` of `cfg` on `device`.
    pub(crate) fn new(device: &Device, cfg: LaunchConfig, launch: u64, block_idx: u32) -> Self {
        let (props, model) = (device.props(), device.cost_model());
        BlockCtx {
            block_idx,
            block_dim: cfg.block_dim,
            grid_dim: cfg.grid_dim,
            launch,
            warp_size: props.warp_size,
            shared_used: 0,
            shared_limit: props.shared_mem_per_block,
            flop_cost: model.cycles_per_flop,
            global_word_cost: model.cycles_per_global_word,
            shared_word_cost: model.cycles_per_shared_word,
            atomic_cost: model.cycles_per_atomic,
            dependent_read_cost: model.dependent_read_cycles,
            barrier_cost: model.barrier_cycles,
            block_cycles: 0.0,
            counters: Counters::default(),
        }
    }

    /// Allocate a shared-memory array of `len` `T`s, checked against the
    /// per-block shared-memory limit (48 KB on the K20c).
    pub fn alloc_shared<T: Default + Clone>(&mut self, len: usize) -> Result<Vec<T>, DeviceError> {
        let bytes = len * std::mem::size_of::<T>();
        self.shared_used += bytes;
        if self.shared_used > self.shared_limit {
            return Err(DeviceError::SharedMemExceeded {
                requested_bytes: self.shared_used,
                limit_bytes: self.shared_limit,
            });
        }
        Ok(vec![T::default(); len])
    }

    /// Execute one barrier-delimited phase: `f` runs once per thread id in
    /// `0..block_dim`, then per-thread cycles are folded to warp granularity
    /// (max over lanes) and accumulated into the block cost — the
    /// `__syncthreads()` accounting point.
    pub fn phase(&mut self, mut f: impl FnMut(&mut ThreadCtx)) {
        let mut warp_max = 0.0f64;
        let mut phase_cycles = 0.0f64;
        for tid in 0..self.block_dim {
            let mut t = ThreadCtx {
                tid,
                gid: self.block_idx as u64 * self.block_dim as u64 + tid as u64,
                counters: Counters::default(),
                cycles: 0.0,
                flop_cost: self.flop_cost,
                global_word_cost: self.global_word_cost,
                shared_word_cost: self.shared_word_cost,
                atomic_cost: self.atomic_cost,
                dependent_read_cost: self.dependent_read_cost,
            };
            f(&mut t);
            self.counters.merge(&t.counters);
            warp_max = warp_max.max(t.cycles);
            if (tid + 1) % self.warp_size == 0 {
                phase_cycles += warp_max;
                warp_max = 0.0;
            }
        }
        if !self.block_dim.is_multiple_of(self.warp_size) {
            phase_cycles += warp_max;
        }
        // Block cost accumulates in *warp cycles*: the sum over warps of
        // the per-warp (lockstep max) cost, plus a per-warp barrier charge
        // at the phase boundary. The cost model divides by the device's
        // aggregate warp-issue width.
        let n_warps = self.block_dim.div_ceil(self.warp_size) as f64;
        self.block_cycles += phase_cycles + self.barrier_cost * n_warps;
    }

    /// Single-phase helper for kernels with no `__syncthreads()` (the
    /// global-memory kernel is one phase end to end).
    pub fn for_each_thread(&mut self, f: impl FnMut(&mut ThreadCtx)) {
        self.phase(f);
    }
}

/// A kernel executable at block granularity.
pub trait BlockKernel: Sync {
    /// Execute one thread block. Writes to device buffers happen through
    /// shared references (atomics, one block commit per append buffer),
    /// mirroring CUDA global-memory semantics.
    fn run_block(&self, ctx: &mut BlockCtx) -> Result<(), DeviceError>;
}

/// The outcome of a kernel launch: functional side effects live in the
/// device buffers the kernel wrote; this report carries the modeled
/// timing and the profiler counters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KernelReport {
    /// The launch configuration.
    pub config: LaunchConfig,
    /// Total threads launched (`n_GPU` in Table II of the paper).
    pub threads_launched: u64,
    /// Modeled kernel duration.
    pub duration: SimDuration,
    /// Aggregate event counters.
    pub counters: Counters,
    /// Achieved occupancy in `(0, 1]`.
    pub occupancy: f64,
}

impl Device {
    /// Launch `kernel` over `cfg.grid_dim` blocks.
    ///
    /// Blocks execute in parallel on the rayon pool; the simulated compute
    /// engine admits one kernel at a time (single-compute-engine device),
    /// so concurrent launches from different host threads serialize, as
    /// the paper observes ("there is very little kernel execution overlap,
    /// as each invocation saturates GPU resources").
    ///
    /// Determinism: per-block `(cycles, counters)` come back from an
    /// index-addressed `collect` and are folded in block order below, so
    /// the modeled duration is bitwise identical at every thread count.
    /// Block commits into a `DeviceAppendBuffer` may land in any order;
    /// the buffer drains them in `(launch, block)` order (DESIGN.md,
    /// threading policy).
    pub fn launch<K: BlockKernel>(
        &self,
        cfg: LaunchConfig,
        kernel: &K,
    ) -> Result<KernelReport, DeviceError> {
        cfg.validate(self.props())?;
        let _compute_guard = self.inner.lock_compute();
        let launch = self.inner.launches.fetch_add(1, Ordering::Relaxed);

        let props = self.props();
        let model = self.cost_model();

        let results: Vec<Result<(f64, Counters), DeviceError>> = (0..cfg.grid_dim)
            .into_par_iter()
            .map(|block_idx| {
                let mut ctx = BlockCtx::new(self, cfg, launch, block_idx);
                kernel.run_block(&mut ctx)?;
                Ok((ctx.block_cycles, ctx.counters))
            })
            .collect();

        let mut block_cycles = Vec::with_capacity(cfg.grid_dim as usize);
        let mut totals = Counters::default();
        for r in results {
            let (cycles, counters) = r?;
            block_cycles.push(cycles);
            totals.merge(&counters);
        }

        let duration = kernel_duration(props, model, &cfg, &block_cycles, &totals);
        Ok(KernelReport {
            config: cfg,
            threads_launched: cfg.total_threads(),
            duration,
            counters: totals,
            occupancy: cfg.occupancy(props),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::{DeviceAppendBuffer, DeviceCounter};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Kernel that counts its own threads via a device counter.
    struct CountThreads<'a> {
        counter: &'a DeviceCounter,
        n: u64,
    }

    impl BlockKernel for CountThreads<'_> {
        fn run_block(&self, ctx: &mut BlockCtx) -> Result<(), DeviceError> {
            let n = self.n;
            let counter = self.counter;
            ctx.for_each_thread(|t| {
                if t.gid < n {
                    t.charge_atomic();
                    counter.add(1);
                }
            });
            Ok(())
        }
    }

    #[test]
    fn launch_covers_all_threads_once() {
        let d = Device::k20c();
        let c = DeviceCounter::new(&d).unwrap();
        let n = 10_000u64;
        let cfg = LaunchConfig::for_elements(n as usize, 256);
        let report = d.launch(cfg, &CountThreads { counter: &c, n }).unwrap();
        assert_eq!(c.get(), n);
        assert_eq!(report.threads_launched, cfg.total_threads());
        assert!(report.duration > SimDuration::ZERO);
        assert_eq!(report.counters.atomics, n);
    }

    /// Kernel demonstrating cross-phase shared memory: phase 1 stages
    /// values, phase 2 reduces them.
    struct SharedReduce<'a> {
        out: &'a DeviceAppendBuffer<u64>,
    }

    impl BlockKernel for SharedReduce<'_> {
        fn run_block(&self, ctx: &mut BlockCtx) -> Result<(), DeviceError> {
            let mut shared: Vec<u64> = ctx.alloc_shared(ctx.block_dim as usize)?;
            ctx.phase(|t| {
                shared[t.tid as usize] = t.gid;
                t.access_shared::<u64>(1);
            });
            // After the barrier, thread 0 sees every lane's write.
            let block_dim = ctx.block_dim;
            let mut sum = 0;
            ctx.phase(|t| {
                if t.tid == 0 {
                    sum = shared.iter().sum();
                    t.access_shared::<u64>(block_dim as u64);
                    t.charge_atomic();
                }
            });
            self.out.commit_block(ctx, &[sum])
        }
    }

    #[test]
    fn shared_memory_survives_phase_barrier() {
        let d = Device::k20c();
        let mut out = DeviceAppendBuffer::<u64>::new(&d, 4).unwrap();
        let cfg = LaunchConfig::new(4, 64);
        d.launch(cfg, &SharedReduce { out: &out }).unwrap();
        let sums = out.as_filled_slice().to_vec();
        // Block b covers gids [64b, 64b+63]; sum = 64*64b + 2016, drained
        // in block order.
        let expected: Vec<u64> = (0..4).map(|b| 64 * 64 * b + 2016).collect();
        assert_eq!(sums, expected);
    }

    /// Kernel with one hot lane per warp: warp-max accounting must charge
    /// the whole warp the hot lane's cost.
    struct DivergentKernel {
        heavy_flops: u64,
    }

    impl BlockKernel for DivergentKernel {
        fn run_block(&self, ctx: &mut BlockCtx) -> Result<(), DeviceError> {
            let heavy = self.heavy_flops;
            ctx.for_each_thread(|t| {
                if t.tid % 32 == 0 {
                    t.charge_flops(heavy);
                } else {
                    t.charge_flops(1);
                }
            });
            Ok(())
        }
    }

    /// A uniform kernel doing the same *total* flops as the divergent one.
    struct UniformKernel {
        flops_per_thread: u64,
    }

    impl BlockKernel for UniformKernel {
        fn run_block(&self, ctx: &mut BlockCtx) -> Result<(), DeviceError> {
            let f = self.flops_per_thread;
            ctx.for_each_thread(|t| t.charge_flops(f));
            Ok(())
        }
    }

    #[test]
    fn divergence_costs_more_than_uniform_work() {
        let d = Device::k20c();
        let cfg = LaunchConfig::new(8192, 256);
        // Divergent: one lane per warp does 32000 flops, 31 lanes do 1.
        let div = d
            .launch(
                cfg,
                &DivergentKernel {
                    heavy_flops: 32_000,
                },
            )
            .unwrap();
        // Uniform: every lane does the warp-average ~1001 flops.
        let uni = d
            .launch(
                cfg,
                &UniformKernel {
                    flops_per_thread: 1001,
                },
            )
            .unwrap();
        assert!(
            div.duration.as_secs() > 5.0 * uni.duration.as_secs(),
            "warp-max must punish divergence: {} vs {}",
            div.duration.as_micros(),
            uni.duration.as_micros()
        );
    }

    #[test]
    fn shared_alloc_limit_enforced() {
        struct Hog;
        impl BlockKernel for Hog {
            fn run_block(&self, ctx: &mut BlockCtx) -> Result<(), DeviceError> {
                let _a: Vec<u8> = ctx.alloc_shared(40 * 1024)?;
                let _b: Vec<u8> = ctx.alloc_shared(10 * 1024)?; // 50 KB total
                Ok(())
            }
        }
        let d = Device::k20c();
        let err = d.launch(LaunchConfig::new(1, 32), &Hog).unwrap_err();
        assert!(matches!(err, DeviceError::SharedMemExceeded { .. }));
    }

    #[test]
    fn blocks_run_in_parallel() {
        // Record the maximum number of concurrently-running blocks.
        struct Concurrency<'a> {
            current: &'a AtomicU64,
            peak: &'a AtomicU64,
        }
        impl BlockKernel for Concurrency<'_> {
            fn run_block(&self, ctx: &mut BlockCtx) -> Result<(), DeviceError> {
                let c = self.current.fetch_add(1, Ordering::SeqCst) + 1;
                self.peak.fetch_max(c, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_millis(5));
                self.current.fetch_sub(1, Ordering::SeqCst);
                ctx.for_each_thread(|_| {});
                Ok(())
            }
        }
        let d = Device::k20c();
        let (current, peak) = (AtomicU64::new(0), AtomicU64::new(0));
        // Install a 4-thread pool view so block overlap is exercised
        // regardless of RAYON_NUM_THREADS (the global pool grows to
        // match; the 5ms sleeps make overlap happen even on one core).
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap();
        pool.install(|| {
            d.launch(
                LaunchConfig::new(32, 32),
                &Concurrency {
                    current: &current,
                    peak: &peak,
                },
            )
        })
        .unwrap();
        assert!(
            peak.load(Ordering::SeqCst) > 1,
            "blocks should overlap on the pool"
        );
    }

    /// Charges the canonical per-candidate sequence of the ε-neighborhood
    /// inner loop (id read, point read, distance flops, occasional
    /// atomic+write) one element at a time.
    struct PerElement {
        candidates: u64,
    }

    impl BlockKernel for PerElement {
        fn run_block(&self, ctx: &mut BlockCtx) -> Result<(), DeviceError> {
            let n = self.candidates;
            ctx.for_each_thread(|t| {
                for i in 0..n {
                    t.read_global::<u32>(1);
                    t.read_global::<[f64; 2]>(1);
                    t.charge_flops(5);
                    if i % 7 == 0 {
                        t.charge_atomic();
                        t.write_global::<[u32; 2]>(1);
                    }
                }
            });
            Ok(())
        }
    }

    /// The same work accounted as one [`ChargeBatch`] per 8-wide chunk.
    struct Chunked {
        candidates: u64,
    }

    impl BlockKernel for Chunked {
        fn run_block(&self, ctx: &mut BlockCtx) -> Result<(), DeviceError> {
            let n = self.candidates;
            ctx.for_each_thread(|t| {
                let mut i = 0;
                while i < n {
                    let c = (n - i).min(8);
                    let mut batch = ChargeBatch {
                        flops: 5 * c,
                        ..ChargeBatch::default()
                    };
                    batch.read_global::<u32>(c);
                    batch.read_global::<[f64; 2]>(c);
                    for j in i..i + c {
                        if j % 7 == 0 {
                            batch.atomics += 1;
                            batch.global_write_bytes += std::mem::size_of::<[u32; 2]>() as u64;
                        }
                    }
                    t.charge_batch(batch);
                    i += c;
                }
            });
            Ok(())
        }
    }

    #[test]
    fn chunked_accounting_is_bitwise_identical_to_per_element() {
        // The guarantee the kernels' chunk-wise inner loop rests on:
        // charging a whole chunk through ChargeBatch reproduces the
        // per-element modeled cost *exactly* — same counters, and a
        // bitwise-equal duration (integer cost constants make every f64
        // addition exact; see the charge_batch docs).
        let d = Device::k20c();
        let cfg = LaunchConfig::new(16, 128);
        for candidates in [0u64, 1, 5, 8, 13, 100, 257] {
            let per = d.launch(cfg, &PerElement { candidates }).unwrap();
            let chk = d.launch(cfg, &Chunked { candidates }).unwrap();
            assert_eq!(per.counters, chk.counters, "candidates = {candidates}");
            assert_eq!(
                per.duration.as_secs().to_bits(),
                chk.duration.as_secs().to_bits(),
                "modeled duration must be bit-identical (candidates = {candidates}): \
                 {} vs {}",
                per.duration.as_micros(),
                chk.duration.as_micros()
            );
        }
    }

    #[test]
    fn invalid_launch_is_rejected_before_execution() {
        struct Never;
        impl BlockKernel for Never {
            fn run_block(&self, _: &mut BlockCtx) -> Result<(), DeviceError> {
                panic!("must not run");
            }
        }
        let d = Device::k20c();
        assert!(d.launch(LaunchConfig::new(1, 7), &Never).is_err());
    }
}
