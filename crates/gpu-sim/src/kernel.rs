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
//! Each simulated thread counts events ([`ThreadCtx`] charge methods) as
//! it executes: flops, global/shared bytes, atomics and dependent reads,
//! all integers. At each phase boundary every thread's counts are priced
//! once, in closed form, as Σ count × cost
//! ([`Counters::thread_cycles`] plus the dependent-read surcharge), and
//! folded at **warp granularity**: a warp costs the *maximum* over its 32
//! lanes (SIMT lockstep), so divergent or idle lanes are paid for — the
//! effect that makes the paper's block-per-cell shared-memory kernel lose
//! to the thread-per-point global kernel on sparse cells. Per-block cycles
//! are then converted to a kernel duration by [`crate::cost`].
//!
//! Pricing counts instead of summing a running cycle total changes no
//! bit as long as every cost constant is an integer (true of
//! [`CostModel::kepler`], the only shipped model): each term is then a
//! dyadic rational with at most two fractional bits (bytes are priced per
//! 4-byte word), so every f64 sum below 2^50 cycles is exact and the order
//! in which a thread made its charges cannot matter. Kernels therefore
//! charge a loop's events once from its counts, and the
//! `chunked accounting` test pins the equivalence with per-element
//! charging.

use crate::cost::{kernel_duration, CostModel, Counters};
use crate::device::Device;
use crate::error::DeviceError;
use crate::launch::LaunchConfig;
use crate::time::SimDuration;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::sync::atomic::Ordering;

/// Per-thread execution context handed to phase closures.
///
/// The charge methods only count events; [`BlockCtx::phase`] prices a
/// thread's counts once, after its closure returns (see the module docs).
pub struct ThreadCtx {
    /// Thread index within the block (`threadIdx.x`).
    pub tid: u32,
    /// Global thread id (`blockIdx.x * blockDim.x + threadIdx.x`).
    pub gid: u64,
    counters: Counters,
    dependent_reads: u64,
}

impl ThreadCtx {
    /// Charge `n` floating-point operations.
    #[inline]
    pub fn charge_flops(&mut self, n: u64) {
        self.counters.flops += n;
    }

    /// Charge a global-memory read of `bytes`.
    #[inline]
    pub fn charge_global_read(&mut self, bytes: u64) {
        self.counters.global_read_bytes += bytes;
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
    }

    /// Charge shared-memory traffic of `n` elements of type `T`.
    #[inline]
    pub fn access_shared<T>(&mut self, n: u64) {
        self.charge_shared(n * std::mem::size_of::<T>() as u64);
    }

    /// Charge `n` *dependent* global reads of element type `T` — loads
    /// whose addresses chain through previous loads (tree/pointer
    /// traversal). Counts the same bytes as [`ThreadCtx::read_global`]
    /// plus `n` hops, each priced at the cost model's latency surcharge
    /// ([`crate::cost::CostModel::dependent_read_cycles`]).
    #[inline]
    pub fn read_global_dependent<T>(&mut self, n: u64) {
        self.read_global::<T>(n);
        self.dependent_reads += n;
    }

    /// Charge one global atomic RMW (e.g. the result-set `atomicAdd`).
    #[inline]
    pub fn charge_atomic(&mut self) {
        self.counters.atomics += 1;
    }

    /// Charge a whole set of events in one call: identical to issuing the
    /// individual charge calls, since every charge is a count.
    #[inline]
    pub fn charge_batch(&mut self, events: Counters) {
        self.counters.merge(&events);
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
    /// The launch's ordinal on its device: append buffers read the
    /// windows of sequential launches back in launch order.
    pub(crate) launch: u64,
    warp_size: u32,
    shared_used: usize,
    shared_limit: usize,
    model: CostModel,
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
            model: *model,
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
    /// `0..block_dim`, then each thread's counts are priced as cycles,
    /// folded to warp granularity (max over lanes) and accumulated into
    /// the block cost — the `__syncthreads()` accounting point.
    pub fn phase(&mut self, mut f: impl FnMut(&mut ThreadCtx)) {
        let mut warp_max = 0.0f64;
        let mut phase_cycles = 0.0f64;
        for tid in 0..self.block_dim {
            let mut t = ThreadCtx {
                tid,
                gid: self.block_idx as u64 * self.block_dim as u64 + tid as u64,
                counters: Counters::default(),
                dependent_reads: 0,
            };
            f(&mut t);
            self.counters.merge(&t.counters);
            let cycles = t.counters.thread_cycles(&self.model)
                + t.dependent_reads as f64 * self.model.dependent_read_cycles;
            warp_max = warp_max.max(cycles);
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
        self.block_cycles += phase_cycles + self.model.barrier_cycles * n_warps;
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
    /// the buffer reads them back in `(launch, block)` order (DESIGN.md,
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
        let sums = out.block_windows().concat();
        // Block b covers gids [64b, 64b+63]; sum = 64*64b + 2016, read
        // back in block order.
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

    /// One charge of a thread's event stream.
    #[derive(Clone, Copy)]
    enum Event {
        Flops(u64),
        Read(u64),
        Write(u64),
        Shared(u64),
        Atomic,
        Dependent(u64),
    }

    /// The events thread `gid` charges in phase `phase`: a divergent mix
    /// of every kind, with odd byte counts among them.
    fn events(gid: u64, phase: u64) -> Vec<Event> {
        let n = (gid * 7 + phase * 5) % 23;
        (0..n)
            .map(|i| match (gid + i + phase) % 6 {
                0 => Event::Flops(1 + i % 9),
                1 => Event::Read(4 * (1 + i % 5) + (gid % 3)),
                2 => Event::Write(8 * (1 + i % 2)),
                3 => Event::Shared(2 + i % 11),
                4 => Event::Atomic,
                _ => Event::Dependent(1 + i % 3),
            })
            .collect()
    }

    /// The cycles of `events` under `m`, summed one charge at a time in
    /// order — the running total the closed-form pricing must equal.
    fn running_cycles(m: &CostModel, events: &[Event]) -> f64 {
        let mut cycles = 0.0f64;
        for e in events {
            cycles += match *e {
                Event::Flops(n) => n as f64 * m.cycles_per_flop,
                Event::Read(b) | Event::Write(b) => b as f64 / 4.0 * m.cycles_per_global_word,
                Event::Shared(b) => b as f64 / 4.0 * m.cycles_per_shared_word,
                Event::Atomic => m.cycles_per_atomic,
                Event::Dependent(n) => {
                    8.0 * n as f64 / 4.0 * m.cycles_per_global_word
                        + n as f64 * m.dependent_read_cycles
                }
            };
        }
        cycles
    }

    /// Two phases of [`events`], charged one event at a time or, with
    /// `counted`, once per thread from the summed counts.
    struct EventKernel {
        counted: bool,
    }

    impl EventKernel {
        fn phase(&self, ctx: &mut BlockCtx, phase: u64) {
            let counted = self.counted;
            ctx.phase(|t| {
                let events = events(t.gid, phase);
                if !counted {
                    for e in events {
                        match e {
                            Event::Flops(n) => t.charge_flops(n),
                            Event::Read(b) => t.charge_global_read(b),
                            Event::Write(b) => t.charge_global_write(b),
                            Event::Shared(b) => t.charge_shared(b),
                            Event::Atomic => t.charge_atomic(),
                            Event::Dependent(n) => t.read_global_dependent::<f64>(n),
                        }
                    }
                    return;
                }
                let mut sum = Counters::default();
                let mut hops = 0;
                for e in events {
                    match e {
                        Event::Flops(n) => sum.flops += n,
                        Event::Read(b) => sum.global_read_bytes += b,
                        Event::Write(b) => sum.global_write_bytes += b,
                        Event::Shared(b) => sum.shared_bytes += b,
                        Event::Atomic => sum.atomics += 1,
                        Event::Dependent(n) => hops += n,
                    }
                }
                t.charge_batch(sum);
                t.read_global_dependent::<f64>(hops);
            });
        }
    }

    impl BlockKernel for EventKernel {
        fn run_block(&self, ctx: &mut BlockCtx) -> Result<(), DeviceError> {
            self.phase(ctx, 0);
            self.phase(ctx, 1);
            Ok(())
        }
    }

    /// Block `block`'s cycles for [`EventKernel`], folded by hand from
    /// the running per-thread totals.
    fn reference_block_cycles(d: &Device, block_dim: u32, block: u32) -> f64 {
        let (m, warp) = (d.cost_model(), d.props().warp_size);
        let mut total = 0.0;
        for phase in 0..2 {
            let mut phase_cycles = 0.0;
            let mut warp_max = 0.0f64;
            for tid in 0..block_dim {
                let gid = (block * block_dim + tid) as u64;
                warp_max = warp_max.max(running_cycles(m, &events(gid, phase)));
                if (tid + 1) % warp == 0 || tid + 1 == block_dim {
                    phase_cycles += warp_max;
                    warp_max = 0.0;
                }
            }
            total += phase_cycles + m.barrier_cycles * block_dim.div_ceil(warp) as f64;
        }
        total
    }

    #[test]
    fn chunked_accounting_is_bitwise_identical_to_per_element() {
        // The guarantee every kernel's count-then-charge loops rest on:
        // charging a thread's events once from their counts reproduces
        // per-element charging and the running cycle total *exactly* —
        // same counters, bitwise-equal block cycles and duration (integer
        // cost constants make every f64 sum exact; see the module docs).
        let k20c = Device::k20c();
        let mut props = k20c.props().clone();
        props.warp_size = 16;
        let half_warp = Device::with_props(props, *k20c.cost_model(), *k20c.transfer_model());
        // block_dim 48 is a warp multiple only on the 16-lane device.
        for (d, cfg) in [
            (&k20c, LaunchConfig::new(16, 128)),
            (&half_warp, LaunchConfig::new(9, 48)),
        ] {
            let per = d.launch(cfg, &EventKernel { counted: false }).unwrap();
            let cnt = d.launch(cfg, &EventKernel { counted: true }).unwrap();
            assert_eq!(per.counters, cnt.counters, "{cfg:?}");
            assert_eq!(
                per.duration.as_secs().to_bits(),
                cnt.duration.as_secs().to_bits(),
                "{cfg:?}: {} vs {}",
                per.duration.as_micros(),
                cnt.duration.as_micros()
            );
        }
        // Block by block against the running totals, including a partial
        // last warp (40 = 32 + 8 lanes) that launch validation rules out.
        for (block_dim, blocks) in [(128, 16), (40, 3)] {
            let cfg = LaunchConfig::new(blocks, block_dim);
            for block in 0..blocks {
                for counted in [false, true] {
                    let mut ctx = BlockCtx::new(&k20c, cfg, 0, block);
                    EventKernel { counted }.run_block(&mut ctx).unwrap();
                    assert_eq!(
                        ctx.block_cycles.to_bits(),
                        reference_block_cycles(&k20c, block_dim, block).to_bits(),
                        "block_dim {block_dim}, block {block}, counted = {counted}"
                    );
                }
            }
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
