//! The simulated device: properties, global-memory accounting, and the
//! block-execution thread pool.

use crate::cost::CostModel;
use crate::error::DeviceError;
use crate::hostmem::HostPool;
use crate::transfer::TransferModel;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Static properties of a simulated device.
///
/// Defaults model the paper's NVIDIA Tesla K20c (Kepler GK110): 13 SMs,
/// 5 GB of global memory, 48 KB of shared memory per block, 208 GB/s
/// device-memory bandwidth, PCIe 2.0 host link.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceProps {
    pub name: String,
    /// Streaming multiprocessors.
    pub sm_count: u32,
    /// SM clock in GHz.
    pub clock_ghz: f64,
    /// Global-memory capacity in bytes.
    pub global_mem_bytes: usize,
    /// Shared-memory limit per block in bytes.
    pub shared_mem_per_block: usize,
    /// Device-memory bandwidth in GB/s.
    pub mem_bandwidth_gbps: f64,
    /// Hardware limits governing occupancy.
    pub max_threads_per_block: u32,
    pub max_threads_per_sm: u32,
    pub max_blocks_per_sm: u32,
    pub warp_size: u32,
    /// Warp schedulers per SM (Kepler: 4) — the SM's instruction-issue
    /// width in warps per cycle, which bounds compute throughput.
    pub warp_schedulers: u32,
}

impl DeviceProps {
    /// The paper's experimental card: NVIDIA Tesla K20c, 5 GB.
    pub fn k20c() -> Self {
        DeviceProps {
            name: "Simulated NVIDIA Tesla K20c".to_string(),
            sm_count: 13,
            clock_ghz: 0.706,
            global_mem_bytes: 5 * 1024 * 1024 * 1024,
            shared_mem_per_block: 48 * 1024,
            mem_bandwidth_gbps: 208.0,
            max_threads_per_block: 1024,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 16,
            warp_size: 32,
            warp_schedulers: 4,
        }
    }

    /// A deliberately tiny device used by tests to force out-of-memory
    /// conditions and multi-batch executions at small data sizes.
    pub fn tiny(global_mem_bytes: usize) -> Self {
        DeviceProps {
            name: format!("Simulated tiny device ({global_mem_bytes} B)"),
            global_mem_bytes,
            ..Self::k20c()
        }
    }
}

pub(crate) struct DeviceInner {
    pub props: DeviceProps,
    pub cost: CostModel,
    pub transfer: TransferModel,
    pub used_bytes: AtomicUsize,
    /// High-water mark of `used_bytes`, for out-of-core reporting.
    pub peak_bytes: AtomicUsize,
    /// Serializes kernel launches: the simulated compute engine executes
    /// one kernel at a time, like a single-compute-engine GPU. This is
    /// strictly per-engine accounting of *kernel execution* — host-side
    /// canonicalization work (e.g. `thrust::sort_rows_into`) runs outside
    /// it, and its modeled Compute-engine serialization is enforced on
    /// the `schedule_chains` timeline instead.
    pub compute_lock: Mutex<()>,
    /// Kernel launches so far; each launch takes the next ordinal.
    pub launches: AtomicU64,
    /// Host storage released by this device's result buffers, kept for
    /// its later buffers (see `hostmem`).
    pub host_pool: HostPool,
}

impl DeviceInner {
    /// Acquire the compute engine. A contended waiter donates its thread
    /// to pending data-parallel pool work (the current holder's kernel
    /// blocks, another stream's sort) instead of parking, so pipelined
    /// launches from several stream workers keep every host thread busy.
    /// Once no pool work is claimable the waiter parks immediately: a
    /// yield-spin here oversubscribes runners with fewer hardware threads
    /// than stream workers, stealing timeslices from the lock holder.
    pub fn lock_compute(&self) -> std::sync::MutexGuard<'_, ()> {
        loop {
            if let Some(guard) = self.compute_lock.try_lock() {
                return guard;
            }
            if !rayon::help_one() {
                // Nothing to help with: park on the lock.
                return self.compute_lock.lock();
            }
        }
    }
}

/// Handle to a simulated device. Cheap to clone; all clones share the
/// global-memory accounting.
#[derive(Clone)]
pub struct Device {
    pub(crate) inner: Arc<DeviceInner>,
}

impl Device {
    /// Create a device with explicit properties and cost models.
    pub fn with_props(props: DeviceProps, cost: CostModel, transfer: TransferModel) -> Self {
        Device {
            inner: Arc::new(DeviceInner {
                props,
                cost,
                transfer,
                used_bytes: AtomicUsize::new(0),
                peak_bytes: AtomicUsize::new(0),
                compute_lock: Mutex::new(()),
                launches: AtomicU64::new(0),
                host_pool: HostPool::default(),
            }),
        }
    }

    /// The default simulated K20c.
    pub fn k20c() -> Self {
        Self::with_props(
            DeviceProps::k20c(),
            CostModel::kepler(),
            TransferModel::pcie2(),
        )
    }

    /// A tiny device for exercising memory-pressure paths in tests.
    pub fn tiny(global_mem_bytes: usize) -> Self {
        Self::with_props(
            DeviceProps::tiny(global_mem_bytes),
            CostModel::kepler(),
            TransferModel::pcie2(),
        )
    }

    pub fn props(&self) -> &DeviceProps {
        &self.inner.props
    }

    pub fn cost_model(&self) -> &CostModel {
        &self.inner.cost
    }

    pub fn transfer_model(&self) -> &TransferModel {
        &self.inner.transfer
    }

    /// Bytes of global memory currently allocated.
    pub fn used_bytes(&self) -> usize {
        self.inner.used_bytes.load(Ordering::Relaxed)
    }

    /// Bytes of global memory still available.
    pub fn available_bytes(&self) -> usize {
        self.inner.props.global_mem_bytes - self.used_bytes()
    }

    /// High-water mark of allocated global memory over the device's
    /// lifetime (out-of-core runs report this against the capacity).
    pub fn peak_bytes(&self) -> usize {
        self.inner.peak_bytes.load(Ordering::Relaxed)
    }

    /// Reserve `bytes` of global memory, failing like `cudaMalloc` when the
    /// capacity is exhausted.
    pub(crate) fn alloc_bytes(&self, bytes: usize) -> Result<(), DeviceError> {
        let mut current = self.inner.used_bytes.load(Ordering::Relaxed);
        loop {
            let new = current + bytes;
            if new > self.inner.props.global_mem_bytes {
                return Err(DeviceError::OutOfMemory {
                    requested_bytes: bytes,
                    available_bytes: self.inner.props.global_mem_bytes - current,
                });
            }
            match self.inner.used_bytes.compare_exchange_weak(
                current,
                new,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.inner.peak_bytes.fetch_max(new, Ordering::Relaxed);
                    return Ok(());
                }
                Err(observed) => current = observed,
            }
        }
    }

    pub(crate) fn free_bytes(&self, bytes: usize) {
        self.inner.used_bytes.fetch_sub(bytes, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for Device {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Device")
            .field("name", &self.inner.props.name)
            .field("used_bytes", &self.used_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k20c_profile_matches_paper() {
        let p = DeviceProps::k20c();
        assert_eq!(
            p.global_mem_bytes,
            5 * 1024 * 1024 * 1024,
            "the paper's card has 5 GB"
        );
        assert_eq!(p.sm_count, 13);
        assert_eq!(p.warp_size, 32);
    }

    #[test]
    fn allocation_accounting() {
        let d = Device::tiny(1000);
        assert_eq!(d.available_bytes(), 1000);
        d.alloc_bytes(400).unwrap();
        assert_eq!(d.used_bytes(), 400);
        d.alloc_bytes(600).unwrap();
        assert_eq!(d.available_bytes(), 0);
        let err = d.alloc_bytes(1).unwrap_err();
        assert!(matches!(err, DeviceError::OutOfMemory { .. }));
        d.free_bytes(1000);
        assert_eq!(d.used_bytes(), 0);
        assert_eq!(d.peak_bytes(), 1000, "peak survives frees");
    }

    #[test]
    fn clones_share_accounting() {
        let d = Device::tiny(100);
        let d2 = d.clone();
        d.alloc_bytes(60).unwrap();
        assert_eq!(d2.used_bytes(), 60);
        assert!(d2.alloc_bytes(50).is_err());
    }

    #[test]
    fn concurrent_allocation_never_oversubscribes() {
        let d = Device::tiny(10_000);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let d = d.clone();
                s.spawn(move || {
                    for _ in 0..100 {
                        if d.alloc_bytes(10).is_ok() {
                            d.free_bytes(10);
                        }
                    }
                });
            }
        });
        assert_eq!(d.used_bytes(), 0);
    }
}
