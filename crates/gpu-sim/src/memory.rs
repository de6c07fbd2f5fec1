//! Device global-memory objects.
//!
//! * [`DeviceBuffer`] — an immutable-after-upload array in device global
//!   memory (the paper's `D`, `G`, `A` inputs).
//! * [`DeviceAppendBuffer`] — a capacity-bounded output array written via
//!   an atomically-incremented cursor, one reservation per thread block
//!   (the CUDA idiom `base = atomicAdd(&count, n_block)` of a kernel that
//!   stages its result set `R` per block), read back in block order.
//! * [`DeviceCounter`] — a bare atomic counter (the result-size estimation
//!   kernel of Section VI only counts, it does not materialize results).
//!
//! All allocations draw down the owning device's global-memory capacity
//! and release it on drop, so out-of-memory behaves like `cudaMalloc`.

use crate::device::Device;
use crate::error::DeviceError;
use crate::hostmem::HostStorage;
use crate::kernel::BlockCtx;
use crate::time::SimDuration;
use parking_lot::Mutex;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// An array resident in simulated device global memory.
///
/// Uploads and downloads move real bytes and return the modeled transfer
/// duration so callers can charge it to a stream/timeline.
pub struct DeviceBuffer<T: Copy> {
    device: Device,
    reserved_bytes: usize,
    data: Vec<T>,
}

impl<T: Copy> DeviceBuffer<T> {
    /// Allocate and upload `host` to the device (H2D). Returns the buffer
    /// and the modeled transfer duration.
    pub fn from_host(
        device: &Device,
        host: &[T],
        pinned: bool,
    ) -> Result<(Self, SimDuration), DeviceError> {
        let bytes = std::mem::size_of_val(host);
        device.alloc_bytes(bytes)?;
        let t = device.transfer_model().transfer_time(bytes, pinned);
        Ok((
            DeviceBuffer {
                device: device.clone(),
                reserved_bytes: bytes,
                data: host.to_vec(),
            },
            t,
        ))
    }

    /// Device-side view of the data (what a kernel dereferences).
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Allocation size in bytes.
    pub fn bytes(&self) -> usize {
        self.reserved_bytes
    }
}

impl<T: Copy> Drop for DeviceBuffer<T> {
    fn drop(&mut self) {
        self.device.free_bytes(self.reserved_bytes);
    }
}

/// A fixed-capacity device output array written one block at a time.
///
/// Each thread block stages its items locally and commits them with
/// [`DeviceAppendBuffer::commit_block`]: one `fetch_add` on the cursor
/// reserves the block's whole window — the device idiom of one
/// `atomicAdd(cursor, n)` per block instead of one per element. Windows
/// of concurrent blocks are disjoint, so commits are lock-free on the
/// data. Items past capacity are *rejected* and counted (a real kernel
/// would corrupt memory; the simulator surfaces the overflow instead).
/// The batching scheme's α-overestimation exists precisely to keep
/// [`DeviceAppendBuffer::overflowed`] false.
///
/// **Where a window lands varies with host scheduling; which windows
/// exist does not.** The buffer records every block's window, and
/// [`DeviceAppendBuffer::block_windows`] hands them out in launch and
/// block order, which is a pure function of the launches: a
/// thread-per-point kernel whose blocks emit ascending keys reads back
/// with ascending keys at every thread count, without the windows being
/// moved. [`DeviceAppendBuffer::as_filled_slice`] is the filled prefix in
/// commit order; its consumers canonicalize by a total order (DESIGN.md,
/// "Threading model & determinism policy").
///
/// Slots are not written at allocation: storage is taken uninitialized
/// from the device's host pool (recycled from dropped buffers where one
/// fits, see `hostmem`) and filled by commits, while device memory is
/// accounted by the requested capacity.
pub struct DeviceAppendBuffer<T: Copy + Send> {
    device: Device,
    reserved_bytes: usize,
    capacity: usize,
    /// Storage for at least `capacity` items.
    slots: HostStorage,
    cursor: AtomicUsize,
    rejected: AtomicUsize,
    /// Every committed window since the last reset.
    windows: Mutex<Vec<Window>>,
    _items: PhantomData<T>,
}

/// One block's committed window: `len` items at `start`, ordered by
/// `(launch, block)`.
struct Window {
    launch: u64,
    block: u32,
    start: usize,
    len: usize,
}

// SAFETY: through `&self` only `commit_block` runs concurrently. It writes
// `slots` (through its raw pointer) only inside the window its `fetch_add`
// on `cursor` reserved (disjoint across commits, and below `capacity`),
// updates the `cursor`/`rejected` atomics and pushes to the `windows`
// mutex. Every read of `slots` needs `&mut self`, so it never overlaps a
// commit. `device`, `reserved_bytes` and `capacity` are read-only after
// construction. `T: Send` because committed items are written from other
// threads.
unsafe impl<T: Copy + Send> Sync for DeviceAppendBuffer<T> {}

impl<T: Copy + Send> DeviceAppendBuffer<T> {
    /// Allocate a buffer of `capacity` items on `device`.
    pub fn new(device: &Device, capacity: usize) -> Result<Self, DeviceError> {
        let reserved_bytes = capacity * std::mem::size_of::<T>();
        device.alloc_bytes(reserved_bytes)?;
        Ok(DeviceAppendBuffer {
            device: device.clone(),
            reserved_bytes,
            capacity,
            slots: HostStorage::new::<T>(device, capacity),
            cursor: AtomicUsize::new(0),
            rejected: AtomicUsize::new(0),
            windows: Mutex::new(Vec::new()),
            _items: PhantomData,
        })
    }

    /// Capacity in items, as requested (recycled storage may be larger).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items committed so far (clamped to capacity).
    pub fn len(&self) -> usize {
        self.cursor.load(Ordering::Acquire).min(self.capacity())
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether any item was rejected for lack of space.
    pub fn overflowed(&self) -> bool {
        self.rejected.load(Ordering::Relaxed) > 0
    }

    /// Number of rejected items. `len() + rejected()` is the exact number
    /// of items every commit so far attempted.
    pub fn rejected(&self) -> usize {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Commit block `ctx`'s staged `items` with a single cursor
    /// reservation; callable from concurrent blocks. Items that fit in the
    /// reserved window are stored, the rest are counted rejected.
    pub fn commit_block(&self, ctx: &BlockCtx, items: &[T]) -> Result<(), DeviceError> {
        if items.is_empty() {
            return Ok(());
        }
        let start = self.cursor.fetch_add(items.len(), Ordering::AcqRel);
        let cap = self.capacity;
        let fits = cap.saturating_sub(start).min(items.len());
        if fits > 0 {
            // SAFETY: start..start+fits was uniquely claimed and lies below
            // `capacity`, inside the storage; no reference to the storage
            // exists while commits run (see the `Sync` impl).
            unsafe {
                let dst = self.slots.as_ptr::<T>().add(start);
                std::ptr::copy_nonoverlapping(items.as_ptr(), dst, fits);
            }
            self.windows.lock().push(Window {
                launch: ctx.launch,
                block: ctx.block_idx,
                start,
                len: fits,
            });
        }
        if fits < items.len() {
            self.rejected
                .fetch_add(items.len() - fits, Ordering::Relaxed);
            return Err(DeviceError::BufferOverflow {
                capacity: cap,
                attempted: start + items.len(),
            });
        }
        Ok(())
    }

    /// The committed windows in launch and block order, left where the
    /// commits put them. Requires `&mut self`, i.e. no concurrent kernel
    /// can still be committing.
    pub fn block_windows(&mut self) -> Vec<&[T]> {
        let windows = self.windows.get_mut();
        windows.sort_unstable_by_key(|w| (w.launch, w.block));
        let base = self.slots.as_ptr::<T>();
        windows
            .iter()
            // SAFETY: exclusive access; each window lies in the
            // initialized prefix, written by its commit.
            .map(|w| unsafe { std::slice::from_raw_parts(base.add(w.start), w.len) })
            .collect()
    }

    /// View of the filled prefix in commit order. Requires `&mut self`,
    /// i.e. no concurrent kernel can still be committing.
    pub fn as_filled_slice(&mut self) -> &[T] {
        let n = self.len();
        // SAFETY: exclusive access; commits initialized the first `n`
        // slots (their windows tile `0..n`).
        unsafe { std::slice::from_raw_parts(self.slots.as_ptr::<T>(), n) }
    }

    /// Reset the cursor so the allocation can be reused for the next batch
    /// (the per-stream result buffers are reused across batches).
    pub fn reset(&mut self) {
        self.cursor.store(0, Ordering::Release);
        self.rejected.store(0, Ordering::Relaxed);
        self.windows.get_mut().clear();
    }
}

impl<T: Copy + Send> Drop for DeviceAppendBuffer<T> {
    fn drop(&mut self) {
        self.device.free_bytes(self.reserved_bytes);
    }
}

/// An untyped device global-memory reservation with RAII release — for
/// device-resident structures whose host-side representation does not fit
/// [`DeviceBuffer`]'s `Copy` layout (e.g. atomic adjacency arrays). The
/// reservation draws down capacity exactly like a typed buffer.
pub struct RawAlloc {
    device: Device,
    bytes: usize,
}

impl RawAlloc {
    /// Reserve `bytes` of device global memory.
    pub fn new(device: &Device, bytes: usize) -> Result<Self, DeviceError> {
        device.alloc_bytes(bytes)?;
        Ok(RawAlloc {
            device: device.clone(),
            bytes,
        })
    }

    pub fn bytes(&self) -> usize {
        self.bytes
    }
}

impl Drop for RawAlloc {
    fn drop(&mut self) {
        self.device.free_bytes(self.bytes);
    }
}

/// A device-resident atomic counter (e.g. the neighbor-count estimator).
pub struct DeviceCounter {
    device: Device,
    value: AtomicU64,
}

impl DeviceCounter {
    pub fn new(device: &Device) -> Result<Self, DeviceError> {
        device.alloc_bytes(std::mem::size_of::<u64>())?;
        Ok(DeviceCounter {
            device: device.clone(),
            value: AtomicU64::new(0),
        })
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Acquire)
    }

    pub fn reset(&self) {
        self.value.store(0, Ordering::Release);
    }
}

impl Drop for DeviceCounter {
    fn drop(&mut self) {
        self.device.free_bytes(std::mem::size_of::<u64>());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::BlockKernel;
    use crate::launch::LaunchConfig;

    #[test]
    fn buffer_upload_moves_bytes() {
        let d = Device::k20c();
        let host: Vec<u32> = (0..1000).collect();
        let (buf, up) = DeviceBuffer::from_host(&d, &host, false).unwrap();
        assert!(up > SimDuration::ZERO);
        assert_eq!(d.used_bytes(), 4000);
        assert_eq!(buf.as_slice(), host.as_slice());
        drop(buf);
        assert_eq!(d.used_bytes(), 0);
    }

    #[test]
    fn buffer_allocation_respects_capacity() {
        let d = Device::tiny(100);
        let host = vec![0u8; 101];
        assert!(matches!(
            DeviceBuffer::from_host(&d, &host, false),
            Err(DeviceError::OutOfMemory { .. })
        ));
        let host = vec![0u8; 100];
        assert!(DeviceBuffer::from_host(&d, &host, false).is_ok());
    }

    /// A thread-per-point kernel: thread `gid < n` emits `gid % 5` pairs
    /// `(gid, j)`, staged per block and committed with one reservation.
    struct PerPoint<'a> {
        out: &'a DeviceAppendBuffer<(u32, u32)>,
        n: u64,
    }

    impl BlockKernel for PerPoint<'_> {
        fn run_block(&self, ctx: &mut BlockCtx) -> Result<(), DeviceError> {
            let mut staged = Vec::new();
            let n = self.n;
            ctx.for_each_thread(|t| {
                if t.gid < n {
                    staged.extend((0..t.gid as u32 % 5).map(|j| (t.gid as u32, j)));
                }
            });
            // Overflow is recorded by the buffer, as in the core kernels.
            let _ = self.out.commit_block(ctx, &staged);
            Ok(())
        }
    }

    /// Every pair `PerPoint` over `n` points emits, in block order.
    fn per_point_pairs(n: u32) -> Vec<(u32, u32)> {
        (0..n)
            .flat_map(|g| (0..g % 5).map(move |j| (g, j)))
            .collect()
    }

    fn on_pool<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(f)
    }

    /// Launch `PerPoint` over `n` points in blocks of 32.
    fn launch_per_point(d: &Device, out: &DeviceAppendBuffer<(u32, u32)>, n: u64) {
        let cfg = LaunchConfig::for_elements(n as usize, 32);
        d.launch(cfg, &PerPoint { out, n }).unwrap();
    }

    /// Launch `PerPoint` over `n` points on a `threads` pool view and
    /// read its windows back in block order.
    fn read_back(threads: usize, n: u64, capacity: usize) -> (Vec<(u32, u32)>, usize, usize) {
        let d = Device::k20c();
        let mut buf = DeviceAppendBuffer::new(&d, capacity).unwrap();
        on_pool(threads, || launch_per_point(&d, &buf, n));
        let (len, rejected) = (buf.len(), buf.rejected());
        (buf.block_windows().concat(), len, rejected)
    }

    #[test]
    fn multi_block_windows_are_identical_at_every_thread_count() {
        let n = 16 * 32 - 7;
        let (serial, len, rejected) = read_back(1, n, 4096);
        assert_eq!(
            serial,
            per_point_pairs(n as u32),
            "read back in block order"
        );
        assert_eq!((len, rejected), (serial.len(), 0));
        for threads in [2, 4] {
            assert_eq!(
                read_back(threads, n, 4096).0,
                serial,
                "{threads}-thread windows differ from the serial ones"
            );
        }
    }

    #[test]
    fn thread_per_point_kernel_reads_back_with_ascending_keys() {
        let (pairs, _, _) = read_back(4, 24 * 32, 8192);
        assert!(!pairs.is_empty());
        assert!(pairs.is_sorted_by_key(|&(k, _)| k));
    }

    #[test]
    fn overflow_counts_every_attempted_item() {
        let n = 12 * 32;
        let attempted = per_point_pairs(n as u32).len();
        for threads in [1, 4] {
            let (kept, len, rejected) = read_back(threads, n, attempted / 3);
            assert_eq!(len, attempted / 3);
            assert_eq!(kept.len(), len);
            assert_eq!(len + rejected, attempted, "{threads} threads");
        }
    }

    #[test]
    fn reversed_commits_read_back_in_block_order_without_moving() {
        let d = Device::k20c();
        let mut buf = DeviceAppendBuffer::new(&d, 64).unwrap();
        let cfg = LaunchConfig::new(4, 32);
        for block in (0..4u32).rev() {
            let ctx = BlockCtx::new(&d, cfg, 0, block);
            buf.commit_block(&ctx, &[(block, 0), (block, 1)]).unwrap();
        }
        let expected: Vec<(u32, u32)> = (0..4).flat_map(|b| [(b, 0), (b, 1)]).collect();
        assert_eq!(buf.block_windows().concat(), expected);
        let committed: Vec<(u32, u32)> = (0..4).rev().flat_map(|b| [(b, 0), (b, 1)]).collect();
        assert_eq!(buf.as_filled_slice(), committed.as_slice(), "left in place");
    }

    #[test]
    fn sequential_launches_read_back_in_launch_order() {
        let d = Device::k20c();
        let mut buf = DeviceAppendBuffer::new(&d, 4096).unwrap();
        on_pool(4, || {
            launch_per_point(&d, &buf, 100);
            launch_per_point(&d, &buf, 60);
        });
        let mut expected = per_point_pairs(100);
        expected.extend(per_point_pairs(60));
        assert_eq!(buf.block_windows().concat(), expected);
        // Reading the windows back does not end the batch.
        on_pool(4, || launch_per_point(&d, &buf, 30));
        expected.extend(per_point_pairs(30));
        assert_eq!(buf.block_windows().concat(), expected);
    }

    #[test]
    fn append_buffer_reset_reuses_allocation() {
        let d = Device::tiny(1 << 16);
        let mut buf = DeviceAppendBuffer::<(u32, u32)>::new(&d, 1000).unwrap();
        let used = d.used_bytes();
        launch_per_point(&d, &buf, 100);
        buf.reset();
        assert_eq!(buf.len(), 0);
        assert!(!buf.overflowed());
        assert!(buf.block_windows().is_empty());
        launch_per_point(&d, &buf, 3);
        assert_eq!(buf.as_filled_slice(), &[(1, 0), (2, 0), (2, 1)]);
        assert_eq!(d.used_bytes(), used, "reset must not reallocate");
    }

    #[test]
    fn dropped_buffer_storage_is_reused() {
        let d = Device::k20c();
        let buf = DeviceAppendBuffer::<(u32, u32)>::new(&d, 4096).unwrap();
        let released = buf.slots.as_ptr::<u8>();
        drop(buf);
        assert_eq!(d.inner.host_pool.held().0, 1, "one block per buffer");
        let again = DeviceAppendBuffer::<(u32, u32)>::new(&d, 4096).unwrap();
        assert_eq!(
            again.slots.as_ptr::<u8>(),
            released,
            "the block was taken again"
        );
    }

    #[test]
    fn recycled_larger_storage_keeps_the_requested_capacity() {
        let n = 12 * 32;
        let attempted = per_point_pairs(n as u32).len();
        let d = Device::k20c();
        drop(DeviceAppendBuffer::<(u32, u32)>::new(&d, 1 << 16).unwrap());
        for threads in [1, 4] {
            let buf = DeviceAppendBuffer::new(&d, attempted / 3).unwrap();
            assert!(buf.slots.bytes() >= 8 << 16, "took the larger block");
            assert_eq!(buf.capacity(), attempted / 3);
            on_pool(threads, || launch_per_point(&d, &buf, n));
            assert_eq!(buf.len(), attempted / 3);
            assert_eq!(buf.len() + buf.rejected(), attempted, "{threads} threads");
        }
    }

    #[test]
    fn recycling_leaves_device_accounting_unchanged() {
        // One allocation sequence on a device with an empty pool and on
        // one whose pool holds host blocks: availability and peak after
        // every step, and the out-of-memory report, must not differ.
        let run = |d: &Device| {
            let mut seen = Vec::new();
            let mut note = |d: &Device| seen.push((d.available_bytes(), d.peak_bytes()));
            let a = DeviceAppendBuffer::<(u32, u32)>::new(d, 1000).unwrap();
            note(d);
            let b = DeviceAppendBuffer::<u64>::new(d, 3000).unwrap();
            note(d);
            let oom = match DeviceAppendBuffer::<u64>::new(d, 1 << 13) {
                Err(DeviceError::OutOfMemory {
                    requested_bytes,
                    available_bytes,
                }) => (requested_bytes, available_bytes),
                _ => panic!("expected out of memory"),
            };
            drop(a);
            note(d);
            drop(b);
            note(d);
            (seen, oom)
        };
        let fresh = Device::tiny(1 << 16);
        let warm = Device::tiny(1 << 16);
        drop([1000, 1000, 3000].map(|items| HostStorage::new::<u64>(&warm, items)));
        assert_eq!(warm.inner.host_pool.held().0, 3);
        let expected = run(&fresh);
        assert_eq!(run(&warm), expected);
        assert_eq!(warm.used_bytes(), 0);
    }

    #[test]
    fn buffers_free_exactly_what_they_reserved() {
        let d = Device::tiny(1 << 16);
        let mut host = Vec::with_capacity(64);
        host.extend(0..10u32);
        let (buf, _) = DeviceBuffer::from_host(&d, &host, false).unwrap();
        assert_eq!((d.used_bytes(), buf.bytes()), (40, 40));
        let app = DeviceAppendBuffer::<(u32, u32)>::new(&d, 100).unwrap();
        assert_eq!(d.used_bytes(), 840);
        drop(buf);
        drop(app);
        assert_eq!(d.used_bytes(), 0);
    }

    #[test]
    fn counter_concurrent_sum() {
        let d = Device::k20c();
        let c = DeviceCounter::new(&d).unwrap();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = &c;
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.add(2);
                    }
                });
            }
        });
        assert_eq!(c.get(), 8000);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn raw_alloc_accounts_and_releases() {
        let d = Device::tiny(100);
        let a = RawAlloc::new(&d, 60).unwrap();
        assert_eq!(a.bytes(), 60);
        assert_eq!(d.used_bytes(), 60);
        assert!(RawAlloc::new(&d, 50).is_err());
        drop(a);
        assert_eq!(d.used_bytes(), 0);
    }
}
