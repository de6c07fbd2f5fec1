//! Host-side memory with the pinned/pageable distinction, and the host
//! storage that backs device result buffers.
//!
//! CUDA transfers from page-locked ("pinned") host memory are roughly twice
//! as fast as from pageable memory, but pinning is itself expensive
//! (a page-table walk proportional to the allocation). The paper stages
//! every batch's result set through pinned buffers and is careful not to
//! over-allocate them (Section VI). [`PinnedBuffer`] carries the pinning
//! side of that trade-off, and the pipeline prices each batch's D2H at the
//! pinned rate. A `PinnedBuffer` holds no bytes: a simulated device's
//! result buffer is already host memory, so a batch's D2H moves its values
//! once, from that buffer straight into the table; the staging copy is
//! priced, not made.
//!
//! **Host backing storage is recycled per device.** The paper allocates
//! its per-stream buffers once and reuses them; a fresh host allocation
//! per build would instead pay a first-touch page fault on every page the
//! kernels write. Storage of dropped result buffers therefore goes into a
//! small bounded pool on the owning [`Device`] (bounded by
//! `HOST_POOL_BYTES` and `HOST_POOL_BLOCKS`), and later buffers of that
//! device take the best-fitting block from it. The pool is host memory
//! only: device-memory accounting (`available_bytes`, `peak_bytes`,
//! out-of-memory) and every buffer's capacity follow the requested sizes,
//! never the recycled block's.

use crate::device::Device;
use crate::time::SimDuration;
use parking_lot::Mutex;
use std::alloc::Layout;
use std::marker::PhantomData;
use std::ptr::NonNull;

/// Most host bytes a device keeps for reuse. A block larger than this is
/// freed on release; otherwise the smallest kept blocks are evicted first,
/// since a large block serves every smaller request.
pub(crate) const HOST_POOL_BYTES: usize = 64 << 20;
/// Most blocks a device keeps for reuse: a build holds one recycled block
/// (its result buffer) per stream.
pub(crate) const HOST_POOL_BLOCKS: usize = 16;
/// Alignment of every block, enough for any item type the buffers hold.
const HOST_ALIGN: usize = 64;

/// One owned, uninitialized, `HOST_ALIGN`-aligned host allocation.
struct Block {
    ptr: NonNull<u8>,
    bytes: usize,
}

// SAFETY: a `Block` is plain owned memory with no thread affinity. It is
// read and written only through raw pointers by the one buffer holding
// it, which synchronizes its own accesses.
unsafe impl Send for Block {}
unsafe impl Sync for Block {}

impl Block {
    fn layout(bytes: usize) -> Layout {
        Layout::from_size_align(bytes.max(1), HOST_ALIGN).expect("host block size overflows")
    }

    fn new(bytes: usize) -> Block {
        let layout = Self::layout(bytes);
        // SAFETY: `layout` has a nonzero size.
        let ptr = unsafe { std::alloc::alloc(layout) };
        let ptr = NonNull::new(ptr).unwrap_or_else(|| std::alloc::handle_alloc_error(layout));
        Block { ptr, bytes }
    }
}

impl Drop for Block {
    fn drop(&mut self) {
        // SAFETY: allocated in `Block::new` with this same layout.
        unsafe { std::alloc::dealloc(self.ptr.as_ptr(), Self::layout(self.bytes)) }
    }
}

/// A device's pool of released host blocks, kept in ascending size order.
#[derive(Default)]
pub(crate) struct HostPool {
    blocks: Mutex<Vec<Block>>,
}

impl HostPool {
    /// The smallest kept block of at least `bytes`, else a fresh one.
    fn take(&self, bytes: usize) -> Block {
        let mut blocks = self.blocks.lock();
        let fit = blocks.partition_point(|b| b.bytes < bytes);
        if fit < blocks.len() {
            return blocks.remove(fit);
        }
        drop(blocks);
        Block::new(bytes)
    }

    /// Keep `block` for reuse within the pool's bounds.
    fn give(&self, block: Block) {
        if block.bytes > HOST_POOL_BYTES {
            return;
        }
        let mut blocks = self.blocks.lock();
        let at = blocks.partition_point(|b| b.bytes < block.bytes);
        blocks.insert(at, block);
        let mut held: usize = blocks.iter().map(|b| b.bytes).sum();
        let mut evict = 0;
        while held > HOST_POOL_BYTES || blocks.len() - evict > HOST_POOL_BLOCKS {
            held -= blocks[evict].bytes;
            evict += 1;
        }
        let evicted: Vec<Block> = blocks.drain(..evict).collect();
        // Free the evicted blocks outside the lock.
        drop(blocks);
        drop(evicted);
    }

    /// Number of kept blocks and their total bytes.
    #[cfg(test)]
    pub(crate) fn held(&self) -> (usize, usize) {
        let blocks = self.blocks.lock();
        (blocks.len(), blocks.iter().map(|b| b.bytes).sum())
    }
}

/// Uninitialized host storage backing one buffer: a block taken from its
/// device's pool, returned there on drop.
pub(crate) struct HostStorage {
    block: Option<Block>,
    device: Device,
}

impl HostStorage {
    /// Storage for `items` values of `T` on the host of `device`.
    pub(crate) fn new<T>(device: &Device, items: usize) -> HostStorage {
        const { assert!(std::mem::align_of::<T>() <= HOST_ALIGN) };
        let bytes = items
            .checked_mul(std::mem::size_of::<T>())
            .expect("host storage size overflows usize");
        HostStorage {
            block: Some(device.inner.host_pool.take(bytes)),
            device: device.clone(),
        }
    }

    /// Size of the backing block in bytes (at least the requested size).
    #[cfg(test)]
    pub(crate) fn bytes(&self) -> usize {
        self.block.as_ref().map_or(0, |b| b.bytes)
    }

    /// Base pointer of the storage, viewed as `T` items.
    pub(crate) fn as_ptr<T>(&self) -> *mut T {
        self.block
            .as_ref()
            .expect("storage is held until drop")
            .ptr
            .as_ptr()
            .cast()
    }
}

impl Drop for HostStorage {
    fn drop(&mut self) {
        if let Some(block) = self.block.take() {
            self.device.inner.host_pool.give(block);
        }
    }
}

/// A page-locked host staging buffer, as priced: the modeled allocation
/// (pinning) cost, charged once. It holds no bytes (see the module docs).
pub struct PinnedBuffer<T: Copy> {
    alloc_time: SimDuration,
    _items: PhantomData<T>,
}

impl<T: Copy> PinnedBuffer<T> {
    /// A pinned buffer of `capacity` items on the host of `device`,
    /// recording the modeled pinning time.
    pub fn new(device: &Device, capacity: usize) -> Self {
        let bytes = capacity * std::mem::size_of::<T>();
        PinnedBuffer {
            alloc_time: device.transfer_model().pin_time(bytes),
            _items: PhantomData,
        }
    }

    /// The modeled cost of having allocated this buffer.
    pub fn alloc_time(&self) -> SimDuration {
        self.alloc_time
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_time_grows_with_size() {
        let d = Device::k20c();
        let small = PinnedBuffer::<u64>::new(&d, 1_000);
        let large = PinnedBuffer::<u64>::new(&d, 10_000_000);
        assert!(large.alloc_time() > small.alloc_time());
        assert!(small.alloc_time() > SimDuration::ZERO);
    }

    #[test]
    fn pinned_does_not_consume_device_memory() {
        let d = Device::tiny(16);
        let _big = PinnedBuffer::<u64>::new(&d, 1_000_000);
        assert_eq!(d.used_bytes(), 0, "pinned memory is host memory");
        drop(HostStorage::new::<u8>(&d, 64));
        let _small = PinnedBuffer::<u64>::new(&d, 8);
        assert_eq!(d.inner.host_pool.held().0, 1, "and takes no host block");
    }

    #[test]
    fn dropped_storage_is_reused_best_fit() {
        let d = Device::k20c();
        let small = HostStorage::new::<u64>(&d, 100);
        let large = HostStorage::new::<u64>(&d, 10_000);
        let (small_ptr, large_ptr) = (small.as_ptr::<u8>(), large.as_ptr::<u8>());
        drop(large);
        drop(small);
        assert_eq!(d.inner.host_pool.held(), (2, 80_800));
        let fit = HostStorage::new::<u32>(&d, 150);
        assert_eq!(fit.as_ptr::<u8>(), small_ptr, "smallest block that fits");
        let big = HostStorage::new::<u32>(&d, 1_000);
        assert_eq!(big.as_ptr::<u8>(), large_ptr);
        assert_eq!(d.inner.host_pool.held(), (0, 0));
        let fresh = HostStorage::new::<u32>(&d, 1);
        assert_eq!(fresh.bytes(), 4, "an empty pool allocates");
    }

    #[test]
    fn pool_never_exceeds_its_bounds() {
        let d = Device::k20c();
        let within = |d: &Device| {
            let (blocks, bytes) = d.inner.host_pool.held();
            assert!(blocks <= HOST_POOL_BLOCKS, "{blocks} blocks kept");
            assert!(bytes <= HOST_POOL_BYTES, "{bytes} bytes kept");
        };
        // More blocks than the count bound.
        let many: Vec<_> = (0..2 * HOST_POOL_BLOCKS)
            .map(|i| HostStorage::new::<u8>(&d, 64 + i))
            .collect();
        drop(many);
        within(&d);
        assert_eq!(d.inner.host_pool.held().0, HOST_POOL_BLOCKS);
        // More bytes than the byte bound; the larger blocks are kept.
        let quarter = HOST_POOL_BYTES / 4;
        let big: Vec<_> = (0..6)
            .map(|_| HostStorage::new::<u8>(&d, quarter))
            .collect();
        drop(big);
        within(&d);
        assert_eq!(d.inner.host_pool.held(), (4, HOST_POOL_BYTES));
        // A block beyond the byte bound is freed, not kept.
        drop(HostStorage::new::<u8>(&d, HOST_POOL_BYTES + 1));
        within(&d);
        assert_eq!(d.inner.host_pool.held(), (4, HOST_POOL_BYTES));
    }
}
