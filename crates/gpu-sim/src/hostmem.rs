//! Host-side memory with the pinned/pageable distinction, and the host
//! storage that backs device and pinned buffers.
//!
//! CUDA transfers from page-locked ("pinned") host memory are roughly twice
//! as fast as from pageable memory, but pinning is itself expensive
//! (a page-table walk proportional to the allocation). The paper stages
//! every batch's result set through pinned buffers and is careful not to
//! over-allocate them (Section VI). [`PinnedBuffer`] models both sides of
//! that trade-off.
//!
//! **Host backing storage is recycled per device.** The paper allocates
//! its per-stream staging buffers once and reuses them; a fresh host
//! allocation per build would instead pay a first-touch page fault on
//! every page the batch tail writes. Storage of dropped result and
//! staging buffers therefore goes into a small bounded pool on the
//! owning [`Device`] (bounded by `HOST_POOL_BYTES` and
//! `HOST_POOL_BLOCKS`), and
//! later buffers of that device take the best-fitting block from it.
//! The pool is host memory only: device-memory accounting
//! (`available_bytes`, `peak_bytes`, out-of-memory) and every buffer's
//! capacity follow the requested sizes, never the recycled block's.

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
/// Most blocks a device keeps for reuse: a build's batch tail holds three
/// (result, drain spare, pinned staging) per stream.
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

/// A page-locked host staging buffer.
///
/// Carries the modeled allocation (pinning) cost so callers can charge it
/// once, and marks transfers it participates in as pinned-rate. Storage
/// comes from the device's host pool and is written only by
/// [`PinnedBuffer::write_from`], never past the requested capacity.
pub struct PinnedBuffer<T: Copy> {
    storage: HostStorage,
    capacity: usize,
    len: usize,
    alloc_time: SimDuration,
    _items: PhantomData<T>,
}

impl<T: Copy> PinnedBuffer<T> {
    /// Allocate a pinned buffer of `capacity` items on the host of
    /// `device`. The returned buffer records the modeled pinning time,
    /// charged whether or not the storage is recycled.
    pub fn new(device: &Device, capacity: usize) -> Self {
        let bytes = capacity * std::mem::size_of::<T>();
        let alloc_time = device.transfer_model().pin_time(bytes);
        PinnedBuffer {
            storage: HostStorage::new::<T>(device, capacity),
            capacity,
            len: 0,
            alloc_time,
            _items: PhantomData,
        }
    }

    /// The modeled cost of having allocated this buffer.
    pub fn alloc_time(&self) -> SimDuration {
        self.alloc_time
    }

    /// Capacity in items.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn bytes(&self) -> usize {
        self.capacity * std::mem::size_of::<T>()
    }

    /// Replace the contents with `src`, growing never: `src` must fit.
    /// Returns the written length.
    pub fn write_from(&mut self, src: &[T]) -> usize {
        assert!(
            src.len() <= self.capacity,
            "staging write of {} items exceeds pinned capacity {}",
            src.len(),
            self.capacity
        );
        // SAFETY: the storage holds at least `capacity >= src.len()` items
        // of `T`, is exclusively ours (`&mut self`), and cannot overlap the
        // borrowed `src`.
        unsafe {
            std::ptr::copy_nonoverlapping(src.as_ptr(), self.storage.as_ptr::<T>(), src.len());
        }
        self.len = src.len();
        src.len()
    }

    /// The items of the last [`PinnedBuffer::write_from`].
    pub fn as_slice(&self) -> &[T] {
        // SAFETY: the last `write_from` initialized the first `len` items.
        unsafe { std::slice::from_raw_parts(self.storage.as_ptr::<T>(), self.len) }
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
    fn write_roundtrip() {
        let d = Device::k20c();
        let mut buf = PinnedBuffer::<u32>::new(&d, 10);
        assert!(buf.as_slice().is_empty());
        let n = buf.write_from(&[1, 2, 3]);
        assert_eq!(n, 3);
        assert_eq!(buf.as_slice(), &[1, 2, 3]);
        assert_eq!(buf.capacity(), 10);
        buf.write_from(&[4]);
        assert_eq!(buf.as_slice(), &[4], "a write replaces the contents");
    }

    #[test]
    #[should_panic]
    fn overfull_write_panics() {
        let d = Device::k20c();
        let mut buf = PinnedBuffer::<u32>::new(&d, 2);
        buf.write_from(&[1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "exceeds pinned capacity 2")]
    fn write_past_capacity_panics_on_recycled_storage() {
        let d = Device::k20c();
        drop(PinnedBuffer::<u32>::new(&d, 1_000));
        let mut buf = PinnedBuffer::<u32>::new(&d, 2);
        assert!(buf.storage.bytes() >= 4_000, "took the larger block");
        assert_eq!(buf.capacity(), 2);
        buf.write_from(&[1, 2, 3]);
    }

    #[test]
    fn pinned_does_not_consume_device_memory() {
        let d = Device::tiny(16);
        let _buf = PinnedBuffer::<u64>::new(&d, 1_000_000);
        assert_eq!(d.used_bytes(), 0, "pinned memory is host memory");
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
