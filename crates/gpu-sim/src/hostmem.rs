//! Host-side memory with the pinned/pageable distinction.
//!
//! CUDA transfers from page-locked ("pinned") host memory are roughly twice
//! as fast as from pageable memory, but pinning is itself expensive
//! (a page-table walk proportional to the allocation). The paper stages
//! every batch's result set through pinned buffers and is careful not to
//! over-allocate them (Section VI). [`PinnedBuffer`] models both sides of
//! that trade-off.

use crate::device::Device;
use crate::time::SimDuration;

/// A page-locked host staging buffer.
///
/// Carries the modeled allocation (pinning) cost so callers can charge it
/// once, and marks transfers it participates in as pinned-rate. Storage
/// is reserved at allocation and written only by [`PinnedBuffer::write_from`].
pub struct PinnedBuffer<T: Copy> {
    data: Vec<T>,
    capacity: usize,
    alloc_time: SimDuration,
}

impl<T: Copy> PinnedBuffer<T> {
    /// Allocate a pinned buffer of `len` items on the host of `device`.
    /// The returned buffer records the modeled pinning time.
    pub fn new(device: &Device, len: usize) -> Self {
        let bytes = len * std::mem::size_of::<T>();
        let alloc_time = device.transfer_model().pin_time(bytes);
        PinnedBuffer {
            data: Vec::with_capacity(len),
            capacity: len,
            alloc_time,
        }
    }

    /// The modeled cost of having allocated this buffer.
    pub fn alloc_time(&self) -> SimDuration {
        self.alloc_time
    }

    /// Capacity in items.
    pub fn len(&self) -> usize {
        self.capacity
    }

    pub fn is_empty(&self) -> bool {
        self.capacity == 0
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
        self.data.clear();
        self.data.extend_from_slice(src);
        src.len()
    }

    /// The items of the last [`PinnedBuffer::write_from`].
    pub fn as_slice(&self) -> &[T] {
        &self.data
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
        let n = buf.write_from(&[1, 2, 3]);
        assert_eq!(n, 3);
        assert_eq!(buf.as_slice(), &[1, 2, 3]);
        assert_eq!(buf.len(), 10);
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
    fn pinned_does_not_consume_device_memory() {
        let d = Device::tiny(16);
        let _buf = PinnedBuffer::<u64>::new(&d, 1_000_000);
        assert_eq!(d.used_bytes(), 0, "pinned memory is host memory");
    }
}
