//! Parallel iterators over indexable sources.
//!
//! Everything here is an [`IndexedProducer`]: a `Sync` description of `n`
//! independently computable items. Adaptors (`map`, `enumerate`) wrap
//! producers; terminals (`for_each`, `collect`, `sum`) split `0..n` into
//! chunks and hand them to the pool via [`pool::run_parallel`].
//!
//! ## Determinism
//!
//! * `collect` writes item `i` to slot `i` — output order never depends
//!   on scheduling.
//! * `sum` reduces fixed-size blocks ([`SUM_BLOCK`] items) sequentially
//!   and folds the block partials **in block order**, so floating-point
//!   reductions are bitwise identical at every thread count.
//! * Chunk sizes affect scheduling only, never which items exist or what
//!   any item computes.

use crate::pool::{self, run_parallel};
use std::mem::{ManuallyDrop, MaybeUninit};

/// Fixed block size for [`ParIter::sum`]; **must not** depend on the
/// thread count, or float reductions would vary with `RAYON_NUM_THREADS`.
const SUM_BLOCK: usize = 4096;

/// A `Sync` source of `len()` items, each computable independently.
///
/// Contract: terminals call `produce(i)` **exactly once** per index
/// (mutable-slice producers hand out `&mut` on the strength of this).
pub trait IndexedProducer: Sync {
    type Item: Send;

    fn len(&self) -> usize;

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn produce(&self, index: usize) -> Self::Item;
}

/// The parallel-iterator handle all `par_iter`/`into_par_iter` calls
/// return; wraps a producer and offers the adaptors/terminals the
/// workspace uses.
pub struct ParIter<P>(pub(crate) P);

impl<P: IndexedProducer> ParIter<P> {
    pub fn map<U: Send, F: Fn(P::Item) -> U + Sync>(self, f: F) -> ParIter<MapProducer<P, F>> {
        ParIter(MapProducer { inner: self.0, f })
    }

    pub fn enumerate(self) -> ParIter<EnumerateProducer<P>> {
        ParIter(EnumerateProducer { inner: self.0 })
    }

    pub fn for_each<F: Fn(P::Item) + Sync>(self, f: F) {
        let p = &self.0;
        for_each_chunked(p.len(), &|i| f(p.produce(i)));
    }

    pub fn collect<C: FromParallelIterator<P::Item>>(self) -> C {
        C::from_par_iter(self.0)
    }

    /// Deterministic parallel reduction: fixed [`SUM_BLOCK`]-sized blocks
    /// summed independently, partials folded in block order.
    pub fn sum<S>(self) -> S
    where
        S: std::iter::Sum<P::Item> + std::iter::Sum<S> + Send,
    {
        let p = &self.0;
        let n = p.len();
        let n_blocks = n.div_ceil(SUM_BLOCK);
        let partials: Vec<S> = fill_indexed(n_blocks, &|b| {
            let lo = b * SUM_BLOCK;
            let hi = (lo + SUM_BLOCK).min(n);
            (lo..hi).map(|i| p.produce(i)).sum::<S>()
        });
        partials.into_iter().sum()
    }
}

pub struct MapProducer<P, F> {
    inner: P,
    f: F,
}

impl<P: IndexedProducer, U: Send, F: Fn(P::Item) -> U + Sync> IndexedProducer
    for MapProducer<P, F>
{
    type Item = U;

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn produce(&self, index: usize) -> U {
        (self.f)(self.inner.produce(index))
    }
}

pub struct EnumerateProducer<P> {
    inner: P,
}

impl<P: IndexedProducer> IndexedProducer for EnumerateProducer<P> {
    type Item = (usize, P::Item);

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn produce(&self, index: usize) -> (usize, P::Item) {
        (index, self.inner.produce(index))
    }
}

/// Target chunk count: ~4 chunks per thread, so stealing can rebalance
/// without per-item scheduling overhead. Affects scheduling only.
fn chunk_len(n: usize) -> usize {
    n.div_ceil(pool::current_num_threads().max(1) * 4).max(1)
}

/// Run `f(i)` for every `i in 0..n` on the pool, chunked.
pub(crate) fn for_each_chunked(n: usize, f: &(impl Fn(usize) + Sync)) {
    if n == 0 {
        return;
    }
    let chunk = chunk_len(n);
    run_parallel(n.div_ceil(chunk), "par_iter", |c| {
        let lo = c * chunk;
        let hi = (lo + chunk).min(n);
        for i in lo..hi {
            f(i);
        }
    });
}

/// Raw pointer wrapper that crosses threads; each index is touched by
/// exactly one chunk, so there is no aliasing.
pub(crate) struct SendPtr<T>(*mut T);

impl<T> SendPtr<T> {
    pub(crate) fn new(ptr: *mut T) -> Self {
        SendPtr(ptr)
    }

    pub(crate) fn get(&self) -> *mut T {
        self.0
    }
}

impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}
// SAFETY: disjoint-index access only (exactly-once contract).
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// Build a `Vec` where slot `i` holds `f(i)`, filling slots in parallel.
/// Output is position-addressed, hence schedule-independent.
pub(crate) fn fill_indexed<T: Send>(n: usize, f: &(impl Fn(usize) -> T + Sync)) -> Vec<T> {
    let mut out: Vec<MaybeUninit<T>> = Vec::with_capacity(n);
    // SAFETY: MaybeUninit needs no initialization.
    unsafe { out.set_len(n) };
    let base = SendPtr::new(out.as_mut_ptr());
    // On a chunk panic this unwinds; `Vec<MaybeUninit<T>>` drops no
    // elements, so already-written items leak (safe, like real rayon's
    // collect under panic is allowed to be).
    for_each_chunked(n, &|i| unsafe {
        (*base.get().add(i)).write(f(i));
    });
    let mut out = ManuallyDrop::new(out);
    // SAFETY: all n slots were written exactly once above.
    unsafe { Vec::from_raw_parts(out.as_mut_ptr().cast::<T>(), n, out.capacity()) }
}

/// Conversion from a parallel iterator, mirroring `FromIterator`.
pub trait FromParallelIterator<T: Send>: Sized {
    fn from_par_iter<P: IndexedProducer<Item = T>>(producer: P) -> Self;
}

impl<T: Send> FromParallelIterator<T> for Vec<T> {
    fn from_par_iter<P: IndexedProducer<Item = T>>(producer: P) -> Self {
        fill_indexed(producer.len(), &|i| producer.produce(i))
    }
}

// ---------------------------------------------------------------------
// Sources: ranges, slices, mutable slices.
// ---------------------------------------------------------------------

pub struct RangeProducer<T> {
    start: T,
    len: usize,
}

macro_rules! impl_uint_range_producer {
    ($($t:ty),*) => {$(
        impl IndexedProducer for RangeProducer<$t> {
            type Item = $t;
            fn len(&self) -> usize {
                self.len
            }
            fn produce(&self, index: usize) -> $t {
                self.start + index as $t
            }
        }
        impl IntoParallelIterator for std::ops::Range<$t> {
            type Item = $t;
            type Iter = ParIter<RangeProducer<$t>>;
            fn into_par_iter(self) -> Self::Iter {
                let len = if self.end > self.start {
                    (self.end - self.start) as usize
                } else {
                    0
                };
                ParIter(RangeProducer { start: self.start, len })
            }
        }
    )*};
}
impl_uint_range_producer!(u8, u16, u32, u64, usize);

macro_rules! impl_int_range_producer {
    ($($t:ty),*) => {$(
        impl IndexedProducer for RangeProducer<$t> {
            type Item = $t;
            fn len(&self) -> usize {
                self.len
            }
            fn produce(&self, index: usize) -> $t {
                (self.start as i128 + index as i128) as $t
            }
        }
        impl IntoParallelIterator for std::ops::Range<$t> {
            type Item = $t;
            type Iter = ParIter<RangeProducer<$t>>;
            fn into_par_iter(self) -> Self::Iter {
                let len = if self.end > self.start {
                    (self.end as i128 - self.start as i128) as usize
                } else {
                    0
                };
                ParIter(RangeProducer { start: self.start, len })
            }
        }
    )*};
}
impl_int_range_producer!(i32, i64);

pub struct SliceProducer<'a, T: Sync> {
    slice: &'a [T],
}

impl<'a, T: Sync> IndexedProducer for SliceProducer<'a, T> {
    type Item = &'a T;

    fn len(&self) -> usize {
        self.slice.len()
    }

    fn produce(&self, index: usize) -> &'a T {
        &self.slice[index]
    }
}

pub struct MutSliceProducer<'a, T: Send> {
    base: SendPtr<T>,
    len: usize,
    // fn-pointer phantom: keeps the borrow without requiring `T: Sync`.
    _marker: std::marker::PhantomData<fn() -> &'a mut [T]>,
}

impl<'a, T: Send> IndexedProducer for MutSliceProducer<'a, T> {
    type Item = &'a mut T;

    fn len(&self) -> usize {
        self.len
    }

    fn produce(&self, index: usize) -> &'a mut T {
        assert!(index < self.len);
        // SAFETY: exactly-once contract — each index is produced once, so
        // the `&mut`s handed out never alias.
        unsafe { &mut *self.base.get().add(index) }
    }
}

/// `into_par_iter()` — consuming conversion (ranges).
pub trait IntoParallelIterator {
    type Item: Send;
    type Iter;

    fn into_par_iter(self) -> Self::Iter;
}

/// `par_iter()` — borrowing conversion (slices, `Vec`).
pub trait IntoParallelRefIterator<'a> {
    type Item: Send;
    type Iter;

    fn par_iter(&'a self) -> Self::Iter;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    type Iter = ParIter<SliceProducer<'a, T>>;

    fn par_iter(&'a self) -> Self::Iter {
        ParIter(SliceProducer { slice: self })
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    type Iter = ParIter<SliceProducer<'a, T>>;

    fn par_iter(&'a self) -> Self::Iter {
        ParIter(SliceProducer {
            slice: self.as_slice(),
        })
    }
}

/// `par_iter_mut()` — mutably borrowing conversion.
pub trait IntoParallelRefMutIterator<'a> {
    type Item: Send;
    type Iter;

    fn par_iter_mut(&'a mut self) -> Self::Iter;
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for [T] {
    type Item = &'a mut T;
    type Iter = ParIter<MutSliceProducer<'a, T>>;

    fn par_iter_mut(&'a mut self) -> Self::Iter {
        ParIter(MutSliceProducer {
            base: SendPtr::new(self.as_mut_ptr()),
            len: self.len(),
            _marker: std::marker::PhantomData,
        })
    }
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for Vec<T> {
    type Item = &'a mut T;
    type Iter = ParIter<MutSliceProducer<'a, T>>;

    fn par_iter_mut(&'a mut self) -> Self::Iter {
        self.as_mut_slice().par_iter_mut()
    }
}

/// `par_sort_unstable` and friends — deterministic parallel merge sort
/// (see the `sort` module for the thread-count-invariance argument).
pub trait ParallelSliceMut<T: Send> {
    fn as_parallel_slice_mut(&mut self) -> &mut [T];

    fn par_sort_unstable(&mut self)
    where
        T: Ord,
    {
        crate::sort::par_sort_unstable_by(self.as_parallel_slice_mut(), &T::cmp);
    }

    fn par_sort_unstable_by<F: Fn(&T, &T) -> std::cmp::Ordering + Sync>(&mut self, compare: F) {
        crate::sort::par_sort_unstable_by(self.as_parallel_slice_mut(), &compare);
    }

    fn par_sort_unstable_by_key<K: Ord, F: Fn(&T) -> K + Sync>(&mut self, key: F) {
        crate::sort::par_sort_unstable_by(self.as_parallel_slice_mut(), &|a: &T, b: &T| {
            key(a).cmp(&key(b))
        });
    }
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn as_parallel_slice_mut(&mut self) -> &mut [T] {
        self
    }
}

impl<T: Send> ParallelSliceMut<T> for Vec<T> {
    fn as_parallel_slice_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}
