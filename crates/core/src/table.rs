//! The neighbor table `T` (Section V of the paper).
//!
//! `T` maps every point `p_i ∈ D` to its ε-neighborhood as a range
//! `[T_i_min, T_i_max]` into a flat value array `B`: if `p_j` is within ε
//! of `p_i`, then `j ∈ {B[T_i_min], …, B[T_i_max]}`. The GPU returns the
//! result set `R` as key/value pairs sorted by key; construction scans the
//! sorted keys once, copies the values into `B`, and records the range per
//! key.
//!
//! Because the batching scheme produces `T` incrementally — each batch
//! covers a strided subset of the points — [`NeighborTableBuilder`] lets
//! several worker threads ingest their batches concurrently: each batch
//! owns a private value segment; `finalize` concatenates the segments and
//! rebases the recorded ranges. Ranges of different batches never overlap
//! (a point belongs to exactly one batch), so no synchronization beyond
//! segment ownership is required.

use parking_lot::Mutex;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU32, Ordering};

/// Below these sizes the parallel paths in [`NeighborTableBuilder`] fall
/// back to the serial scan — the outputs are identical either way (the
/// parallel code is a pure reindexing of the same computation); the gates
/// only avoid pool overhead on small inputs.
const PAR_INGEST_MIN_PAIRS: usize = 1 << 15;
const PAR_REBASE_MIN_POINTS: usize = 1 << 14;
const PAR_CONCAT_MIN_VALUES: usize = 1 << 16;

/// Per-point neighbor range into the value array `B`. Stored half-open
/// (`start..end`); the paper's inclusive `T_max` is `end - 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
struct TableRange {
    start: u64,
    end: u64,
}

/// The completed neighbor table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NeighborTable {
    eps: f64,
    ranges: Vec<TableRange>,
    values: Vec<u32>,
}

impl NeighborTable {
    /// Assemble a table directly from per-point `[start, end)` ranges into
    /// a prebuilt value array — the sharded pipeline's row-merge path,
    /// where each range comes from the shard owning that point. Every
    /// range must lie within `values` (debug-asserted).
    pub(crate) fn from_parts(eps: f64, ranges: Vec<(u64, u64)>, values: Vec<u32>) -> Self {
        debug_assert!(ranges
            .iter()
            .all(|&(s, e)| s <= e && e <= values.len() as u64));
        NeighborTable {
            eps,
            ranges: ranges
                .into_iter()
                .map(|(start, end)| TableRange { start, end })
                .collect(),
            values,
        }
    }

    /// The ε this table was computed for.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// Number of points in the underlying database.
    pub fn num_points(&self) -> usize {
        self.ranges.len()
    }

    /// Total number of stored neighbor entries, `|B|` (= `|R|`, the result
    /// set size the batching scheme estimates).
    pub fn num_entries(&self) -> usize {
        self.values.len()
    }

    /// The ε-neighborhood of point `id` (ids into the database the table
    /// was built over). Includes `id` itself.
    pub fn neighbors(&self, id: u32) -> &[u32] {
        let r = self.ranges[id as usize];
        &self.values[r.start as usize..r.end as usize]
    }

    /// Number of neighbors of `id` without materializing the slice.
    pub fn neighbor_count(&self, id: u32) -> usize {
        let r = self.ranges[id as usize];
        (r.end - r.start) as usize
    }

    /// Approximate heap footprint in bytes (the host-memory cost of
    /// retaining `T` for reuse).
    pub fn memory_bytes(&self) -> usize {
        self.ranges.len() * std::mem::size_of::<TableRange>()
            + self.values.len() * std::mem::size_of::<u32>()
    }

    /// Persist the table in a compact little-endian binary format, so a
    /// preprocessed ε-neighborhood can be reused across sessions (the
    /// paper's data-reuse story, extended to disk):
    /// `magic, version, eps, n_points, |B|, ranges…, values…`.
    pub fn save(&self, w: &mut impl std::io::Write) -> std::io::Result<()> {
        w.write_all(Self::MAGIC)?;
        w.write_all(&1u32.to_le_bytes())?;
        w.write_all(&self.eps.to_le_bytes())?;
        w.write_all(&(self.ranges.len() as u64).to_le_bytes())?;
        w.write_all(&(self.values.len() as u64).to_le_bytes())?;
        for r in &self.ranges {
            w.write_all(&r.start.to_le_bytes())?;
            w.write_all(&r.end.to_le_bytes())?;
        }
        for v in &self.values {
            w.write_all(&v.to_le_bytes())?;
        }
        Ok(())
    }

    /// Load a table written by [`NeighborTable::save`], validating the
    /// header and every range.
    pub fn load(r: &mut impl std::io::Read) -> std::io::Result<NeighborTable> {
        use std::io::{Error, ErrorKind};
        fn read<const N: usize>(r: &mut impl std::io::Read) -> std::io::Result<[u8; N]> {
            let mut b = [0u8; N];
            r.read_exact(&mut b)?;
            Ok(b)
        }
        let bad = |msg: &str| Error::new(ErrorKind::InvalidData, msg.to_string());

        if &read::<8>(r)? != NeighborTable::MAGIC {
            return Err(bad("not a neighbor-table file (bad magic)"));
        }
        let version = u32::from_le_bytes(read::<4>(r)?);
        if version != 1 {
            return Err(bad("unsupported neighbor-table version"));
        }
        let eps = f64::from_le_bytes(read::<8>(r)?);
        if !(eps.is_finite() && eps > 0.0) {
            return Err(bad("invalid eps"));
        }
        let n_points = u64::from_le_bytes(read::<8>(r)?) as usize;
        let n_values = u64::from_le_bytes(read::<8>(r)?) as usize;
        let mut ranges = Vec::with_capacity(n_points);
        for _ in 0..n_points {
            let start = u64::from_le_bytes(read::<8>(r)?);
            let end = u64::from_le_bytes(read::<8>(r)?);
            if start > end || end > n_values as u64 {
                return Err(bad("corrupt range"));
            }
            ranges.push(TableRange { start, end });
        }
        let mut values = Vec::with_capacity(n_values);
        for _ in 0..n_values {
            let v = u32::from_le_bytes(read::<4>(r)?);
            if (v as usize) >= n_points {
                return Err(bad("value id out of range"));
            }
            values.push(v);
        }
        Ok(NeighborTable {
            eps,
            ranges,
            values,
        })
    }

    const MAGIC: &'static [u8; 8] = b"HDBSCNT1";
}

/// Concurrent, batch-at-a-time builder for [`NeighborTable`].
///
/// Ingest is lock-free on the hot path so the stream pipeline's workers
/// never serialize on a builder-wide mutex: each key is *claimed* with a
/// CAS on its `owner` slot (which doubles as the duplicate-batch check),
/// the winning batch then owns that key's range cell outright, and each
/// batch's value segment lands in its own pre-sized slot. The only mutex
/// is per-segment and touched exactly once per batch.
pub struct NeighborTableBuilder {
    eps: f64,
    n_points: usize,
    /// Per-point ranges, *local* to the owning batch's segment until
    /// finalize rebases them. A successful CAS on `owner[i]` is the
    /// exclusive write ticket for `ranges[i]`.
    ranges: Vec<UnsafeCell<TableRange>>,
    /// Which batch wrote each point's range (for rebasing); u32::MAX if
    /// the point has no entries yet.
    owner: Vec<AtomicU32>,
    /// One value segment slot per batch, each written exactly once by its
    /// own batch — the mutex is never contended, it just makes the
    /// one-shot hand-off safe.
    segments: Vec<Mutex<Vec<u32>>>,
}

// SAFETY: each `ranges` cell is written only by the thread whose batch
// won the `owner` CAS for that index, and read only by `finalize`, which
// consumes `self` (exclusive access after all ingests complete).
unsafe impl Sync for NeighborTableBuilder {}

impl NeighborTableBuilder {
    /// Create a builder for `n_points` points filled by `n_batches`
    /// batches.
    pub fn new(eps: f64, n_points: usize, n_batches: usize) -> Self {
        NeighborTableBuilder {
            eps,
            n_points,
            ranges: (0..n_points)
                .map(|_| UnsafeCell::new(TableRange::default()))
                .collect(),
            owner: (0..n_points).map(|_| AtomicU32::new(u32::MAX)).collect(),
            segments: (0..n_batches.max(1))
                .map(|_| Mutex::new(Vec::new()))
                .collect(),
        }
    }

    /// Ingest batch `batch_idx`'s result set (sorted by key). Safe to call
    /// from multiple threads with distinct `batch_idx` values; each batch
    /// must cover a disjoint set of keys (guaranteed by the strided batch
    /// assignment).
    ///
    /// This performs the host-side work Algorithm 4 describes: copy the
    /// *values* out of the pinned staging area into `B` (the keys are
    /// consumed on the fly to delimit ranges and never copied).
    pub fn ingest_batch(&self, batch_idx: usize, pairs: &[(u32, u32)]) {
        // Keys must arrive in contiguous runs (the device sort guarantees
        // this; id translation permutes run labels but preserves runs).
        #[cfg(debug_assertions)]
        {
            let mut seen = std::collections::HashSet::new();
            let mut prev = None;
            for &(k, _) in pairs {
                if prev != Some(k) {
                    assert!(seen.insert(k), "key {k} appears in two separate runs");
                    prev = Some(k);
                }
            }
        }

        // Copy values and compute per-key local ranges outside the lock.
        // Large batches scan on the pool; the parallel scan computes the
        // exact same (segment, local) as the serial one — run boundaries
        // depend only on adjacent-pair equality, which is chunk-local.
        let (segment, local) =
            if pairs.len() >= PAR_INGEST_MIN_PAIRS && rayon::current_num_threads() > 1 {
                Self::scan_runs_parallel(pairs)
            } else {
                Self::scan_runs_serial(pairs)
            };

        // Claim each key with a CAS and write its range lock-free: no
        // builder-wide lock, so concurrent stream workers never contend.
        for (key, range) in local {
            assert!(
                (key as usize) < self.n_points,
                "key {key} out of range for {} points",
                self.n_points
            );
            let claim = self.owner[key as usize].compare_exchange(
                u32::MAX,
                batch_idx as u32,
                Ordering::AcqRel,
                Ordering::Acquire,
            );
            assert!(
                claim.is_ok(),
                "key {key} ingested by two batches — strided assignment violated"
            );
            // SAFETY: the CAS above makes this thread the unique writer
            // of this cell; `finalize` reads only after consuming `self`.
            unsafe { *self.ranges[key as usize].get() = range };
        }
        let mut slot = self.segments[batch_idx].lock();
        assert!(slot.is_empty(), "batch {batch_idx} ingested twice");
        *slot = segment;
    }

    /// Serial run scan: values in order plus one `(key, local range)` per
    /// contiguous key run.
    fn scan_runs_serial(pairs: &[(u32, u32)]) -> (Vec<u32>, Vec<(u32, TableRange)>) {
        // Bulk value copy first (one vectorizable pass), then a second
        // pass for the run boundaries — faster than interleaving pushes.
        let segment: Vec<u32> = pairs.iter().map(|&(_, v)| v).collect();
        let mut local: Vec<(u32, TableRange)> = Vec::new();
        let mut i = 0;
        while i < pairs.len() {
            let key = pairs[i].0;
            let start = i;
            while i < pairs.len() && pairs[i].0 == key {
                i += 1;
            }
            local.push((
                key,
                TableRange {
                    start: start as u64,
                    end: i as u64,
                },
            ));
        }
        (segment, local)
    }

    /// Parallel run scan with identical output to
    /// [`Self::scan_runs_serial`]: run *starts* (`i == 0` or a key change
    /// at `i`) are detected per chunk — the predicate only reads
    /// `pairs[i-1]`/`pairs[i]`, so chunk boundaries cannot change it —
    /// then flattened in chunk order, which is index order.
    fn scan_runs_parallel(pairs: &[(u32, u32)]) -> (Vec<u32>, Vec<(u32, TableRange)>) {
        const CHUNK: usize = 32 * 1024;
        let n = pairs.len();
        let per_chunk: Vec<Vec<usize>> = (0..n.div_ceil(CHUNK))
            .into_par_iter()
            .map(|c| {
                let lo = c * CHUNK;
                let hi = (lo + CHUNK).min(n);
                let mut starts = Vec::new();
                for i in lo..hi {
                    if i == 0 || pairs[i].0 != pairs[i - 1].0 {
                        starts.push(i);
                    }
                }
                starts
            })
            .collect();
        let starts: Vec<usize> = per_chunk.into_iter().flatten().collect();

        let local: Vec<(u32, TableRange)> = (0..starts.len())
            .into_par_iter()
            .map(|r| {
                let start = starts[r];
                let end = starts.get(r + 1).copied().unwrap_or(n);
                (
                    pairs[start].0,
                    TableRange {
                        start: start as u64,
                        end: end as u64,
                    },
                )
            })
            .collect();
        let segment: Vec<u32> = pairs.par_iter().map(|p| p.1).collect();
        (segment, local)
    }

    /// Concatenate the batch segments into `B` and rebase ranges.
    pub fn finalize(self) -> NeighborTable {
        let eps = self.eps;
        let mut ranges: Vec<TableRange> = self
            .ranges
            .into_iter()
            .map(UnsafeCell::into_inner)
            .collect();
        let owner: Vec<u32> = self.owner.into_iter().map(AtomicU32::into_inner).collect();
        let segments: Vec<Vec<u32>> = self.segments.into_iter().map(Mutex::into_inner).collect();

        // Prefix offsets of each batch's segment within B.
        let mut offsets = Vec::with_capacity(segments.len());
        let mut total = 0u64;
        for seg in &segments {
            offsets.push(total);
            total += seg.len() as u64;
        }

        // Rebase each point's local range by its batch offset. The shift
        // per point is a pure function of (owner, offsets) — parallel and
        // serial paths write identical tables.
        let rebase = |(i, range): (usize, &mut TableRange)| {
            if owner[i] != u32::MAX {
                let off = offsets[owner[i] as usize];
                range.start += off;
                range.end += off;
            }
            // Unowned points keep the default empty 0..0 range.
        };
        if ranges.len() >= PAR_REBASE_MIN_POINTS && rayon::current_num_threads() > 1 {
            ranges.par_iter_mut().enumerate().for_each(rebase);
        } else {
            ranges.iter_mut().enumerate().for_each(rebase);
        }

        // Concatenate segments into B; segment destinations are disjoint,
        // so large tables copy on the pool.
        let values = if total as usize >= PAR_CONCAT_MIN_VALUES && rayon::current_num_threads() > 1
        {
            let mut values = vec![0u32; total as usize];
            let mut pieces: Vec<(&mut [u32], &[u32])> = Vec::with_capacity(segments.len());
            let mut rest: &mut [u32] = &mut values;
            for seg in &segments {
                let (head, tail) = rest.split_at_mut(seg.len());
                pieces.push((head, seg.as_slice()));
                rest = tail;
            }
            pieces
                .par_iter_mut()
                .for_each(|(dst, src)| dst.copy_from_slice(src));
            values
        } else {
            let mut values = Vec::with_capacity(total as usize);
            for seg in &segments {
                values.extend_from_slice(seg);
            }
            values
        };

        NeighborTable {
            eps,
            ranges,
            values,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A table from one fully sorted key/value result set (one batch).
    fn sorted_pairs_table(eps: f64, n_points: usize, pairs: &[(u32, u32)]) -> NeighborTable {
        let builder = NeighborTableBuilder::new(eps, n_points, 1);
        builder.ingest_batch(0, pairs);
        builder.finalize()
    }

    #[test]
    fn single_batch_table() {
        // Point 0 -> {0, 1}; point 1 -> {0, 1, 2}; point 2 -> {1, 2}.
        let pairs = [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (2, 1), (2, 2)];
        let t = sorted_pairs_table(0.5, 3, &pairs);
        assert_eq!(t.neighbors(0), &[0, 1]);
        assert_eq!(t.neighbors(1), &[0, 1, 2]);
        assert_eq!(t.neighbors(2), &[1, 2]);
        assert_eq!(t.num_entries(), 7);
        assert_eq!(t.num_points(), 3);
        assert_eq!(t.eps(), 0.5);
        assert_eq!(t.neighbor_count(1), 3);
    }

    #[test]
    fn point_with_no_pairs_has_empty_neighborhood() {
        let pairs = [(0, 0), (2, 2)];
        let t = sorted_pairs_table(1.0, 3, &pairs);
        assert_eq!(t.neighbors(1), &[] as &[u32]);
        assert_eq!(t.neighbor_count(1), 0);
    }

    #[test]
    fn multi_batch_strided_assembly() {
        // 6 points, 2 batches: batch 0 owns even keys, batch 1 odd keys.
        let builder = NeighborTableBuilder::new(1.0, 6, 2);
        builder.ingest_batch(0, &[(0, 0), (0, 2), (2, 2), (4, 4), (4, 5)]);
        builder.ingest_batch(1, &[(1, 1), (3, 3), (3, 4), (5, 4), (5, 5)]);
        let t = builder.finalize();
        assert_eq!(t.neighbors(0), &[0, 2]);
        assert_eq!(t.neighbors(1), &[1]);
        assert_eq!(t.neighbors(2), &[2]);
        assert_eq!(t.neighbors(3), &[3, 4]);
        assert_eq!(t.neighbors(4), &[4, 5]);
        assert_eq!(t.neighbors(5), &[4, 5]);
        assert_eq!(t.num_entries(), 10);
    }

    #[test]
    fn batch_ingest_order_does_not_matter() {
        let mk = |order: [usize; 3]| {
            let builder = NeighborTableBuilder::new(1.0, 9, 3);
            let batches = [
                vec![(0u32, 0u32), (3, 3), (6, 6)],
                vec![(1, 1), (4, 4), (7, 7)],
                vec![(2, 2), (5, 5), (8, 8)],
            ];
            for &b in &order {
                builder.ingest_batch(b, &batches[b]);
            }
            builder.finalize()
        };
        let a = mk([0, 1, 2]);
        let b = mk([2, 0, 1]);
        for id in 0..9 {
            assert_eq!(a.neighbors(id), b.neighbors(id));
        }
    }

    #[test]
    fn concurrent_ingest() {
        let n_points = 3000;
        let n_batches = 3;
        let builder = NeighborTableBuilder::new(1.0, n_points, n_batches);
        rayon::scope(|s| {
            for b in 0..n_batches {
                let builder = &builder;
                s.spawn(move |_| {
                    let pairs: Vec<(u32, u32)> = (0..n_points as u32)
                        .filter(|i| (*i as usize) % n_batches == b)
                        .flat_map(|i| [(i, i), (i, (i + 1) % n_points as u32)])
                        .collect();
                    builder.ingest_batch(b, &pairs);
                });
            }
        });
        let t = builder.finalize();
        for i in 0..n_points as u32 {
            assert_eq!(t.neighbors(i), &[i, (i + 1) % n_points as u32]);
        }
    }

    #[test]
    #[should_panic(expected = "ingested by two batches")]
    fn duplicate_key_across_batches_panics() {
        let builder = NeighborTableBuilder::new(1.0, 4, 2);
        builder.ingest_batch(0, &[(0, 0)]);
        builder.ingest_batch(1, &[(0, 1)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_key_panics() {
        let builder = NeighborTableBuilder::new(1.0, 2, 1);
        builder.ingest_batch(0, &[(5, 0)]);
    }

    #[test]
    fn save_load_roundtrip() {
        let pairs = [(0u32, 0u32), (0, 1), (1, 0), (1, 1), (3, 3)];
        let t = sorted_pairs_table(0.75, 4, &pairs);
        let mut buf = Vec::new();
        t.save(&mut buf).unwrap();
        let back = NeighborTable::load(&mut buf.as_slice()).unwrap();
        assert_eq!(back, t);
        assert_eq!(back.eps(), 0.75);
        assert_eq!(back.neighbors(1), &[0, 1]);
        assert_eq!(back.neighbors(2), &[] as &[u32]);
    }

    #[test]
    fn load_rejects_garbage() {
        assert!(NeighborTable::load(&mut &b"not a table at all"[..]).is_err());
        // Truncated file.
        let t = sorted_pairs_table(1.0, 2, &[(0, 0), (1, 1)]);
        let mut buf = Vec::new();
        t.save(&mut buf).unwrap();
        buf.truncate(buf.len() - 2);
        assert!(NeighborTable::load(&mut buf.as_slice()).is_err());
        // Corrupt a range end past |B|.
        let mut buf2 = Vec::new();
        t.save(&mut buf2).unwrap();
        // ranges start after 8+4+8+8+8 = 36 bytes; corrupt first range end.
        buf2[44..52].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(NeighborTable::load(&mut buf2.as_slice()).is_err());
    }

    #[test]
    fn memory_bytes_accounts_table() {
        let pairs = [(0u32, 0u32), (1, 1)];
        let t = sorted_pairs_table(1.0, 2, &pairs);
        assert_eq!(t.memory_bytes(), 2 * 16 + 2 * 4);
    }
}
