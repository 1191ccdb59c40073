//! [`QueryBatch`]: one submission mixing point lookups, range lookups and
//! an optional value-column fetch.
//!
//! The paper's methodology submits homogeneous batches (all points or all
//! ranges); real secondary-index traffic mixes both. A [`QueryBatch`]
//! preserves the submission order of a mixed stream while the executor
//! regroups the operations into homogeneous kernel launches — and, for
//! large submissions, splits every launch into bounded chunks
//! ([`QueryBatch::with_chunk_size`]) the way a real system bounds its
//! launch width and result-buffer footprint.

/// One operation of a [`QueryBatch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryOp {
    /// Point lookup of a key.
    Point(u64),
    /// Inclusive range lookup `[lower, upper]`.
    Range(u64, u64),
}

/// A batch of mixed lookups, built incrementally and executed through
/// [`SecondaryIndex::execute`](crate::index::SecondaryIndex::execute).
///
/// ```
/// use rtx_query::{QueryBatch, QueryOp};
///
/// let batch = QueryBatch::new()
///     .point(7)
///     .range(10, 19)
///     .points([1, 2])
///     .fetch_values(true)
///     .with_chunk_size(1024);
/// assert_eq!(batch.len(), 4);
/// assert_eq!(batch.point_count(), 3);
/// assert_eq!(batch.range_count(), 1);
/// assert_eq!(batch.ops()[1], QueryOp::Range(10, 19));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryBatch {
    ops: Vec<QueryOp>,
    fetch_values: bool,
    chunk_size: Option<usize>,
}

impl QueryBatch {
    /// An empty batch.
    pub fn new() -> Self {
        QueryBatch::default()
    }

    /// A batch of point lookups, one per query key.
    pub fn of_points(queries: &[u64]) -> Self {
        QueryBatch::new().points(queries.iter().copied())
    }

    /// A batch of inclusive range lookups.
    pub fn of_ranges(ranges: &[(u64, u64)]) -> Self {
        QueryBatch::new().ranges(ranges.iter().copied())
    }

    /// Appends one point lookup.
    pub fn point(mut self, key: u64) -> Self {
        self.ops.push(QueryOp::Point(key));
        self
    }

    /// Appends point lookups for every key of `queries`.
    pub fn points<I: IntoIterator<Item = u64>>(mut self, queries: I) -> Self {
        self.ops.extend(queries.into_iter().map(QueryOp::Point));
        self
    }

    /// Appends one inclusive range lookup `[lower, upper]`.
    pub fn range(mut self, lower: u64, upper: u64) -> Self {
        self.ops.push(QueryOp::Range(lower, upper));
        self
    }

    /// Appends an inclusive range lookup per `(lower, upper)` pair.
    pub fn ranges<I: IntoIterator<Item = (u64, u64)>>(mut self, ranges: I) -> Self {
        self.ops
            .extend(ranges.into_iter().map(|(l, u)| QueryOp::Range(l, u)));
        self
    }

    /// Appends every operation of `other`, preserving its order. This is the
    /// fuse primitive of cross-client batch coalescing
    /// ([`FusedBatch`](crate::fuse::FusedBatch)): many small submissions
    /// concatenate into one large one. Only the operations are taken —
    /// `other`'s value-fetch and chunk-size settings are the caller's to
    /// reconcile.
    pub fn append_ops(&mut self, other: &QueryBatch) {
        self.ops.extend_from_slice(other.ops());
    }

    /// Requests that every qualifying row's value be fetched and summed per
    /// operation (the paper's secondary-index methodology). Requires the
    /// index to have been built with a value column.
    pub fn fetch_values(mut self, fetch: bool) -> Self {
        self.fetch_values = fetch;
        self
    }

    /// Bounds the number of operations per kernel launch: each homogeneous
    /// run (points, ranges) is split into chunks of at most `chunk_size`
    /// operations, executed back to back with their metrics merged. Results
    /// are identical to unchunked execution. A chunk size of 0 means
    /// unbounded (the default).
    pub fn with_chunk_size(mut self, chunk_size: usize) -> Self {
        self.chunk_size = (chunk_size > 0).then_some(chunk_size);
        self
    }

    /// The operations in submission order.
    pub fn ops(&self) -> &[QueryOp] {
        &self.ops
    }

    /// Number of operations in the batch.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when the batch holds no operation.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of point lookups in the batch.
    pub fn point_count(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, QueryOp::Point(_)))
            .count()
    }

    /// Number of range lookups in the batch.
    pub fn range_count(&self) -> usize {
        self.len() - self.point_count()
    }

    /// Whether a value fetch was requested.
    pub fn fetches_values(&self) -> bool {
        self.fetch_values
    }

    /// The configured chunk size, or `None` for unbounded launches.
    pub fn chunk_size(&self) -> Option<usize> {
        self.chunk_size
    }
}

/// Structure-of-arrays layout of a mixed lookup stream.
///
/// A [`QueryBatch`] stores one `QueryOp` enum per operation, which the
/// executor must regroup into homogeneous point/range runs on every
/// execution. `QueryOps` does that regrouping **once, at build/fuse time**:
/// point keys and range bounds live in separate dense vectors, and the
/// original submission order is kept in a packed order-tag bitmap (bit set =
/// range). Executors consume the dense vectors directly; result scatter uses
/// the bitmap to walk slots in submission order without touching an enum.
///
/// All mutators work in place so a service can keep one `QueryOps` alive and
/// [`clear`](QueryOps::clear) it between submissions — steady state
/// re-fusing allocates nothing.
///
/// ```
/// use rtx_query::{QueryBatch, QueryOps, QueryOp};
///
/// let mut ops = QueryOps::new();
/// ops.push_point(7);
/// ops.push_range(10, 19);
/// ops.append_batch(&QueryBatch::new().points([1, 2]));
/// assert_eq!(ops.len(), 4);
/// assert_eq!(ops.points(), &[7, 1, 2]);
/// assert_eq!(ops.ranges(), &[(10, 19)]);
/// assert_eq!(ops.iter().nth(1), Some(QueryOp::Range(10, 19)));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryOps {
    points: Vec<u64>,
    ranges: Vec<(u64, u64)>,
    /// Packed order tags: bit `i % 64` of word `i / 64` is set when the
    /// operation at submission slot `i` is a range lookup.
    tags: Vec<u64>,
    len: usize,
    fetch_values: bool,
    chunk_size: Option<usize>,
}

impl QueryOps {
    /// An empty op stream.
    pub fn new() -> Self {
        QueryOps::default()
    }

    /// Builds the SoA layout from an enum-stream batch in one pass.
    pub fn from_batch(batch: &QueryBatch) -> Self {
        let mut ops = QueryOps::new();
        ops.refill(batch);
        ops
    }

    /// Replaces the stream with `batch` — its operations and its fetch and
    /// chunk settings — in place, keeping every buffer's capacity.
    pub fn refill(&mut self, batch: &QueryBatch) {
        self.clear();
        self.append_batch(batch);
        self.fetch_values = batch.fetches_values();
        self.chunk_size = batch.chunk_size();
    }

    fn push_tag(&mut self, is_range: bool) {
        let word = self.len / 64;
        if word == self.tags.len() {
            self.tags.push(0);
        }
        if is_range {
            self.tags[word] |= 1u64 << (self.len % 64);
        }
        self.len += 1;
    }

    /// Appends one point lookup at the next submission slot.
    pub fn push_point(&mut self, key: u64) {
        self.points.push(key);
        self.push_tag(false);
    }

    /// Appends one inclusive range lookup at the next submission slot.
    pub fn push_range(&mut self, lower: u64, upper: u64) {
        self.ranges.push((lower, upper));
        self.push_tag(true);
    }

    /// Appends every operation of `batch`, preserving its order — the fuse
    /// primitive, mirroring [`QueryBatch::append_ops`]. Only the operations
    /// are taken; `batch`'s fetch/chunk settings are the caller's to
    /// reconcile.
    pub fn append_batch(&mut self, batch: &QueryBatch) {
        for op in batch.ops() {
            match *op {
                QueryOp::Point(key) => self.push_point(key),
                QueryOp::Range(lower, upper) => self.push_range(lower, upper),
            }
        }
    }

    /// Empties the stream, keeping every buffer's capacity.
    pub fn clear(&mut self) {
        self.points.clear();
        self.ranges.clear();
        self.tags.clear();
        self.len = 0;
    }

    /// Sets the value-fetch flag in place.
    pub fn set_fetch_values(&mut self, fetch: bool) {
        self.fetch_values = fetch;
    }

    /// Sets the per-launch chunk bound in place (0 = unbounded).
    pub fn set_chunk_size(&mut self, chunk_size: usize) {
        self.chunk_size = (chunk_size > 0).then_some(chunk_size);
    }

    /// The point keys, dense, in submission order among points.
    pub fn points(&self) -> &[u64] {
        &self.points
    }

    /// The inclusive range bounds, dense, in submission order among ranges.
    pub fn ranges(&self) -> &[(u64, u64)] {
        &self.ranges
    }

    /// True when the operation at submission slot `slot` is a range lookup.
    pub fn is_range(&self, slot: usize) -> bool {
        debug_assert!(slot < self.len);
        self.tags[slot / 64] & (1u64 << (slot % 64)) != 0
    }

    /// Total number of operations.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the stream holds no operation.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of point lookups.
    pub fn point_count(&self) -> usize {
        self.points.len()
    }

    /// Number of range lookups.
    pub fn range_count(&self) -> usize {
        self.ranges.len()
    }

    /// Whether a value fetch was requested.
    pub fn fetches_values(&self) -> bool {
        self.fetch_values
    }

    /// The configured chunk size, or `None` for unbounded launches.
    pub fn chunk_size(&self) -> Option<usize> {
        self.chunk_size
    }

    /// The operations in submission order, re-materialized as enums.
    pub fn iter(&self) -> impl Iterator<Item = QueryOp> + '_ {
        let mut points = self.points.iter();
        let mut ranges = self.ranges.iter();
        (0..self.len).map(move |slot| {
            if self.is_range(slot) {
                let &(lower, upper) = ranges.next().expect("tag bitmap out of sync");
                QueryOp::Range(lower, upper)
            } else {
                QueryOp::Point(*points.next().expect("tag bitmap out of sync"))
            }
        })
    }

    /// Rebuilds an enum-stream [`QueryBatch`] (a compatibility escape hatch
    /// for callers that still speak the AoS layout; allocates).
    pub fn to_batch(&self) -> QueryBatch {
        let mut batch = QueryBatch {
            ops: Vec::with_capacity(self.len),
            fetch_values: self.fetch_values,
            chunk_size: self.chunk_size,
        };
        batch.ops.extend(self.iter());
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_mixed_ops_in_order() {
        let batch = QueryBatch::new()
            .range(5, 9)
            .point(1)
            .ranges([(0, 0), (2, 4)])
            .points([8, 9]);
        assert_eq!(batch.len(), 6);
        assert_eq!(batch.point_count(), 3);
        assert_eq!(batch.range_count(), 3);
        assert_eq!(batch.ops()[0], QueryOp::Range(5, 9));
        assert_eq!(batch.ops()[1], QueryOp::Point(1));
        assert_eq!(batch.ops()[5], QueryOp::Point(9));
        assert!(!batch.fetches_values());
        assert!(batch.chunk_size().is_none());
    }

    #[test]
    fn convenience_constructors() {
        let p = QueryBatch::of_points(&[1, 2, 3]);
        assert_eq!(p.point_count(), 3);
        assert_eq!(p.range_count(), 0);
        let r = QueryBatch::of_ranges(&[(1, 2)]);
        assert_eq!(r.range_count(), 1);
        assert!(QueryBatch::new().is_empty());
    }

    #[test]
    fn append_ops_concatenates_preserving_order_and_settings() {
        let mut fused = QueryBatch::new().point(1).fetch_values(true);
        fused.append_ops(&QueryBatch::new().range(2, 5).point(9).with_chunk_size(3));
        assert_eq!(
            fused.ops(),
            &[QueryOp::Point(1), QueryOp::Range(2, 5), QueryOp::Point(9)]
        );
        // Only the operations transfer; the target's own settings stay.
        assert!(fused.fetches_values());
        assert_eq!(fused.chunk_size(), None);
    }

    #[test]
    fn chunk_size_zero_means_unbounded() {
        assert_eq!(QueryBatch::new().with_chunk_size(0).chunk_size(), None);
        assert_eq!(QueryBatch::new().with_chunk_size(7).chunk_size(), Some(7));
    }

    #[test]
    fn soa_round_trips_mixed_streams() {
        let batch = QueryBatch::new()
            .range(5, 9)
            .point(1)
            .ranges([(0, 0), (2, 4)])
            .points([8, 9])
            .fetch_values(true)
            .with_chunk_size(3);
        let ops = QueryOps::from_batch(&batch);
        assert_eq!(ops.len(), 6);
        assert_eq!(ops.point_count(), 3);
        assert_eq!(ops.range_count(), 3);
        assert_eq!(ops.points(), &[1, 8, 9]);
        assert_eq!(ops.ranges(), &[(5, 9), (0, 0), (2, 4)]);
        assert!(ops.is_range(0) && !ops.is_range(1) && ops.is_range(3));
        assert!(ops.fetches_values());
        assert_eq!(ops.chunk_size(), Some(3));
        assert_eq!(ops.iter().collect::<Vec<_>>(), batch.ops());
        assert_eq!(ops.to_batch(), batch);
    }

    #[test]
    fn soa_tag_bitmap_spans_words() {
        let mut ops = QueryOps::new();
        for i in 0..200u64 {
            if i % 3 == 0 {
                ops.push_range(i, i + 1);
            } else {
                ops.push_point(i);
            }
        }
        assert_eq!(ops.len(), 200);
        for slot in 0..200 {
            assert_eq!(ops.is_range(slot), slot % 3 == 0, "slot {slot}");
        }
        let cap_before = ops.points.capacity();
        ops.clear();
        assert!(ops.is_empty());
        assert_eq!(ops.points.capacity(), cap_before, "clear keeps capacity");
        // Refill after clear re-derives tags from scratch.
        ops.push_point(42);
        ops.push_range(1, 2);
        assert!(!ops.is_range(0) && ops.is_range(1));
        assert_eq!(
            ops.iter().collect::<Vec<_>>(),
            &[QueryOp::Point(42), QueryOp::Range(1, 2)]
        );
    }

    #[test]
    fn soa_in_place_settings() {
        let mut ops = QueryOps::new();
        ops.set_fetch_values(true);
        ops.set_chunk_size(0);
        assert!(ops.fetches_values());
        assert_eq!(ops.chunk_size(), None);
        ops.set_chunk_size(16);
        assert_eq!(ops.chunk_size(), Some(16));
    }
}
