//! The [`SecondaryIndex`] and [`UpdatableIndex`] traits.
//!
//! Every backend (RX and the three GPU baselines, plus the dynamic delta
//! index) implements [`SecondaryIndex`]; the experiment harness, the
//! examples and the acceptance tests drive them exclusively through
//! `Box<dyn SecondaryIndex>` trait objects obtained from the
//! [`Registry`](crate::registry::Registry).

use optix_sim::LaunchMetrics;

use crate::arena::ExecArena;
use crate::batch::{QueryBatch, QueryOps};
use crate::error::IndexError;
use crate::keys::{KeySchema, KeyTuple, TypedBatch};
use crate::shard::{RebalanceReport, ShardLoad};
use crate::types::{
    BatchOutcome, Capabilities, DurableStats, IndexBuildMetrics, MemoryUsage, QueryOutcome,
    UpdateReport,
};

/// A read-only secondary index over a `(key, optional value)` column pair.
///
/// Leaf backends implement the metadata methods, [`memory_usage`] and the
/// two homogeneous execution hooks ([`point_chunk`] / [`range_chunk`]);
/// the mixed-batch entry points are provided on top of them, so splitting,
/// chunking and result scattering behave identically across backends.
///
/// # Composition
///
/// A layer stacked on another backend (composite keys, durability)
/// returns that backend from [`inner`]. Every provided hook then forwards
/// through the link — shard load, durability stats, key schema, the chunk
/// hooks and the execute path — so a wrapper overrides only what it
/// changes. A leaf keeps the `None` default and with it the leaf
/// behaviour: empty hooks, the grouping executor, and chunk hooks that
/// fail with [`IndexError::UnsupportedOperation`] unless implemented.
///
/// [`memory_usage`]: SecondaryIndex::memory_usage
/// [`point_chunk`]: SecondaryIndex::point_chunk
/// [`range_chunk`]: SecondaryIndex::range_chunk
/// [`inner`]: SecondaryIndex::inner
pub trait SecondaryIndex: Send + Sync {
    /// Short display name ("RX", "HT", "B+", "SA", "RXD", or a sharded
    /// spec such as "RX@8") used in report tables and error messages.
    fn name(&self) -> &str;

    /// Number of indexed keys.
    fn key_count(&self) -> usize;

    /// Metrics captured while building.
    fn build_metrics(&self) -> IndexBuildMetrics;

    /// What the backend supports.
    fn capabilities(&self) -> Capabilities;

    /// Whether the index was built with a value column (required for
    /// batches submitted with [`QueryBatch::fetch_values`]).
    fn has_value_column(&self) -> bool;

    /// Structural memory breakdown (base / delta / tombstones / WAL
    /// buffer). A wrapper reports its inner backend's usage plus its own
    /// state (row mirrors, dictionaries, unsynced WAL bytes).
    fn memory_usage(&self) -> MemoryUsage;

    /// Total memory the index occupies: [`memory_usage`] summed over its
    /// components. Derived, never overridden.
    ///
    /// [`memory_usage`]: SecondaryIndex::memory_usage
    fn memory_bytes(&self) -> u64 {
        self.memory_usage().total()
    }

    /// The backend this layer wraps, or `None` for a leaf backend (and for
    /// layers over several backends, such as the sharded index). The
    /// provided hooks forward through this link.
    fn inner(&self) -> Option<&dyn SecondaryIndex> {
        None
    }

    /// Durability counters, or `None` for a memory-only index.
    fn durability_stats(&self) -> Option<DurableStats> {
        self.inner().and_then(|inner| inner.durability_stats())
    }

    /// Per-shard load snapshot (op and row counters), or `None` for an
    /// unsharded backend. The service layer polls this to surface a
    /// load-imbalance ratio and drive hot-shard rebalancing.
    fn shard_load(&self) -> Option<ShardLoad> {
        self.inner().and_then(|inner| inner.shard_load())
    }

    /// The typed key schema of this index, or `None` for a raw-`u64` index
    /// (whose implicit schema is `{u64}`).
    fn key_schema(&self) -> Option<&KeySchema> {
        self.inner().and_then(|inner| inner.key_schema())
    }

    /// Executes a typed batch: point, range and prefix-range operations
    /// over the index's [`KeySchema`], compiled into encoded `u64`
    /// operations before any backend hook runs.
    ///
    /// The default compiles against [`key_schema`](SecondaryIndex::key_schema)
    /// (falling back to the implicit `{u64}` schema), which covers every
    /// single-limb direct-codec schema on every backend; wide multi-limb
    /// schemas need the dictionary state held by the composite wrapper,
    /// which overrides this, so reaching the default with one is an error
    /// telling the caller to build through the registry.
    fn execute_typed(&self, batch: &TypedBatch) -> Result<QueryOutcome, IndexError> {
        let compiled = match self.key_schema() {
            Some(schema) => schema.compile(batch)?,
            None => KeySchema::raw_u64().compile(batch)?,
        };
        self.execute(&compiled)
    }

    /// Executes one homogeneous chunk of point lookups.
    ///
    /// Execution hook called by the grouping executor; `fetch_values` is
    /// only ever true when
    /// [`has_value_column`](SecondaryIndex::has_value_column) is. Callers
    /// should prefer [`execute`](SecondaryIndex::execute).
    fn point_chunk(&self, queries: &[u64], fetch_values: bool) -> Result<BatchOutcome, IndexError> {
        match self.inner() {
            Some(inner) => inner.point_chunk(queries, fetch_values),
            None => Err(unsupported(self.name(), "point chunks")),
        }
    }

    /// Executes one homogeneous chunk of inclusive range lookups.
    ///
    /// Execution hook called by the grouping executor; only invoked when
    /// [`Capabilities::range_lookups`] is set.
    fn range_chunk(
        &self,
        ranges: &[(u64, u64)],
        fetch_values: bool,
    ) -> Result<BatchOutcome, IndexError> {
        match self.inner() {
            Some(inner) => inner.range_chunk(ranges, fetch_values),
            None => Err(unsupported(self.name(), "range chunks")),
        }
    }

    /// Executes a mixed batch: point and range lookups in one submission,
    /// with an optional value fetch.
    ///
    /// Equivalent to [`execute_in`](SecondaryIndex::execute_in) with a
    /// fresh throwaway [`ExecArena`]; callers on a hot path should hold an
    /// arena and call `execute_in` directly to skip the per-submission
    /// scratch allocations.
    fn execute(&self, batch: &QueryBatch) -> Result<QueryOutcome, IndexError> {
        self.execute_in(batch, &mut ExecArena::new())
    }

    /// Executes a mixed batch using caller-provided scratch: the batch is
    /// laid out as a [`QueryOps`] stream kept in `arena` (cleared and
    /// refilled — reuse is always safe) and handed to
    /// [`execute_ops_in`](SecondaryIndex::execute_ops_in).
    fn execute_in(
        &self,
        batch: &QueryBatch,
        arena: &mut ExecArena,
    ) -> Result<QueryOutcome, IndexError> {
        // Taken out for the call so the arena's grouping buffers stay
        // borrowable; put back afterwards to keep its capacity.
        let mut ops = std::mem::take(&mut arena.ops);
        ops.refill(batch);
        let result = self.execute_ops_in(&ops, arena);
        arena.ops = ops;
        result
    }

    /// Executes a structure-of-arrays op stream ([`QueryOps`]) using
    /// caller-provided scratch — the one execution body every other entry
    /// point reaches.
    ///
    /// A layer forwards to its [`inner`](SecondaryIndex::inner) backend.
    /// A leaf groups the stream inside `arena` (the dense point-key run is
    /// copied wholesale and only the order-tag bitmap is walked to derive
    /// the slot maps), splits each homogeneous run into chunks of at most
    /// [`QueryOps::chunk_size`] operations, executes the chunks through
    /// the chunk hooks — **concurrently** over the [`gpu_device`] worker
    /// pool when a run splits into ≥ 2 chunks — then merges their metrics
    /// and scatters the per-chunk results back into submission order.
    /// Scatter is by submission slot and metrics merge in chunk order, so
    /// the outcome is bit-identical to sequential execution. An inverted
    /// range (`lower > upper`) is empty by definition: its slot stays the
    /// pre-filled miss on every backend.
    fn execute_ops_in(
        &self,
        ops: &QueryOps,
        arena: &mut ExecArena,
    ) -> Result<QueryOutcome, IndexError> {
        match self.inner() {
            Some(inner) => inner.execute_ops_in(ops, arena),
            None => execute_grouped(self, ops, arena),
        }
    }
}

fn unsupported(backend: &str, operation: &'static str) -> IndexError {
    IndexError::UnsupportedOperation {
        backend: backend.to_string().into(),
        operation,
    }
}

/// The leaf execution body behind
/// [`execute_ops_in`](SecondaryIndex::execute_ops_in): validates the
/// request against the backend's capabilities, groups the stream into
/// `arena`, runs the point and range runs and scatters their results into
/// one submission-order outcome.
fn execute_grouped<I: SecondaryIndex + ?Sized>(
    index: &I,
    ops: &QueryOps,
    arena: &mut ExecArena,
) -> Result<QueryOutcome, IndexError> {
    let fetch = ops.fetches_values();
    if fetch && !index.has_value_column() {
        return Err(IndexError::NoValueColumn {
            backend: index.name().into(),
        });
    }
    if ops.range_count() > 0 && !index.capabilities().range_lookups {
        return Err(unsupported(index.name(), "range lookups"));
    }

    arena.clear();
    arena.point_keys.extend_from_slice(ops.points());
    let bounds = ops.ranges();
    let mut next_range = 0usize;
    for slot in 0..ops.len() {
        if ops.is_range(slot) {
            let (lower, upper) = bounds[next_range];
            next_range += 1;
            if lower <= upper {
                arena.range_slots.push(slot);
                arena.range_bounds.push((lower, upper));
            }
        } else {
            arena.point_slots.push(slot);
        }
    }

    let chunk = ops.chunk_size().unwrap_or(usize::MAX);
    let mut outcome = QueryOutcome {
        // Pre-fill with misses so a (buggy) backend that under-reports
        // can never leave a slot looking like a hit of rowID 0 — and
        // under-reporting is caught below regardless.
        results: vec![crate::types::LookupResult::miss(); ops.len()],
        metrics: LaunchMetrics::default(),
    };
    scatter_chunks(
        index.name(),
        &arena.point_slots,
        &mut outcome,
        chunk,
        |lo, hi| index.point_chunk(&arena.point_keys[lo..hi], fetch),
    )?;
    scatter_chunks(
        index.name(),
        &arena.range_slots,
        &mut outcome,
        chunk,
        |lo, hi| index.range_chunk(&arena.range_bounds[lo..hi], fetch),
    )?;
    Ok(outcome)
}

/// Runs one homogeneous operation run in chunks of at most `chunk`
/// operations, scattering every chunk's results into the submission-order
/// `slots` of `outcome` and merging the launch metrics.
///
/// A run that splits into ≥ 2 chunks executes them concurrently on the
/// shared [`gpu_device`] worker pool; because each chunk's results land in
/// its own submission slots and metrics are merged in chunk order after all
/// chunks return, the outcome is identical to sequential execution. Errors
/// are reported in chunk order so failure behaviour is deterministic too.
///
/// A backend whose chunk hook returns the wrong number of results is an
/// error, not silent data loss — `SecondaryIndex` is a public trait, so
/// this contract is enforced in release builds too.
fn scatter_chunks<F>(
    backend: &str,
    slots: &[usize],
    outcome: &mut QueryOutcome,
    chunk: usize,
    run: F,
) -> Result<(), IndexError>
where
    F: Fn(usize, usize) -> Result<BatchOutcome, IndexError> + Sync,
{
    if slots.is_empty() {
        return Ok(());
    }
    let chunks = slots.len().div_ceil(chunk.max(1));
    let parts: Vec<Result<BatchOutcome, IndexError>> = if chunks >= 2 {
        gpu_device::parallel_tasks(chunks, |c| {
            let lo = c * chunk;
            let hi = slots.len().min(lo + chunk);
            run(lo, hi)
        })
    } else {
        vec![run(0, slots.len())]
    };

    // Sequential scatter + metric merge in chunk order keeps the outcome
    // (and any error) deterministic regardless of execution interleaving.
    let mut lo = 0usize;
    for part in parts {
        let hi = slots.len().min(lo.saturating_add(chunk));
        let part = part?;
        if part.results.len() != hi - lo {
            return Err(IndexError::Backend {
                backend: backend.into(),
                message: format!(
                    "chunk returned {} results for {} operations",
                    part.results.len(),
                    hi - lo
                ),
            });
        }
        for (slot, result) in slots[lo..hi].iter().zip(part.results) {
            outcome.results[*slot] = result;
        }
        outcome.metrics.merge(&part.metrics);
        lo = hi;
    }
    Ok(())
}

/// A secondary index that additionally supports batched writes.
///
/// Mirrors the update model of the delta layer: inserts append fresh rows,
/// deletes remove every live row holding a key, upserts do both. Each batch
/// may trigger a structural reorganisation (compaction), reported in the
/// returned [`UpdateReport`].
///
/// The write-side hooks compose like the read side: a layer returns its
/// updatable inner backend from [`inner_updatable`] (read-only hooks) and
/// [`inner_mut`] (mutating hooks), and every provided hook forwards
/// through the link. A layer that must see every state change — a WAL —
/// keeps `inner_mut` at `None` and overrides the mutating hooks it logs.
/// The typed writes never forward: they encode and then call this layer's
/// own [`insert`](UpdatableIndex::insert) / [`delete`](UpdatableIndex::delete)
/// / [`upsert`](UpdatableIndex::upsert), so no layer's logging is skipped.
///
/// [`inner_updatable`]: UpdatableIndex::inner_updatable
/// [`inner_mut`]: UpdatableIndex::inner_mut
pub trait UpdatableIndex: SecondaryIndex {
    /// Inserts a batch of `(key, value)` rows.
    fn insert(&mut self, keys: &[u64], values: &[u64]) -> Result<UpdateReport, IndexError>;

    /// Deletes every live entry whose key appears in `keys` (all
    /// duplicates, wherever they live). Unknown keys are ignored.
    fn delete(&mut self, keys: &[u64]) -> Result<UpdateReport, IndexError>;

    /// Upserts a batch: every key's existing entries are deleted, then one
    /// fresh `(key, value)` row is inserted per pair.
    fn upsert(&mut self, keys: &[u64], values: &[u64]) -> Result<UpdateReport, IndexError>;

    /// The updatable backend this layer wraps, for the read-only write-side
    /// hooks ([`reorganisation_in_flight`], [`checkpoint_rows`]). `None`
    /// for leaves.
    ///
    /// [`reorganisation_in_flight`]: UpdatableIndex::reorganisation_in_flight
    /// [`checkpoint_rows`]: UpdatableIndex::checkpoint_rows
    fn inner_updatable(&self) -> Option<&dyn UpdatableIndex> {
        None
    }

    /// The updatable backend this layer wraps, for the mutating hooks
    /// (reorganisation, compaction, checkpoint, rebalance). `None` for
    /// leaves and for layers that log every mutation themselves.
    fn inner_mut(&mut self) -> Option<&mut dyn UpdatableIndex> {
        None
    }

    /// Inserts a batch of typed `(tuple, value)` rows, encoding each tuple
    /// against the index's schema first. The default covers direct-codec
    /// schemas (including the implicit `{u64}`); the composite wrapper
    /// overrides it to allocate dictionary slots for wide schemas.
    fn insert_rows(
        &mut self,
        rows: &[KeyTuple],
        values: &[u64],
    ) -> Result<UpdateReport, IndexError> {
        let keys = typed_write_schema(self).encode_rows(rows)?;
        self.insert(&keys, values)
    }

    /// Deletes every live entry matching one of the typed tuples. Unknown
    /// tuples are ignored, mirroring [`delete`](UpdatableIndex::delete).
    fn delete_rows(&mut self, rows: &[KeyTuple]) -> Result<UpdateReport, IndexError> {
        let keys = typed_write_schema(self).encode_rows(rows)?;
        self.delete(&keys)
    }

    /// Upserts a batch of typed `(tuple, value)` rows (see
    /// [`upsert`](UpdatableIndex::upsert)).
    fn upsert_rows(
        &mut self,
        rows: &[KeyTuple],
        values: &[u64],
    ) -> Result<UpdateReport, IndexError> {
        let keys = typed_write_schema(self).encode_rows(rows)?;
        self.upsert(&keys, values)
    }

    /// Lands any *completed* deferred reorganisation (e.g. a background
    /// compaction whose swap is ready) without blocking, returning how many
    /// landed. A leaf without deferred reorganisation lands nothing.
    ///
    /// Durable wrappers call this *before* logging each update batch so the
    /// swap point becomes an explicit WAL record and replay can reproduce
    /// the exact structural state.
    fn poll_reorganisation(&mut self) -> Result<u64, IndexError> {
        self.inner_mut()
            .map_or(Ok(0), |inner| inner.poll_reorganisation())
    }

    /// Waits for any in-flight deferred reorganisation to complete and
    /// lands it, returning how many landed. Leaf default: nothing to wait
    /// for.
    fn await_reorganisation(&mut self) -> Result<u64, IndexError> {
        self.inner_mut()
            .map_or(Ok(0), |inner| inner.await_reorganisation())
    }

    /// True while a deferred reorganisation (background compaction rebuild)
    /// is in flight but has not landed. Durable wrappers compare this
    /// before and after a batch to detect the *freeze* point and annotate
    /// their log. Leaf default: never.
    fn reorganisation_in_flight(&self) -> bool {
        self.inner_updatable()
            .is_some_and(|inner| inner.reorganisation_in_flight())
    }

    /// Forces a full synchronous reorganisation (merge delta + drop
    /// tombstones), making the structural state canonical. Leaves without
    /// an explicit compaction report `UnsupportedOperation`.
    fn compact(&mut self) -> Result<UpdateReport, IndexError> {
        if let Some(inner) = self.inner_mut() {
            return inner.compact();
        }
        Err(unsupported(self.name(), "explicit compaction"))
    }

    /// The live `(key, value)` rows in rowID order — but only when the
    /// index is in a *clean* state: empty delta, no tombstones, rowIDs
    /// dense `0..n`, so that a fresh build over exactly these columns
    /// reproduces the index (the snapshot contract). Returns `None` in any
    /// dirty state; callers compact first. Valueless indexes report 0
    /// values. A leaf returning `None` is non-snapshottable.
    fn checkpoint_rows(&self) -> Option<Vec<(u64, u64)>> {
        self.inner_updatable()
            .and_then(|inner| inner.checkpoint_rows())
    }

    /// Asks a durable wrapper to snapshot now (compacting first if
    /// needed) and truncate its WAL, returning the number of snapshots
    /// written. A memory-only index has nothing to do. `rtx-serve` routes
    /// `ClientHandle::checkpoint` here through the write fence.
    fn checkpoint(&mut self) -> Result<u64, IndexError> {
        self.inner_mut().map_or(Ok(0), |inner| inner.checkpoint())
    }

    /// Rebalances row placement across shards when the backend detects a
    /// sustained load imbalance (see
    /// [`shard_load`](SecondaryIndex::shard_load)), migrating rows from hot
    /// shards to cold ones while preserving every global rowID. An
    /// unsharded leaf has nothing to move and reports an empty pass; a
    /// layer that cannot migrate safely reports `UnsupportedOperation`.
    /// `rtx-serve` calls this through the write fence, so reads never
    /// observe a half-migrated layout.
    fn rebalance_shards(&mut self) -> Result<RebalanceReport, IndexError> {
        self.inner_mut()
            .map_or(Ok(RebalanceReport::default()), |inner| {
                inner.rebalance_shards()
            })
    }
}

/// The schema the provided typed-write defaults encode against: the
/// index's own schema, or the implicit `{u64}` for legacy indexes.
fn typed_write_schema<I: UpdatableIndex + ?Sized>(index: &I) -> KeySchema {
    index
        .key_schema()
        .cloned()
        .unwrap_or_else(KeySchema::raw_u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{LookupResult, MISS};

    /// A trivial in-memory backend used to exercise the provided `execute`.
    struct VecIndex {
        keys: Vec<u64>,
        values: Option<Vec<u64>>,
        ranges: bool,
        /// Chunk sizes observed by the execution hooks.
        chunks_seen: std::sync::Mutex<Vec<usize>>,
    }

    impl VecIndex {
        fn lookup<F: Fn(u64) -> bool>(&self, qualifies: F, fetch: bool) -> LookupResult {
            let mut r = LookupResult::miss();
            for (row, &k) in self.keys.iter().enumerate() {
                if qualifies(k) {
                    r.first_row = r.first_row.min(row as u32);
                    r.hit_count += 1;
                    if fetch {
                        if let Some(v) = &self.values {
                            r.value_sum = r.value_sum.wrapping_add(v[row]);
                        }
                    }
                }
            }
            r
        }
    }

    impl SecondaryIndex for VecIndex {
        fn name(&self) -> &str {
            "VEC"
        }
        fn key_count(&self) -> usize {
            self.keys.len()
        }
        fn memory_usage(&self) -> MemoryUsage {
            MemoryUsage::base_only((self.keys.len() * 8) as u64)
        }
        fn build_metrics(&self) -> IndexBuildMetrics {
            IndexBuildMetrics::default()
        }
        fn capabilities(&self) -> Capabilities {
            Capabilities {
                range_lookups: self.ranges,
                ..Capabilities::read_only()
            }
        }
        fn has_value_column(&self) -> bool {
            self.values.is_some()
        }
        fn point_chunk(&self, queries: &[u64], fetch: bool) -> Result<BatchOutcome, IndexError> {
            self.chunks_seen.lock().unwrap().push(queries.len());
            Ok(BatchOutcome {
                results: queries
                    .iter()
                    .map(|&q| self.lookup(|k| k == q, fetch))
                    .collect(),
                metrics: LaunchMetrics {
                    simulated_time_s: 1.0,
                    ..Default::default()
                },
            })
        }
        fn range_chunk(
            &self,
            ranges: &[(u64, u64)],
            fetch: bool,
        ) -> Result<BatchOutcome, IndexError> {
            self.chunks_seen.lock().unwrap().push(ranges.len());
            Ok(BatchOutcome {
                results: ranges
                    .iter()
                    .map(|&(l, u)| self.lookup(|k| k >= l && k <= u, fetch))
                    .collect(),
                metrics: LaunchMetrics {
                    simulated_time_s: 0.5,
                    ..Default::default()
                },
            })
        }
    }

    fn vec_index(ranges: bool) -> VecIndex {
        VecIndex {
            keys: vec![5, 1, 9, 5],
            values: Some(vec![50, 10, 90, 51]),
            ranges,
            chunks_seen: std::sync::Mutex::new(Vec::new()),
        }
    }

    #[test]
    fn mixed_batch_preserves_submission_order() {
        let ix = vec_index(true);
        let batch = QueryBatch::new()
            .point(1)
            .range(4, 9)
            .point(7)
            .range(0, 0)
            .fetch_values(true);
        let out = ix.execute(&batch).unwrap();
        assert_eq!(out.results.len(), 4);
        assert_eq!(out.results[0].first_row, 1);
        assert_eq!(out.results[0].value_sum, 10);
        assert_eq!(out.results[1].hit_count, 3, "5, 9 and the duplicate 5");
        assert_eq!(out.results[1].value_sum, 191);
        assert_eq!(out.results[2].first_row, MISS);
        assert_eq!(out.results[3].hit_count, 0);
        // One point launch + one range launch, metrics merged.
        assert!((out.metrics.simulated_time_s - 1.5).abs() < 1e-12);
    }

    #[test]
    fn chunked_execution_matches_unchunked() {
        let ix = vec_index(true);
        let queries: Vec<u64> = (0..10).collect();
        let whole = ix
            .execute(&QueryBatch::of_points(&queries).fetch_values(true))
            .unwrap();
        let chunked = ix
            .execute(
                &QueryBatch::of_points(&queries)
                    .fetch_values(true)
                    .with_chunk_size(3),
            )
            .unwrap();
        assert_eq!(whole.results, chunked.results);
        // 10 points in chunks of 3 -> 4 launches after the initial whole run.
        let seen = ix.chunks_seen.lock().unwrap().clone();
        assert_eq!(seen, vec![10, 3, 3, 3, 1]);
        // Chunked execution pays one simulated launch per chunk.
        assert!(chunked.metrics.simulated_time_s > whole.metrics.simulated_time_s);
    }

    #[test]
    fn range_on_incapable_backend_is_a_uniform_error() {
        let ix = vec_index(false);
        let err = ix
            .execute(&QueryBatch::new().point(1).range(0, 9))
            .unwrap_err();
        assert_eq!(
            err,
            IndexError::UnsupportedOperation {
                backend: "VEC".into(),
                operation: "range lookups",
            }
        );
        // Point-only batches still work.
        assert_eq!(
            ix.execute(&QueryBatch::new().point(1)).unwrap().hit_count(),
            1
        );
    }

    #[test]
    fn value_fetch_without_column_errors() {
        let mut ix = vec_index(true);
        ix.values = None;
        let err = ix
            .execute(&QueryBatch::new().point(1).fetch_values(true))
            .unwrap_err();
        assert!(matches!(err, IndexError::NoValueColumn { .. }));
    }

    #[test]
    fn inverted_ranges_answer_empty_without_reaching_the_backend() {
        let ix = vec_index(true);
        let out = ix
            .execute(&QueryBatch::new().range(9, 3).point(1).range(5, 5))
            .unwrap();
        assert_eq!(out.results[0], LookupResult::miss());
        assert_eq!(out.results[1].first_row, 1);
        assert_eq!(out.results[2].hit_count, 2, "5 and its duplicate");
        // The inverted range was never forwarded: one point launch plus one
        // single-operation range launch.
        assert_eq!(*ix.chunks_seen.lock().unwrap(), vec![1, 1]);

        // On a backend without range support even an inverted range is still
        // a range operation and fails uniformly.
        let err = ix_without_ranges_err();
        assert_eq!(
            err,
            IndexError::UnsupportedOperation {
                backend: "VEC".into(),
                operation: "range lookups",
            }
        );
    }

    fn ix_without_ranges_err() -> IndexError {
        vec_index(false)
            .execute(&QueryBatch::new().range(9, 3))
            .unwrap_err()
    }

    #[test]
    fn empty_batch_executes_to_empty_outcome() {
        let ix = vec_index(true);
        let out = ix.execute(&QueryBatch::new()).unwrap();
        assert!(out.results.is_empty());
        assert_eq!(out.metrics.simulated_time_s, 0.0);
        assert_eq!(ix.chunks_seen.lock().unwrap().len(), 0, "no launch");
    }
}
