//! In-memory span recording for the traced run, and the forwarding wrapper
//! that puts span boundaries around layers the benchmark cannot call
//! directly.
//!
//! A span has a name, a start, an end, a parent span and a request id.
//! Spans are kept in memory while the run measures and written out once at
//! the end. A layer's self time is its span minus the part of that
//! interval its child spans cover.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use rtindex::optix_sim::LaunchMetrics;
use rtindex::rtx_query::{
    BatchOutcome, Capabilities, DurableStats, ExecArena, IndexBuildMetrics, IndexError, KeySchema,
    KeyTuple, MemoryUsage, QueryBatch, QueryOps, QueryOutcome, RebalanceReport, SecondaryIndex,
    ShardLoad, TypedBatch, UpdatableIndex, UpdateReport,
};
use rtindex::{DynamicRtConfig, Registry};

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The process-wide span store. Disabled (the default) it records nothing
/// and every hook is one relaxed load.
pub struct Tracer {
    enabled: AtomicBool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    /// The innermost open span of the single thread that owns the traced
    /// backend (the coalescer or the direct caller). Worker-pool threads
    /// running shard or chunk work below it read it as their parent.
    active: AtomicU64,
    /// The last launch metrics and durability counters seen at the
    /// wrapped backend boundary.
    launch: Mutex<LaunchMetrics>,
    durability: Mutex<Option<DurableStats>>,
}

static TRACER: OnceLock<Tracer> = OnceLock::new();

pub fn tracer() -> &'static Tracer {
    TRACER.get_or_init(|| Tracer {
        enabled: AtomicBool::new(false),
        epoch: Instant::now(),
        next_id: AtomicU64::new(1),
        spans: Mutex::new(Vec::new()),
        active: AtomicU64::new(0),
        launch: Mutex::new(LaunchMetrics::default()),
        durability: Mutex::new(None),
    })
}

/// An open span; records itself when dropped.
pub struct SpanGuard {
    span: Option<Span>,
    restore_active: Option<u64>,
}

impl SpanGuard {
    fn id(&self) -> u64 {
        self.span.map_or(0, |s| s.id)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let t = tracer();
        if let Some(mut span) = self.span.take() {
            span.end_ns = t.now_ns();
            t.spans.lock().expect("span store poisoned").push(span);
        }
        if let Some(previous) = self.restore_active {
            t.active.store(previous, Ordering::Relaxed);
        }
    }
}

impl Tracer {
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn ns_of(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn new_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Opens a span under `parent` for `request`.
    fn span(&self, name: &'static str, parent: u64, request: u64) -> SpanGuard {
        if !self.enabled() {
            return SpanGuard {
                span: None,
                restore_active: None,
            };
        }
        SpanGuard {
            span: Some(Span {
                name,
                id: self.new_id(),
                parent,
                request,
                start_ns: self.now_ns(),
                end_ns: 0,
            }),
            restore_active: None,
        }
    }

    /// Opens a span under the active span and makes it the active one
    /// until it closes.
    pub fn enter(&self, name: &'static str) -> SpanGuard {
        let parent = self.active.load(Ordering::Relaxed);
        let mut guard = self.span(name, parent, parent);
        if guard.span.is_some() {
            guard.restore_active = Some(self.active.swap(guard.id(), Ordering::Relaxed));
        }
        guard
    }

    /// Opens a span under the active span without taking it over (for
    /// work fanned out to other threads).
    fn child(&self, name: &'static str) -> SpanGuard {
        let parent = self.active.load(Ordering::Relaxed);
        self.span(name, parent, parent)
    }

    /// Records an already measured span.
    pub fn record(&self, span: Span) {
        if self.enabled() {
            self.spans.lock().expect("span store poisoned").push(span);
        }
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span store poisoned"))
    }

    pub fn launch_totals(&self) -> LaunchMetrics {
        self.launch.lock().expect("launch totals poisoned").clone()
    }

    pub fn durability(&self) -> Option<DurableStats> {
        *self.durability.lock().expect("durability copy poisoned")
    }

    fn add_launch(&self, metrics: &LaunchMetrics) {
        self.launch
            .lock()
            .expect("launch totals poisoned")
            .merge(metrics);
    }

    /// Clears every recorded span and counter (between passes).
    pub fn reset(&self) {
        self.spans.lock().expect("span store poisoned").clear();
        *self.launch.lock().expect("launch totals poisoned") = LaunchMetrics::default();
        *self.durability.lock().expect("durability copy poisoned") = None;
        self.active.store(0, Ordering::Relaxed);
    }
}

/// Self time of every span named `name`: its duration minus the union of
/// its children's intervals (clipped to it), summed.
pub fn self_time_ns(spans: &[Span], name: &str) -> u64 {
    let mut children: std::collections::HashMap<u64, Vec<(u64, u64)>> = Default::default();
    for s in spans {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| {
            let covered = children
                .get(&s.id)
                .map_or(0, |c| union_ns(c, s.start_ns, s.end_ns));
            s.duration_ns().saturating_sub(covered)
        })
        .sum()
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
pub fn union_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|&(a, b)| a < b)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (a, b) in clipped {
        current = match current {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + current.map_or(0, |(a, b)| b - a)
}

/// Total duration of the spans named `name`.
pub fn total_ns(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_ns)
        .sum()
}

/// Share of root-span time (`root` names) that no child span covers.
pub fn unattributed_share(spans: &[Span], roots: &[&str]) -> f64 {
    let mut root_ns = 0u64;
    let mut uncovered = 0u64;
    for name in roots {
        root_ns += total_ns(spans, name);
        uncovered += self_time_ns(spans, name);
    }
    if root_ns == 0 {
        return f64::NAN;
    }
    uncovered as f64 / root_ns as f64
}

/// Writes the spans as tab-separated lines.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "name\tid\tparent\trequest\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.name, s.id, s.parent, s.request, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

/// Where a [`Traced`] wrapper sits, which decides how its spans link up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Seat {
    /// The backend a single owner thread calls (under the coalescer, or
    /// the direct caller's index): its execute/write spans become the
    /// active parent, and its launch and durability counters are copied
    /// into the tracer.
    Owner,
    /// A part reached from inside another layer, possibly on worker
    /// threads (a shard under the scatter, an index inside a table): its
    /// spans hang under the owner's active span.
    Part,
}

/// A forwarding implementation of [`SecondaryIndex`]/[`UpdatableIndex`]
/// that records a span around every call into the wrapped layer.
///
/// Every trait method is forwarded explicitly: a hook left to the trait
/// default would silently change what the wrapped layer does, which the
/// traced-run fidelity check would report as a counter mismatch.
pub struct Traced<I: ?Sized> {
    inner: Box<I>,
    seat: Seat,
    /// Span names for reads and writes at this seat.
    read_span: &'static str,
    write_span: &'static str,
}

impl<I: ?Sized> Traced<I> {
    pub fn new(
        inner: Box<I>,
        seat: Seat,
        read_span: &'static str,
        write_span: &'static str,
    ) -> Self {
        Traced {
            inner,
            seat,
            read_span,
            write_span,
        }
    }

    fn read(&self) -> SpanGuard {
        match self.seat {
            Seat::Owner => tracer().enter(self.read_span),
            Seat::Part => tracer().child(self.read_span),
        }
    }

    fn write(&self) -> SpanGuard {
        match self.seat {
            Seat::Owner => tracer().enter(self.write_span),
            Seat::Part => tracer().child(self.write_span),
        }
    }

    fn observe(&self, result: &Result<QueryOutcome, IndexError>) {
        if self.seat == Seat::Owner && tracer().enabled() {
            if let Ok(outcome) = result {
                tracer().add_launch(&outcome.metrics);
            }
        }
    }
}

macro_rules! forward_secondary {
    () => {
        fn name(&self) -> &str {
            self.inner.name()
        }

        fn key_count(&self) -> usize {
            self.inner.key_count()
        }

        fn memory_bytes(&self) -> u64 {
            self.inner.memory_bytes()
        }

        fn build_metrics(&self) -> IndexBuildMetrics {
            self.inner.build_metrics()
        }

        fn capabilities(&self) -> Capabilities {
            self.inner.capabilities()
        }

        fn has_value_column(&self) -> bool {
            self.inner.has_value_column()
        }

        fn memory_usage(&self) -> MemoryUsage {
            self.inner.memory_usage()
        }

        fn durability_stats(&self) -> Option<DurableStats> {
            let stats = self.inner.durability_stats();
            if self.seat == Seat::Owner {
                *tracer()
                    .durability
                    .lock()
                    .expect("durability copy poisoned") = stats;
            }
            stats
        }

        fn shard_load(&self) -> Option<ShardLoad> {
            self.inner.shard_load()
        }

        fn key_schema(&self) -> Option<&KeySchema> {
            self.inner.key_schema()
        }

        fn execute_typed(&self, batch: &TypedBatch) -> Result<QueryOutcome, IndexError> {
            let _span = self.read();
            let result = self.inner.execute_typed(batch);
            self.observe(&result);
            result
        }

        fn point_chunk(
            &self,
            queries: &[u64],
            fetch_values: bool,
        ) -> Result<BatchOutcome, IndexError> {
            self.inner.point_chunk(queries, fetch_values)
        }

        fn range_chunk(
            &self,
            ranges: &[(u64, u64)],
            fetch_values: bool,
        ) -> Result<BatchOutcome, IndexError> {
            self.inner.range_chunk(ranges, fetch_values)
        }

        fn execute(&self, batch: &QueryBatch) -> Result<QueryOutcome, IndexError> {
            let _span = self.read();
            let result = self.inner.execute(batch);
            self.observe(&result);
            result
        }

        fn execute_in(
            &self,
            batch: &QueryBatch,
            arena: &mut ExecArena,
        ) -> Result<QueryOutcome, IndexError> {
            let _span = self.read();
            let result = self.inner.execute_in(batch, arena);
            self.observe(&result);
            result
        }

        fn execute_ops_in(
            &self,
            ops: &QueryOps,
            arena: &mut ExecArena,
        ) -> Result<QueryOutcome, IndexError> {
            let _span = self.read();
            let result = self.inner.execute_ops_in(ops, arena);
            self.observe(&result);
            result
        }
    };
}

impl SecondaryIndex for Traced<dyn SecondaryIndex> {
    forward_secondary!();
}

impl SecondaryIndex for Traced<dyn UpdatableIndex> {
    forward_secondary!();
}

impl UpdatableIndex for Traced<dyn UpdatableIndex> {
    fn insert(&mut self, keys: &[u64], values: &[u64]) -> Result<UpdateReport, IndexError> {
        let _span = self.write();
        self.inner.insert(keys, values)
    }

    fn delete(&mut self, keys: &[u64]) -> Result<UpdateReport, IndexError> {
        let _span = self.write();
        self.inner.delete(keys)
    }

    fn upsert(&mut self, keys: &[u64], values: &[u64]) -> Result<UpdateReport, IndexError> {
        let _span = self.write();
        self.inner.upsert(keys, values)
    }

    fn insert_rows(
        &mut self,
        rows: &[KeyTuple],
        values: &[u64],
    ) -> Result<UpdateReport, IndexError> {
        let _span = self.write();
        self.inner.insert_rows(rows, values)
    }

    fn delete_rows(&mut self, rows: &[KeyTuple]) -> Result<UpdateReport, IndexError> {
        let _span = self.write();
        self.inner.delete_rows(rows)
    }

    fn upsert_rows(
        &mut self,
        rows: &[KeyTuple],
        values: &[u64],
    ) -> Result<UpdateReport, IndexError> {
        let _span = self.write();
        self.inner.upsert_rows(rows, values)
    }

    fn poll_reorganisation(&mut self) -> Result<u64, IndexError> {
        self.inner.poll_reorganisation()
    }

    fn await_reorganisation(&mut self) -> Result<u64, IndexError> {
        self.inner.await_reorganisation()
    }

    fn reorganisation_in_flight(&self) -> bool {
        self.inner.reorganisation_in_flight()
    }

    fn compact(&mut self) -> Result<UpdateReport, IndexError> {
        let _span = self.write();
        self.inner.compact()
    }

    fn checkpoint_rows(&self) -> Option<Vec<(u64, u64)>> {
        self.inner.checkpoint_rows()
    }

    fn checkpoint(&mut self) -> Result<u64, IndexError> {
        let _span = self.write();
        self.inner.checkpoint()
    }

    fn rebalance_shards(&mut self) -> Result<RebalanceReport, IndexError> {
        let _span = self.write();
        self.inner.rebalance_shards()
    }
}

/// The full registry, except that every `RXD` instance it builds (alone,
/// as a shard under `@N`, or under `+wal:`) is wrapped in a [`Traced`]
/// part, so shard and per-index spans appear inside layers the benchmark
/// only reaches through the sharded, durable or table wrappers.
pub fn traced_registry() -> Arc<Registry> {
    let mut plain = Registry::new();
    rtindex::rtx_delta::register_dynamic(&mut plain, DynamicRtConfig::default());
    let plain = Arc::new(plain);
    let mut registry = rtindex::registry();
    registry.register_updatable("RXD", move |spec| {
        let inner = plain.build_updatable("RXD", spec)?;
        Ok(
            Box::new(Traced::new(inner, Seat::Part, "shard.read", "shard.write"))
                as Box<dyn UpdatableIndex>,
        )
    });
    Arc::new(registry)
}
