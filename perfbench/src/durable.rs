//! `durable_mix`: `QueryService::start_updatable` over `RXD@2+wal:` with the
//! registry's default fsync policy (`Always`), a closed-loop writer and an
//! open-loop Poisson reader.
//!
//! The writer sends 512-row batches: inserts of fresh keys above the
//! initial key space (4 in 10), deletes of the oldest fresh batch once
//! [`FRESH_LAG`] are live (4 in 10), and Zipf(0.99) upserts and deletes
//! (1 in 10 each) on the lowest 2^14 keys. The delta crosses the default
//! compaction trigger (2^16 live delta entries per shard) several times per
//! run, while the live key count stays within 2^17 of 2^20: the index's
//! size, and with it the cost of a write and the memory, does not depend
//! on how far a run got. The reader sends point+range batches on the other
//! initial keys, which the writer never touches, so every read is checked
//! as it returns. After the run the acknowledged writes are replayed into a
//! `DynamicOracle` and the final state of every key is checked.
//!
//! The key column holds the reader's keys first and the writer's last, so
//! each half is its own `DynamicOracle` with rowIDs offset by the reader
//! half's length. Replaying writes then costs O(writer rows) per batch
//! instead of O(all rows).

use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use rtindex::rtx_query::IndexBuildMetrics;
use rtindex::rtx_workloads::{dense_shuffled, value_column, DynamicOracle, ZipfSampler};
use rtindex::{registry, ClientHandle, IndexSpec, LookupResult, QueryBatch, QueryService};

use crate::client::{self, read_schedule};
use crate::layers::{build_layers, device_layers, service_layers, table_absent};
use crate::report::{self, latency_ms, percentile, ratio};
use crate::served::{owner, service_config};
use crate::trace::{self, tracer, Span};
use crate::{Ctx, Limit, Pass, Workload};

const KEYS: usize = 1 << 20;
/// Keys below this are the writer's; keys at or above it the reader's.
const WRITER_KEYS: u64 = 1 << 14;
/// The first fresh key inserts use; each pool batch has its own.
const FRESH_KEYS: u64 = KEYS as u64;
/// RowID of the first writer row: the reader's rows come first.
const WRITER_ROWS_AT: u32 = (KEYS as u64 - WRITER_KEYS) as u32;
const WRITE_ROWS: usize = 512;
const WRITE_POOL: usize = 4096;
/// Fresh insert batches live before the oldest is deleted: 2^17 rows, so
/// fresh keys reach the main index through a compaction (2^16 delta
/// entries per shard) before they are deleted. A delete of a key still in
/// the delta only cancels it there, and would never fill the delta.
const FRESH_LAG: usize = 256;
const READ_POINTS: usize = 16;
/// RXD range lookups scan the whole delta, so each range costs as much as
/// the delta is large. One per read keeps the reader's share of the CPU
/// small next to the writer's.
const READ_RANGES: usize = 1;
const RANGE_WIDTH: u64 = 16;
const READ_POOL: usize = 4096;
/// Reader arrivals per second: about 2000 latency samples per 20-s run.
const READ_RATE: f64 = 100.0;
/// Bytes of one written `(key, value)` row.
const ROW_BYTES: f64 = 16.0;

pub struct Durable;

#[derive(Clone, Copy)]
enum Kind {
    Upsert,
    Insert,
    Delete,
    /// Deletes the keys of an earlier `Insert`.
    DeleteFresh,
}

struct Write {
    kind: Kind,
    keys: Vec<u64>,
    values: Vec<u64>,
}

pub struct Inputs {
    keys: Vec<u64>,
    values: Vec<u64>,
    writes: Vec<Write>,
    reads: Vec<(Arc<QueryBatch>, Vec<LookupResult>)>,
    /// The reader's keys, which never change.
    reader_view: View,
}

pub struct State {
    service: Option<QueryService>,
    dir: PathBuf,
    build: IndexBuildMetrics,
    exposes_shard_load: bool,
}

impl Drop for State {
    fn drop(&mut self) {
        drop(self.service.take());
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Per-key aggregate answers over an oracle's live entries, for checking
/// point and range reads without scanning every entry per lookup.
struct View(BTreeMap<u64, LookupResult>);

impl View {
    /// The oracle's answers, its rowIDs shifted by `row_offset`.
    fn of(oracle: &DynamicOracle, row_offset: u32) -> Self {
        let mut view = View(BTreeMap::new());
        for &(row, key, value) in oracle.live_entries() {
            view.add(row + row_offset, key, value);
        }
        view
    }

    fn add(&mut self, row: u32, key: u64, value: u64) {
        let e = self.0.entry(key).or_insert_with(LookupResult::miss);
        e.first_row = e.first_row.min(row);
        e.hit_count += 1;
        e.value_sum = e.value_sum.wrapping_add(value);
    }

    fn range(&self, lower: u64, upper: u64) -> LookupResult {
        let mut r = LookupResult::miss();
        for hit in self.0.range(lower..=upper).map(|(_, h)| h) {
            r.merge(hit);
        }
        r
    }

    fn expected(&self, batch: &QueryBatch) -> Vec<LookupResult> {
        batch
            .ops()
            .iter()
            .map(|op| match *op {
                rtindex::rtx_query::QueryOp::Point(k) => self.range(k, k),
                rtindex::rtx_query::QueryOp::Range(lo, hi) => self.range(lo, hi),
            })
            .collect()
    }
}

static WAL_DIRS: AtomicUsize = AtomicUsize::new(0);

impl Workload for Durable {
    type Inputs = Inputs;
    type State = State;

    fn inputs(&self, ctx: &Ctx) -> Inputs {
        let reader_count = KEYS - WRITER_KEYS as usize;
        let mut keys: Vec<u64> = dense_shuffled(reader_count, ctx.seed)
            .into_iter()
            .map(|k| k + WRITER_KEYS)
            .collect();
        keys.extend(dense_shuffled(WRITER_KEYS as usize, ctx.seed ^ 0x5752));
        let values = value_column(KEYS, ctx.seed ^ 0x5641_4C55);
        // Hot writer keys are spread over the writer's keys by a seeded
        // permutation of Zipf ranks.
        let hot = dense_shuffled(WRITER_KEYS as usize, ctx.seed ^ 0x0048_4F54);
        let mut zipf = ZipfSampler::new(WRITER_KEYS as usize, 0.99, ctx.seed ^ 0x5752_4954);
        let kinds = value_column(WRITE_POOL, ctx.seed ^ 0x4B49_4E44);
        let mut writes: Vec<Write> = Vec::with_capacity(WRITE_POOL);
        // Insert batches whose keys are live, oldest first.
        let mut live_fresh = VecDeque::new();
        for (i, kind) in kinds.iter().enumerate() {
            let values = value_column(WRITE_ROWS, ctx.seed ^ ((i as u64) << 20));
            let write = match kind % 10 {
                4..=7 if live_fresh.len() > FRESH_LAG => {
                    let oldest: usize = live_fresh.pop_front().expect("checked non-empty");
                    Write {
                        kind: Kind::DeleteFresh,
                        keys: writes[oldest].keys.clone(),
                        values,
                    }
                }
                0..=7 => {
                    live_fresh.push_back(i);
                    Write {
                        kind: Kind::Insert,
                        keys: (0..WRITE_ROWS)
                            .map(|j| FRESH_KEYS + (i * WRITE_ROWS + j) as u64)
                            .collect(),
                        values,
                    }
                }
                k => Write {
                    kind: if k == 8 { Kind::Upsert } else { Kind::Delete },
                    keys: zipf
                        .sample_many(WRITE_ROWS)
                        .into_iter()
                        .map(|rank| hot[rank])
                        .collect(),
                    values,
                },
            };
            writes.push(write);
        }
        let reader_view = View::of(
            &DynamicOracle::new(&keys[..reader_count], &values[..reader_count]),
            0,
        );
        let span = reader_count as u64;
        let picks = value_column(
            READ_POOL * (READ_POINTS + READ_RANGES),
            ctx.seed ^ 0x5245_4144,
        );
        let mut reads: Vec<(Arc<QueryBatch>, Vec<LookupResult>)> = picks
            .chunks(READ_POINTS + READ_RANGES)
            .map(|p| {
                let mut batch = QueryBatch::new().fetch_values(true);
                for &x in &p[..READ_POINTS] {
                    batch = batch.point(WRITER_KEYS + x % span);
                }
                for &x in &p[READ_POINTS..] {
                    let lo = WRITER_KEYS + x % (span - RANGE_WIDTH);
                    batch = batch.range(lo, lo + RANGE_WIDTH - 1);
                }
                let expected = reader_view.expected(&batch);
                (Arc::new(batch), expected)
            })
            .collect();
        if ctx.corrupt_oracle {
            reads[0].1[0].hit_count += 1;
        }
        Inputs {
            keys,
            values,
            writes,
            reads,
            reader_view,
        }
    }

    fn setup(&self, ctx: &Ctx, inputs: &Inputs, traced: bool) -> (State, f64) {
        let dir = ctx.fresh_dir(&format!("wal-{}", WAL_DIRS.fetch_add(1, Ordering::Relaxed)));
        let name = format!("RXD@2+wal:{}", dir.display());
        let started = Instant::now();
        let spec = IndexSpec::with_values(&ctx.device, &inputs.keys, &inputs.values);
        let backend = if traced {
            trace::traced_registry().build_updatable(&name, &spec)
        } else {
            registry().build_updatable(&name, &spec)
        }
        .expect("RXD@2+wal builds");
        let build = backend.build_metrics();
        let exposes_shard_load = backend.shard_load().is_some();
        let service = QueryService::start_updatable(owner(backend, traced), service_config());
        let secs = started.elapsed().as_secs_f64();
        let state = State {
            service: Some(service),
            dir,
            build,
            exposes_shard_load,
        };
        (state, secs)
    }

    fn measure(
        &self,
        ctx: &Ctx,
        inputs: &Inputs,
        mut state: State,
        limit: Limit,
        traced: bool,
    ) -> Result<Pass, String> {
        let service = state.service.take().expect("service runs until measured");
        let before = service.stats();
        let disk_before = report::disk_write_bytes();
        let cpu_before = report::process_cpu_s();
        let started = Instant::now();
        let writer_done = AtomicBool::new(false);
        let (writer, reader) = std::thread::scope(|scope| {
            let handle = service.handle();
            let writer_done = &writer_done;
            let writer = scope.spawn(move || {
                let result = write_loop(&handle, inputs, limit, started);
                writer_done.store(true, Ordering::SeqCst);
                result
            });
            let reader = read_loop(&service.handle(), inputs, writer_done, started, ctx.seed);
            (writer.join().expect("writer thread panicked"), reader)
        });
        let writer = writer?;
        let reader = reader?;
        let wall_s = started.elapsed().as_secs_f64();
        let cpu_s = report::process_cpu_s() - cpu_before;
        let peak_rss_kb = report::peak_rss_kb();
        let disk_bytes = report::disk_write_bytes()
            .zip(disk_before)
            .map(|(after, before)| after.saturating_sub(before));
        // Counters and spans cover the measured window only, not the final
        // state check below.
        let stats = service.stats();
        let launch = tracer().launch_totals();
        let spans = tracer().spans();

        let replayed = replay(inputs, writer.batches);
        check_final_state(&service.handle(), inputs, &replayed)?;
        drop(service);

        let rows = writer.rows as f64;
        let mut pass = Pass {
            work: writer.batches as u64,
            wall_s,
            attempted: writer.batches as u64 + reader.requests,
            failed: reader.failed,
            peak_rss_kb,
            ..Pass::default()
        };
        let m = &mut pass.metrics;
        latency_ms(m, "lookup", &reader.latencies);
        m.set("throughput_ops_s", rows / writer.wall_s, "ops/s");
        report::cpu_per_op(m, cpu_s, rows);
        latency_ms(m, "write", &writer.latencies);
        // The delta grows and compacts several times in a run, so the
        // memory at the moment the run stops depends on where in that cycle
        // it stopped; the mean over the run does not.
        let memory = if writer.memory.is_empty() {
            stats.memory.total() as f64
        } else {
            writer.memory.iter().sum::<f64>() / writer.memory.len() as f64
        };
        m.set(
            "index_bytes_per_key",
            memory / replayed.live_rows as f64,
            "B",
        );
        let write_batches = (stats.write_batches - before.write_batches) as f64;
        let compactions = (stats.write_reorganisations - before.write_reorganisations) as f64;
        let fsyncs = (stats.fsyncs - before.fsyncs) as f64;
        let snapshots = (stats.snapshots - before.snapshots) as f64;
        println!("compactions {compactions}");
        if compactions == 0.0 {
            // The workload exists to cross the compaction trigger; a pass
            // that never did measures something else.
            eprintln!("warning: durable_mix ran no compaction in this pass");
        }
        pass.fidelity = vec![
            ("delta.compactions", compactions),
            ("durable.fsyncs_per_write_batch", fsyncs / write_batches),
            ("durable.snapshots", snapshots),
        ];
        if traced {
            let l = &mut pass.layers;
            device_layers(l, &launch, stats.executed_ops - before.executed_ops);
            l.absent(
                "bvh.range_hits_per_prim_test",
                "share",
                "durable_mix fuses point and range reads into one launch",
            );
            build_layers(l, state.build);
            for (name, unit) in [
                ("query.point_ns_per_op", "ns"),
                ("query.range_ns_per_op", "ns"),
                ("query.launch_share", "share"),
            ] {
                l.absent(
                    name,
                    unit,
                    "durable_mix reaches rtx-query only inside the service",
                );
            }
            l.set(
                "shard.self_ns_per_op",
                trace::self_time_ns(&spans, "backend.execute") as f64
                    / (stats.executed_ops - before.executed_ops) as f64,
                "ns",
            );
            if state.exposes_shard_load {
                l.set(
                    "shard.imbalance_permille",
                    stats.shard_imbalance_permille as f64,
                    "permille",
                );
                l.set(
                    "shard.rebalanced_rows",
                    stats.rebalanced_rows as f64,
                    "count",
                );
            } else {
                let why = "RXD@2+wal: returns shard_load() == None, so the service never sees \
                           shard load or rebalances";
                l.absent("shard.imbalance_permille", "permille", why);
                l.absent("shard.rebalanced_rows", "count", why);
            }
            let busy = (trace::total_ns(&spans, "backend.execute")
                + trace::total_ns(&spans, "backend.write")) as f64;
            service_layers(l, &spans, &stats, Some(busy / (wall_s * 1e9)));
            l.set("delta.compactions", compactions, "count");
            l.set(
                "delta.bytes",
                (stats.memory.delta_bytes + stats.memory.tombstone_bytes) as f64,
                "B",
            );
            l.set(
                "durable.fsyncs_per_write_batch",
                fsyncs / write_batches,
                "count",
            );
            l.set(
                "durable.write_ns_per_row",
                trace::total_ns(&spans, "backend.write") as f64 / rows,
                "ns",
            );
            ratio(
                l,
                "durable.disk_bytes_per_user_byte",
                disk_bytes.unwrap_or(0) as f64,
                if disk_bytes.is_some() {
                    rows * ROW_BYTES
                } else {
                    0.0
                },
                "share",
                "/proc/self/io is not readable here",
            );
            l.set("durable.snapshots", snapshots, "count");
            l.set(
                "durable.snapshot_mb",
                tracer().durability().map_or(0, |d| d.last_snapshot_bytes) as f64
                    / (1 << 20) as f64,
                "MiB",
            );
            table_absent(l, "durable_mix has no table");
            l.set(
                "driver.late_p99_ms",
                percentile(&reader.lateness, 0.99) * 1e3,
                "ms",
            );
            l.set(
                "trace.unattributed_share",
                trace::unattributed_share(&spans, &["client.request", "client.write"]),
                "share",
            );
        }
        Ok(pass)
    }
}

struct Writer {
    batches: usize,
    rows: usize,
    /// Submit-to-acknowledgement latency per batch.
    latencies: Vec<f64>,
    /// Seconds from the start to the last acknowledgement.
    wall_s: f64,
    /// `MemoryUsage::total()` after every acknowledged batch once the live
    /// key count has stopped growing (the first delete of a fresh batch).
    memory: Vec<f64>,
}

fn write_loop(
    handle: &ClientHandle,
    inputs: &Inputs,
    limit: Limit,
    started: Instant,
) -> Result<Writer, String> {
    let mut out = Writer {
        batches: 0,
        rows: 0,
        latencies: Vec::new(),
        wall_s: 0.0,
        memory: Vec::new(),
    };
    let mut steady = false;
    let t = tracer();
    while !limit.reached(started, out.batches as u64) {
        let w = &inputs.writes[out.batches % WRITE_POOL];
        let sent = Instant::now();
        let result = match w.kind {
            Kind::Upsert => handle.upsert(&w.keys, &w.values),
            Kind::Insert => handle.insert(&w.keys, &w.values),
            Kind::Delete | Kind::DeleteFresh => handle.delete(&w.keys),
        };
        let acked = Instant::now();
        result.map_err(|e| format!("durable_mix write batch {} failed: {e}", out.batches))?;
        out.latencies.push((acked - sent).as_secs_f64());
        out.wall_s = (acked - started).as_secs_f64();
        out.batches += 1;
        out.rows += w.keys.len();
        steady |= matches!(w.kind, Kind::DeleteFresh);
        if steady {
            out.memory.push(handle.stats().memory.total() as f64);
        }
        if t.enabled() {
            let id = t.new_id();
            let span = |name, id, parent, to| Span {
                name,
                id,
                parent,
                request: id.max(parent),
                start_ns: t.ns_of(sent),
                end_ns: t.ns_of(to),
            };
            t.record(span("client.write", id, 0, Instant::now()));
            t.record(span("serve.write", t.new_id(), id, acked));
        }
    }
    Ok(out)
}

struct Reader {
    requests: u64,
    failed: u64,
    /// Latency from the due time, per answered read.
    latencies: Vec<f64>,
    /// Dispatcher lateness per read, in seconds.
    lateness: Vec<f64>,
}

/// Reads on a Poisson schedule until the writer finishes, checked as they
/// return; latency runs from each read's due time.
fn read_loop(
    handle: &ClientHandle,
    inputs: &Inputs,
    writer_done: &AtomicBool,
    started: Instant,
    seed: u64,
) -> Result<Reader, String> {
    let mut latencies = Vec::new();
    let mut failed = 0;
    let mut requests = 0;
    let lateness = client::open_loop(
        started,
        &read_schedule(READ_RATE, seed),
        &|| writer_done.load(Ordering::SeqCst),
        |i| client::submit(handle, &inputs.reads[i % READ_POOL].0),
        |i, due, request| {
            requests += 1;
            let expected = &inputs.reads[i % READ_POOL].1;
            let what = || format!("durable_mix read {i} (untouched keys)");
            match client::finish(request, expected, what)? {
                Some(done) => latencies.push((done - due).as_secs_f64()),
                None => failed += 1,
            }
            Ok(())
        },
    )?;
    Ok(Reader {
        requests,
        failed,
        latencies,
        lateness,
    })
}

/// The writer's keys after the first `batches` acknowledged writes.
struct Replayed {
    /// The upserted and deleted keys, from their `DynamicOracle`.
    hot: View,
    /// The live fresh keys.
    fresh: View,
    /// Every fresh key inserted, deleted since or not.
    fresh_keys: Vec<u64>,
    /// Live rows of the whole index.
    live_rows: usize,
}

/// Replays the acknowledged writes into a `DynamicOracle` over the writer's
/// rows (its rowIDs start at 0 where the index's start at
/// [`WRITER_ROWS_AT`]).
///
/// Fresh keys are never upserted, and deleted only by `DeleteFresh`. They
/// pass through the oracle only to take their rowIDs, and leave it again
/// before the next batch that scans it, so each upsert or delete costs
/// O(hot rows), not O(all rows).
fn replay(inputs: &Inputs, batches: usize) -> Replayed {
    let at = WRITER_ROWS_AT as usize;
    let mut oracle = DynamicOracle::new(&inputs.keys[at..], &inputs.values[at..]);
    let mut fresh = View(BTreeMap::new());
    let mut fresh_keys = Vec::new();
    let mut passing: Vec<u64> = Vec::new();
    for i in 0..batches {
        let w = &inputs.writes[i % WRITE_POOL];
        match w.kind {
            Kind::Insert => {
                oracle.insert_batch(&w.keys, &w.values);
                let entries = oracle.live_entries();
                for &(row, key, value) in &entries[entries.len() - w.keys.len()..] {
                    fresh.add(row + WRITER_ROWS_AT, key, value);
                }
                fresh_keys.extend_from_slice(&w.keys);
                passing.extend_from_slice(&w.keys);
                continue;
            }
            Kind::DeleteFresh => {
                for key in &w.keys {
                    fresh.0.remove(key);
                }
                continue;
            }
            Kind::Upsert | Kind::Delete => {}
        }
        if !passing.is_empty() {
            oracle.delete_batch(&passing);
            passing.clear();
        }
        match w.kind {
            Kind::Upsert => {
                oracle.upsert_batch(&w.keys, &w.values);
            }
            Kind::Delete => {
                oracle.delete_batch(&w.keys);
            }
            Kind::Insert | Kind::DeleteFresh => unreachable!("fresh keys handled above"),
        }
    }
    if !passing.is_empty() {
        oracle.delete_batch(&passing);
    }
    let fresh_rows: usize = fresh.0.values().map(|h| h.hit_count as usize).sum();
    Replayed {
        hot: View::of(&oracle, WRITER_ROWS_AT),
        live_rows: at + oracle.len() + fresh_rows,
        fresh,
        fresh_keys,
    }
}

/// Checks every key of the whole key space, and every fresh key inserted,
/// as a point lookup: the writer's against the replay, the reader's
/// against their unchanged initial state. (Range lookups scan the delta buffer, which would make
/// a range-based check take longer than the run.)
fn check_final_state(
    handle: &ClientHandle,
    inputs: &Inputs,
    replayed: &Replayed,
) -> Result<(), String> {
    let keys: Vec<u64> = (0..KEYS as u64)
        .chain(replayed.fresh_keys.iter().copied())
        .collect();
    for chunk in keys.chunks(1 << 14) {
        let got = handle
            .query(QueryBatch::of_points(chunk).fetch_values(true))
            .map_err(|e| format!("durable_mix final check failed: {e}"))?;
        for (&key, got) in chunk.iter().zip(&got.results) {
            let view = if key < WRITER_KEYS {
                &replayed.hot
            } else if key < FRESH_KEYS {
                &inputs.reader_view
            } else {
                &replayed.fresh
            };
            let want = view.range(key, key);
            if *got != want {
                return Err(format!(
                    "durable_mix final state of key {key}: got {got:?}, oracle {want:?}"
                ));
            }
        }
    }
    Ok(())
}
