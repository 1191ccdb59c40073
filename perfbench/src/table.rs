//! `table_ingest`: a `TableService` over `{id, ts, amount}` with
//! `id` → `RXD@2+wal:` and `ts` → `RXD+wal:`, one closed-loop ingest thread
//! sending CDC batches beside an open loop of 2-predicate `TableQuery`s (a
//! point on `id`, a short range on `ts`) at 200 a second.
//!
//! It is the only workload that exercises `rtx-table` (planner, row store,
//! rollback snapshot, per-batch rebuilds) and the table half of
//! `rtx-serve`. The table is kept well below 2^20 rows: a delete on the
//! non-primary `ts` index rebuilds it from the row store, O(rows) per batch.
//!
//! A query's answer depends on how many ingests the service applied before
//! it, which the ingester and the query dispatcher bound from both sides
//! (ingests acknowledged before the query was submitted, and ingests
//! submitted by the time it was enqueued). After the run every answer is
//! checked against the `TableOracle` at each state in its bound.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use rtindex::optix_sim::LaunchMetrics;
use rtindex::rtx_query::IndexBuildMetrics;
use rtindex::rtx_workloads::{
    ingest_batches, table_records, value_column, TableOracle, TableWorkloadConfig,
};
use rtindex::{
    registry, IngestBatch, LookupResult, Record, ServiceConfig, Table, TableClient, TableQuery,
    TableSchema, TableService,
};

use crate::client::{self, read_schedule};
use crate::layers::{build_layers, device_layers, service_layers, DURABLE_LAYERS};
use crate::report::{self, latency_ms, percentile, ratio};
use crate::trace::{self, tracer, Span};
use crate::{Ctx, Limit, Pass, Workload};

const ROWS: usize = 1 << 14;
const KEY_DOMAIN: u64 = 1 << 16;
const OPS_PER_INGEST: usize = 16;
const INGEST_POOL: usize = 2048;
const QUERY_POOL: usize = 4096;
/// Query arrivals per second.
const QUERY_RATE: f64 = 200.0;
/// `ts` range width: about 16 hits at the initial row density.
const RANGE_SPAN: u64 = 64;
const COLUMNS: usize = 3;
/// Bytes of one ingested record (three `u64` columns).
const RECORD_BYTES: f64 = 24.0;

pub struct TableIngest;

pub struct Inputs {
    records: Vec<Record>,
    ingests: Vec<IngestBatch>,
    queries: Vec<TableQuery>,
}

pub struct State {
    service: Option<TableService>,
    dir: PathBuf,
    schema: TableSchema,
    build: IndexBuildMetrics,
}

impl Drop for State {
    fn drop(&mut self) {
        drop(self.service.take());
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

static TABLE_DIRS: AtomicUsize = AtomicUsize::new(0);

impl Workload for TableIngest {
    type Inputs = Inputs;
    type State = State;

    fn inputs(&self, ctx: &Ctx) -> Inputs {
        let records = table_records(COLUMNS, ROWS, KEY_DOMAIN, ctx.seed);
        let ingests = ingest_batches(&TableWorkloadConfig {
            key_domain: KEY_DOMAIN,
            ..TableWorkloadConfig::uniform(COLUMNS, INGEST_POOL, OPS_PER_INGEST, ctx.seed)
        });
        let picks = value_column(QUERY_POOL * 2, ctx.seed ^ 0x5155_4552);
        let queries = picks
            .chunks(2)
            .map(|p| {
                let lo = p[1] % (KEY_DOMAIN - RANGE_SPAN);
                TableQuery::new()
                    .point("id", p[0] % KEY_DOMAIN)
                    .range("ts", lo, lo + RANGE_SPAN - 1)
                    .fetch_values(true)
            })
            .collect();
        Inputs {
            records,
            ingests,
            queries,
        }
    }

    fn setup(&self, ctx: &Ctx, inputs: &Inputs, traced: bool) -> (State, f64) {
        let dir = ctx.fresh_dir(&format!(
            "table-{}",
            TABLE_DIRS.fetch_add(1, Ordering::Relaxed)
        ));
        let schema = TableSchema::new(["id", "ts", "amount"])
            .with_value_column("amount")
            .with_index(
                "id",
                "id",
                format!("RXD@2+wal:{}", dir.join("id").display()),
            )
            .with_index("ts", "ts", format!("RXD+wal:{}", dir.join("ts").display()));
        let started = Instant::now();
        let registry = if traced {
            trace::traced_registry()
        } else {
            Arc::new(registry())
        };
        let table = Table::load(schema.clone(), &ctx.device, registry, &inputs.records)
            .expect("table loads");
        let mut build = IndexBuildMetrics::default();
        for name in ["id", "ts"] {
            let m = table
                .index_backend(name)
                .expect("index exists")
                .build_metrics();
            build.host_time += m.host_time;
            build.simulated_time_s += m.simulated_time_s;
            build.scratch_bytes += m.scratch_bytes;
        }
        let service = TableService::start(table, ServiceConfig::default());
        let secs = started.elapsed().as_secs_f64();
        let state = State {
            service: Some(service),
            dir,
            schema,
            build,
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
        let disk_before = report::disk_write_bytes();
        let progress = Progress::default();
        let cpu_before = report::process_cpu_s();
        let started = Instant::now();
        let (ingest, queries) = std::thread::scope(|scope| {
            let client = service.handle();
            let progress = &progress;
            let ingester = scope.spawn(move || {
                let result = ingest_loop(&client, inputs, limit, started, progress);
                progress.ingester_done.store(true, Ordering::SeqCst);
                result
            });
            let queries = query_loop(&service.handle(), inputs, progress, started, ctx.seed);
            (ingester.join().expect("ingest thread panicked"), queries)
        });
        let ingest = ingest?;
        let queries = queries?;
        let wall_s = started.elapsed().as_secs_f64();
        let cpu_s = report::process_cpu_s() - cpu_before;
        let peak_rss_kb = report::peak_rss_kb();
        let disk_bytes = report::disk_write_bytes()
            .zip(disk_before)
            .map(|(after, before)| after.saturating_sub(before));
        let stats = service.shutdown();
        let (mut oracle, folded) = check_answers(inputs, &state.schema, &ingest, &queries, ctx)?;
        for (i, ok) in ingest.applied.iter().enumerate().skip(folded) {
            if *ok {
                oracle.apply_batch(&inputs.ingests[i % INGEST_POOL]);
            }
        }

        let ingests = ingest.applied.len() as f64;
        let ok_ops = ingest.ops as f64;
        let predicates = queries.predicates as f64;
        let mut pass = Pass {
            work: ingest.applied.len() as u64,
            wall_s,
            attempted: ingest.applied.len() as u64 + queries.answers.len() as u64,
            failed: ingest.failed + queries.failed,
            peak_rss_kb,
            ..Pass::default()
        };
        let m = &mut pass.metrics;
        latency_ms(m, "lookup", &queries.latencies);
        m.set("throughput_ops_s", ok_ops / ingest.wall_s, "ops/s");
        report::cpu_per_op(m, cpu_s, ok_ops);
        latency_ms(m, "write", &ingest.latencies);
        m.set(
            "index_bytes_per_key",
            stats.memory.total() as f64 / oracle.row_count() as f64,
            "B",
        );
        let rebuilds = ingest.rebuilds as f64 / ingests;
        let routed = stats.routed_predicates as f64 / stats.planned_predicates as f64;
        pass.fidelity = vec![
            ("table.rebuilds_per_ingest", rebuilds),
            ("table.delta_ops", ingest.delta_ops as f64),
            ("table.routed_share", routed),
        ];
        if traced {
            let spans = tracer().spans();
            let l = &mut pass.layers;
            device_layers(l, &queries.launch, queries.predicates);
            l.absent(
                "bvh.range_hits_per_prim_test",
                "share",
                "a query's point and range predicates report one merged LaunchMetrics",
            );
            build_layers(l, state.build);
            let why = "table_ingest reaches rtx-query only inside the table";
            l.absent("query.point_ns_per_op", "ns", why);
            l.absent("query.range_ns_per_op", "ns", why);
            l.absent("query.launch_share", "share", why);
            l.absent(
                "shard.self_ns_per_op",
                "ns",
                "the sharded id index sits inside the table; no span separates it from the planner",
            );
            let why = "TableService does not poll shard load or rebalance";
            l.absent("shard.imbalance_permille", "permille", why);
            l.absent("shard.rebalanced_rows", "count", why);
            service_layers(l, &spans, &stats, None);
            let why = "TableService mirrors only the table's total bytes, not index internals";
            l.absent("delta.compactions", "count", why);
            l.absent("delta.bytes", "B", why);
            for (name, unit) in DURABLE_LAYERS {
                if name == "durable.disk_bytes_per_user_byte" {
                    ratio(
                        l,
                        name,
                        disk_bytes.unwrap_or(0) as f64,
                        if disk_bytes.is_some() {
                            ok_ops * RECORD_BYTES
                        } else {
                            0.0
                        },
                        unit,
                        "/proc/self/io is not readable here",
                    );
                } else {
                    l.absent(
                        name,
                        unit,
                        "TableService does not surface durability counters",
                    );
                }
            }
            l.set(
                "table.ingest_ns_per_op",
                trace::total_ns(&spans, "serve.ingest") as f64 / ok_ops,
                "ns",
            );
            l.set("table.rebuilds_per_ingest", rebuilds, "count");
            l.set(
                "table.delta_ops_per_ingest",
                ingest.delta_ops as f64 / ingests,
                "count",
            );
            l.set(
                "table.query_ns_per_predicate",
                (trace::total_ns(&spans, "serve.submit") + trace::total_ns(&spans, "serve.wait"))
                    as f64
                    / predicates,
                "ns",
            );
            l.set("table.routed_share", routed, "share");
            l.set(
                "driver.late_p99_ms",
                percentile(&queries.lateness, 0.99) * 1e3,
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

/// Ingests submitted (counted before each is enqueued) and acknowledged,
/// and whether the ingester has finished.
#[derive(Default)]
struct Progress {
    submitted: AtomicU64,
    acked: AtomicU64,
    ingester_done: AtomicBool,
}

struct Ingest {
    /// Per ingest in order: whether it applied (a failed one rolled back).
    applied: Vec<bool>,
    ops: u64,
    failed: u64,
    rebuilds: u64,
    delta_ops: u64,
    /// Submit-to-acknowledgement latency per applied ingest.
    latencies: Vec<f64>,
    /// Seconds from the start to the last acknowledgement.
    wall_s: f64,
}

fn ingest_loop(
    client: &TableClient,
    inputs: &Inputs,
    limit: Limit,
    started: Instant,
    progress: &Progress,
) -> Result<Ingest, String> {
    let mut out = Ingest {
        applied: Vec::new(),
        ops: 0,
        failed: 0,
        rebuilds: 0,
        delta_ops: 0,
        latencies: Vec::new(),
        wall_s: 0.0,
    };
    let t = tracer();
    while !limit.reached(started, out.applied.len() as u64) {
        let batch = &inputs.ingests[out.applied.len() % INGEST_POOL];
        progress.submitted.fetch_add(1, Ordering::SeqCst);
        let sent = Instant::now();
        let result = client.ingest(batch.clone());
        let acked = Instant::now();
        progress.acked.fetch_add(1, Ordering::SeqCst);
        out.wall_s = (acked - started).as_secs_f64();
        match result {
            Ok(report) => {
                out.ops += batch.len() as u64;
                out.rebuilds += report.rebuilt_indexes;
                out.delta_ops += report.delta_ops;
                out.latencies.push((acked - sent).as_secs_f64());
                out.applied.push(true);
            }
            Err(_) => {
                out.failed += 1;
                out.applied.push(false);
            }
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
            t.record(span("serve.ingest", t.new_id(), id, acked));
        }
    }
    Ok(out)
}

struct Answer {
    query: usize,
    /// The answer reflects between `lo` and `hi` applied ingests.
    lo: u64,
    hi: u64,
    results: Vec<LookupResult>,
}

struct Queries {
    answers: Vec<Answer>,
    predicates: u64,
    failed: u64,
    /// Latency from the due time, per answered query.
    latencies: Vec<f64>,
    /// Dispatcher lateness per query, in seconds.
    lateness: Vec<f64>,
    launch: LaunchMetrics,
}

/// Queries on a Poisson schedule until the ingester finishes, keeping every
/// answer for the check; latency runs from each query's due time.
fn query_loop(
    client: &TableClient,
    inputs: &Inputs,
    progress: &Progress,
    started: Instant,
    seed: u64,
) -> Result<Queries, String> {
    let mut out = Queries {
        answers: Vec::new(),
        predicates: 0,
        failed: 0,
        latencies: Vec::new(),
        lateness: Vec::new(),
        launch: LaunchMetrics::default(),
    };
    let t = tracer();
    out.lateness = client::open_loop(
        started,
        &read_schedule(QUERY_RATE, seed),
        &|| progress.ingester_done.load(Ordering::SeqCst),
        |i| {
            let lo = progress.acked.load(Ordering::SeqCst);
            let sent = Instant::now();
            let pending = client.submit(inputs.queries[i % QUERY_POOL].clone());
            let submitted = Instant::now();
            let hi = progress.submitted.load(Ordering::SeqCst);
            (lo, hi, sent, submitted, pending)
        },
        |i, due, (lo, hi, sent, submitted, pending)| {
            let query = &inputs.queries[i % QUERY_POOL];
            let Ok(outcome) = pending.and_then(|p| p.wait()) else {
                out.failed += 1;
                return Ok(());
            };
            let done = Instant::now();
            out.latencies.push((done - due).as_secs_f64());
            out.predicates += query.len() as u64;
            out.launch.merge(&outcome.metrics);
            out.answers.push(Answer {
                query: i % QUERY_POOL,
                lo,
                hi,
                results: outcome.results,
            });
            if t.enabled() {
                let id = t.new_id();
                let span = |name, id, parent, from, to| Span {
                    name,
                    id,
                    parent,
                    request: id.max(parent),
                    start_ns: t.ns_of(from),
                    end_ns: t.ns_of(to),
                };
                t.record(span("client.request", id, 0, sent, Instant::now()));
                t.record(span("serve.submit", t.new_id(), id, sent, submitted));
                t.record(span("serve.wait", t.new_id(), id, submitted, done));
            }
            Ok(())
        },
    )?;
    Ok(out)
}

/// Checks every answer against the oracle at each state its bound allows,
/// walking the ingest stream once. Returns the oracle at the last state
/// any answer needed, and how many ingests are folded into it.
fn check_answers(
    inputs: &Inputs,
    schema: &TableSchema,
    ingest: &Ingest,
    queries: &Queries,
    ctx: &Ctx,
) -> Result<(TableOracle, usize), String> {
    let mut oracle = TableOracle::load(COLUMNS, &inputs.records);
    let mut order: Vec<&Answer> = queries.answers.iter().collect();
    order.sort_by_key(|a| a.lo);
    let mut open: Vec<&Answer> = Vec::new();
    let mut next = 0;
    let mut state = 0u64;
    let corrupted = order.first().copied().filter(|_| ctx.corrupt_oracle);
    loop {
        while next < order.len() && order[next].lo <= state {
            open.push(order[next]);
            next += 1;
        }
        let mut still_open = Vec::with_capacity(open.len());
        for answer in open {
            let mut expected = oracle.expected_query(schema, &inputs.queries[answer.query]);
            if corrupted.is_some_and(|c| std::ptr::eq(c, answer)) {
                expected[0].hit_count += 1;
            }
            if expected == answer.results {
                continue;
            }
            if state >= answer.hi {
                return Err(format!(
                    "table_ingest query {} (after {}..={} ingests): got {:?}, oracle at {state} \
                     ingests {:?}",
                    answer.query, answer.lo, answer.hi, answer.results, expected
                ));
            }
            still_open.push(answer);
        }
        open = still_open;
        if open.is_empty() && next == order.len() {
            break;
        }
        let applied = *ingest.applied.get(state as usize).ok_or_else(|| {
            format!("table_ingest: an answer waits for ingest {state}, never sent")
        })?;
        if applied {
            oracle.apply_batch(&inputs.ingests[state as usize % INGEST_POOL]);
        }
        state += 1;
    }
    Ok((oracle, state as usize))
}
