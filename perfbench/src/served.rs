//! `served_zipf`: a `QueryService` over `RXD@2` (hash) with adaptive linger
//! and hot-shard rebalancing at their defaults, fed 16-op Zipf(0.99) point
//! batches.
//!
//! 2^20 keys keep the modelled index (≈58 MiB) inside the modelled L2, so
//! the backend does little work per request and admission, linger, fusion,
//! reply scatter and shard scatter/gather dominate. Phase 1 is an open
//! loop: Poisson arrivals at a fixed rate well under capacity, each
//! request timed from its due time. Phase 2 is a closed loop: two clients
//! each keep a window of requests outstanding, which measures capacity.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rtindex::rtx_query::IndexBuildMetrics;
use rtindex::rtx_workloads::{
    dense_shuffled, point_lookups_zipf, value_column, ArrivalSchedule, GroundTruth,
};
use rtindex::{
    registry, AdaptiveLingerConfig, IndexSpec, LookupResult, QueryBatch, QueryService,
    RebalanceConfig, ServiceConfig, UpdatableIndex,
};

use crate::client;
use crate::layers::{build_layers, device_layers, service_layers, table_absent, DURABLE_LAYERS};
use crate::report::{self, latency_ms, percentile};
use crate::trace::{self, tracer, Seat, Traced};
use crate::{Ctx, Limit, Pass, Workload};

const KEYS: usize = 1 << 20;
const OPS_PER_REQUEST: usize = 16;
const REQUEST_POOL: usize = 1 << 14;
const ZIPF_THETA: f64 = 0.99;
/// Phase-1 mean inter-arrival gap: 5k requests/s (80k ops/s), about a tenth
/// of phase-2 capacity on a quiet 2-vCPU host and under a fifth when other
/// tenants halve it, so the open loop never runs near saturation.
const MEAN_GAP: Duration = Duration::from_micros(200);
/// Share of the run spent in the open-loop phase.
const OPEN_SHARE: f64 = 0.5;
const CLIENTS: usize = 2;
const WINDOW: usize = 32;

pub struct Served;

pub struct Inputs {
    keys: Vec<u64>,
    values: Vec<u64>,
    requests: Vec<(Arc<QueryBatch>, Vec<LookupResult>)>,
}

pub struct State {
    service: QueryService,
    build: IndexBuildMetrics,
}

/// The serving configuration every served workload uses.
pub fn service_config() -> ServiceConfig {
    ServiceConfig::default()
        .with_adaptive_linger(AdaptiveLingerConfig::default())
        .with_rebalance(RebalanceConfig::default())
}

/// Wraps a backend for the traced pass: its execute and write calls become
/// the `backend.*` spans under the coalescer.
pub fn owner(backend: Box<dyn UpdatableIndex>, traced: bool) -> Box<dyn UpdatableIndex> {
    if traced {
        Box::new(Traced::new(
            backend,
            Seat::Owner,
            "backend.execute",
            "backend.write",
        ))
    } else {
        backend
    }
}

impl Workload for Served {
    type Inputs = Inputs;
    type State = State;

    fn inputs(&self, ctx: &Ctx) -> Inputs {
        let keys = dense_shuffled(KEYS, ctx.seed);
        let values = value_column(KEYS, ctx.seed ^ 0x5641_4C55);
        let truth = GroundTruth::new(&keys, Some(&values));
        let lookups = point_lookups_zipf(
            &keys,
            REQUEST_POOL * OPS_PER_REQUEST,
            ZIPF_THETA,
            ctx.seed ^ 0x5A49_5046,
        );
        let mut requests: Vec<(Arc<QueryBatch>, Vec<LookupResult>)> = lookups
            .chunks(OPS_PER_REQUEST)
            .map(|keys| {
                let batch = QueryBatch::of_points(keys).fetch_values(true);
                let expected = truth.expected_batch(&batch);
                (Arc::new(batch), expected)
            })
            .collect();
        if ctx.corrupt_oracle {
            requests[0].1[0].first_row ^= 1;
        }
        Inputs {
            keys,
            values,
            requests,
        }
    }

    fn setup(&self, ctx: &Ctx, inputs: &Inputs, traced: bool) -> (State, f64) {
        let started = Instant::now();
        let spec = IndexSpec::with_values(&ctx.device, &inputs.keys, &inputs.values);
        let backend = if traced {
            trace::traced_registry().build_updatable("RXD@2", &spec)
        } else {
            registry().build_updatable("RXD@2", &spec)
        }
        .expect("RXD@2 builds");
        let build = backend.build_metrics();
        let service = QueryService::start_updatable(owner(backend, traced), service_config());
        (State { service, build }, started.elapsed().as_secs_f64())
    }

    fn measure(
        &self,
        ctx: &Ctx,
        inputs: &Inputs,
        state: State,
        limit: Limit,
        traced: bool,
    ) -> Result<Pass, String> {
        // A work count packs the open-loop request count (high half) and
        // the closed-loop request count (low half).
        let (open_count, closed) = match limit {
            Limit::Seconds(s) => (
                (s * OPEN_SHARE / MEAN_GAP.as_secs_f64()) as usize,
                Limit::Seconds(s * (1.0 - OPEN_SHARE)),
            ),
            Limit::Work(w) => ((w >> 32) as usize, Limit::Work(w & 0xFFFF_FFFF)),
        };
        let schedule = ArrivalSchedule::poisson(open_count, MEAN_GAP, ctx.seed);
        let open = open_loop(&state.service, inputs, &schedule)?;
        let closed_started_ns = tracer().now_ns();
        let cpu_before = report::process_cpu_s();
        let closed = closed_loop(&state.service, inputs, closed)?;
        let cpu_s = report::process_cpu_s() - cpu_before;
        let stats = state.service.shutdown();
        println!(
            "rebalances {} ({} rows moved)",
            stats.rebalances, stats.rebalanced_rows
        );
        let peak_rss_kb = report::peak_rss_kb();

        let mut pass = Pass {
            work: ((open_count as u64) << 32) | closed.requests,
            wall_s: closed.wall_s,
            attempted: open_count as u64 + closed.requests,
            failed: open.failed + closed.failed,
            peak_rss_kb,
            ..Pass::default()
        };
        let m = &mut pass.metrics;
        m.set(
            "throughput_ops_s",
            closed.answered_ops as f64 / closed.wall_s,
            "ops/s",
        );
        report::cpu_per_op(m, cpu_s, closed.answered_ops as f64);
        latency_ms(m, "lookup", &open.latencies);
        m.set(
            "index_bytes_per_key",
            stats.memory.total() as f64 / KEYS as f64,
            "B",
        );
        pass.fidelity = vec![("serve.executed_ops", stats.executed_ops as f64)];
        if traced {
            let spans = tracer().spans();
            let l = &mut pass.layers;
            device_layers(l, &tracer().launch_totals(), stats.executed_ops);
            l.absent(
                "bvh.range_hits_per_prim_test",
                "share",
                "served_zipf sends no range lookups",
            );
            build_layers(l, state.build);
            for name in [
                "query.point_ns_per_op",
                "query.range_ns_per_op",
                "query.launch_share",
            ] {
                l.absent(
                    name,
                    if name.ends_with("share") { "share" } else { "ns" },
                    "served_zipf reaches rtx-query only inside the service; see shard.self_ns_per_op",
                );
            }
            l.set(
                "shard.self_ns_per_op",
                trace::self_time_ns(&spans, "backend.execute") as f64 / stats.executed_ops as f64,
                "ns",
            );
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
            let busy: u64 = spans
                .iter()
                .filter(|s| s.name.starts_with("backend.") && s.start_ns >= closed_started_ns)
                .map(|s| s.duration_ns())
                .sum();
            service_layers(l, &spans, &stats, Some(busy as f64 / (closed.wall_s * 1e9)));
            l.set(
                "delta.compactions",
                stats.write_reorganisations as f64,
                "count",
            );
            l.set(
                "delta.bytes",
                (stats.memory.delta_bytes + stats.memory.tombstone_bytes) as f64,
                "B",
            );
            let why = "served_zipf runs RXD@2 without a WAL and sends no writes";
            for (name, unit) in DURABLE_LAYERS {
                l.absent(name, unit, why);
            }
            table_absent(l, "served_zipf has no table");
            l.set(
                "driver.late_p99_ms",
                percentile(&open.lateness, 0.99) * 1e3,
                "ms",
            );
            l.set(
                "trace.unattributed_share",
                trace::unattributed_share(&spans, &["client.request"]),
                "share",
            );
        }
        Ok(pass)
    }
}

struct OpenLoop {
    /// Latency from the due time, per answered request.
    latencies: Vec<f64>,
    lateness: Vec<f64>,
    failed: u64,
}

/// Phase 1: requests submitted on the schedule and checked as they return;
/// latency runs from each request's due time.
fn open_loop(
    service: &QueryService,
    inputs: &Inputs,
    schedule: &ArrivalSchedule,
) -> Result<OpenLoop, String> {
    let handle = service.handle();
    let mut latencies = Vec::with_capacity(schedule.len());
    let mut failed = 0;
    let lateness = client::open_loop(
        Instant::now(),
        schedule,
        &|| false,
        |i| client::submit(&handle, &inputs.requests[i % REQUEST_POOL].0),
        |i, due, request| {
            let expected = &inputs.requests[i % REQUEST_POOL].1;
            let what = || format!("served_zipf open-loop request {i}");
            match client::finish(request, expected, what)? {
                Some(done) => latencies.push((done - due).as_secs_f64()),
                None => failed += 1,
            }
            Ok(())
        },
    )?;
    Ok(OpenLoop {
        latencies,
        lateness,
        failed,
    })
}

struct ClosedLoop {
    requests: u64,
    failed: u64,
    wall_s: f64,
    answered_ops: u64,
}

/// Requests sent, failed and answered by one client.
type ClientResult = Result<(u64, u64, u64), String>;

/// Phase 2: each client keeps `WINDOW` requests outstanding until the limit,
/// then drains. Under `Limit::Work` the clients split the request count.
fn closed_loop(
    service: &QueryService,
    inputs: &Inputs,
    limit: Limit,
) -> Result<ClosedLoop, String> {
    let started = Instant::now();
    let results: Vec<ClientResult> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let handle = service.handle();
                let quota = match limit {
                    Limit::Work(n) => {
                        Limit::Work(n / CLIENTS as u64 + u64::from((c as u64) < n % CLIENTS as u64))
                    }
                    seconds => seconds,
                };
                scope.spawn(move || -> ClientResult {
                    let mut inflight = VecDeque::with_capacity(WINDOW);
                    let (mut sent, mut failed, mut answered) = (0u64, 0u64, 0u64);
                    loop {
                        while inflight.len() < WINDOW && !quota.reached(started, sent) {
                            let i = (sent as usize * CLIENTS + c) % REQUEST_POOL;
                            inflight.push_back((i, client::submit(&handle, &inputs.requests[i].0)));
                            sent += 1;
                        }
                        let Some((i, request)) = inflight.pop_front() else {
                            return Ok((sent, failed, answered));
                        };
                        let what = || format!("served_zipf client {c} request {i}");
                        match client::finish(request, &inputs.requests[i].1, what)? {
                            Some(_) => answered += 1,
                            None => failed += 1,
                        }
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = started.elapsed().as_secs_f64();
    let mut out = ClosedLoop {
        requests: 0,
        failed: 0,
        wall_s,
        answered_ops: 0,
    };
    for r in results {
        let (sent, failed, answered) = r?;
        out.answered_ops += answered * OPS_PER_REQUEST as u64;
        out.requests += sent;
        out.failed += failed;
    }
    Ok(out)
}
