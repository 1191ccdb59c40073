//! `direct_lookup`: one caller thread drives RX through `execute_in` with a
//! reused arena; no service, shard, WAL or table is involved.
//!
//! 2^22 dense shuffled keys make the modelled index (≈232 MiB) larger than
//! the modelled 72 MiB L2, so device-side numbers reflect DRAM traffic. The
//! fixed interleave is one large point batch (values fetched) followed by
//! three short-range batches of ~16 hits per range, the paper's Fig. 9
//! regime, so p50 is a range-batch call and p99 a point-batch call.

use std::time::Instant;

use rtindex::optix_sim::LaunchMetrics;
use rtindex::rtx_query::{ExecArena, LookupResult};
use rtindex::rtx_workloads::{dense_shuffled, point_lookups, value_column, GroundTruth};
use rtindex::{registry, IndexSpec, QueryBatch, SecondaryIndex};

use crate::layers::{build_layers, device_layers, table_absent, DURABLE_LAYERS, SERVICE_LAYERS};
use crate::report::{self, latency_ms};
use crate::trace::{self, tracer, Seat, Traced};
use crate::{Ctx, Limit, Pass, Workload};

const KEYS: usize = 1 << 22;
const POINT_BATCH: usize = 1 << 14;
const RANGE_BATCH: usize = 1 << 10;
const RANGE_WIDTH: u64 = 16;
const POINT_POOL: usize = 4;
const RANGE_POOL: usize = 12;
/// Calls per interleave period: one point batch, then range batches.
const PERIOD: u64 = 4;

pub struct Direct;

pub struct Inputs {
    keys: Vec<u64>,
    values: Vec<u64>,
    points: Vec<(QueryBatch, Vec<LookupResult>)>,
    ranges: Vec<(QueryBatch, Vec<LookupResult>)>,
}

pub struct State {
    index: Box<dyn SecondaryIndex>,
}

impl Workload for Direct {
    type Inputs = Inputs;
    type State = State;

    fn inputs(&self, ctx: &Ctx) -> Inputs {
        let keys = dense_shuffled(KEYS, ctx.seed);
        let values = value_column(KEYS, ctx.seed ^ 0x5641_4C55);
        let truth = GroundTruth::new(&keys, Some(&values));
        let points = (0..POINT_POOL)
            .map(|i| {
                let lookups = point_lookups(&keys, POINT_BATCH, ctx.seed.wrapping_add(i as u64));
                let batch = QueryBatch::of_points(&lookups).fetch_values(true);
                let expected = truth.expected_batch(&batch);
                (batch, expected)
            })
            .collect();
        let ranges = (0..RANGE_POOL)
            .map(|i| {
                let lowers = point_lookups(&keys, RANGE_BATCH, ctx.seed ^ (0x52 + i as u64));
                let bounds: Vec<(u64, u64)> = lowers
                    .iter()
                    .map(|&lo| {
                        let lo = lo.min(KEYS as u64 - RANGE_WIDTH);
                        (lo, lo + RANGE_WIDTH - 1)
                    })
                    .collect();
                let batch = QueryBatch::of_ranges(&bounds).fetch_values(true);
                let expected = truth.expected_batch(&batch);
                (batch, expected)
            })
            .collect();
        let mut inputs = Inputs {
            keys,
            values,
            points,
            ranges,
        };
        if ctx.corrupt_oracle {
            inputs.ranges[0].1[0].value_sum ^= 1;
        }
        inputs
    }

    fn setup(&self, ctx: &Ctx, inputs: &Inputs, traced: bool) -> (State, f64) {
        let started = Instant::now();
        let spec = IndexSpec::with_values(&ctx.device, &inputs.keys, &inputs.values);
        let index = registry().build("RX", &spec).expect("RX builds");
        let secs = started.elapsed().as_secs_f64();
        let index = if traced {
            Box::new(Traced::new(
                index,
                Seat::Owner,
                "query.execute",
                "query.write",
            ))
        } else {
            index
        };
        (State { index }, secs)
    }

    fn measure(
        &self,
        _ctx: &Ctx,
        inputs: &Inputs,
        state: State,
        limit: Limit,
        traced: bool,
    ) -> Result<Pass, String> {
        let index = state.index;
        let mut arena = ExecArena::new();
        let mut latencies = Vec::new();
        let mut point = Side::default();
        let mut range = Side::default();
        let cpu_before = report::process_cpu_s();
        let started = Instant::now();
        let mut calls = 0u64;
        while !limit.reached(started, calls) {
            let is_point = calls.is_multiple_of(PERIOD);
            let (batch, expected) = if is_point {
                &inputs.points[(calls / PERIOD) as usize % POINT_POOL]
            } else {
                let n = calls / PERIOD * (PERIOD - 1) + calls % PERIOD - 1;
                &inputs.ranges[n as usize % RANGE_POOL]
            };
            let root = tracer().enter("direct.call");
            let call_started = Instant::now();
            let outcome = index
                .execute_in(batch, &mut arena)
                .map_err(|e| format!("execute_in failed: {e}"))?;
            let wall = call_started.elapsed();
            if outcome.results != *expected {
                let slot = (0..expected.len())
                    .find(|&i| outcome.results[i] != expected[i])
                    .unwrap_or(0);
                return Err(format!(
                    "direct_lookup call {calls} slot {slot}: got {:?}, oracle {:?}",
                    outcome.results.get(slot),
                    expected.get(slot)
                ));
            }
            drop(root);
            latencies.push(wall.as_secs_f64());
            let side = if is_point { &mut point } else { &mut range };
            side.ops += batch.len() as u64;
            side.wall_ns += wall.as_nanos() as u64;
            side.hits += outcome
                .results
                .iter()
                .map(|r| r.hit_count as u64)
                .sum::<u64>();
            side.launch.merge(&outcome.metrics);
            calls += 1;
        }
        let wall_s = started.elapsed().as_secs_f64();
        let cpu_s = report::process_cpu_s() - cpu_before;
        let peak_rss_kb = report::peak_rss_kb();
        let ops = point.ops + range.ops;
        let mut launch = point.launch.clone();
        launch.merge(&range.launch);

        let mut pass = Pass {
            work: calls,
            wall_s,
            attempted: calls,
            failed: 0,
            peak_rss_kb,
            ..Pass::default()
        };
        let m = &mut pass.metrics;
        m.set("throughput_ops_s", ops as f64 / wall_s, "ops/s");
        report::cpu_per_op(m, cpu_s, ops as f64);
        latency_ms(m, "lookup", &latencies);
        m.set(
            "model_lookup_ops_s",
            ops as f64 / launch.simulated_time_s,
            "ops/s",
        );
        m.set(
            "index_bytes_per_key",
            index.memory_usage().total() as f64 / index.key_count() as f64,
            "B",
        );
        pass.fidelity = vec![
            ("bvh.nodes_visited", launch.traversal.nodes_visited as f64),
            ("model_time_s", launch.simulated_time_s),
        ];
        if traced {
            let spans = tracer().spans();
            let l = &mut pass.layers;
            device_layers(l, &launch, ops);
            l.set(
                "bvh.range_hits_per_prim_test",
                range.hits as f64 / range.launch.traversal.prim_tests() as f64,
                "share",
            );
            build_layers(l, index.build_metrics());
            l.set(
                "query.point_ns_per_op",
                point.wall_ns as f64 / point.ops as f64,
                "ns",
            );
            l.set(
                "query.range_ns_per_op",
                range.wall_ns as f64 / range.ops as f64,
                "ns",
            );
            l.set(
                "query.launch_share",
                launch.host_time.as_nanos() as f64 / (point.wall_ns + range.wall_ns) as f64,
                "share",
            );
            let why = "direct_lookup calls RX without a shard, service, delta, WAL or table";
            for (name, unit) in SERVICE_LAYERS.iter().chain(&DURABLE_LAYERS) {
                l.absent(name, unit, why);
            }
            table_absent(l, why);
            l.absent("driver.late_p99_ms", "ms", "direct_lookup is a closed loop");
            l.set(
                "trace.unattributed_share",
                trace::unattributed_share(&spans, &["direct.call"]),
                "share",
            );
        }
        Ok(pass)
    }
}

#[derive(Default)]
struct Side {
    ops: u64,
    wall_ns: u64,
    hits: u64,
    launch: LaunchMetrics,
}
