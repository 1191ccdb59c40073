//! Per-layer metrics shared by several workloads, and the lists of metrics
//! a workload reports as absent when it bypasses a layer.

use rtindex::optix_sim::LaunchMetrics;
use rtindex::rtx_query::IndexBuildMetrics;
use rtindex::ServiceStats;

use crate::report::{ratio, Report};
use crate::trace::{self, Span};

/// The shard, service and delta metrics, for workloads that bypass them.
pub const SERVICE_LAYERS: [(&str, &str); 14] = [
    ("shard.self_ns_per_op", "ns"),
    ("shard.imbalance_permille", "permille"),
    ("shard.rebalanced_rows", "count"),
    ("serve.submit_ns", "ns"),
    ("serve.wait_ns", "ns"),
    ("serve.backend_busy_share", "share"),
    ("serve.fused_ops_per_submission", "ops"),
    ("serve.mean_linger_us", "us"),
    ("serve.peak_queued_ops", "ops"),
    ("serve.rejected_share", "share"),
    ("serve.write_stall_ms_max", "ms"),
    ("serve.write_stall_ms_total", "ms"),
    ("delta.compactions", "count"),
    ("delta.bytes", "B"),
];

/// `device.*` and the per-op `bvh.*` metrics from merged launch counters.
pub fn device_layers(l: &mut Report, launch: &LaunchMetrics, ops: u64) {
    let k = &launch.kernel;
    let why = "no lookup ran through a traced launch";
    ratio(
        l,
        "device.dram_bytes_per_op",
        (k.dram_bytes_read + k.dram_bytes_written) as f64,
        ops as f64,
        "B/op",
        why,
    );
    ratio(
        l,
        "device.l2_hit_share",
        k.l2_hit_bytes as f64,
        (k.l2_hit_bytes + k.dram_bytes_read) as f64,
        "share",
        why,
    );
    ratio(
        l,
        "bvh.nodes_visited_per_op",
        launch.traversal.nodes_visited as f64,
        ops as f64,
        "count",
        why,
    );
    ratio(
        l,
        "bvh.prim_tests_per_op",
        launch.traversal.prim_tests() as f64,
        ops as f64,
        "count",
        why,
    );
}

/// `build.*` from an index's build metrics.
pub fn build_layers(l: &mut Report, build: IndexBuildMetrics) {
    l.set("build.host_s", build.host_time.as_secs_f64(), "s");
    l.set("build.model_ms", build.simulated_time_s * 1e3, "ms");
    l.set(
        "build.scratch_mb",
        build.scratch_bytes as f64 / (1 << 20) as f64,
        "MiB",
    );
}

pub const DURABLE_LAYERS: [(&str, &str); 5] = [
    ("durable.fsyncs_per_write_batch", "count"),
    ("durable.write_ns_per_row", "ns"),
    ("durable.disk_bytes_per_user_byte", "share"),
    ("durable.snapshots", "count"),
    ("durable.snapshot_mb", "MiB"),
];

pub fn table_absent(l: &mut Report, why: &str) {
    for (name, unit) in [
        ("table.ingest_ns_per_op", "ns"),
        ("table.rebuilds_per_ingest", "count"),
        ("table.delta_ops_per_ingest", "count"),
        ("table.query_ns_per_predicate", "ns"),
        ("table.routed_share", "share"),
    ] {
        l.absent(name, unit, why);
    }
}

/// The `serve.*` metrics shared by every workload behind a service.
/// `busy` is the backend's busy share, `None` where no span times it.
pub fn service_layers(l: &mut Report, spans: &[Span], stats: &ServiceStats, busy: Option<f64>) {
    let requests = spans.iter().filter(|s| s.name == "client.request").count() as f64;
    let why = "no read completed in the traced pass";
    let submit_ns = trace::total_ns(spans, "serve.submit") as f64;
    ratio(l, "serve.submit_ns", submit_ns, requests, "ns", why);
    let wait_ns = trace::total_ns(spans, "serve.wait") as f64;
    ratio(l, "serve.wait_ns", wait_ns, requests, "ns", why);
    match busy {
        Some(share) => l.set("serve.backend_busy_share", share, "share"),
        None => l.absent(
            "serve.backend_busy_share",
            "share",
            "TableService owns the Table directly; no trait seam times its worker",
        ),
    }
    ratio(
        l,
        "serve.fused_ops_per_submission",
        stats.executed_ops as f64,
        stats.fused_submissions as f64,
        "ops",
        "this service executes requests one at a time and does not fuse them",
    );
    ratio(
        l,
        "serve.mean_linger_us",
        stats.linger_ns_total as f64 / 1e3,
        stats.linger_decisions as f64,
        "us",
        "this service does not linger",
    );
    l.set("serve.peak_queued_ops", stats.peak_queued_ops as f64, "ops");
    l.set(
        "serve.rejected_share",
        stats.rejected_batches as f64
            / (stats.submitted_batches + stats.rejected_batches).max(1) as f64,
        "share",
    );
    l.set(
        "serve.write_stall_ms_max",
        stats.write_stall_ns_max as f64 / 1e6,
        "ms",
    );
    l.set(
        "serve.write_stall_ms_total",
        stats.write_stall_ns_total as f64 / 1e6,
        "ms",
    );
}
