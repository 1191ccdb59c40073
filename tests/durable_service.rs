//! Acceptance test of durability behind the service layer: a durable
//! `"RXD+wal:"` backend served through [`QueryService`], driven with a
//! mixed stream verified in lockstep against the [`DynamicOracle`], then
//! shut down mid-stream and *reopened from disk* into a fresh service that
//! resumes the very same oracle stream — answers stay oracle-exact (rowIDs
//! included) across the restart.
//!
//! Along the way it exercises the new service plumbing end to end:
//! [`ClientHandle::checkpoint`] rides the write fence, and
//! [`ServiceStats`] mirrors the backend's durability counters and memory
//! accounting.

use rtindex::{
    registry, ClientHandle, Device, IndexSpec, QueryBatch, QueryService, RebalanceConfig,
    ServiceConfig,
};
use rtx_workloads::{
    dense_shuffled, mixed_ops, value_column, DynamicOracle, MixedOp, MixedWorkloadConfig,
};

/// Starts a service over the durable index in `dir`: building it from
/// `initial` columns on the first call, reopening from disk when `None`.
fn start_service(
    device: &Device,
    dir: &std::path::Path,
    initial: Option<(&[u64], &[u64])>,
) -> QueryService {
    let name = format!("RXD+wal:{}", dir.display());
    let spec = match initial {
        Some((keys, values)) => IndexSpec::with_values(device, keys, values),
        None => IndexSpec::keys_only(device, &[]),
    };
    let backend = registry()
        .build_updatable(&name, &spec)
        .expect("durable backend");
    QueryService::start_updatable(backend, ServiceConfig::default())
}

/// Applies one mixed op through the service handle and mirrors it into the
/// oracle; lookup ops are checked oracle-exact. Returns verified lookups.
fn drive_one(handle: &ClientHandle, oracle: &mut DynamicOracle, op: &MixedOp) -> usize {
    if op.is_write() {
        let (keys, values) = op.columns();
        let report = match op {
            MixedOp::Insert(_) => handle.insert(&keys, &values),
            MixedOp::Delete(_) => handle.delete(&keys),
            MixedOp::Upsert(_) => handle.upsert(&keys, &values),
            _ => unreachable!("write op"),
        }
        .expect("service write");
        oracle.apply(op);
        // Mirror a policy compaction (it renumbers rowIDs) into the oracle.
        if report.reorganisations >= 1 {
            oracle.compact();
        }
        0
    } else {
        let batch = op.as_query_batch().expect("read op");
        let expected = oracle.expected_batch(&batch);
        let out = handle.query(batch).expect("service query");
        assert_eq!(out.results, expected, "service answers oracle-exact");
        out.results.len()
    }
}

#[test]
fn durable_service_reopens_mid_stream_and_stays_oracle_exact() {
    let device = Device::default_eval();
    let dir = std::env::temp_dir().join(format!(
        "rtx-durable-service-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);

    let keys = dense_shuffled(128, 7);
    let values = value_column(128, 8);
    let mut oracle = DynamicOracle::new(&keys, &values);
    let ops = mixed_ops(&MixedWorkloadConfig::uniform(800, 256, 9));
    let cut = ops.len() / 2;
    let mut verified = 0usize;

    // First life: initial build, half the stream, a checkpoint through the
    // write fence, then a mid-stream shutdown.
    let service = start_service(&device, &dir, Some((&keys, &values)));
    let handle = service.handle();
    for op in &ops[..cut] {
        verified += drive_one(&handle, &mut oracle, op);
    }
    assert_eq!(handle.checkpoint().expect("checkpoint"), 1);
    oracle.compact(); // the checkpoint compacts before snapshotting
    let stats = service.shutdown();
    assert_eq!(stats.checkpoints, 1, "checkpoint rode the write fence");
    // Two snapshots: the initial-build one plus the explicit checkpoint.
    assert_eq!(stats.snapshots, 2, "stats mirror the snapshot counter");
    assert!(stats.last_snapshot_bsn > 0);
    assert!(stats.fsyncs > 0, "default policy fsyncs every commit");
    assert!(
        stats.memory.base_bytes > 0,
        "memory gauges mirror the backend"
    );

    // Second life: reopen the same directory from disk into a fresh
    // service and resume the *same* oracle stream.
    let service = start_service(&device, &dir, None);
    let handle = service.handle();
    for op in &ops[cut..] {
        verified += drive_one(&handle, &mut oracle, op);
    }

    // A full-domain probe at the end: every key, misses and ranges.
    let batch = QueryBatch::new()
        .points(0..264u64)
        .ranges((0..256u64).step_by(11).map(|lo| (lo, lo + 13)))
        .fetch_values(true);
    let expected = oracle.expected_batch(&batch);
    let out = handle.query(batch).expect("final probe");
    assert_eq!(out.results, expected, "post-restart full-domain probe");
    verified += out.results.len();
    assert!(verified > 200, "the stream must actually verify lookups");

    let stats = service.shutdown();
    assert!(
        stats.wal_bytes > 0,
        "the resumed service appended to the reopened WAL"
    );
    assert!(stats.memory.base_bytes > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A sharded durable backend shows its hot shard through the service, but
/// refuses to migrate rows (migrations are not logged): the service counts
/// the refusal once, stops asking, and keeps the imbalance gauge current.
#[test]
fn sharded_durable_service_reports_imbalance_and_stops_refused_rebalances() {
    let device = Device::default_eval();
    let dir = std::env::temp_dir().join(format!(
        "rtx-durable-service-rebalance-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let keys: Vec<u64> = (0..2000).collect();
    let values: Vec<u64> = keys.iter().map(|k| k * 3).collect();
    let backend = registry()
        .build_updatable(
            &format!("RXD@4+wal:{}", dir.display()),
            &IndexSpec::with_values(&device, &keys, &values),
        )
        .expect("sharded durable backend");
    let config = ServiceConfig::new()
        .with_linger(std::time::Duration::ZERO)
        .with_rebalance(
            RebalanceConfig::new()
                .with_min_ops(256)
                .with_max_imbalance_permille(1200),
        );
    let service = QueryService::start_updatable(backend, config);
    let handle = service.handle();

    // One hot key: past the thresholds after every drain from here on.
    let hot = QueryBatch::of_points(&[42; 64]);
    for _ in 0..16 {
        assert_eq!(handle.query(hot.clone()).unwrap().hit_count(), 64);
    }
    let stats = service.shutdown();
    assert_eq!(stats.rebalance_failures, 1, "refused once, then not asked");
    assert_eq!((stats.rebalances, stats.rebalanced_rows), (0, 0));
    assert!(
        stats.shard_imbalance_permille > 1200,
        "the gauge keeps publishing the hot shard: {stats:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
