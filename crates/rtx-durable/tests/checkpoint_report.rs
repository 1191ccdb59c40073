//! An automatic checkpoint compacts the index inside the write that
//! crossed the WAL threshold, so that write's [`UpdateReport`] must count
//! the compaction: callers mirror rowID renumbering (and services count
//! reorganisations) from `reorganisations`.
//!
//! [`UpdateReport`]: rtx_query::UpdateReport

use gpu_device::Device;
use rtx_delta::{register_dynamic, DynamicRtConfig};
use rtx_durable::{install_durability_with, DurableConfig};
use rtx_query::{IndexSpec, QueryBatch, Registry};
use rtx_workloads::{dense_shuffled, value_column, DynamicOracle};

/// Durability with a one-byte checkpoint threshold: every write
/// checkpoints.
fn registry() -> Registry {
    let mut r = Registry::new();
    register_dynamic(&mut r, DynamicRtConfig::default());
    rtx_shard::install_sharding(&mut r);
    install_durability_with(&mut r, DurableConfig::default().with_snapshot_wal_bytes(1));
    r
}

#[test]
fn checkpoint_compactions_count_as_the_writes_reorganisations() {
    let device = Device::default_eval();
    let registry = registry();
    let keys = dense_shuffled(512, 3);
    let values = value_column(512, 4);
    let spec = IndexSpec::with_values(&device, &keys, &values);
    for base in ["RXD", "RXD@2"] {
        let dir = std::env::temp_dir().join(format!(
            "rtx-checkpoint-report-{}-{}",
            std::process::id(),
            base.replace('@', "-")
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let name = format!("{base}+wal:{}", dir.display());
        let mut ix = registry.build_updatable(&name, &spec).unwrap();
        let mut oracle = DynamicOracle::new(&keys, &values);

        // A delete leaves tombstones, so the checkpoint's compaction
        // renumbers the monolithic index's rowIDs.
        let doomed: Vec<u64> = keys[..40].to_vec();
        let snapshots = ix.durability_stats().unwrap().snapshots;
        let report = ix.delete(&doomed).unwrap();
        assert!(
            ix.durability_stats().unwrap().snapshots > snapshots,
            "{base}: the write checkpointed"
        );
        assert!(
            report.reorganisations >= 1,
            "{base}: the checkpoint compaction is this write's reorganisation"
        );
        oracle.delete_batch(&doomed);
        // Sharded indexes keep global rowIDs across shard compactions.
        if base == "RXD" {
            oracle.compact();
        }
        let batch = QueryBatch::new()
            .points(keys.iter().step_by(7).copied())
            .range(100, 180)
            .fetch_values(true);
        assert_eq!(
            ix.execute(&batch).unwrap().results,
            oracle.expected_batch(&batch),
            "{base}: rowIDs follow the reported reorganisation"
        );
        drop(ix);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
