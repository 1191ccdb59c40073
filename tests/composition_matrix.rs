//! Composition-matrix conformance: every layer stacked on a backend must
//! behave like the backend plus that layer.
//!
//! The matrix covers every base backend (RX, HT, B+, SA, RXD) under every
//! combination of the registry grammar's layer productions — sharding
//! (none, `@4:hash`, `@4:range`), a typed key schema (none, `{u32,u32}`)
//! and durability (none, `+wal:`, updatable bases only). For each spec:
//!
//! - it builds, or fails with a documented error (B+ cannot hold the
//!   64-bit image of a direct composite key); it never builds silently
//!   wrong — answers are oracle-exact, rowIDs included;
//! - the optional hooks are reachable through every layer:
//!   `shard_load()` is `Some` iff the spec is sharded, `key_schema()` iff
//!   it has a schema, `durability_stats()` iff it has `+wal:`;
//! - after skewed reads, `rebalance_shards()` moves rows on a sharded
//!   updatable index, refuses with `UnsupportedOperation` on a sharded
//!   durable one (its migrations are not logged), and moves nothing on an
//!   unsharded one;
//! - a `+wal:` index reopened after the refused rebalance is still
//!   oracle-exact.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use rtindex::{
    registry, Device, IndexError, IndexSpec, KeySchema, KeyTuple, KeyValue, QueryBatch, Registry,
    SecondaryIndex, TypedBatch, UpdatableIndex,
};
use rtx_workloads::{dense_shuffled, value_column, DynamicOracle};

const ROWS: usize = 1024;
const BASES: [&str; 5] = ["RX", "HT", "B+", "SA", "RXD"];
const SHARDINGS: [&str; 3] = ["", "@4:hash", "@4:range"];
const SCHEMA: &str = "{u32,u32}";

static DIRS: AtomicUsize = AtomicUsize::new(0);

/// A fresh WAL directory under the system temp dir.
fn wal_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "rtx-composition-{}-{}",
        std::process::id(),
        DIRS.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One cell of the matrix.
struct Case {
    base: &'static str,
    sharding: &'static str,
    schema: bool,
    wal: Option<PathBuf>,
}

impl Case {
    fn name(&self) -> String {
        let schema = if self.schema { SCHEMA } else { "" };
        let wal = match &self.wal {
            Some(dir) => format!("+wal:{}", dir.display()),
            None => String::new(),
        };
        format!("{}{}{schema}{wal}", self.base, self.sharding)
    }

    fn sharded(&self) -> bool {
        !self.sharding.is_empty()
    }

    fn updatable(&self) -> bool {
        self.base == "RXD"
    }
}

fn cases() -> Vec<Case> {
    let mut cases = Vec::new();
    for base in BASES {
        for sharding in SHARDINGS {
            for schema in [false, true] {
                let wals = if base == "RXD" { 2 } else { 1 };
                for wal in 0..wals {
                    cases.push(Case {
                        base,
                        sharding,
                        schema,
                        wal: (wal == 1).then(wal_dir),
                    });
                }
            }
        }
    }
    cases
}

/// The build columns: typed `(a, b)` rows for schema specs (the backend
/// indexes their one-limb encoding), raw keys otherwise. Returns the spec
/// and the `u64` keys the backend ends up indexing.
fn columns(schema: bool) -> (Option<(KeySchema, Vec<KeyTuple>)>, Vec<u64>) {
    if !schema {
        return (None, dense_shuffled(ROWS, 31));
    }
    let schema = KeySchema::parse(SCHEMA).unwrap();
    let rows: Vec<KeyTuple> = dense_shuffled(ROWS, 31)
        .into_iter()
        .map(|i| vec![KeyValue::from(i / 4), KeyValue::from(i % 4)])
        .collect();
    let keys = schema.encode_rows(&rows).unwrap();
    (Some((schema, rows)), keys)
}

/// Fresh keys for the write phase, in the index's `u64` key domain.
fn fresh_keys(schema: bool) -> Vec<u64> {
    let raw: Vec<u64> = (0..64u64).map(|i| ROWS as u64 + i).collect();
    if !schema {
        return raw;
    }
    let schema = KeySchema::parse(SCHEMA).unwrap();
    let rows: Vec<KeyTuple> = raw
        .iter()
        .map(|&i| vec![KeyValue::from(i), KeyValue::from(1u64)])
        .collect();
    schema.encode_rows(&rows).unwrap()
}

/// Points over every 37th known key plus a miss, and (when supported)
/// 17-wide key ranges starting at every 101st known key, all with a value
/// fetch. Narrow windows keep RX's ray decomposition of a range small in
/// the sparse encoded key domain.
fn probe(keys: &[u64], ranges: bool) -> QueryBatch {
    let mut sorted = keys.to_vec();
    sorted.sort_unstable();
    let mut batch = QueryBatch::new()
        .points(sorted.iter().step_by(37).copied())
        .point(u64::MAX - 1)
        .fetch_values(true);
    if ranges {
        for &lower in sorted.iter().step_by(101) {
            batch = batch.range(lower, lower + 16);
        }
    }
    batch
}

fn assert_exact(ix: &dyn SecondaryIndex, oracle: &DynamicOracle, keys: &[u64], what: &str) {
    let batch = probe(keys, ix.capabilities().range_lookups);
    let out = ix.execute(&batch).unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_eq!(out.results, oracle.expected_batch(&batch), "{what}");
}

/// Two keys owned by one shard, found by watching the shard-load
/// counters (any two keys on an unsharded index).
fn hot_keys(ix: &dyn SecondaryIndex, keys: &[u64]) -> Vec<u64> {
    let Some(mut before) = ix.shard_load() else {
        return keys[..2].to_vec();
    };
    let mut owners: Vec<Vec<u64>> = vec![Vec::new(); before.shard_count()];
    for &key in keys {
        ix.execute(&QueryBatch::new().point(key)).unwrap();
        let after = ix.shard_load().unwrap();
        let shard = (0..after.shard_count())
            .find(|&s| after.ops[s] > before.ops[s])
            .expect("a point lookup reaches one shard");
        owners[shard].push(key);
        if owners[shard].len() == 2 {
            return owners[shard].clone();
        }
        before = after;
    }
    panic!("no shard owns two keys");
}

/// Skewed reads: the two hot keys, 64 times each, eight times over.
fn skewed_reads(ix: &dyn SecondaryIndex, keys: &[u64]) {
    let hot: Vec<u64> = hot_keys(ix, keys)
        .into_iter()
        .flat_map(|key| [key; 64])
        .collect();
    for _ in 0..8 {
        ix.execute(&QueryBatch::of_points(&hot)).unwrap();
    }
}

fn spec<'a>(
    device: &'a Device,
    columns: &'a (Option<(KeySchema, Vec<KeyTuple>)>, Vec<u64>),
    values: &[u64],
) -> IndexSpec<'a> {
    match &columns.0 {
        Some((schema, rows)) => IndexSpec::typed_with_values(device, schema.clone(), rows, values),
        None => IndexSpec::with_values(device, &columns.1, values),
    }
}

/// The hooks every layer must forward: each is present exactly when the
/// spec carries the layer that provides it.
fn assert_hooks(ix: &dyn SecondaryIndex, case: &Case, name: &str) {
    assert_eq!(
        ix.shard_load().is_some(),
        case.sharded(),
        "{name}: shard_load"
    );
    assert_eq!(ix.key_schema().is_some(), case.schema, "{name}: key_schema");
    assert_eq!(
        ix.durability_stats().is_some(),
        case.wal.is_some(),
        "{name}: durability_stats"
    );
    assert_eq!(ix.memory_bytes(), ix.memory_usage().total(), "{name}");
    assert!(ix.memory_bytes() > 0, "{name}: memory");
}

fn check_read_only(device: &Device, registry: &Registry, case: &Case) {
    let name = case.name();
    let columns = columns(case.schema);
    let values = value_column(ROWS, 32);
    let ix = match registry.build(&name, &spec(device, &columns, &values)) {
        Ok(ix) => ix,
        Err(e) => {
            // The one documented refusal: a direct composite key's 64-bit
            // image overflows the B+-tree's 32-bit key domain.
            assert!(
                case.base == "B+" && case.schema && e.is_unsupported_key_set(),
                "{name}: unexpected build failure: {e}"
            );
            return;
        }
    };
    assert_hooks(ix.as_ref(), case, &name);
    let oracle = DynamicOracle::new(&columns.1, &values);
    assert_exact(ix.as_ref(), &oracle, &columns.1, &name);
    if case.schema {
        // The typed surface compiles through the composite layer too.
        let out = ix
            .execute_typed(&TypedBatch::new().point([KeyValue::from(7u64), KeyValue::from(2u64)]))
            .unwrap();
        assert_eq!(out.results[0].hit_count, 1, "{name}: typed point");
    }
    skewed_reads(ix.as_ref(), &columns.1);
    assert_exact(ix.as_ref(), &oracle, &columns.1, &name);
}

fn check_updatable(device: &Device, registry: &Registry, case: &Case) {
    let name = case.name();
    let columns = columns(case.schema);
    let values = value_column(ROWS, 32);
    let mut ix = registry
        .build_updatable(&name, &spec(device, &columns, &values))
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_hooks(ix.as_ref(), case, &name);

    // Writes through every layer, mirrored into the oracle. A sharded
    // index keeps global rowIDs across shard compactions; a monolithic
    // one renumbers when it reports a reorganisation.
    let mut oracle = DynamicOracle::new(&columns.1, &values);
    let mut known = columns.1.clone();
    let fresh = fresh_keys(case.schema);
    let fresh_values: Vec<u64> = fresh.iter().map(|k| k % 1000 + 1).collect();
    let doomed: Vec<u64> = columns.1[..32].to_vec();
    let report = ix.insert(&fresh, &fresh_values).unwrap();
    oracle.insert_batch(&fresh, &fresh_values);
    if report.reorganisations > 0 && !case.sharded() {
        oracle.compact();
    }
    let report = ix.delete(&doomed).unwrap();
    oracle.delete_batch(&doomed);
    if report.reorganisations > 0 && !case.sharded() {
        oracle.compact();
    }
    known.extend_from_slice(&fresh);
    assert_exact(ix.as_ref(), &oracle, &known, &name);

    skewed_reads(ix.as_ref(), &columns.1[32..]);
    if case.sharded() {
        let load = ix.shard_load().unwrap();
        assert!(
            load.imbalance_ratio() > 1.0,
            "{name}: skew shows in the load"
        );
    }
    match (case.sharded(), case.wal.is_some(), ix.rebalance_shards()) {
        (true, false, Ok(report)) => assert!(report.moved_rows > 0, "{name}: rows must move"),
        (true, true, Err(IndexError::UnsupportedOperation { .. })) => {}
        (false, _, Ok(report)) => assert_eq!(report.moved_rows, 0, "{name}: nothing to move"),
        (_, _, other) => panic!("{name}: unexpected rebalance outcome {other:?}"),
    }
    assert_exact(
        ix.as_ref(),
        &oracle,
        &known,
        &format!("{name} after rebalance"),
    );

    if let Some(dir) = &case.wal {
        drop(ix);
        let reopened = registry
            .build_updatable(&name, &IndexSpec::keys_only(device, &[]))
            .unwrap_or_else(|e| panic!("{name}: reopen: {e}"));
        assert_hooks(reopened.as_ref(), case, &name);
        assert_exact(
            reopened.as_ref(),
            &oracle,
            &known,
            &format!("{name} reopened"),
        );
        drop(reopened);
        std::fs::remove_dir_all(dir).unwrap();
    }
}

#[test]
fn every_layer_combination_forwards_its_hooks_and_answers_exactly() {
    let device = Device::default_eval();
    let registry = registry();
    for case in cases() {
        if case.updatable() {
            check_updatable(&device, &registry, &case);
        } else {
            check_read_only(&device, &registry, &case);
        }
    }
}

/// The table layer decides whether an index renumbers its rowIDs on a
/// reorganisation from the built index's shard load: monolithic dynamic
/// backends renumber, sharded ones keep stable global rowIDs — whatever
/// builder, schema or durability layers the spec stacks on top.
#[test]
fn rowid_renumbering_is_visible_on_the_built_index() {
    let device = Device::default_eval();
    let registry = registry();
    let keys = dense_shuffled(256, 7);
    let values = value_column(256, 8);
    let spec = IndexSpec::with_values(&device, &keys, &values);
    for (base, renumbers) in [
        ("RXD", true),
        ("RXD+wal:", true),
        ("RXD:sah", true),
        ("RXD@4", false),
        ("RXD:sah@4:hash", false),
        ("RXD@2+wal:", false),
    ] {
        let dir = wal_dir();
        let name = match base.strip_suffix("+wal:") {
            Some(base) => format!("{base}+wal:{}", dir.display()),
            None => base.to_string(),
        };
        let ix: Box<dyn UpdatableIndex> = registry.build_updatable(&name, &spec).unwrap();
        assert_eq!(ix.shard_load().is_none(), renumbers, "{name}");
        drop(ix);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
