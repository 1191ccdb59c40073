//! [`SecondaryIndex`] adapters for the three baselines.
//!
//! One generic adapter serves every [`GpuIndex`] implementor: it binds the
//! device and the optional value column at build time (the unified API
//! models a secondary index over a `(key, value)` column pair) and converts
//! [`BaselineBatch`] outcomes into the shared [`BatchOutcome`].

use gpu_device::Device;
use optix_sim::LaunchMetrics;
use rtx_query::{
    BatchOutcome, Capabilities, IndexBuildMetrics, IndexError, IndexSpec, MemoryUsage, Registry,
    SecondaryIndex,
};

use crate::bplus_tree::BPlusTree;
use crate::common::{BaselineBatch, GpuIndex};
use crate::hash_table::WarpHashTable;
use crate::sorted_array::SortedArray;

/// Any [`GpuIndex`] behind the unified query API.
#[derive(Debug)]
pub struct GpuIndexAdapter<T: GpuIndex> {
    inner: T,
    device: Device,
    values: Option<std::sync::Arc<[u64]>>,
}

impl<T: GpuIndex> GpuIndexAdapter<T> {
    /// Wraps a built baseline index together with the device it runs on and
    /// the spec's optional value column (shared with the spec, not copied).
    pub fn new(inner: T, spec: &IndexSpec<'_>) -> Self {
        GpuIndexAdapter {
            inner,
            device: spec.device.clone(),
            values: spec.values.clone(),
        }
    }

    /// The wrapped baseline index.
    pub fn index(&self) -> &T {
        &self.inner
    }

    fn values(&self, fetch: bool) -> Option<&[u64]> {
        if fetch {
            self.values.as_deref()
        } else {
            None
        }
    }
}

/// Converts a baseline kernel outcome into the unified batch outcome.
fn convert(batch: BaselineBatch) -> BatchOutcome {
    BatchOutcome {
        results: batch.results,
        metrics: LaunchMetrics {
            kernel: batch.kernel,
            simulated_time_s: batch.simulated_time_s,
            host_time: batch.host_time,
            ..Default::default()
        },
    }
}

impl<T: GpuIndex> SecondaryIndex for GpuIndexAdapter<T> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn key_count(&self) -> usize {
        self.inner.key_count()
    }

    fn memory_usage(&self) -> MemoryUsage {
        MemoryUsage::base_only(self.inner.memory_bytes())
    }

    fn build_metrics(&self) -> IndexBuildMetrics {
        let m = self.inner.build_metrics();
        IndexBuildMetrics {
            simulated_time_s: m.simulated_time_s,
            host_time: m.host_build_time,
            scratch_bytes: m.scratch_bytes,
        }
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            range_lookups: self.inner.supports_range(),
            duplicate_keys: self.inner.supports_duplicates(),
            full_64bit_keys: self.inner.supports_64bit_keys(),
            updates: false,
        }
    }

    fn has_value_column(&self) -> bool {
        self.values.is_some()
    }

    fn point_chunk(&self, queries: &[u64], fetch: bool) -> Result<BatchOutcome, IndexError> {
        Ok(convert(self.inner.point_lookup_batch(
            &self.device,
            queries,
            self.values(fetch),
        )))
    }

    fn range_chunk(&self, ranges: &[(u64, u64)], fetch: bool) -> Result<BatchOutcome, IndexError> {
        self.inner
            .range_lookup_batch(&self.device, ranges, self.values(fetch))
            .map(convert)
            .ok_or_else(|| IndexError::UnsupportedOperation {
                backend: self.name().to_string().into(),
                operation: "range lookups",
            })
    }
}

/// Registers the three baseline backends (`"HT"`, `"B+"`, `"SA"`).
pub fn register_baselines(registry: &mut Registry) {
    registry.register("HT", |spec| {
        let inner = WarpHashTable::build(spec.device, spec.keys)?;
        Ok(Box::new(GpuIndexAdapter::new(inner, spec)) as Box<dyn SecondaryIndex>)
    });
    registry.register("B+", |spec| {
        let inner = BPlusTree::build(spec.device, spec.keys)?;
        Ok(Box::new(GpuIndexAdapter::new(inner, spec)) as Box<dyn SecondaryIndex>)
    });
    registry.register("SA", |spec| {
        let inner = SortedArray::build(spec.device, spec.keys)?;
        Ok(Box::new(GpuIndexAdapter::new(inner, spec)) as Box<dyn SecondaryIndex>)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtx_query::{QueryBatch, MISS};

    fn registry() -> Registry {
        let mut registry = Registry::new();
        register_baselines(&mut registry);
        registry
    }

    #[test]
    fn all_baselines_answer_mixed_batches_via_the_registry() {
        let device = Device::default_eval();
        let keys: Vec<u64> = (0..256u64).rev().collect();
        let values: Vec<u64> = (0..256u64).map(|v| v + 1).collect();
        let registry = registry();
        assert_eq!(registry.backends(), vec!["B+", "HT", "SA"]);

        let spec = IndexSpec::with_values(&device, &keys, &values);
        for name in ["B+", "SA"] {
            let ix = registry.build(name, &spec).unwrap();
            let out = ix
                .execute(
                    &QueryBatch::new()
                        .point(255)
                        .range(0, 9)
                        .point(999)
                        .fetch_values(true),
                )
                .unwrap();
            assert_eq!(out.results[0].first_row, 0, "{name}: key 255 is row 0");
            assert_eq!(out.results[0].value_sum, 1, "{name}");
            assert_eq!(out.results[1].hit_count, 10, "{name}");
            assert_eq!(out.results[2].first_row, MISS, "{name}");
        }

        // HT answers the points but fails the mixed batch on the range op.
        let ht = registry.build("HT", &spec).unwrap();
        assert!(!ht.capabilities().range_lookups);
        let points = ht
            .execute(&QueryBatch::of_points(&[255, 999]).fetch_values(true))
            .unwrap();
        assert_eq!(points.results[0].value_sum, 1);
        let err = ht
            .execute(&QueryBatch::new().point(1).range(0, 9))
            .unwrap_err();
        assert!(matches!(err, IndexError::UnsupportedOperation { .. }));
    }

    #[test]
    fn bplus_key_set_restrictions_surface_as_unsupported() {
        let device = Device::default_eval();
        let registry = registry();
        let dup = [1u64, 2, 2];
        let err = registry
            .build("B+", &IndexSpec::keys_only(&device, &dup))
            .map(|_| ())
            .unwrap_err();
        assert!(err.is_unsupported_key_set());

        let supported = registry
            .build_supported(&IndexSpec::keys_only(&device, &dup))
            .unwrap();
        let names: Vec<&str> = supported.iter().map(|ix| ix.name()).collect();
        assert_eq!(names, vec!["HT", "SA"]);
    }

    #[test]
    fn empty_key_sets_build_indexes_that_only_miss() {
        let device = Device::default_eval();
        let registry = registry();
        let spec = IndexSpec::keys_only(&device, &[]);
        for name in registry.backends() {
            let ix = registry.build(name, &spec).unwrap();
            assert_eq!(ix.key_count(), 0, "{name}");
            let batch = if ix.capabilities().range_lookups {
                QueryBatch::new().point(1).range(0, 100)
            } else {
                QueryBatch::new().point(1)
            };
            let out = ix.execute(&batch).unwrap();
            assert_eq!(out.hit_count(), 0, "{name}");
        }
    }
}
