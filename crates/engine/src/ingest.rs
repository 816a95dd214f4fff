//! Streaming ingestion: an incremental dataflow from row deltas to
//! re-summarized speeches.
//!
//! The paper's pipeline is offline-then-online: §III pre-processes a
//! *static* table into the speech store. This module makes a tenant's
//! data mutable at runtime without ever taking the store out of service:
//!
//! 1. **Row log** — callers hand batches of [`RowDelta`]s to
//!    [`crate::service::VoiceService::ingest`] (or
//!    [`crate::service::FrontEnd::submit_ingest`], which rides the
//!    serving front-end's background control lane). Every accepted delta
//!    is stamped with a monotonically increasing per-tenant sequence
//!    number and patched into the tenant's live projection: the
//!    configured dimensions, then the targets, then the extremum column,
//!    the one copy of its data a tenant keeps. The log shares that table
//!    with the runtime until the first delta after a flush copies it, and
//!    a flush publishes the patched table as the new live one.
//! 2. **Invalidation circuit** — each delta is mapped through the same
//!    dimension-subset definitions the offline enumerator uses
//!    (`vqs_core::delta`) to the exact set of `(query-subset, target)`
//!    summaries it can invalidate, instead of re-diffing the dataset. A
//!    dimension change dirties the row's old and new value combinations
//!    for every target; a target-value change dirties only that target's
//!    combinations. Values are read from the table's cells, so they are
//!    spelled as the relation encoder spells them. The §III constant
//!    prior (the global target mean) is compared bit-for-bit at flush
//!    time, so any drift invalidates that target wholesale — exactly the
//!    batch-refresh rule.
//! 3. **Debounced re-summarizer** — invalidations coalesce per query
//!    subset in a dirty set; the log is flushed through
//!    `generator::resummarize_with` on the shared solver pool's Bulk
//!    lane when the dirty set reaches [`IngestBuilder::max_dirty`] or
//!    [`IngestBuilder::flush_interval`] elapses, rate-bounded by
//!    [`IngestBuilder::max_solves_per_sec`]. Lookups keep serving the
//!    last-good speech until its replacement is atomically swapped in.
//!
//! **Convergence contract:** once the log drains (every accepted seqno
//! flushed), the store snapshot is byte-identical to a cold
//! `preprocess` of the final table — the same contract the batch
//! `refresh` path honors, enforced by funneling both paths through one
//! shared invalidation/re-solve core.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use vqs_core::prelude::{masked_combo, subset_masks};
use vqs_relalg::hash::{FxHashMap, FxHashSet};
use vqs_relalg::prelude::{Schema, Table, Value};

use crate::config::Configuration;
use crate::error::{EngineError, Result};
use crate::generator::DirtyKey;

/// One row-level change to a tenant's data, interpreted against the
/// table state produced by all previously accepted deltas.
///
/// Rows are full tuples in the column order of the dataset most recently
/// registered or refreshed: a refresh may hand in its columns in another
/// order, and later tuples follow that order. Indexes address the
/// *current* table: a `Delete` shifts every subsequent row down by one,
/// exactly like `Vec::remove`.
#[derive(Debug, Clone, PartialEq)]
pub enum RowDelta {
    /// Append a new row.
    Insert(Vec<Value>),
    /// Replace the row at `row` wholesale.
    Update {
        /// Index of the row to replace.
        row: usize,
        /// The replacement tuple.
        values: Vec<Value>,
    },
    /// Remove the row at `row` (subsequent rows shift down).
    Delete {
        /// Index of the row to remove.
        row: usize,
    },
}

/// Budget and backpressure configuration for one tenant's streaming
/// ingestion, passed to
/// [`TenantSpec::ingest`](crate::service::TenantSpec::ingest).
#[derive(Debug, Clone)]
pub struct IngestBuilder {
    pub(crate) max_dirty: usize,
    pub(crate) flush_interval: Duration,
    pub(crate) max_solves_per_sec: u32,
}

impl Default for IngestBuilder {
    fn default() -> IngestBuilder {
        IngestBuilder::new()
    }
}

impl IngestBuilder {
    /// Start from the defaults: flush after 256 pending deltas or 50 ms,
    /// with no re-solve rate cap.
    pub fn new() -> IngestBuilder {
        IngestBuilder {
            max_dirty: 256,
            flush_interval: Duration::from_millis(50),
            max_solves_per_sec: 0,
        }
    }

    /// Maximum pending (accepted but not yet re-summarized) deltas
    /// before the accepting call flushes inline — the row log's bound,
    /// and the backpressure mechanism: past it, ingestors pay for the
    /// re-solve themselves. Clamped to at least 1. This bound overrides
    /// the rate cap; the log may never grow without limit.
    pub fn max_dirty(mut self, deltas: usize) -> IngestBuilder {
        self.max_dirty = deltas.max(1);
        self
    }

    /// Coalescing window: pending deltas also flush once this much time
    /// passed since the last flush, so a trickle of updates reaches the
    /// store without ever filling `max_dirty`.
    pub fn flush_interval(mut self, interval: Duration) -> IngestBuilder {
        self.flush_interval = interval;
        self
    }

    /// Bound on the sustained re-summarization rate: after a flush that
    /// re-solved `n` summaries, the next *automatic* flush is held back
    /// for `n / rate` seconds. `0` (the default) means unbounded.
    /// Forced drains and the `max_dirty` bound ignore the cap.
    pub fn max_solves_per_sec(mut self, rate: u32) -> IngestBuilder {
        self.max_solves_per_sec = rate;
        self
    }
}

/// Outcome of one accepted delta batch.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestReport {
    /// Deltas accepted into the log by this call.
    pub accepted: usize,
    /// Sequence number stamped on the first accepted delta (0 when the
    /// batch was empty).
    pub first_seqno: u64,
    /// Sequence number stamped on the last accepted delta (0 when the
    /// batch was empty).
    pub last_seqno: u64,
    /// The flush this call performed inline, when the debounce window
    /// closed or the dirty-set bound was hit; `None` when the batch only
    /// coalesced into the pending set, or when the inline flush failed.
    pub flush: Option<FlushReport>,
    /// Why the inline flush failed: its error, or a contained panic as
    /// [`EngineError::Internal`]. The batch is accepted either way; its
    /// deltas stay pending for the next flush, and the failure is
    /// counted in
    /// [`TenantStats::flush_failures`](crate::service::TenantStats::flush_failures).
    pub flush_error: Option<EngineError>,
}

/// Outcome of one flush of the pending delta log into the store.
#[derive(Debug, Clone, PartialEq)]
pub struct FlushReport {
    /// Deltas drained from the log by this flush.
    pub deltas: u64,
    /// Stored summaries this flush invalidated (re-solved or removed).
    pub invalidated: usize,
    /// Summaries re-solved and atomically swapped in.
    pub resummarized: usize,
    /// Stored summaries removed because their value combination
    /// vanished from the data.
    pub removed: usize,
    /// Live summaries left untouched (`Arc`-pointer-stable).
    pub kept: usize,
    /// Wall-clock time of the flush.
    pub elapsed: Duration,
}

impl FlushReport {
    /// A flush that found an empty log and did nothing.
    pub(crate) fn empty() -> FlushReport {
        FlushReport {
            deltas: 0,
            invalidated: 0,
            resummarized: 0,
            removed: 0,
            kept: 0,
            elapsed: Duration::ZERO,
        }
    }
}

/// Lifetime ingestion counters of one tenant, readable without the log
/// lock (surfaced through
/// [`TenantStats`](crate::service::TenantStats)).
#[derive(Debug, Default)]
pub(crate) struct IngestCounters {
    pub(crate) deltas_applied: AtomicU64,
    pub(crate) invalidated: AtomicU64,
    pub(crate) resummarized: AtomicU64,
    pub(crate) accepted_seqno: AtomicU64,
    pub(crate) applied_seqno: AtomicU64,
    pub(crate) flush_failures: AtomicU64,
}

impl IngestCounters {
    /// Newest-accepted minus newest-applied sequence number: how far the
    /// store trails the log.
    pub(crate) fn lag(&self) -> u64 {
        self.accepted_seqno
            .load(Ordering::Relaxed)
            .saturating_sub(self.applied_seqno.load(Ordering::Relaxed))
    }
}

/// Per-tenant streaming state: options, the locked log/dirty-set, and
/// the lock-free counters.
#[derive(Debug)]
pub(crate) struct IngestState {
    pub(crate) options: IngestBuilder,
    pub(crate) inner: Mutex<IngestInner>,
    pub(crate) counters: IngestCounters,
}

impl IngestState {
    /// Wire the invalidation circuit over `config`'s dimensions and
    /// targets around `table`, the tenant's live projection of a dataset
    /// with `schema`. The log shares `table` with the runtime until the
    /// first accepted delta copies it.
    pub(crate) fn new(
        options: IngestBuilder,
        schema: &Schema,
        table: Arc<Table>,
        config: &Configuration,
    ) -> IngestState {
        let now = Instant::now();
        let inner = IngestInner {
            dims: config.dimensions.clone(),
            targets: config.targets.clone(),
            columns: tuple_columns(schema, &table),
            schema: schema.clone(),
            table,
            masks: subset_masks(config.dimensions.len(), config.max_query_length),
            dirty_all: FxHashSet::default(),
            dirty_by_target: FxHashMap::default(),
            pending: 0,
            accepted: 0,
            applied: 0,
            last_flush: now,
            hold_until: now,
        };
        IngestState {
            options,
            inner: Mutex::new(inner),
            counters: IngestCounters::default(),
        }
    }

    /// Whether the debounce window of an *automatic* flush is open:
    /// pending work, and either the dirty-set bound was hit (which
    /// overrides the rate cap — the log stays bounded) or the coalescing
    /// interval elapsed with the rate cap satisfied.
    pub(crate) fn auto_flush_due(&self, inner: &IngestInner) -> bool {
        if inner.pending == 0 {
            return false;
        }
        if inner.pending >= self.options.max_dirty as u64 {
            return true;
        }
        inner.last_flush.elapsed() >= self.options.flush_interval
            && Instant::now() >= inner.hold_until
    }
}

/// The locked half of [`IngestState`]: the tenant's table with every
/// accepted delta applied, the pending seqno window, and the coalesced
/// dirty sets.
#[derive(Debug)]
pub(crate) struct IngestInner {
    /// The configured predicate dimensions, in configuration order — the
    /// circuit's dimension indexing, and the first columns of `table`.
    dims: Vec<String>,
    /// The configured targets: the columns of `table` after the
    /// dimensions.
    targets: Vec<String>,
    /// The columns delta tuples follow: those of the dataset most
    /// recently registered or refreshed.
    schema: Schema,
    /// For every column of `table`, its position in a delta tuple.
    columns: Vec<usize>,
    /// The tenant's live projection with every accepted delta applied.
    /// It is shared with the runtime until the first delta after a flush
    /// copies it, and patched in place from then on.
    table: Arc<Table>,
    /// Admissible dimension-subset masks (shared with the enumerator).
    masks: Vec<u32>,
    /// Value combinations dirtied for every target, as normalized
    /// (sorted) predicate lists.
    dirty_all: FxHashSet<DirtyKey>,
    /// Value combinations dirtied for a single target only.
    dirty_by_target: FxHashMap<String, FxHashSet<DirtyKey>>,
    /// Deltas accepted but not yet flushed into the store.
    pub(crate) pending: u64,
    /// Newest accepted sequence number (0 = none yet).
    pub(crate) accepted: u64,
    /// Newest sequence number reflected in the store.
    pub(crate) applied: u64,
    pub(crate) last_flush: Instant,
    hold_until: Instant,
}

impl IngestInner {
    /// Validate a whole batch against the running row count, *then*
    /// apply every delta to the table and fold its dirty keys into the
    /// coalesced sets. Validation is separated so a bad delta rejects the
    /// batch before any of it is applied. Returns the `(first, last)`
    /// sequence numbers stamped on the batch.
    pub(crate) fn accept(&mut self, deltas: &[RowDelta]) -> Result<(u64, u64)> {
        let mut count = self.table.len();
        for (offset, delta) in deltas.iter().enumerate() {
            let invalid = |detail: String| EngineError::InvalidDelta {
                detail: format!("delta #{offset}: {detail}"),
            };
            match delta {
                RowDelta::Insert(values) => {
                    self.validate_row(values).map_err(invalid)?;
                    count += 1;
                }
                RowDelta::Update { row, values } => {
                    check_index(*row, count).map_err(invalid)?;
                    self.validate_row(values).map_err(invalid)?;
                }
                RowDelta::Delete { row } => {
                    check_index(*row, count).map_err(invalid)?;
                    count -= 1;
                }
            }
        }
        let first = self.accepted + 1;
        for delta in deltas {
            self.apply(delta);
            self.accepted += 1;
            self.pending += 1;
        }
        Ok((first, self.accepted))
    }

    /// The row check every table write makes, against the columns the
    /// tuple follows, plus the circuit's own requirements: no NULL
    /// dimensions and numeric targets (the relation encoder would reject
    /// them later, after acceptance — too late).
    fn validate_row(&self, values: &[Value]) -> std::result::Result<(), String> {
        self.schema
            .check_row(values)
            .map_err(|error| error.to_string())?;
        let (dim_cols, rest) = self.columns.split_at(self.dims.len());
        for (dim, &col) in self.dims.iter().zip(dim_cols) {
            if values[col].is_null() {
                return Err(format!("NULL dimension value in '{dim}'"));
            }
        }
        for (target, &col) in self.targets.iter().zip(rest) {
            if values[col].as_f64().is_none() {
                return Err(format!("non-numeric target value in '{target}'"));
            }
        }
        Ok(())
    }

    /// Apply one validated delta and mark the dirty keys it produces. Keys
    /// are read from the table's cells, before the write for the row's
    /// old values and after it for its new ones, so they are spelled as
    /// the relation encoder spells the stored values.
    fn apply(&mut self, delta: &RowDelta) {
        const VALIDATED: &str = "every delta is validated before the batch applies";
        match delta {
            RowDelta::Insert(values) => {
                // Membership of every subset containing the new row
                // changes (and the prior drifts anyway).
                let values = self.project(values);
                self.table_mut().push_row(values).expect(VALIDATED);
                let new = self.table.row(self.table.len() - 1);
                self.mark_all(&self.dim_values(&new));
            }
            RowDelta::Update { row, values } => {
                let old = self.table.row(*row);
                let values = self.project(values);
                self.table_mut().set_row(*row, values).expect(VALIDATED);
                let new = self.table.row(*row);
                let (old_dims, new_dims) = (self.dim_values(&old), self.dim_values(&new));
                if old_dims != new_dims {
                    // The row moved between subsets: both its old and
                    // new combinations change content, for every target
                    // (facts scope over dimensions regardless of which
                    // target a summary describes).
                    self.mark_all(&old_dims);
                    self.mark_all(&new_dims);
                } else {
                    // Same subsets; only targets whose value changed
                    // have summaries with changed content.
                    let targets = self.dims.len()..self.dims.len() + self.targets.len();
                    let cells = old[targets.clone()].iter().zip(&new[targets]);
                    for (target, (old, new)) in cells.enumerate() {
                        if old != new {
                            self.mark_target(target, &old_dims);
                        }
                    }
                }
            }
            RowDelta::Delete { row } => {
                let old = self.table.row(*row);
                self.mark_all(&self.dim_values(&old));
                self.table_mut().remove_row(*row).expect(VALIDATED);
            }
        }
    }

    /// The table, copied first if the runtime still shares it.
    fn table_mut(&mut self) -> &mut Table {
        Arc::make_mut(&mut self.table)
    }

    /// A delta tuple's values in the table's column order.
    fn project(&self, values: &[Value]) -> Vec<Value> {
        self.columns
            .iter()
            .map(|&col| values[col].clone())
            .collect()
    }

    /// A row's cells on every circuit dimension (the table's first
    /// columns), spelled as the relation encoder spells them, so dirty
    /// keys compare equal to enumerated predicates. The table holds no
    /// NULL dimension: deltas are validated and the registered table
    /// already passed the encoder.
    fn dim_values(&self, row: &[Value]) -> Vec<String> {
        row[..self.dims.len()]
            .iter()
            .map(Value::to_string)
            .collect()
    }

    /// Mark every admissible combination of `dim_values` dirty for all
    /// targets.
    fn mark_all(&mut self, dim_values: &[String]) {
        for &mask in &self.masks {
            let key = self.combo_key(dim_values, mask);
            self.dirty_all.insert(key);
        }
    }

    /// Mark every admissible combination of `dim_values` dirty for the
    /// `target`-th target.
    fn mark_target(&mut self, target: usize, dim_values: &[String]) {
        let mut keys = Vec::with_capacity(self.masks.len());
        for &mask in &self.masks {
            keys.push(self.combo_key(dim_values, mask));
        }
        self.dirty_by_target
            .entry(self.targets[target].clone())
            .or_default()
            .extend(keys);
    }

    /// The normalized predicate list of one `(row, mask)` pair — sorted
    /// by dimension name, exactly as [`crate::problem::Query`] stores
    /// predicates.
    fn combo_key(&self, dim_values: &[String], mask: u32) -> Vec<(String, String)> {
        let mut key: Vec<(String, String)> = masked_combo(dim_values, mask)
            .into_iter()
            .map(|(d, value)| (self.dims[d].clone(), value))
            .collect();
        key.sort();
        key
    }

    /// The table with every accepted delta applied: what a flush solves
    /// over and publishes as the tenant's live table.
    pub(crate) fn table(&self) -> &Arc<Table> {
        &self.table
    }

    /// The coalesced dirty sets, for `generator::Invalidation::DirtyKeys`.
    pub(crate) fn dirty(
        &self,
    ) -> (
        &FxHashSet<DirtyKey>,
        &FxHashMap<String, FxHashSet<DirtyKey>>,
    ) {
        (&self.dirty_all, &self.dirty_by_target)
    }

    /// Book-keeping after a successful flush that re-solved `solves`
    /// summaries: the log is drained, the dirty sets cleared, and the
    /// rate-cap gate advanced.
    pub(crate) fn drained(&mut self, solves: usize, max_solves_per_sec: u32) {
        self.pending = 0;
        self.applied = self.accepted;
        self.dirty_all.clear();
        self.dirty_by_target.clear();
        self.last_flush = Instant::now();
        self.hold_until = if max_solves_per_sec > 0 {
            self.last_flush + Duration::from_secs_f64(solves as f64 / f64::from(max_solves_per_sec))
        } else {
            self.last_flush
        };
    }

    /// The caller handed an authoritative full dataset with `schema` (a
    /// batch `refresh`), projected to `table`: it replaces the log's
    /// table, later delta tuples follow `schema`, and everything pending
    /// is considered applied by that refresh.
    pub(crate) fn reset_from(&mut self, schema: &Schema, table: Arc<Table>) {
        self.columns = tuple_columns(schema, &table);
        self.schema = schema.clone();
        self.table = table;
        self.drained(0, 0);
    }
}

/// For every column of the live `table`, its position in a delta tuple
/// whose columns follow `schema`. Registration and every full refresh
/// build the mapping here, from the dataset they project `table` from, so
/// every column is found.
fn tuple_columns(schema: &Schema, table: &Table) -> Vec<usize> {
    let position = |name| schema.index_of(name).expect("projected from this schema");
    table.schema().names().map(position).collect()
}

fn check_index(row: usize, count: usize) -> std::result::Result<(), String> {
    if row < count {
        return Ok(());
    }
    Err(format!("row index {row} out of bounds ({count} rows)"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tenant table whose dataset columns already are the live
    /// projection's (season, region, delay), and a log sharing it.
    fn state() -> (Arc<Table>, IngestState) {
        use vqs_data::{DimSpec, SynthSpec, TargetSpec};
        let dataset = SynthSpec {
            name: "ingest".to_string(),
            dims: vec![
                DimSpec::named("season", &["Winter", "Summer"]),
                DimSpec::named("region", &["East", "West"]),
            ],
            targets: vec![TargetSpec::new("delay", 15.0, 8.0, 2.0, (0.0, 60.0))],
            rows: 8,
        }
        .generate(11, 1.0);
        let config = Configuration::new("ingest", &["season", "region"], &["delay"]);
        let table = Arc::new(dataset.table);
        let state = IngestState::new(
            IngestBuilder::new(),
            table.schema(),
            Arc::clone(&table),
            &config,
        );
        (table, state)
    }

    fn row(season: &str, region: &str, delay: f64) -> Vec<Value> {
        vec![Value::str(season), Value::str(region), Value::Float(delay)]
    }

    #[test]
    fn batches_validate_before_applying() {
        let (shared, state) = state();
        let mut inner = state.inner.lock();
        // Second delta is out of bounds: nothing of the batch applies,
        // and the shared table is not even copied.
        let err = inner
            .accept(&[
                RowDelta::Insert(row("Winter", "East", 12.0)),
                RowDelta::Delete { row: 999 },
            ])
            .unwrap_err();
        assert!(matches!(err, EngineError::InvalidDelta { .. }));
        assert!(Arc::ptr_eq(&inner.table, &shared));
        assert_eq!(inner.accepted, 0);

        let err = inner
            .accept(&[RowDelta::Insert(vec![Value::Null])])
            .unwrap_err();
        assert!(err.to_string().contains("arity"));
        let err = inner
            .accept(&[RowDelta::Insert(vec![
                Value::Null,
                Value::str("East"),
                Value::Float(1.0),
            ])])
            .unwrap_err();
        assert!(err.to_string().contains("NULL"));
    }

    #[test]
    fn delete_shifts_indexes_like_vec_remove() {
        let (_shared, state) = state();
        let mut inner = state.inner.lock();
        let second = inner.table.row(1);
        let (first, last) = inner.accept(&[RowDelta::Delete { row: 0 }]).unwrap();
        assert_eq!((first, last), (1, 1));
        assert_eq!(inner.table.row(0), second);
        assert_eq!(inner.pending, 1);
    }

    #[test]
    fn dimension_change_dirties_old_and_new_combos_for_all_targets() {
        let (_shared, state) = state();
        let mut inner = state.inner.lock();
        let mut moved = inner.table.row(0);
        let old_season = moved[0].as_str().unwrap().to_string();
        let new_season = if old_season == "Winter" {
            "Winter2"
        } else {
            "Winter"
        };
        moved[0] = Value::str(new_season);
        inner
            .accept(&[RowDelta::Update {
                row: 0,
                values: moved,
            }])
            .unwrap();
        let (all, by_target) = inner.dirty();
        assert!(by_target.is_empty());
        // Overall query, both season combos, and the region combo.
        assert!(all.contains(&Vec::new()));
        assert!(all.contains(&vec![("season".to_string(), old_season)]));
        assert!(all.contains(&vec![("season".to_string(), new_season.to_string())]));
    }

    #[test]
    fn target_only_change_dirties_only_that_target() {
        let (_shared, state) = state();
        let mut inner = state.inner.lock();
        let mut tweaked = inner.table.row(0);
        tweaked[2] = Value::Float(99.5);
        inner
            .accept(&[RowDelta::Update {
                row: 0,
                values: tweaked,
            }])
            .unwrap();
        let (all, by_target) = inner.dirty();
        assert!(all.is_empty());
        let dirty = &by_target["delay"];
        assert!(dirty.contains(&Vec::new()));
        assert_eq!(dirty.len(), 4); // overall, season, region, season×region
    }

    #[test]
    fn drain_bookkeeping_and_rate_gate() {
        let (_shared, state) = state();
        let mut inner = state.inner.lock();
        inner
            .accept(&[RowDelta::Insert(row("Winter", "East", 5.0))])
            .unwrap();
        assert!(state.auto_flush_due(&inner) || inner.pending > 0);
        inner.drained(10, 1);
        assert_eq!(inner.pending, 0);
        assert_eq!(inner.applied, inner.accepted);
        assert!(inner.hold_until > inner.last_flush);
        assert!(inner.dirty().0.is_empty());
    }

    #[test]
    fn first_delta_copies_a_shared_table_and_later_ones_patch_it() {
        let (shared, state) = state();
        let mut inner = state.inner.lock();
        inner
            .accept(&[RowDelta::Insert(row("Summer", "West", 1.0))])
            .unwrap();
        // The runtime's table is untouched; the log wrote to its copy.
        assert!(!Arc::ptr_eq(&inner.table, &shared));
        assert_eq!(inner.table.len(), shared.len() + 1);
        let copy = Arc::as_ptr(&inner.table);
        inner.accept(&[RowDelta::Delete { row: 0 }]).unwrap();
        assert_eq!(Arc::as_ptr(&inner.table), copy, "patched in place");
        inner.reset_from(shared.schema(), Arc::clone(&shared));
        assert!(Arc::ptr_eq(&inner.table, &shared));
        assert_eq!(inner.pending, 0);
    }
}
