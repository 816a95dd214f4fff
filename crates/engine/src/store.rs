//! The speech store: pre-generated answers and the run-time lookup.
//!
//! §III: at run time "the system maps voice queries to the most related
//! speech summary, generated during pre-processing … among all speeches
//! referencing the queried target column, the speech describing the most
//! specific data subset that contains the one referenced in the query is
//! used" — i.e. a stored speech for predicates `S ⊆ Q` with `|S ∩ Q|`
//! maximal.
//!
//! The store is sharded for concurrent traffic: speeches live in `N`
//! lock-striped hash shards selected by query hash, so pre-processing
//! writers and run-time readers contend only when they touch the same
//! shard. A per-target secondary index records, per predicate count,
//! which predicate-dimension sets actually hold speeches, so the
//! generalization fallback walks only subsets no longer than the longest
//! stored query and probes only those the index holds. Speeches are
//! stored behind [`Arc`], so lookups hand out references without
//! deep-copying text and facts, and delta re-summarization (see
//! [`crate::service::VoiceService::refresh_tenant`]) can assert
//! pointer stability of untouched entries.

use std::hash::BuildHasher;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use vqs_core::prelude::Instrumentation;
use vqs_relalg::hash::{FxHashMap, FxHasher};

use crate::problem::{Query, StoredSpeech};

/// Result of a store lookup. Speeches are shared via [`Arc`]: cloning a
/// lookup result never copies the speech text or facts.
#[derive(Debug, Clone, PartialEq)]
pub enum Lookup {
    /// A speech pre-generated for exactly this query.
    Exact(Arc<StoredSpeech>),
    /// Fallback to the most specific generalization (some predicates
    /// dropped); carries how many predicates were kept.
    Generalized {
        /// The speech served.
        speech: Arc<StoredSpeech>,
        /// Number of query predicates the served speech retains.
        kept_predicates: usize,
    },
    /// Nothing matches (unknown target).
    Miss,
}

impl Lookup {
    /// The speech, if any.
    pub fn speech(&self) -> Option<&StoredSpeech> {
        match self {
            Lookup::Exact(s) => Some(s),
            Lookup::Generalized { speech, .. } => Some(speech),
            Lookup::Miss => None,
        }
    }
}

/// Point-in-time copy of the store's run-time counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Lookups served (exact, generalized, or miss).
    pub lookups: u64,
    /// Hash probes issued across all lookups (1 per exact probe plus 1
    /// per indexed generalization candidate).
    pub probes: u64,
    /// Lookups answered by an exact hit.
    pub exact_hits: u64,
    /// Lookups answered by a generalization.
    pub generalized_hits: u64,
    /// Lookups answered by a miss.
    pub misses: u64,
    /// Approximate resident size of the stored speeches in bytes
    /// (struct + heap estimate per entry, see
    /// [`StoredSpeech::approx_bytes`]). Computed by walking the shards
    /// at snapshot time, so it tracks the *current* contents — the
    /// scale benchmarks chart it against row count.
    pub approx_bytes: u64,
}

impl StoreStats {
    /// Accumulate another snapshot (cross-tenant aggregation in
    /// [`crate::service::ServiceStats`]).
    pub fn merge(&mut self, other: &StoreStats) {
        self.lookups += other.lookups;
        self.probes += other.probes;
        self.exact_hits += other.exact_hits;
        self.generalized_hits += other.generalized_hits;
        self.misses += other.misses;
        self.approx_bytes += other.approx_bytes;
    }
}

/// Run-time counters, updated with relaxed atomics on the lookup path.
/// One cache-line-aligned stripe per shard: every lookup writes only the
/// stripe of the shard its query hashes to, so counter updates never
/// bounce a shared line between threads working different shards.
#[repr(align(64))]
#[derive(Debug, Default)]
struct CounterStripe {
    lookups: AtomicU64,
    probes: AtomicU64,
    exact_hits: AtomicU64,
    generalized_hits: AtomicU64,
    misses: AtomicU64,
}

/// Heap bytes behind a [`Query`]: the target string plus the predicate
/// vector and its strings (string lengths, not capacities — the stable
/// lower bound).
fn query_heap_bytes(query: &Query) -> usize {
    let mut bytes = query.target().len();
    bytes += std::mem::size_of_val(query.predicates());
    for (dim, value) in query.predicates() {
        bytes += dim.len() + value.len();
    }
    bytes
}

/// Order-sensitive hash of a predicate-dimension name set (the names are
/// already sorted by [`Query`] normalization). Keying the secondary index
/// by this hash keeps fallback membership checks allocation-free; a
/// collision merely costs one extra (missing) probe, never a wrong
/// answer.
fn dim_set_hash<'a>(names: impl Iterator<Item = &'a str>) -> u64 {
    let mut hasher = FxHasher::default();
    for name in names {
        hasher.write(name.as_bytes());
        // Separator so ["ab","c"] and ["a","bc"] cannot collide trivially.
        hasher.write_u8(0xFF);
    }
    hasher.finish()
}

/// The `k`-bit masks below `1 << n`, in decreasing order (`k < n < 64`).
/// Their complements are the `(n − k)`-bit masks in increasing order,
/// which Gosper's hack steps through without shifting past bit `n`.
fn masks_of_size(n: usize, k: usize) -> impl Iterator<Item = u64> {
    let all = (1u64 << n) - 1;
    std::iter::successors(Some((1u64 << (n - k)) - 1), move |&c| {
        let low = c & c.wrapping_neg();
        let ripple = c + low;
        let next = ripple | (((c ^ ripple) >> 2) / low);
        (next <= all).then_some(next)
    })
    .map(move |c| all ^ c)
}

/// Per-target entry of the secondary index: the predicate-dimension sets
/// that currently hold at least one speech (with a count for removal
/// bookkeeping), plus the target-column prior recorded at pre-processing
/// time (consulted by delta re-summarization).
#[derive(Debug, Default)]
struct TargetIndex {
    /// `dim_sets[k]`: [`dim_set_hash`] of a `k`-predicate dimension set →
    /// number of stored queries with it. No level past the longest stored
    /// query holds an entry, which bounds the generalization walk.
    dim_sets: Vec<FxHashMap<u64, usize>>,
    /// Global target average used as the §III constant prior.
    prior: Option<f64>,
}

type Shard = RwLock<FxHashMap<Query, Arc<StoredSpeech>>>;

/// Thread-safe, sharded speech store.
///
/// Pre-processing threads insert concurrently; the voice runtime performs
/// short read-locked hash probes (§VIII-E measures lookups in
/// microseconds). No method ever holds two locks at once, so readers and
/// writers cannot deadlock regardless of interleaving; the secondary
/// index may briefly trail a concurrent insert, which only costs a
/// transiently more general answer, never a malformed one.
#[derive(Debug)]
pub struct SpeechStore {
    shards: Box<[Shard]>,
    /// `shards.len() - 1`; the shard count is a power of two.
    mask: u64,
    index: RwLock<FxHashMap<String, TargetIndex>>,
    counters: Box<[CounterStripe]>,
}

/// Default shard count: enough stripes that 8–16 mixed readers/writers
/// rarely collide, while keeping full-store scans cheap.
pub const DEFAULT_SHARDS: usize = 16;

impl Default for SpeechStore {
    fn default() -> SpeechStore {
        SpeechStore::new()
    }
}

impl SpeechStore {
    /// Empty store with [`DEFAULT_SHARDS`] shards.
    pub fn new() -> SpeechStore {
        SpeechStore::with_shards(DEFAULT_SHARDS)
    }

    /// Empty store with at least `shards` shards (rounded up to a power
    /// of two so shard selection is a mask, not a division).
    pub fn with_shards(shards: usize) -> SpeechStore {
        let count = shards.max(1).next_power_of_two();
        SpeechStore {
            shards: (0..count).map(|_| Shard::default()).collect(),
            mask: count as u64 - 1,
            index: RwLock::default(),
            counters: (0..count).map(|_| CounterStripe::default()).collect(),
        }
    }

    /// Number of shards (always a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard_index(&self, query: &Query) -> usize {
        let hash = BuildHasherDefault::<FxHasher>::default().hash_one(query);
        (hash & self.mask) as usize
    }

    fn shard(&self, query: &Query) -> &Shard {
        &self.shards[self.shard_index(query)]
    }

    /// Insert (or replace) the answer for a query.
    pub fn insert(&self, speech: StoredSpeech) {
        self.insert_arc(Arc::new(speech));
    }

    /// Insert an already-shared speech (used by the refresh path to keep
    /// untouched entries pointer-stable).
    pub fn insert_arc(&self, speech: Arc<StoredSpeech>) {
        let query = speech.query.clone();
        let replaced = self.shard(&query).write().insert(query.clone(), speech);
        if replaced.is_none() {
            let dims = dim_set_hash(query.predicates().iter().map(|(d, _)| d.as_str()));
            let mut index = self.index.write();
            let levels = &mut index
                .entry(query.target().to_string())
                .or_default()
                .dim_sets;
            if levels.len() <= query.len() {
                levels.resize_with(query.len() + 1, FxHashMap::default);
            }
            *levels[query.len()].entry(dims).or_insert(0) += 1;
        }
    }

    /// Bulk insert.
    pub fn extend(&self, speeches: impl IntoIterator<Item = StoredSpeech>) {
        for speech in speeches {
            self.insert(speech);
        }
    }

    /// Remove the speech stored for exactly this query, if any.
    pub fn remove(&self, query: &Query) -> Option<Arc<StoredSpeech>> {
        let removed = self.shard(query).write().remove(query);
        if removed.is_some() {
            let dims = dim_set_hash(query.predicates().iter().map(|(d, _)| d.as_str()));
            let mut index = self.index.write();
            let level = index
                .get_mut(query.target())
                .and_then(|entry| entry.dim_sets.get_mut(query.len()));
            if let Some(level) = level {
                if let Some(count) = level.get_mut(&dims) {
                    *count -= 1;
                    if *count == 0 {
                        level.remove(&dims);
                    }
                }
            }
        }
        removed
    }

    /// Drop every speech for a target column; returns how many were
    /// removed. Also forgets the target's recorded prior, so the next
    /// [`crate::service::VoiceService::refresh_tenant`] recomputes the
    /// target from scratch.
    pub fn invalidate_target(&self, target: &str) -> usize {
        let mut removed = 0;
        for shard in self.shards.iter() {
            let mut map = shard.write();
            let before = map.len();
            map.retain(|query, _| query.target() != target);
            removed += before - map.len();
        }
        self.index.write().remove(target);
        removed
    }

    /// Record the target-column prior used when this target's speeches
    /// were generated (the paper's constant global average).
    pub fn set_target_prior(&self, target: &str, prior: f64) {
        self.index
            .write()
            .entry(target.to_string())
            .or_default()
            .prior = Some(prior);
    }

    /// The recorded prior for a target, if it was ever pre-processed.
    pub fn target_prior(&self, target: &str) -> Option<f64> {
        self.index.read().get(target).and_then(|entry| entry.prior)
    }

    /// Number of stored speeches.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|shard| shard.read().len()).sum()
    }

    /// True when no speeches are stored.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|shard| shard.read().is_empty())
    }

    /// Exact lookup only (not counted in the run-time stats).
    pub fn get(&self, query: &Query) -> Option<Arc<StoredSpeech>> {
        self.shard(query).read().get(query).cloned()
    }

    /// The §III run-time lookup with most-specific-generalization
    /// fallback. After the exact probe misses, the walk visits the
    /// `k`-predicate subsets of the query for `k` from `min(n − 1, longest
    /// stored query)` down to 0, each level in decreasing mask order (the
    /// tie-break of [`Query::generalizations`]), and skips levels that
    /// hold no speech. Only subsets whose dimension set the secondary
    /// index holds are probed.
    ///
    /// Predicate masks are `u64`, so `query` must have fewer than 64
    /// predicates; the analyzer emits at most
    /// [`crate::config::Configuration::max_query_length`].
    pub fn lookup(&self, query: &Query) -> Lookup {
        // One hash selects both the shard and the counter stripe.
        let shard_index = self.shard_index(query);
        let stripe = &self.counters[shard_index];
        stripe.lookups.fetch_add(1, Ordering::Relaxed);
        stripe.probes.fetch_add(1, Ordering::Relaxed);
        if let Some(speech) = self.shards[shard_index].read().get(query).cloned() {
            stripe.exact_hits.fetch_add(1, Ordering::Relaxed);
            return Lookup::Exact(speech);
        }
        // Select the candidate masks under the index read lock alone
        // (never while holding a shard lock: lock-order freedom from
        // deadlock), in probe order; the full mask was probed exactly
        // above, so the walk starts one level below it.
        let n = query.len();
        let candidates: Option<Vec<u64>> = {
            let index = self.index.read();
            index.get(query.target()).map(|entry| {
                let levels = entry.dim_sets.iter().enumerate().take(n).rev();
                let mut candidates = Vec::new();
                for (k, level) in levels.filter(|(_, level)| !level.is_empty()) {
                    candidates.extend(masks_of_size(n, k).filter(|&mask| {
                        let names = query
                            .predicates()
                            .iter()
                            .enumerate()
                            .filter(|(i, _)| mask & (1 << i) != 0)
                            .map(|(_, (d, _))| d.as_str());
                        level.contains_key(&dim_set_hash(names))
                    }));
                }
                candidates
            })
        };
        let Some(candidates) = candidates else {
            stripe.misses.fetch_add(1, Ordering::Relaxed);
            return Lookup::Miss;
        };
        for mask in candidates {
            stripe.probes.fetch_add(1, Ordering::Relaxed);
            let candidate = query.predicate_subset(mask);
            if let Some(speech) = self.shard(&candidate).read().get(&candidate).cloned() {
                stripe.generalized_hits.fetch_add(1, Ordering::Relaxed);
                return Lookup::Generalized {
                    speech,
                    kept_predicates: candidate.len(),
                };
            }
        }
        stripe.misses.fetch_add(1, Ordering::Relaxed);
        Lookup::Miss
    }

    /// All stored speeches for a target column (diagnostics / studies).
    pub fn speeches_for_target(&self, target: &str) -> Vec<Arc<StoredSpeech>> {
        self.shards
            .iter()
            .flat_map(|shard| {
                shard
                    .read()
                    .values()
                    .filter(|s| s.query.target() == target)
                    .cloned()
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    /// Snapshot of every stored query (unordered).
    pub fn queries(&self) -> Vec<Query> {
        self.shards
            .iter()
            .flat_map(|shard| shard.read().keys().cloned().collect::<Vec<_>>())
            .collect()
    }

    /// Canonical snapshot of the whole store, sorted by query; two stores
    /// with equal contents produce equal snapshots regardless of shard
    /// count or insertion order.
    pub fn snapshot(&self) -> Vec<Arc<StoredSpeech>> {
        let mut speeches: Vec<Arc<StoredSpeech>> = self
            .shards
            .iter()
            .flat_map(|shard| shard.read().values().cloned().collect::<Vec<_>>())
            .collect();
        speeches.sort_by(|a, b| a.query.cmp(&b.query));
        speeches
    }

    /// Point-in-time copy of the run-time counters (summed over the
    /// per-shard stripes), plus the walked byte footprint.
    pub fn stats(&self) -> StoreStats {
        let mut stats = StoreStats::default();
        for stripe in self.counters.iter() {
            stats.lookups += stripe.lookups.load(Ordering::Relaxed);
            stats.probes += stripe.probes.load(Ordering::Relaxed);
            stats.exact_hits += stripe.exact_hits.load(Ordering::Relaxed);
            stats.generalized_hits += stripe.generalized_hits.load(Ordering::Relaxed);
            stats.misses += stripe.misses.load(Ordering::Relaxed);
        }
        stats.approx_bytes = self.approx_bytes() as u64;
        stats
    }

    /// Approximate resident size of the store in bytes: per-entry map
    /// overhead plus each stored speech's struct-and-heap estimate. One
    /// read-locked walk per call — a diagnostic, not a hot path.
    pub fn approx_bytes(&self) -> usize {
        let mut bytes = 0usize;
        for shard in self.shards.iter() {
            let map = shard.read();
            // Hash-map slot (key + Arc pointer + hash bookkeeping).
            bytes += map.len()
                * (std::mem::size_of::<Query>() + std::mem::size_of::<Arc<StoredSpeech>>() + 8);
            for (query, speech) in map.iter() {
                bytes += query_heap_bytes(query);
                bytes += speech.approx_bytes();
            }
        }
        bytes
    }

    /// Reset the run-time counters to zero.
    pub fn reset_stats(&self) {
        for stripe in self.counters.iter() {
            stripe.lookups.store(0, Ordering::Relaxed);
            stripe.probes.store(0, Ordering::Relaxed);
            stripe.exact_hits.store(0, Ordering::Relaxed);
            stripe.generalized_hits.store(0, Ordering::Relaxed);
            stripe.misses.store(0, Ordering::Relaxed);
        }
    }

    /// The run-time counters in [`Instrumentation`] form, so store effort
    /// composes with the pre-processing work counters.
    pub fn instrumentation(&self) -> Instrumentation {
        let stats = self.stats();
        Instrumentation {
            store_lookups: stats.lookups,
            store_probes: stats.probes,
            ..Instrumentation::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn speech(target: &str, preds: &[(&str, &str)]) -> StoredSpeech {
        StoredSpeech {
            query: Query::of(target, preds),
            facts: vec![],
            text: format!("speech for {target} {preds:?}"),
            utility: 1.0,
            base_error: 2.0,
            rows: 10,
        }
    }

    fn store() -> SpeechStore {
        let store = SpeechStore::new();
        store.extend([
            speech("delay", &[]),
            speech("delay", &[("season", "Winter")]),
            speech("delay", &[("season", "Winter"), ("region", "East")]),
            speech("cancelled", &[]),
        ]);
        store
    }

    #[test]
    fn approx_bytes_grows_with_contents() {
        let empty = SpeechStore::new();
        assert_eq!(empty.approx_bytes(), 0);
        let store = store();
        let small = store.approx_bytes();
        assert!(small > 0);
        // Per-entry accounting: adding a speech strictly grows the estimate,
        // and the snapshot in `stats()` matches the direct walk.
        store.extend([speech("delay", &[("region", "South")])]);
        assert!(store.approx_bytes() > small);
        assert_eq!(store.stats().approx_bytes, store.approx_bytes() as u64);
    }

    #[test]
    fn exact_hit() {
        let store = store();
        let q = Query::of("delay", &[("season", "Winter")]);
        assert!(matches!(store.lookup(&q), Lookup::Exact(_)));
    }

    #[test]
    fn fallback_most_specific() {
        let store = store();
        // No speech for (Winter, North): falls back to Winter (1 predicate),
        // not to the overall speech (0 predicates).
        let q = Query::of("delay", &[("season", "Winter"), ("region", "North")]);
        match store.lookup(&q) {
            Lookup::Generalized {
                speech,
                kept_predicates,
            } => {
                assert_eq!(kept_predicates, 1);
                assert_eq!(speech.query, Query::of("delay", &[("season", "Winter")]));
            }
            other => panic!("expected generalized, got {other:?}"),
        }
    }

    #[test]
    fn fallback_to_overall() {
        let store = store();
        let q = Query::of("delay", &[("region", "West")]);
        match store.lookup(&q) {
            Lookup::Generalized {
                speech,
                kept_predicates,
            } => {
                assert_eq!(kept_predicates, 0);
                assert!(speech.query.is_empty());
            }
            other => panic!("expected generalized, got {other:?}"),
        }
    }

    #[test]
    fn miss_on_unknown_target() {
        let store = store();
        let q = Query::of("satisfaction", &[]);
        assert_eq!(store.lookup(&q), Lookup::Miss);
        assert!(store.lookup(&q).speech().is_none());
    }

    #[test]
    fn target_filter_and_counts() {
        let store = store();
        assert_eq!(store.len(), 4);
        assert_eq!(store.speeches_for_target("delay").len(), 3);
        assert_eq!(store.speeches_for_target("cancelled").len(), 1);
        assert!(!store.is_empty());
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        assert_eq!(SpeechStore::with_shards(1).shard_count(), 1);
        assert_eq!(SpeechStore::with_shards(3).shard_count(), 4);
        assert_eq!(SpeechStore::with_shards(16).shard_count(), 16);
        assert_eq!(SpeechStore::new().shard_count(), DEFAULT_SHARDS);
    }

    #[test]
    fn contents_agree_across_shard_counts() {
        let reference = store().snapshot();
        for shards in [1, 2, 8, 64] {
            let sharded = SpeechStore::with_shards(shards);
            sharded.extend([
                speech("cancelled", &[]),
                speech("delay", &[("season", "Winter"), ("region", "East")]),
                speech("delay", &[]),
                speech("delay", &[("season", "Winter")]),
            ]);
            assert_eq!(sharded.len(), 4);
            assert_eq!(sharded.snapshot(), reference);
            let q = Query::of("delay", &[("season", "Winter"), ("region", "North")]);
            match sharded.lookup(&q) {
                Lookup::Generalized {
                    kept_predicates, ..
                } => assert_eq!(kept_predicates, 1),
                other => panic!("expected generalized with {shards} shards, got {other:?}"),
            }
        }
    }

    #[test]
    fn insert_replaces_without_index_drift() {
        let store = SpeechStore::new();
        store.insert(speech("delay", &[("season", "Winter")]));
        let mut updated = speech("delay", &[("season", "Winter")]);
        updated.text = "updated".to_string();
        store.insert(updated);
        assert_eq!(store.len(), 1);
        let got = store
            .get(&Query::of("delay", &[("season", "Winter")]))
            .unwrap();
        assert_eq!(got.text, "updated");
        // The index still routes fallback to the surviving entry.
        let q = Query::of("delay", &[("season", "Winter"), ("region", "East")]);
        assert!(matches!(store.lookup(&q), Lookup::Generalized { .. }));
    }

    #[test]
    fn remove_updates_index() {
        let store = store();
        let removed = store
            .remove(&Query::of("delay", &[("season", "Winter")]))
            .unwrap();
        assert_eq!(removed.query, Query::of("delay", &[("season", "Winter")]));
        assert_eq!(store.len(), 3);
        // The (season) dimension set is gone: the fallback now lands on
        // the overall speech without probing the removed combination.
        store.reset_stats();
        let q = Query::of("delay", &[("season", "Winter"), ("region", "North")]);
        match store.lookup(&q) {
            Lookup::Generalized {
                kept_predicates, ..
            } => assert_eq!(kept_predicates, 0),
            other => panic!("expected generalized, got {other:?}"),
        }
        // exact probe + overall candidate = 2 probes; the (season) subset
        // is no longer a candidate and (region) never was.
        assert_eq!(store.stats().probes, 2);
    }

    #[test]
    fn invalidate_target_clears_speeches_and_prior() {
        let store = store();
        store.set_target_prior("delay", 15.0);
        assert_eq!(store.invalidate_target("delay"), 3);
        assert_eq!(store.len(), 1);
        assert_eq!(store.target_prior("delay"), None);
        assert_eq!(store.lookup(&Query::of("delay", &[])), Lookup::Miss);
        assert!(store.get(&Query::of("cancelled", &[])).is_some());
    }

    #[test]
    fn priors_round_trip() {
        let store = SpeechStore::new();
        assert_eq!(store.target_prior("delay"), None);
        store.set_target_prior("delay", 12.5);
        assert_eq!(store.target_prior("delay"), Some(12.5));
        // Setting a prior does not fabricate speeches.
        assert!(store.is_empty());
    }

    #[test]
    fn fallback_probes_only_indexed_candidates() {
        let store = store();
        store.reset_stats();
        // 3 predicates → 8 subsets, but only {}, {season}, {season,region}
        // hold speeches; {season,daypart} etc. are never probed.
        let q = Query::of(
            "delay",
            &[
                ("season", "Winter"),
                ("region", "North"),
                ("daypart", "night"),
            ],
        );
        match store.lookup(&q) {
            Lookup::Generalized {
                kept_predicates, ..
            } => assert_eq!(kept_predicates, 1),
            other => panic!("expected generalized, got {other:?}"),
        }
        let stats = store.stats();
        // exact + (season,region) + (season) = 3 probes, far below the
        // 8 subset probes of the unindexed walk and below store size × 1
        // of a scan.
        assert_eq!(stats.probes, 3);
        assert_eq!(stats.lookups, 1);
        assert_eq!(stats.generalized_hits, 1);
        let instr = store.instrumentation();
        assert_eq!(instr.store_probes, 3);
        assert_eq!(instr.store_lookups, 1);
    }

    #[test]
    fn masks_of_size_walks_each_level_in_decreasing_order() {
        for n in 1..=10usize {
            for k in 0..n {
                let want: Vec<u64> = (0..1u64 << n)
                    .rev()
                    .filter(|mask| mask.count_ones() as usize == k)
                    .collect();
                assert_eq!(masks_of_size(n, k).collect::<Vec<_>>(), want, "n={n} k={k}");
            }
        }
        // The widest supported query: no shift or sum passes bit 63.
        assert_eq!(masks_of_size(63, 0).collect::<Vec<_>>(), vec![0]);
        let singles: Vec<u64> = masks_of_size(63, 1).collect();
        assert_eq!(
            singles,
            (0..63).rev().map(|i| 1u64 << i).collect::<Vec<_>>()
        );
        assert_eq!(masks_of_size(63, 62).count(), 63);
    }

    #[test]
    fn very_long_queries_walk_only_up_to_the_longest_stored_query() {
        let store = store();
        store.reset_stats();
        // 20 predicates against a longest stored query of 2: the walk
        // starts at 2-predicate subsets, not at 19.
        let mut preds: Vec<(String, String)> = (0..18)
            .map(|i| (format!("x{i:02}"), "v".to_string()))
            .collect();
        preds.push(("season".to_string(), "Winter".to_string()));
        preds.push(("region".to_string(), "East".to_string()));
        let q = Query::new("delay", preds);
        assert_eq!(q.len(), 20);
        match store.lookup(&q) {
            Lookup::Generalized {
                speech,
                kept_predicates,
            } => {
                assert_eq!(kept_predicates, 2);
                assert_eq!(
                    speech.query,
                    Query::of("delay", &[("season", "Winter"), ("region", "East")])
                );
            }
            other => panic!("expected generalized, got {other:?}"),
        }
        // exact probe + the (season, region) hit.
        assert_eq!(store.stats().probes, 2);
        // Unknown target: a miss.
        let mut preds: Vec<(String, String)> = (0..20)
            .map(|i| (format!("x{i:02}"), "v".to_string()))
            .collect();
        preds.push(("season".to_string(), "Winter".to_string()));
        assert_eq!(
            store.lookup(&Query::new("satisfaction", preds)),
            Lookup::Miss
        );
    }

    #[test]
    fn miss_on_unknown_target_costs_one_probe() {
        let store = store();
        store.reset_stats();
        assert_eq!(
            store.lookup(&Query::of("satisfaction", &[("a", "b")])),
            Lookup::Miss
        );
        let stats = store.stats();
        assert_eq!(stats.probes, 1);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn concurrent_inserts() {
        let store = SpeechStore::new();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let store = &store;
                scope.spawn(move || {
                    for i in 0..50 {
                        store.insert(speech("t", &[("d", &format!("v{t}_{i}"))]));
                    }
                });
            }
        });
        assert_eq!(store.len(), 200);
    }
}
