//! The speech store: pre-generated answers and the run-time lookup.
//!
//! §III: at run time "the system maps voice queries to the most related
//! speech summary, generated during pre-processing … among all speeches
//! referencing the queried target column, the speech describing the most
//! specific data subset that contains the one referenced in the query is
//! used" — i.e. a stored speech for predicates `S ⊆ Q` with `|S ∩ Q|`
//! maximal.
//!
//! A store is built, published, and from then on only read. Registration,
//! a batch refresh and an ingest flush each build the tenant's next store
//! privately: `generator::resummarize_with` carries every kept speech's
//! [`Arc`] over from the published store and inserts the re-solved ones.
//! The service then publishes that store with the live table it was
//! solved over in one pointer write (see
//! [`crate::service::VoiceService::refresh_tenant`]). Writes therefore
//! take `&mut self`, and a published store is read without locks.
//!
//! The speeches form one set in which each speech hashes and compares
//! through its own query, so each query is kept once, inside its speech.
//! A per-target secondary index records, per predicate count, which
//! predicate-dimension sets hold speeches, so the generalization fallback
//! walks only subsets no longer than the longest stored query and probes
//! only those the index holds. The same index keeps each target's
//! follow-on hints: for every query one predicate short of a stored query,
//! the canonically smallest stored one-step extension, so a hint costs one
//! hash probe instead of a scan of the target's speeches. Speeches are
//! stored behind [`Arc`], so lookups hand out references without
//! deep-copying text and facts, and a rebuilt store shares every
//! untouched speech with the store it replaces.
//!
//! Names are shared, not copied: a speech holds its target, dimension and
//! value names as 16-byte [`Arc<str>`] handles
//! ([`crate::problem::Predicate`]), the follow-on index's keys clone the
//! handles of the queries they index, and the target index is keyed by
//! the target's handle. [`SpeechStore::approx_bytes`] counts every handle
//! as its slot and each distinct name allocation once.

use std::borrow::Borrow;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use vqs_core::delta::masks_of_size;
use vqs_core::prelude::Instrumentation;
use vqs_relalg::hash::{FxHashMap, FxHashSet, FxHasher};

use crate::problem::{NameBytes, Predicate, Query, StoredSpeech};

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
    /// Nothing matches: the target is unknown, or the store holds no
    /// speech for it (its table is empty).
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

/// Point-in-time copy of the store's run-time counters. A tenant's
/// successive stores share their counters, so the counts span every
/// store the tenant published.
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
    /// Approximate resident size of the store in bytes: per stored
    /// speech, its set slot (the speech's `Arc`, which is also its key:
    /// the query is kept once, inside the speech) plus what the speech
    /// owns (struct, boxed slices, text, with each name handle as its
    /// 16-byte slot); per follow-on hint, its slot (the parent query's
    /// predicates and the extension's `Arc`) plus the predicate slice;
    /// and once, however many handles share it, each distinct name
    /// allocation: its text plus the 16-byte `Arc` header. Computed by
    /// walking the speeches and the index at snapshot time, so it tracks
    /// the *current* contents — the scale benchmarks chart it against row
    /// count.
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
#[derive(Debug, Default)]
struct Counters {
    lookups: AtomicU64,
    probes: AtomicU64,
    exact_hits: AtomicU64,
    generalized_hits: AtomicU64,
    misses: AtomicU64,
}

/// Predicates of a query, the key of the follow-on index (looked up by
/// `&[Predicate]`, so a read allocates nothing). Its handles are clones
/// of the indexed query's.
type Predicates = Box<[Predicate]>;

/// The predicates of `query` without its `skip`-th one: the parent that
/// `query` extends by that predicate (still sorted), sharing its handles.
fn parent_of(query: &Query, skip: usize) -> Vec<Predicate> {
    let predicates = query.predicates();
    let mut parent = Vec::with_capacity(predicates.len() - 1);
    parent.extend_from_slice(&predicates[..skip]);
    parent.extend_from_slice(&predicates[skip + 1..]);
    parent
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

/// Per-target entry of the secondary index: the predicate-dimension sets
/// that hold at least one speech, the follow-on hints, plus the
/// target-column prior recorded at pre-processing time (consulted by
/// delta re-summarization).
#[derive(Debug, Default)]
struct TargetIndex {
    /// `dim_sets[k]`: [`dim_set_hash`] of every `k`-predicate dimension
    /// set that stored queries use. No level past the longest stored
    /// query holds an entry, which bounds the generalization walk.
    dim_sets: Vec<FxHashSet<u64>>,
    /// Parent predicates → the canonically smallest (by [`Query`]'s
    /// order) stored speech whose query extends them by one predicate.
    /// A parent is held exactly while it has a stored extension.
    followons: FxHashMap<Predicates, Arc<StoredSpeech>>,
    /// Global target average used as the §III constant prior.
    prior: Option<f64>,
}

/// A stored speech as its own set key: it hashes and compares through
/// its query (`Borrow<Query>`), so the set probes by `&Query` and keeps
/// no second copy of the query.
#[derive(Debug)]
struct Entry(Arc<StoredSpeech>);

impl PartialEq for Entry {
    fn eq(&self, other: &Entry) -> bool {
        self.0.query == other.0.query
    }
}

impl Eq for Entry {}

impl Hash for Entry {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.query.hash(state);
    }
}

impl Borrow<Query> for Entry {
    fn borrow(&self) -> &Query {
        &self.0.query
    }
}

/// A speech store, built by inserts and then published read-only.
///
/// Inserts take `&mut self`, so a store is written only while one owner
/// builds it; once shared, readers probe it without locks (§VIII-E
/// measures lookups in microseconds). Only the run-time counters change
/// after publication, through relaxed atomics.
#[derive(Debug, Default)]
pub struct SpeechStore {
    speeches: FxHashSet<Entry>,
    index: FxHashMap<Arc<str>, TargetIndex>,
    /// Shared with the stores built to replace this one
    /// (`SpeechStore::successor`).
    counters: Arc<Counters>,
}

impl SpeechStore {
    /// Empty store.
    pub fn new() -> SpeechStore {
        SpeechStore::default()
    }

    /// An empty store that shares this store's run-time counters: the
    /// store a re-summarization builds to replace this one, so lookups
    /// keep counting across every store a tenant publishes.
    pub(crate) fn successor(&self) -> SpeechStore {
        SpeechStore {
            counters: Arc::clone(&self.counters),
            ..SpeechStore::default()
        }
    }

    /// Insert (or replace) the answer for a query.
    pub fn insert(&mut self, speech: StoredSpeech) {
        self.insert_arc(Arc::new(speech));
    }

    /// Insert an already-shared speech (a rebuild carries every kept
    /// speech over this way, so it stays pointer-stable). The speech's
    /// own query is its key. Each parent the query extends by one
    /// predicate takes the speech as its follow-on hint when the query is
    /// smaller than the parent's current hint, or is that hint's query (a
    /// replace).
    pub fn insert_arc(&mut self, speech: Arc<StoredSpeech>) {
        let query = &speech.query;
        let target = self
            .index
            .entry(Arc::clone(query.target_handle()))
            .or_default();
        if self.speeches.replace(Entry(Arc::clone(&speech))).is_none() {
            let dims = dim_set_hash(query.predicates().iter().map(|(d, _)| &**d));
            let levels = &mut target.dim_sets;
            if levels.len() <= query.len() {
                levels.resize_with(query.len() + 1, FxHashSet::default);
            }
            levels[query.len()].insert(dims);
        }
        for skip in 0..query.len() {
            let parent = parent_of(query, skip);
            match target.followons.get_mut(parent.as_slice()) {
                Some(smallest) => {
                    if *query <= smallest.query {
                        *smallest = Arc::clone(&speech);
                    }
                }
                None => {
                    target
                        .followons
                        .insert(parent.into_boxed_slice(), Arc::clone(&speech));
                }
            }
        }
    }

    /// Bulk insert.
    pub fn extend(&mut self, speeches: impl IntoIterator<Item = StoredSpeech>) {
        for speech in speeches {
            self.insert(speech);
        }
    }

    /// Record the target-column prior used when this target's speeches
    /// were generated (the paper's constant global average).
    pub fn set_target_prior(&mut self, target: &str, prior: f64) {
        self.index.entry(Arc::from(target)).or_default().prior = Some(prior);
    }

    /// The recorded prior for a target, if it was ever pre-processed.
    pub fn target_prior(&self, target: &str) -> Option<f64> {
        self.index.get(target).and_then(|entry| entry.prior)
    }

    /// Number of stored speeches.
    pub fn len(&self) -> usize {
        self.speeches.len()
    }

    /// True when no speeches are stored.
    pub fn is_empty(&self) -> bool {
        self.speeches.is_empty()
    }

    /// Exact lookup only (not counted in the run-time stats).
    pub fn get(&self, query: &Query) -> Option<Arc<StoredSpeech>> {
        self.speeches
            .get(query)
            .map(|Entry(speech)| Arc::clone(speech))
    }

    /// The follow-on hint for `query`, stored or not: the canonically
    /// smallest (by [`Query`]'s order) stored speech whose query extends
    /// `query` by exactly one predicate. One probe of the follow-on
    /// index, kept current by every insert; `None` when no stored query
    /// extends `query`.
    pub fn follow_on(&self, query: &Query) -> Option<Arc<StoredSpeech>> {
        let target = self.index.get(query.target())?;
        target.followons.get(query.predicates()).cloned()
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
        let counters = &*self.counters;
        counters.lookups.fetch_add(1, Ordering::Relaxed);
        counters.probes.fetch_add(1, Ordering::Relaxed);
        if let Some(speech) = self.get(query) {
            counters.exact_hits.fetch_add(1, Ordering::Relaxed);
            return Lookup::Exact(speech);
        }
        // The full mask was probed exactly above, so the walk starts one
        // level below it.
        let n = query.len();
        if let Some(target) = self.index.get(query.target()) {
            let levels = target.dim_sets.iter().enumerate().take(n).rev();
            for (k, level) in levels.filter(|(_, level)| !level.is_empty()) {
                for mask in masks_of_size(n, k) {
                    let names = query
                        .predicates()
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| mask & (1 << i) != 0)
                        .map(|(_, (d, _))| &**d);
                    if !level.contains(&dim_set_hash(names)) {
                        continue;
                    }
                    counters.probes.fetch_add(1, Ordering::Relaxed);
                    let candidate = query.predicate_subset(mask);
                    if let Some(speech) = self.get(&candidate) {
                        counters.generalized_hits.fetch_add(1, Ordering::Relaxed);
                        return Lookup::Generalized {
                            speech,
                            kept_predicates: candidate.len(),
                        };
                    }
                }
            }
        }
        counters.misses.fetch_add(1, Ordering::Relaxed);
        Lookup::Miss
    }

    /// Snapshot of every stored query (unordered).
    pub fn queries(&self) -> Vec<Query> {
        self.speeches
            .iter()
            .map(|Entry(s)| s.query.clone())
            .collect()
    }

    /// Canonical snapshot of the whole store, sorted by query; two stores
    /// with equal contents produce equal snapshots regardless of
    /// insertion order.
    pub fn snapshot(&self) -> Vec<Arc<StoredSpeech>> {
        let mut speeches: Vec<Arc<StoredSpeech>> =
            self.speeches.iter().map(|Entry(s)| Arc::clone(s)).collect();
        speeches.sort_by(|a, b| a.query.cmp(&b.query));
        speeches
    }

    /// The run-time counters; `approx_bytes` is left 0.
    fn counters(&self) -> StoreStats {
        let counters = &*self.counters;
        StoreStats {
            lookups: counters.lookups.load(Ordering::Relaxed),
            probes: counters.probes.load(Ordering::Relaxed),
            exact_hits: counters.exact_hits.load(Ordering::Relaxed),
            generalized_hits: counters.generalized_hits.load(Ordering::Relaxed),
            misses: counters.misses.load(Ordering::Relaxed),
            approx_bytes: 0,
        }
    }

    /// Point-in-time copy of the run-time counters, plus the walked byte
    /// footprint.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            approx_bytes: self.approx_bytes() as u64,
            ..self.counters()
        }
    }

    /// Approximate resident size of the store in bytes (see
    /// [`StoreStats::approx_bytes`]): per-entry set overhead plus what
    /// each stored speech owns, the follow-on index's entries with their
    /// parent predicates, and each distinct name allocation once, found
    /// by address. One walk per call — a diagnostic, not a hot path.
    pub fn approx_bytes(&self) -> usize {
        let mut names = NameBytes::default();
        // Set slot (the speech's Arc, also its key) + hash bookkeeping.
        let mut bytes = self.speeches.len() * (std::mem::size_of::<Entry>() + 8);
        for Entry(speech) in &self.speeches {
            bytes += speech.own_bytes();
            names.count(speech.names());
        }
        for target in self.index.values() {
            // Map slot (parent predicates + Arc) + hash bookkeeping.
            bytes += target.followons.len()
                * (std::mem::size_of::<Predicates>()
                    + std::mem::size_of::<Arc<StoredSpeech>>()
                    + 8);
            for parent in target.followons.keys() {
                bytes += std::mem::size_of_val(&**parent);
                names.count(parent.iter().flat_map(|(d, v)| [d, v]));
            }
        }
        bytes + names.total()
    }

    /// Reset the run-time counters to zero.
    pub fn reset_stats(&self) {
        let counters = &*self.counters;
        for counter in [
            &counters.lookups,
            &counters.probes,
            &counters.exact_hits,
            &counters.generalized_hits,
            &counters.misses,
        ] {
            counter.store(0, Ordering::Relaxed);
        }
    }

    /// The run-time counters in [`Instrumentation`] form, so store effort
    /// composes with the pre-processing work counters.
    pub fn instrumentation(&self) -> Instrumentation {
        let stats = self.counters();
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

    use crate::problem::NamedFact;

    fn speech(target: &str, preds: &[(&str, &str)]) -> StoredSpeech {
        StoredSpeech {
            query: Query::of(target, preds),
            facts: Box::new([]),
            text: format!("speech for {target} {preds:?}").into(),
            utility: 1.0,
            base_error: 2.0,
            rows: 10,
        }
    }

    fn store() -> SpeechStore {
        let mut store = SpeechStore::new();
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
        let mut store = store();
        let small = store.approx_bytes();
        assert!(small > 0);
        // Per-entry accounting: adding a speech strictly grows the estimate,
        // and the snapshot in `stats()` matches the direct walk.
        store.extend([speech("delay", &[("region", "South")])]);
        assert!(store.approx_bytes() > small);
        assert_eq!(store.stats().approx_bytes, store.approx_bytes() as u64);
    }

    /// Two speeches over the names delay, season, Winter, region and
    /// East: one queries season Winter and scopes its fact to region
    /// East, the other the reverse. `name` makes each name's handle.
    fn crossed_speeches(mut name: impl FnMut(&str) -> Arc<str>) -> [StoredSpeech; 2] {
        let mut speech = |query: (&str, &str), scope: (&str, &str)| StoredSpeech {
            query: Query::new(name("delay"), [(name(query.0), name(query.1))]),
            facts: Box::new([NamedFact {
                scope: Box::new([(name(scope.0), name(scope.1))]),
                value: 1.0,
                support: 2,
            }]),
            text: "text".into(),
            utility: 1.0,
            base_error: 2.0,
            rows: 3,
        };
        [
            speech(("season", "Winter"), ("region", "East")),
            speech(("region", "East"), ("season", "Winter")),
        ]
    }

    #[test]
    fn shared_names_count_once_and_fresh_copies_count_each() {
        // Each name once: its text plus the 16-byte Arc header.
        let names: usize = ["delay", "season", "Winter", "region", "East"]
            .iter()
            .map(|name| 16 + name.len())
            .sum();
        let mut handles: FxHashMap<String, Arc<str>> = FxHashMap::default();
        let shared = crossed_speeches(|text| {
            let handle = handles
                .entry(text.to_string())
                .or_insert_with(|| Arc::from(text));
            Arc::clone(handle)
        });
        let fresh = crossed_speeches(|text| Arc::from(text.to_string()));
        // Alone, a speech counts each of the five names it mentions once.
        for speech in shared.iter().chain(&fresh) {
            assert_eq!(speech.approx_bytes(), speech.own_bytes() + names);
        }
        let stores = [shared, fresh].map(|speeches| {
            let mut store = SpeechStore::new();
            store.extend(speeches);
            assert_eq!(store.stats().approx_bytes, store.approx_bytes() as u64);
            store.approx_bytes()
        });
        // Same layout: the fresh store pays for a second copy of every
        // name, the shared one for one.
        assert_eq!(stores[1], stores[0] + names);
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
        let of_target = |target: &str| {
            store
                .snapshot()
                .iter()
                .filter(|s| s.query.target() == target)
                .count()
        };
        assert_eq!(of_target("delay"), 3);
        assert_eq!(of_target("cancelled"), 1);
        assert!(!store.is_empty());
    }

    #[test]
    fn contents_agree_across_insertion_orders() {
        let reference = store().snapshot();
        let mut reversed = SpeechStore::new();
        reversed.extend([
            speech("cancelled", &[]),
            speech("delay", &[("season", "Winter"), ("region", "East")]),
            speech("delay", &[]),
            speech("delay", &[("season", "Winter")]),
        ]);
        assert_eq!(reversed.len(), 4);
        assert_eq!(reversed.snapshot(), reference);
        let q = Query::of("delay", &[("season", "Winter"), ("region", "North")]);
        match reversed.lookup(&q) {
            Lookup::Generalized {
                kept_predicates, ..
            } => assert_eq!(kept_predicates, 1),
            other => panic!("expected generalized, got {other:?}"),
        }
    }

    #[test]
    fn insert_replaces_without_index_drift() {
        let mut store = SpeechStore::new();
        store.insert(speech("delay", &[("season", "Winter")]));
        let mut updated = speech("delay", &[("season", "Winter")]);
        updated.text = "updated".into();
        store.insert(updated);
        assert_eq!(store.len(), 1);
        let got = store
            .get(&Query::of("delay", &[("season", "Winter")]))
            .unwrap();
        assert_eq!(&*got.text, "updated");
        // The index still routes fallback to the surviving entry.
        let q = Query::of("delay", &[("season", "Winter"), ("region", "East")]);
        assert!(matches!(store.lookup(&q), Lookup::Generalized { .. }));
    }

    #[test]
    fn priors_round_trip() {
        let mut store = SpeechStore::new();
        assert_eq!(store.target_prior("delay"), None);
        store.set_target_prior("delay", 12.5);
        assert_eq!(store.target_prior("delay"), Some(12.5));
        // Setting a prior does not fabricate speeches.
        assert!(store.is_empty());
    }

    /// A successor starts empty, with no priors, and counts its lookups
    /// on top of its predecessor's.
    #[test]
    fn a_successor_continues_its_predecessors_counters() {
        let mut store = store();
        store.set_target_prior("delay", 12.5);
        store.lookup(&Query::of("delay", &[("season", "Winter")]));
        store.lookup(&Query::of("satisfaction", &[]));
        let mut next = store.successor();
        assert!(next.is_empty());
        assert_eq!(next.target_prior("delay"), None);
        next.insert(speech("delay", &[]));
        next.lookup(&Query::of("delay", &[("region", "West")]));
        let stats = next.stats();
        assert_eq!(
            (stats.lookups, stats.exact_hits, stats.generalized_hits),
            (3, 1, 1)
        );
        assert_eq!(stats.misses, 1);
        assert_eq!(store.stats().lookups, 3);
        // A fresh store counts from zero.
        assert_eq!(SpeechStore::new().stats().lookups, 0);
    }

    /// Readers share a published store without locks; its one set of
    /// relaxed counters still counts every lookup.
    #[test]
    fn concurrent_lookups_count_exactly() {
        let mut store = SpeechStore::new();
        store.extend((0..50).map(|i| speech("t", &[("d", &format!("v{i}"))])));
        std::thread::scope(|scope| {
            for t in 0..4 {
                let store = &store;
                scope.spawn(move || {
                    for i in 0..50 {
                        let hit = Query::of("t", &[("d", &format!("v{}", (i + t) % 50))]);
                        assert!(matches!(store.lookup(&hit), Lookup::Exact(_)));
                        assert_eq!(store.lookup(&Query::of("u", &[])), Lookup::Miss);
                    }
                });
            }
        });
        let stats = store.stats();
        assert_eq!(
            (stats.lookups, stats.exact_hits, stats.misses),
            (400, 200, 200)
        );
        assert_eq!(stats.probes, 400);
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
}
