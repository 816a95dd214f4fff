//! Differential testing: the index-accelerated store must agree with a
//! naive linear-scan reference on every lookup — exact hits,
//! generalization fallbacks including tie-breaking, and misses — and on
//! every follow-on hint, whatever order a set of speeches was inserted
//! in, plus an instrumented check that the fallback probes only indexed
//! candidates.

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use vqs_data::{DimSpec, SynthSpec, TargetSpec};
use vqs_engine::prelude::*;

/// What a lookup decided, reduced to comparable data.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Decision {
    Exact(Query),
    Generalized { query: Query, kept: usize },
    Miss,
}

fn decide(lookup: Lookup) -> Decision {
    match lookup {
        Lookup::Exact(speech) => Decision::Exact(speech.query.clone()),
        Lookup::Generalized {
            speech,
            kept_predicates,
        } => Decision::Generalized {
            query: speech.query.clone(),
            kept: kept_predicates,
        },
        Lookup::Miss => Decision::Miss,
    }
}

/// Reference implementation: one linear scan over all stored speeches.
///
/// The §III rule picks the stored `S ⊆ Q` maximizing `|S|`; ties are
/// broken exactly like [`Query::generalizations`] (and therefore like the
/// store): among equal sizes, the subset covering the
/// higher-order predicates of the normalized predicate list wins, i.e.
/// the larger bitmask over `Q.predicates()`.
#[derive(Default)]
struct NaiveStore {
    speeches: Vec<StoredSpeech>,
}

impl NaiveStore {
    fn insert(&mut self, speech: StoredSpeech) {
        if let Some(existing) = self.speeches.iter_mut().find(|s| s.query == speech.query) {
            *existing = speech;
        } else {
            self.speeches.push(speech);
        }
    }

    /// Bitmask of `query`'s predicates that `subset` retains, if
    /// `subset ⊆ query` on the same target.
    fn subset_mask(subset: &Query, query: &Query) -> Option<u64> {
        if subset.target() != query.target() {
            return None;
        }
        let mut mask = 0u64;
        for predicate in subset.predicates() {
            let position = query.predicates().iter().position(|p| p == predicate)?;
            mask |= 1 << position;
        }
        Some(mask)
    }

    fn lookup(&self, query: &Query) -> Decision {
        let mut best: Option<(usize, u64, &StoredSpeech)> = None;
        for speech in &self.speeches {
            let Some(mask) = Self::subset_mask(&speech.query, query) else {
                continue;
            };
            let rank = (speech.query.len(), mask);
            if best.as_ref().is_none_or(|(len, m, _)| rank > (*len, *m)) {
                best = Some((rank.0, rank.1, speech));
            }
        }
        match best {
            None => Decision::Miss,
            Some((len, _, speech)) if speech.query == *query => {
                debug_assert_eq!(len, query.len());
                Decision::Exact(speech.query.clone())
            }
            Some((len, _, speech)) => Decision::Generalized {
                query: speech.query.clone(),
                kept: len,
            },
        }
    }

    /// The follow-on hint by one linear scan: the canonically smallest
    /// stored speech whose query extends `query` by exactly one predicate.
    fn follow_on(&self, query: &Query) -> Option<&StoredSpeech> {
        self.speeches
            .iter()
            .filter(|s| s.query.len() == query.len() + 1 && query.subset_of(&s.query))
            .min_by(|a, b| a.query.cmp(&b.query))
    }
}

fn make_speech(query: Query) -> StoredSpeech {
    StoredSpeech {
        template: Arc::new(SpeechTemplate::plain(query.target())),
        facts: Box::new([]),
        utility: 1.0,
        base_error: 2.0,
        rows: 1 + query.len(),
        query,
    }
}

const TARGETS: [&str; 3] = ["delay", "cancelled", "satisfaction"];
const VALUES: [&str; 3] = ["x", "y", "z"];

/// The dimension name with index `d`: `a`, `b`, … .
fn dim(d: usize) -> String {
    char::from(b'a' + d as u8).to_string()
}

/// Random queries over a small universe so stored sets and probes overlap
/// often enough to exercise exact hits, every fallback depth, and misses.
fn arb_query() -> impl Strategy<Value = Query> {
    (
        0usize..3,
        prop::collection::vec((0usize..4, 0usize..3), 0..=3),
    )
        .prop_map(|(target, preds)| {
            Query::new(
                TARGETS[target],
                preds
                    .into_iter()
                    .map(|(d, v)| (dim(d), VALUES[v].to_string())),
            )
        })
}

/// Every query [`arb_query`] can draw: each target with every set of at
/// most 3 of the 12 (dimension, value) pairs.
fn query_universe() -> Vec<Query> {
    let pairs: Vec<(String, String)> = (0..4)
        .flat_map(|d| VALUES.iter().map(move |v| (dim(d), v.to_string())))
        .collect();
    let mut sets: Vec<Vec<(String, String)>> = vec![vec![]];
    for (i, first) in pairs.iter().enumerate() {
        sets.push(vec![first.clone()]);
        for (j, second) in pairs.iter().enumerate().skip(i + 1) {
            sets.push(vec![first.clone(), second.clone()]);
            for third in &pairs[j + 1..] {
                sets.push(vec![first.clone(), second.clone(), third.clone()]);
            }
        }
    }
    TARGETS
        .iter()
        .flat_map(|target| sets.iter().map(|set| Query::new(*target, set.clone())))
        .collect()
}

/// Long probes for stores of [`arb_query`]s: up to 16 predicates over a
/// 16-dimension universe `a`–`p` (one value per dimension), plus up to 3
/// more on `a`–`d` that repeat a dimension name with another value. The
/// longest stored query has 3 predicates, so the walk runs with `n` far
/// above it.
fn arb_long_query() -> impl Strategy<Value = Query> {
    (
        0usize..3,
        prop::collection::vec(0usize..4, 16),
        prop::collection::vec((0usize..4, 0usize..3), 0..=3),
    )
        .prop_map(|(target, wide, repeats)| {
            // Value index 3 leaves the dimension out.
            let wide = wide.into_iter().enumerate().filter(|&(_, v)| v < 3);
            Query::new(
                TARGETS[target],
                wide.chain(repeats)
                    .map(|(d, v)| (dim(d), VALUES[v].to_string())),
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // Indexed lookup ≡ naive linear scan, on short and long probes.
    #[test]
    fn store_matches_linear_scan_reference(
        stored in prop::collection::vec(arb_query(), 0..40),
        probes in prop::collection::vec(arb_query(), 1..25),
        long_probes in prop::collection::vec(arb_long_query(), 1..8),
    ) {
        let mut store = SpeechStore::new();
        let mut naive = NaiveStore::default();
        for query in stored {
            store.insert(make_speech(query.clone()));
            naive.insert(make_speech(query));
        }
        prop_assert_eq!(store.len(), naive.speeches.len());
        for probe in probes.iter().chain(&long_probes) {
            let got = decide(store.lookup(probe));
            let want = naive.lookup(probe);
            prop_assert_eq!(got, want, "probe {}", probe);
        }
    }

    // `get` is exact-only and agrees with the reference's exact entries.
    #[test]
    fn get_matches_reference_membership(
        stored in prop::collection::vec(arb_query(), 0..30),
        probes in prop::collection::vec(arb_query(), 1..20),
    ) {
        let mut store = SpeechStore::new();
        let mut naive = NaiveStore::default();
        for query in stored {
            store.insert(make_speech(query.clone()));
            naive.insert(make_speech(query));
        }
        for probe in &probes {
            let got = store.get(probe).map(|s| StoredSpeech::clone(&s));
            let want = naive.speeches.iter().find(|s| &s.query == probe).cloned();
            prop_assert_eq!(got, want);
        }
    }

    // The fallback never probes more than 1 + (indexed candidate
    // subsets) and never degenerates into a scan of the whole store.
    #[test]
    fn fallback_probe_budget_holds(
        stored in prop::collection::vec(arb_query(), 5..60),
        probe in arb_query(),
    ) {
        let mut store = SpeechStore::new();
        for query in stored {
            store.insert(make_speech(query));
        }
        store.reset_stats();
        let _ = store.lookup(&probe);
        let probes = store.stats().probes;
        // Upper bounds: every predicate subset (exact + 2^n - 1 candidates)
        // and, structurally, 1 + number of stored speeches for the target
        // sharing a dimension set with some subset of the probe.
        prop_assert!(probes <= 1u64 << probe.len().max(1));
        prop_assert!(probes as usize <= 1 + store.len());
    }
}

/// On a real pre-processed store the instrumented probe count shows the
/// fallback touching only indexed candidates — not the 2^n subset walk
/// and not a store scan (ISSUE 2 acceptance criterion).
#[test]
fn real_store_fallback_probe_count_is_indexed() {
    let data = SynthSpec {
        name: "probes".to_string(),
        dims: vec![
            DimSpec::named("season", &["Winter", "Summer"]),
            DimSpec::named("region", &["East", "West"]),
            DimSpec::named("daypart", &["am", "pm"]),
        ],
        targets: vec![TargetSpec::new("delay", 15.0, 8.0, 2.0, (0.0, 60.0))],
        rows: 400,
    }
    .generate(7, 1.0);
    let mut config = Configuration::new("probes", &["season", "region", "daypart"], &["delay"]);
    // Only 0- and 1-predicate queries are pre-generated: singleton
    // dimension sets plus the overall speech.
    config.max_query_length = 1;
    let service = ServiceBuilder::new().build();
    service
        .register_dataset(TenantSpec::new("probes", data, config))
        .unwrap();
    let store = service.tenant_store("probes").unwrap();
    assert_eq!(store.len(), 7); // overall + 3 dims × 2 values

    store.reset_stats();
    let probe = Query::of(
        "delay",
        &[("season", "Winter"), ("region", "East"), ("daypart", "am")],
    );
    match store.lookup(&probe) {
        Lookup::Generalized {
            kept_predicates, ..
        } => assert_eq!(kept_predicates, 1),
        other => panic!("expected generalized, got {other:?}"),
    }
    let instr = store.instrumentation();
    assert_eq!(instr.store_lookups, 1);
    // Candidates: the three singleton dimension sets are indexed, pairs
    // are not. The walk probes exact (1) + first singleton hit (1) = 2;
    // the unindexed 2-predicate subsets cost nothing.
    assert_eq!(instr.store_probes, 2);
    // Far below the full 2^3 = 8 subset walk and the store-scan bound.
    assert!(instr.store_probes < 8);
    assert!((instr.store_probes as usize) < store.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // A store built from a set of speeches answers like a linear scan of
    // the set, whatever order the speeches went in: a rebuild inserts the
    // kept speeches before the re-solved ones. Each drawn set is inserted
    // in two random orders, and every query of the universe (stored or
    // not) must get the reference's lookup decision and follow-on hint,
    // the canonically smallest one-step extension. A query drawn twice
    // is inserted twice with different utilities, so the hint must also
    // be the speech stored last for its query, not a replaced one.
    #[test]
    fn stores_built_in_any_order_match_linear_scan(
        drawn in prop::collection::vec(arb_query(), 0..40),
        orders in (any::<u64>(), any::<u64>()),
    ) {
        let universe = query_universe();
        let speeches: Vec<StoredSpeech> = drawn
            .into_iter()
            .enumerate()
            .map(|(index, query)| {
                let mut speech = make_speech(query);
                speech.utility = index as f64;
                speech
            })
            .collect();
        for seed in [orders.0, orders.1] {
            let mut order: Vec<usize> = (0..speeches.len()).collect();
            order.shuffle(&mut StdRng::seed_from_u64(seed));
            let mut store = SpeechStore::new();
            let mut naive = NaiveStore::default();
            for &index in &order {
                store.insert(speeches[index].clone());
                naive.insert(speeches[index].clone());
            }
            prop_assert_eq!(store.len(), naive.speeches.len());
            for query in &universe {
                prop_assert_eq!(
                    decide(store.lookup(query)),
                    naive.lookup(query),
                    "lookup {} in order {:?}",
                    query,
                    &order
                );
                let got = store
                    .follow_on(query)
                    .map(|s| (s.query.clone(), s.utility));
                let want = naive
                    .follow_on(query)
                    .map(|s| (s.query.clone(), s.utility));
                prop_assert_eq!(got, want, "follow-on of {} in order {:?}", query, &order);
            }
        }
    }
}
