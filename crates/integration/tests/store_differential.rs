//! Differential testing: the sharded, index-accelerated store must agree
//! with a naive linear-scan reference on every lookup — exact hits,
//! generalization fallbacks including tie-breaking, and misses — and on
//! every follow-on hint through random sequences of writes, plus an
//! instrumented check that the fallback probes only indexed candidates.

use proptest::prelude::*;
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
/// sharded store): among equal sizes, the subset covering the
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
        text: format!("speech::{query}").into(),
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

/// One write of a follow-on sequence.
#[derive(Debug, Clone)]
enum Write {
    /// Insert a speech (a replace when its query is already stored).
    Insert(Query),
    /// Re-insert the `n`-th stored query (mod the stored count) with new
    /// text.
    Replace(usize),
    /// Remove the `n`-th stored query (mod the stored count).
    Remove(usize),
    /// Remove a drawn query, stored or not.
    RemoveDrawn(Query),
    /// Drop every speech of `TARGETS[t]`.
    Invalidate(usize),
}

fn arb_write() -> impl Strategy<Value = Write> {
    prop_oneof![
        arb_query().prop_map(Write::Insert),
        arb_query().prop_map(Write::Insert),
        arb_query().prop_map(Write::Insert),
        (0usize..64).prop_map(Write::Replace),
        (0usize..64).prop_map(Write::Remove),
        (0usize..64).prop_map(Write::Remove),
        arb_query().prop_map(Write::RemoveDrawn),
        (0usize..3).prop_map(Write::Invalidate),
    ]
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

    // Sharded lookup ≡ naive linear scan, for every shard count, on
    // short and long probes.
    #[test]
    fn sharded_store_matches_linear_scan_reference(
        stored in prop::collection::vec(arb_query(), 0..40),
        probes in prop::collection::vec(arb_query(), 1..25),
        shards in prop_oneof![Just(1usize), Just(2), Just(16)],
        long_probes in prop::collection::vec(arb_long_query(), 1..8),
    ) {
        let sharded = SpeechStore::with_shards(shards);
        let mut naive = NaiveStore::default();
        for query in stored {
            sharded.insert(make_speech(query.clone()));
            naive.insert(make_speech(query));
        }
        prop_assert_eq!(sharded.len(), naive.speeches.len());
        for probe in probes.iter().chain(&long_probes) {
            let got = decide(sharded.lookup(probe));
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
        let sharded = SpeechStore::new();
        let mut naive = NaiveStore::default();
        for query in stored {
            sharded.insert(make_speech(query.clone()));
            naive.insert(make_speech(query));
        }
        for probe in &probes {
            let got = sharded.get(probe).map(|s| s.text.clone());
            let want = naive
                .speeches
                .iter()
                .find(|s| &s.query == probe)
                .map(|s| s.text.clone());
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
        let sharded = SpeechStore::new();
        for query in stored {
            sharded.insert(make_speech(query));
        }
        sharded.reset_stats();
        let _ = sharded.lookup(&probe);
        let probes = sharded.stats().probes;
        // Upper bounds: every predicate subset (exact + 2^n - 1 candidates)
        // and, structurally, 1 + number of stored speeches for the target
        // sharing a dimension set with some subset of the probe.
        prop_assert!(probes <= 1u64 << probe.len().max(1));
        prop_assert!(probes as usize <= 1 + sharded.len());
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

    // The follow-on index ≡ a linear scan for the canonically smallest
    // one-step extension, for every query of the universe (stored or
    // not), after every write of a random insert / replace / remove /
    // invalidate sequence, for every shard count. The hint must also be
    // the speech currently stored for its query, not a replaced one.
    #[test]
    fn follow_on_hints_match_linear_scan_after_every_write(
        writes in prop::collection::vec(arb_write(), 1..40),
        shards in prop_oneof![Just(1usize), Just(2), Just(16)],
    ) {
        let universe = query_universe();
        let sharded = SpeechStore::with_shards(shards);
        let mut naive = NaiveStore::default();
        for (step, write) in writes.iter().enumerate() {
            let nth = |n: usize| {
                (!naive.speeches.is_empty())
                    .then(|| naive.speeches[n % naive.speeches.len()].query.clone())
            };
            match write {
                Write::Insert(query) => {
                    sharded.insert(make_speech(query.clone()));
                    naive.insert(make_speech(query.clone()));
                }
                Write::Replace(n) => {
                    if let Some(query) = nth(*n) {
                        let mut speech = make_speech(query);
                        speech.text = format!("{} (replaced at {step})", speech.text).into();
                        sharded.insert(speech.clone());
                        naive.insert(speech);
                    }
                }
                Write::Remove(n) => {
                    if let Some(query) = nth(*n) {
                        prop_assert!(sharded.remove(&query).is_some());
                        naive.speeches.retain(|s| s.query != query);
                    }
                }
                Write::RemoveDrawn(query) => {
                    let removed = sharded.remove(query).is_some();
                    let before = naive.speeches.len();
                    naive.speeches.retain(|s| s.query != *query);
                    prop_assert_eq!(removed, naive.speeches.len() < before);
                }
                Write::Invalidate(t) => {
                    sharded.invalidate_target(TARGETS[*t]);
                    naive.speeches.retain(|s| s.query.target() != TARGETS[*t]);
                }
            }
            prop_assert_eq!(sharded.len(), naive.speeches.len());
            for query in &universe {
                let got = sharded
                    .follow_on(query)
                    .map(|s| (s.query.clone(), s.text.clone()));
                let want = naive
                    .follow_on(query)
                    .map(|s| (s.query.clone(), s.text.clone()));
                prop_assert_eq!(got, want, "query {} after write {} ({:?})", query, step, write);
            }
        }
    }
}
