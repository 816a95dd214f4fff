//! Queries and stored speech answers.
//!
//! A stored speech keeps every name it mentions (its target, and each
//! predicate's and fact scope's dimension and value) as a 16-byte
//! [`Arc<str>`] handle. Pre-processing hands out one handle per name and
//! tenant set-up (dimension values are the table dictionary's own
//! strings), so a store holds each name once however many speeches
//! mention it.
//!
//! A stored speech keeps its facts, not their text: §III generates the
//! speech "according to a simple text template", so the speech holds its
//! target's template as an [`Arc`] that every speech of the target shares,
//! and [`StoredSpeech::text`] renders the text when an answer needs it.

use std::fmt;
use std::mem::{size_of, size_of_val};
use std::sync::Arc;

use vqs_relalg::hash::FxHashSet;

use crate::template::{write_scope_phrase, SpeechTemplate};

/// A `(dimension, value)` pair of shared name handles: one equality
/// predicate of a query, or one pair of a fact's scope.
pub type Predicate = (Arc<str>, Arc<str>);

/// A supported voice query: one target column and a conjunction of
/// equality predicates on dimension columns (§III: "queries requesting
/// information on values in a target column for a data subset, defined by
/// a conjunction of equality predicates").
///
/// Predicates are kept sorted by dimension name so structurally equal
/// queries compare and hash equal. The `Ord` impl (target, then
/// predicates) gives store snapshots a canonical order. Hashing and
/// comparison go through the names' text, never their handles, so a query
/// spelled from owned strings finds the speech stored under shared ones.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Query {
    target: Arc<str>,
    predicates: Box<[Predicate]>,
}

impl Query {
    /// Build a query; predicates are normalized (sorted by dimension,
    /// duplicates dropped). Names may be owned `String`s, `&str`s or
    /// shared handles; a handle is kept, anything else is copied into one.
    pub fn new<D, V>(
        target: impl Into<Arc<str>>,
        predicates: impl IntoIterator<Item = (D, V)>,
    ) -> Query
    where
        D: Into<Arc<str>>,
        V: Into<Arc<str>>,
    {
        let mut predicates: Vec<Predicate> = predicates
            .into_iter()
            .map(|(dim, value)| (dim.into(), value.into()))
            .collect();
        predicates.sort();
        predicates.dedup();
        Query {
            target: target.into(),
            predicates: predicates.into_boxed_slice(),
        }
    }

    /// Convenience builder from string slices.
    pub fn of(target: &str, predicates: &[(&str, &str)]) -> Query {
        Query::new(target, predicates.iter().copied())
    }

    /// The target column.
    pub fn target(&self) -> &str {
        &self.target
    }

    /// The target column's shared name handle.
    pub(crate) fn target_handle(&self) -> &Arc<str> {
        &self.target
    }

    /// The normalized predicates.
    pub fn predicates(&self) -> &[Predicate] {
        &self.predicates
    }

    /// Query length = number of predicates (§III).
    pub fn len(&self) -> usize {
        self.predicates.len()
    }

    /// True for the predicate-free query over the whole table.
    pub fn is_empty(&self) -> bool {
        self.predicates.is_empty()
    }

    /// The predicate dimension names, in normalized (sorted) order.
    pub fn dimension_names(&self) -> Vec<String> {
        self.predicates.iter().map(|(d, _)| d.to_string()).collect()
    }

    /// The sub-query keeping exactly the predicates whose bits are set in
    /// `mask` (bit `i` = `predicates()[i]`). The result stays normalized
    /// because a subsequence of a sorted list is sorted.
    pub fn predicate_subset(&self, mask: u64) -> Query {
        let predicates = (0..self.predicates.len())
            .filter(|&i| mask & (1 << i) != 0)
            .map(|i| self.predicates[i].clone())
            .collect();
        Query {
            target: Arc::clone(&self.target),
            predicates,
        }
    }

    /// The same predicates, sharing their handles, under `target`.
    pub(crate) fn retargeted(&self, target: Arc<str>) -> Query {
        Query {
            target,
            predicates: self.predicates.clone(),
        }
    }

    /// True when this query's predicates are a subset of `other`'s and the
    /// targets match — i.e. a speech stored for `self` may answer `other`
    /// via the §III generalization fallback.
    pub fn subset_of(&self, other: &Query) -> bool {
        self.target == other.target && self.predicates.iter().all(|p| other.predicates.contains(p))
    }

    /// All sub-queries whose predicate sets are subsets of this query's,
    /// ordered by decreasing predicate count (used for the §III fallback:
    /// "the speech describing the most specific data subset that contains
    /// the one referenced in the query"). Within one predicate count the
    /// order is by decreasing bitmask over the normalized predicate list;
    /// this is the tie-break rule the store and its naive reference share.
    pub fn generalizations(&self) -> Vec<Query> {
        let n = self.predicates.len();
        let mut out: Vec<Query> = (0..(1u64 << n))
            .rev()
            .map(|mask| self.predicate_subset(mask))
            .collect();
        out.sort_by_key(|q| std::cmp::Reverse(q.len()));
        out.dedup();
        out
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.target)?;
        if !self.predicates.is_empty() {
            f.write_str(" where ")?;
            for (i, (d, v)) in self.predicates.iter().enumerate() {
                if i > 0 {
                    f.write_str(" and ")?;
                }
                write!(f, "{d}={v}")?;
            }
        }
        Ok(())
    }
}

/// A fact with its scope resolved to column/value names — the stored,
/// relation-independent form of a selected fact.
#[derive(Debug, Clone, PartialEq)]
pub struct NamedFact {
    /// `(dimension, value)` pairs of the scope (empty = overall).
    pub scope: Box<[Predicate]>,
    /// Typical (average) value.
    pub value: f64,
    /// Number of rows within scope.
    pub support: usize,
}

impl NamedFact {
    /// Human-readable scope phrase ("for season Winter and region East",
    /// or "overall").
    pub fn scope_phrase(&self) -> String {
        let mut phrase = String::new();
        write_scope_phrase(&mut phrase, &self.scope);
        phrase
    }
}

/// A pre-generated speech answer: the query, the facts chosen for it and
/// the template that speaks them. Its `Debug` rendering prints the
/// rendered text in the template's place.
#[derive(Clone, PartialEq)]
pub struct StoredSpeech {
    /// The query this speech answers.
    pub query: Query,
    /// The selected facts.
    pub facts: Box<[NamedFact]>,
    /// The target's speech template, one allocation shared by every
    /// speech of the target.
    pub template: Arc<SpeechTemplate>,
    /// Utility achieved on the query's data subset.
    pub utility: f64,
    /// Base error `D(∅)` of the subset.
    pub base_error: f64,
    /// Number of rows in the subset.
    pub rows: usize,
}

impl StoredSpeech {
    /// The voice-output text: the template rendered over the query and the
    /// facts, into one buffer sized before it is written.
    pub fn text(&self) -> String {
        self.template.render(&self.query, &self.facts)
    }

    /// Scaled utility in `[0, 1]`.
    pub fn scaled_utility(&self) -> f64 {
        if self.base_error == 0.0 {
            1.0
        } else {
            self.utility / self.base_error
        }
    }

    /// Approximate resident size in bytes of this speech held alone. What
    /// it owns: the struct, the query's predicate slice, the fact slice
    /// and every scope slice, with each name handle as its 16-byte slot
    /// and the template handle as its 8-byte slot (boxed slices hold no
    /// spare capacity, so lengths are sizes). Plus, once each, the
    /// distinct name allocations its handles point to (text and the
    /// 16-byte `Arc` header) and its template's allocation. A store
    /// shares names and templates across speeches and counts each once
    /// for all of them ([`crate::store::SpeechStore::approx_bytes`]).
    pub fn approx_bytes(&self) -> usize {
        let mut shared = SharedBytes::default();
        shared.names(self.names());
        shared.template(&self.template);
        self.own_bytes() + shared.total()
    }

    /// The bytes [`StoredSpeech::approx_bytes`] counts as owned: all but
    /// the shared names and template, which are left to [`SharedBytes`].
    pub(crate) fn own_bytes(&self) -> usize {
        let scopes: usize = self
            .facts
            .iter()
            .map(|fact| size_of_val(&*fact.scope))
            .sum();
        size_of::<Self>()
            + size_of_val(self.query.predicates())
            + size_of_val(&*self.facts)
            + scopes
    }

    /// Every name handle this speech holds: its target, then each
    /// predicate's and each fact scope's dimension and value.
    pub(crate) fn names(&self) -> impl Iterator<Item = &Arc<str>> {
        let pairs = self
            .query
            .predicates()
            .iter()
            .chain(self.facts.iter().flat_map(|fact| fact.scope.iter()));
        std::iter::once(self.query.target_handle()).chain(pairs.flat_map(|(d, v)| [d, v]))
    }
}

impl fmt::Debug for StoredSpeech {
    /// Prints the rendered text as a `text` field between the facts and
    /// the utility, so a digest of this rendering covers every answer's
    /// words.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StoredSpeech")
            .field("query", &self.query)
            .field("facts", &self.facts)
            .field("text", &self.text())
            .field("utility", &self.utility)
            .field("base_error", &self.base_error)
            .field("rows", &self.rows)
            .finish()
    }
}

/// The [`Arc`] header in front of every shared allocation: its strong and
/// weak counts.
const ARC_HEADER: usize = 2 * size_of::<usize>();

/// Resident bytes of distinct shared allocations, each counted once
/// however many handles point to it: a name's text, or a template's struct
/// and string buffers, plus the 16-byte [`Arc`] header. Allocations are
/// told apart by address, so equal names held in separate allocations
/// (queries spelled from fresh `String`s) count once each.
#[derive(Debug, Default)]
pub(crate) struct SharedBytes {
    seen: FxHashSet<*const u8>,
    total: usize,
}

impl SharedBytes {
    /// Count every allocation among `names` not counted before.
    pub(crate) fn names<'a>(&mut self, names: impl IntoIterator<Item = &'a Arc<str>>) {
        for name in names {
            self.count(Arc::as_ptr(name).cast(), name.len());
        }
    }

    /// Count `template`'s allocation unless it was counted before.
    pub(crate) fn template(&mut self, template: &Arc<SpeechTemplate>) {
        let bytes = size_of::<SpeechTemplate>() + template.heap_bytes();
        self.count(Arc::as_ptr(template).cast(), bytes);
    }

    /// Add the allocation at `at`, holding `bytes` after its header, the
    /// first time it is seen.
    fn count(&mut self, at: *const u8, bytes: usize) {
        if self.seen.insert(at) {
            self.total += ARC_HEADER + bytes;
        }
    }

    /// The bytes counted so far.
    pub(crate) fn total(&self) -> usize {
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queries_normalize() {
        let a = Query::of("delay", &[("season", "Winter"), ("region", "East")]);
        let b = Query::of("delay", &[("region", "East"), ("season", "Winter")]);
        assert_eq!(a, b);
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let hash = |q: &Query| {
            let mut h = DefaultHasher::new();
            q.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&a), hash(&b));
    }

    #[test]
    fn duplicate_predicates_removed() {
        let q = Query::of("t", &[("a", "x"), ("a", "x")]);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn generalizations_order() {
        let q = Query::of("t", &[("a", "x"), ("b", "y")]);
        let gens = q.generalizations();
        assert_eq!(gens.len(), 4);
        assert_eq!(gens[0], q);
        assert_eq!(gens[3], Query::of("t", &[]));
        // Middle two have one predicate each.
        assert_eq!(gens[1].len(), 1);
        assert_eq!(gens[2].len(), 1);
    }

    #[test]
    fn predicate_subset_and_subset_of() {
        let q = Query::of("t", &[("a", "x"), ("b", "y"), ("c", "z")]);
        let sub = q.predicate_subset(0b101);
        assert_eq!(sub, Query::of("t", &[("a", "x"), ("c", "z")]));
        assert!(sub.subset_of(&q));
        assert!(!q.subset_of(&sub));
        assert!(Query::of("t", &[]).subset_of(&q));
        // Different target: never a subset.
        assert!(!Query::of("u", &[]).subset_of(&q));
        // Same dimension, different value: not a subset.
        assert!(!Query::of("t", &[("a", "w")]).subset_of(&q));
    }

    #[test]
    fn dimension_names_sorted() {
        let q = Query::of("t", &[("b", "y"), ("a", "x")]);
        assert_eq!(q.dimension_names(), vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn query_ordering_is_canonical() {
        let mut queries = [
            Query::of("t", &[("a", "x")]),
            Query::of("s", &[("b", "y")]),
            Query::of("t", &[]),
        ];
        queries.sort();
        assert_eq!(queries[0].target(), "s");
        assert!(queries[1].is_empty());
        assert_eq!(queries[2].len(), 1);
    }

    #[test]
    fn display_readable() {
        let q = Query::of("delay", &[("season", "Winter")]);
        assert_eq!(q.to_string(), "delay where season=Winter");
        assert_eq!(Query::of("delay", &[]).to_string(), "delay");
    }

    #[test]
    fn scope_phrases() {
        let fact = NamedFact {
            scope: Box::new([("age_group".into(), "70-79".into())]),
            value: 80.0,
            support: 10,
        };
        assert_eq!(fact.scope_phrase(), "for age group 70-79");
        let overall = NamedFact {
            scope: Box::new([]),
            value: 35.0,
            support: 100,
        };
        assert_eq!(overall.scope_phrase(), "overall");
    }

    /// The `Debug` rendering is what the store digests hash: handles and
    /// boxed slices print exactly as the owned strings and vectors did,
    /// and the template prints as the text it renders.
    #[test]
    fn debug_rendering_is_the_owned_strings_rendering() {
        let region: Arc<str> = Arc::from("region");
        let speech = StoredSpeech {
            query: Query::new("delay", [(Arc::clone(&region), Arc::from("East"))]),
            facts: Box::new([NamedFact {
                scope: Box::new([
                    (region, Arc::from("East")),
                    ("season".into(), "Winter".into()),
                ]),
                value: 12.5,
                support: 3,
            }]),
            template: Arc::new(SpeechTemplate::plain("delay")),
            utility: 1.5,
            base_error: 2.0,
            rows: 4,
        };
        assert_eq!(
            format!("{speech:?}"),
            "StoredSpeech { query: Query { target: \"delay\", predicates: [(\"region\", \"East\")] }, \
             facts: [NamedFact { scope: [(\"region\", \"East\"), (\"season\", \"Winter\")], value: 12.5, support: 3 }], \
             text: \"For region East: The average delay for region East and season Winter is about 12.5.\", \
             utility: 1.5, base_error: 2.0, rows: 4 }"
        );
    }

    #[test]
    fn scaled_utility_bounds() {
        let speech = StoredSpeech {
            query: Query::of("t", &[]),
            facts: Box::new([]),
            template: Arc::new(SpeechTemplate::plain("t")),
            utility: 30.0,
            base_error: 120.0,
            rows: 16,
        };
        assert!((speech.scaled_utility() - 0.25).abs() < 1e-12);
    }
}
