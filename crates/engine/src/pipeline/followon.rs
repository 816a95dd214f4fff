//! Follow-on suggestions from adjacent summaries.
//!
//! A voice answer is a dead end unless the system hints at what else it
//! can say ("Follow-on Question Suggestion via Voice Hints"). The
//! cheapest grounded hints already sit in the speech store: after
//! answering the query `Q`, any stored speech whose query extends `Q` by
//! exactly one predicate is a question the system is *guaranteed* to
//! answer well. `suggest` takes the canonically smallest such extension,
//! so the hint is deterministic across runs and insertion orders. The
//! store keeps that extension for every query in its follow-on index
//! ([`SpeechStore::follow_on`]), so a hint is one index probe.

use crate::problem::Query;
use crate::store::SpeechStore;
use crate::template::{write_pairs, write_spoken};

/// A suggested follow-on question, attached to a `ServiceResponse`.
#[derive(Debug, Clone, PartialEq)]
pub struct FollowOn {
    /// The adjacent stored query the suggestion leads to.
    pub query: Query,
    /// A speakable phrasing of it ("delay for season Winter and region
    /// East?").
    pub utterance: String,
}

/// Suggest a follow-on for an answered query: the canonically first
/// (by [`Query`]'s total order) stored speech extending `answered` by
/// exactly one predicate, read from the store's follow-on index. `None`
/// when the store holds no adjacent summary — answers never invent
/// hints. It clones one query per answer, the winner's.
pub(crate) fn suggest(store: &SpeechStore, answered: &Query) -> Option<FollowOn> {
    let query = store.follow_on(answered)?.query.clone();
    let mut utterance = String::new();
    write_spoken(&mut utterance, query.target());
    utterance.push_str(" for ");
    write_pairs(&mut utterance, query.predicates());
    utterance.push('?');
    Some(FollowOn { query, utterance })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::StoredSpeech;
    use crate::template::SpeechTemplate;
    use std::sync::Arc;

    fn speech(query: Query) -> StoredSpeech {
        StoredSpeech {
            template: Arc::new(SpeechTemplate::plain(query.target())),
            facts: Box::new([]),
            utility: 1.0,
            base_error: 2.0,
            rows: 4,
            query,
        }
    }

    #[test]
    fn suggests_the_canonically_first_one_step_extension() {
        let mut store = SpeechStore::new();
        for predicates in [
            vec![],
            vec![("season", "Winter")],
            vec![("season", "Winter"), ("region", "West")],
            vec![("season", "Winter"), ("region", "East")],
        ] {
            store.insert(speech(Query::of("delay", &predicates)));
        }
        let hint = suggest(&store, &Query::of("delay", &[("season", "Winter")])).unwrap();
        // ("region", "East") < ("region", "West") in the canonical order.
        assert_eq!(
            hint.query,
            Query::of("delay", &[("season", "Winter"), ("region", "East")])
        );
        assert_eq!(hint.utterance, "delay for region East and season Winter?");
        // The overall query's one-step extensions are the single-predicate
        // speeches.
        let overall = suggest(&store, &Query::of("delay", &[])).unwrap();
        assert_eq!(overall.query, Query::of("delay", &[("season", "Winter")]));
    }

    #[test]
    fn no_adjacent_summary_means_no_hint() {
        let mut store = SpeechStore::new();
        store.insert(speech(Query::of("delay", &[])));
        // Two predicates away from the only stored speech.
        assert!(suggest(
            &store,
            &Query::of("delay", &[("season", "Winter"), ("region", "East")])
        )
        .is_none());
        // Different target entirely.
        assert!(suggest(&store, &Query::of("wait", &[])).is_none());
    }
}
