//! Follow-on suggestions from adjacent summaries.
//!
//! A voice answer is a dead end unless the system hints at what else it
//! can say ("Follow-on Question Suggestion via Voice Hints"). The
//! cheapest grounded hints already sit in the speech store: after
//! answering the query `Q`, any stored speech whose query extends `Q` by
//! exactly one predicate is a question the system is *guaranteed* to
//! answer well. `suggest` picks the canonically smallest such
//! extension so the hint is deterministic across runs and shards.

use crate::problem::Query;
use crate::store::SpeechStore;

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
/// exactly one predicate. `None` when the store holds no adjacent
/// summary — answers never invent hints. The scan is linear in the
/// number of speeches stored for the target and clones one query per
/// answer, the winner's.
pub(crate) fn suggest(store: &SpeechStore, answered: &Query) -> Option<FollowOn> {
    let speeches = store.speeches_for_target(answered.target());
    let query = speeches
        .iter()
        .map(|speech| &speech.query)
        .filter(|candidate| candidate.len() == answered.len() + 1 && answered.subset_of(candidate))
        .min()?
        .clone();
    let scope: Vec<String> = query
        .predicates()
        .iter()
        .map(|(d, v)| format!("{} {}", d.replace('_', " "), v))
        .collect();
    let utterance = format!(
        "{} for {}?",
        query.target().replace('_', " "),
        scope.join(" and ")
    );
    Some(FollowOn { query, utterance })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::StoredSpeech;

    fn speech(query: Query) -> StoredSpeech {
        StoredSpeech {
            text: format!("speech for {query}"),
            facts: vec![],
            utility: 1.0,
            base_error: 2.0,
            rows: 4,
            query,
        }
    }

    #[test]
    fn suggests_the_canonically_first_one_step_extension() {
        let store = SpeechStore::new();
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
        let store = SpeechStore::new();
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
