//! The stateful voice-session runtime (Fig. 2 right side).
//!
//! At run time the system "merely looks up the best pre-generated speech"
//! (§VIII-E); the session layer adds per-user conversation state (repeat
//! handling) and latency accounting on top of the same typed answer
//! pipeline the [`crate::service::VoiceService`] facade uses for
//! stateless traffic. Sessions own an [`Arc`] handle to the speech
//! store, so they can be stored next to (and outlive) the service or
//! store that spawned them.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::RwLock;

use crate::extensions::ExtremumIndex;
use crate::nlq::{Extractor, Request};
use crate::pipeline::{self, PipelineContext};
use crate::service::{
    Answer, Degradation, RequestCounters, ServiceResponse, TenantRuntime, NOTHING_TO_REPEAT,
};

/// Monotonic source of session ids — process-wide, so ids stay unique
/// (and stable for the session's lifetime) across services and tenants.
static NEXT_SESSION_ID: AtomicU64 = AtomicU64::new(1);
use crate::store::SpeechStore;
use crate::template::speaking_time_secs;

/// A stateful voice session over one deployment. Each session carries a
/// process-unique stable [`VoiceSession::id`], stamped into every
/// response it answers.
#[derive(Debug)]
pub struct VoiceSession {
    id: u64,
    tenant: String,
    store: Arc<SpeechStore>,
    extractor: Extractor,
    help_text: String,
    last: Option<Answer>,
    extensions: Option<ExtremumIndex>,
    /// When opened via [`crate::service::VoiceService::session`], the
    /// tenant's live extractor/extension state: refreshes reach open
    /// sessions instead of leaving them on snapshotted dictionaries.
    shared: Option<Arc<RwLock<TenantRuntime>>>,
    /// When opened via [`crate::service::VoiceService::session`], the
    /// tenant's request counters: session traffic rolls up into the
    /// same per-tenant accounting as stateless respond traffic, so
    /// fairness/stats consumers see conversation load too.
    counters: Option<Arc<RequestCounters>>,
}

impl VoiceSession {
    /// Open a session over a store and extractor. Prefer
    /// [`crate::service::VoiceService::session`], which wires all of this
    /// from the tenant registration.
    pub fn new(
        store: Arc<SpeechStore>,
        extractor: Extractor,
        help_text: impl Into<String>,
    ) -> Self {
        VoiceSession {
            id: NEXT_SESSION_ID.fetch_add(1, Ordering::Relaxed),
            tenant: String::new(),
            store,
            extractor,
            help_text: help_text.into(),
            last: None,
            extensions: None,
            shared: None,
            counters: None,
        }
    }

    /// The stable, process-unique id of this session (stamped into
    /// every [`ServiceResponse::session`] it produces).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Follow a tenant's live runtime instead of the construction-time
    /// extractor/extension snapshot (wired by
    /// [`crate::service::VoiceService::session`]).
    pub(crate) fn with_shared_runtime(mut self, runtime: Arc<RwLock<TenantRuntime>>) -> Self {
        self.shared = Some(runtime);
        self
    }

    /// Roll this session's answered requests into the tenant's request
    /// counters (wired by [`crate::service::VoiceService::session`]).
    pub(crate) fn with_counters(mut self, counters: Arc<RequestCounters>) -> Self {
        self.counters = Some(counters);
        self
    }

    /// Enable the extremum/comparison extension (answers the §VIII-D
    /// "U-Query" shapes from a pre-computed index instead of
    /// apologizing). On a session opened via
    /// [`crate::service::VoiceService::session`] this *overrides* the
    /// tenant's registered index for this session only.
    pub fn with_extensions(mut self, index: ExtremumIndex) -> Self {
        self.extensions = Some(index);
        self
    }

    /// Label responses with the tenant this session serves (set by
    /// [`crate::service::VoiceService::session`]).
    pub fn with_tenant_label(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = tenant.into();
        self
    }

    /// Handle one voice request through the staged pipeline. `Repeat`
    /// replays the previous *answer* (not just its text), so callers can
    /// still branch on the replayed structure. Live-path plans execute
    /// on the calling thread, as they do for every other caller.
    pub fn answer(&mut self, text: &str) -> ServiceResponse {
        let start = Instant::now();
        let shared = self.shared.as_ref().map(|runtime| runtime.read());
        let (extractor, extensions, live) = match &shared {
            // A session-local index set via `with_extensions` overrides
            // the tenant's; the extractor always follows the live
            // runtime so refreshed dictionaries apply mid-conversation.
            Some(runtime) => (
                &runtime.extractor,
                self.extensions.as_ref().or(runtime.extensions.as_ref()),
                Some(&runtime.live),
            ),
            None => (&self.extractor, self.extensions.as_ref(), None),
        };
        let analysis = pipeline::analyze::analyze(extractor, text);
        let (answer, follow_on) = match &analysis.request {
            Request::Repeat => (
                self.last.clone().unwrap_or(Answer::Help {
                    text: NOTHING_TO_REPEAT.to_string(),
                }),
                None,
            ),
            _ => {
                let ctx = PipelineContext {
                    store: &self.store,
                    help_text: &self.help_text,
                    extensions,
                    live,
                    // Sessions are interactive turn-taking — no queueing,
                    // so no deadline ladder; answers stay full-quality.
                    deadline: None,
                    solve: None,
                };
                let (answer, follow_on, _) = pipeline::answer(&analysis, text, &ctx);
                self.last = Some(answer.clone());
                (answer, follow_on)
            }
        };
        drop(shared);
        if let Some(counters) = &self.counters {
            counters.record(&answer, Degradation::None);
        }
        ServiceResponse {
            tenant: self.tenant.clone(),
            request: Some(analysis.request),
            speaking_secs: speaking_time_secs(answer.text()),
            follow_on,
            session: Some(self.id),
            latency_micros: start.elapsed().as_micros() as u64,
            degradation: Degradation::None,
            answer,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Query, StoredSpeech};
    use vqs_core::prelude::{EncodedRelation, Prior};

    fn relation() -> EncodedRelation {
        EncodedRelation::from_rows(
            &["season"],
            "cancelled",
            vec![(vec!["Winter"], 20.0), (vec!["Summer"], 10.0)],
            Prior::Constant(0.0),
        )
        .unwrap()
    }

    fn store() -> Arc<SpeechStore> {
        let store = SpeechStore::new();
        store.insert(StoredSpeech {
            query: Query::of("cancelled", &[("season", "Winter")]),
            facts: vec![],
            text: "The cancellation probability for season Winter is about 20 percent.".to_string(),
            utility: 1.0,
            base_error: 2.0,
            rows: 1,
        });
        store.insert(StoredSpeech {
            query: Query::of("cancelled", &[]),
            facts: vec![],
            text: "The cancellation probability overall is about 15 percent.".to_string(),
            utility: 1.0,
            base_error: 2.0,
            rows: 2,
        });
        Arc::new(store)
    }

    fn session(store: &Arc<SpeechStore>) -> VoiceSession {
        let extractor = Extractor::from_relation(&relation(), 2)
            .with_target_synonyms("cancelled", &["cancellations"]);
        VoiceSession::new(
            Arc::clone(store),
            extractor,
            "Ask about cancellations by season.",
        )
    }

    #[test]
    fn answers_supported_query() {
        let store = store();
        let mut session = session(&store);
        let response = session.answer("cancellations in winter?");
        assert!(response.text().contains("Winter"));
        assert!(matches!(response.request, Some(Request::Query(_))));
        assert!(matches!(
            response.answer,
            Answer::Speech {
                kept_predicates: None,
                ..
            }
        ));
        assert!(response.speaking_secs > 0.0);
    }

    #[test]
    fn repeat_replays_last_answer() {
        let store = store();
        let mut session = session(&store);
        assert!(session
            .answer("say that again")
            .text()
            .contains("not said anything"));
        let first = session.answer("cancellations in winter");
        let repeated = session.answer("repeat that");
        assert_eq!(first.text(), repeated.text());
        // The replay carries the typed answer, not just the text.
        assert!(repeated.answer.is_speech());
        assert!(matches!(repeated.request, Some(Request::Repeat)));
    }

    #[test]
    fn help_and_fallbacks() {
        let store = store();
        let mut session = session(&store);
        assert!(session.answer("help").text().contains("Ask about"));
        // Unknown season value for this deployment: falls back to the
        // overall speech via the store's generalization lookup.
        let response = session.answer("cancellations in summer");
        assert!(response.text().contains("overall"));
        assert!(matches!(
            response.answer,
            Answer::Speech {
                kept_predicates: Some(0),
                ..
            }
        ));
        let response = session.answer("what is the weather");
        assert!(matches!(response.request, Some(Request::Other)));
        assert!(matches!(response.answer, Answer::Help { .. }));
    }

    #[test]
    fn unsupported_requests_are_explained() {
        let store = store();
        let mut session = session(&store);
        let response = session.answer("compare cancellations in winter versus summer");
        assert!(matches!(response.request, Some(Request::Unsupported(_))));
        assert!(response.text().contains("compare"));
        assert!(matches!(response.answer, Answer::Unsupported { .. }));
    }

    #[test]
    fn sessions_outlive_their_creator_scope() {
        // The Arc handle (not a borrow) makes sessions storable: build
        // the session in an inner scope and use it after the original
        // store binding is gone.
        let mut session = {
            let store = store();
            session(&store)
        };
        assert!(session
            .answer("cancellations in winter")
            .text()
            .contains("Winter"));
    }
}

#[cfg(test)]
mod extension_tests {
    use super::*;
    use crate::extensions::ExtremumIndex;
    use crate::problem::{Query, StoredSpeech};
    use vqs_core::prelude::{EncodedRelation, Prior};

    fn relation() -> EncodedRelation {
        EncodedRelation::from_rows(
            &["airline"],
            "cancelled",
            vec![
                (vec!["Delta"], 60.0),
                (vec!["United"], 20.0),
                (vec!["Alaska"], 10.0),
            ],
            Prior::Constant(0.0),
        )
        .unwrap()
    }

    fn store() -> Arc<SpeechStore> {
        let store = SpeechStore::new();
        store.insert(StoredSpeech {
            query: Query::of("cancelled", &[]),
            facts: vec![],
            text: "The cancellation probability overall is about 30.".to_string(),
            utility: 1.0,
            base_error: 2.0,
            rows: 3,
        });
        Arc::new(store)
    }

    #[test]
    fn extensions_answer_extremum_queries() {
        let relation = relation();
        let store = store();
        let extractor = Extractor::from_relation(&relation, 2)
            .with_target_synonyms("cancelled", &["cancellations"]);
        let index = ExtremumIndex::build(&relation, "cancellation probability");
        let mut session = VoiceSession::new(store, extractor, "help").with_extensions(index);
        let response = session.answer("which airline has the most cancellations");
        assert!(matches!(response.answer, Answer::Extension { .. }));
        assert!(
            response.text().contains("Delta has the highest"),
            "{}",
            response.text()
        );
    }

    #[test]
    fn extensions_answer_comparison_queries() {
        let relation = relation();
        let store = store();
        let extractor = Extractor::from_relation(&relation, 2)
            .with_target_synonyms("cancelled", &["cancellations"]);
        let index = ExtremumIndex::build(&relation, "cancellation probability");
        let mut session = VoiceSession::new(store, extractor, "help").with_extensions(index);
        let response =
            session.answer("make a comparison between cancellations for Delta and Alaska");
        assert!(matches!(response.answer, Answer::Extension { .. }));
        assert!(response.text().contains("times"), "{}", response.text());
    }

    #[test]
    fn without_extensions_the_apology_remains() {
        let relation = relation();
        let store = store();
        let extractor = Extractor::from_relation(&relation, 2)
            .with_target_synonyms("cancelled", &["cancellations"]);
        let mut session = VoiceSession::new(store, extractor, "help");
        let response = session.answer("which airline has the most cancellations");
        assert!(matches!(response.answer, Answer::Unsupported { .. }));
        assert!(response.text().contains("not find extremes"));
    }
}
