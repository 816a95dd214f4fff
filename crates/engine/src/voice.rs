//! The stateful voice-session runtime (Fig. 2 right side).
//!
//! At run time the system "merely looks up the best pre-generated speech"
//! (§VIII-E); the session layer adds per-user conversation state (repeat
//! handling) on top of the one answer path the
//! [`crate::service::VoiceService`] facade uses for stateless traffic.
//! Sessions are opened by [`crate::service::VoiceService::session`] and
//! hold their tenant, so they can be stored next to (and outlive) the
//! service that spawned them, and keep answering after it evicts the
//! tenant.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::pipeline::Request;
use crate::service::{Answer, ServiceResponse, Tenant};

/// Monotonic source of session ids — process-wide, so ids stay unique
/// (and stable for the session's lifetime) across services and tenants.
static NEXT_SESSION_ID: AtomicU64 = AtomicU64::new(1);

/// A stateful voice session over one tenant, opened by
/// [`crate::service::VoiceService::session`]. Each session carries a
/// process-unique stable [`VoiceSession::id`], stamped into every
/// response it answers.
pub struct VoiceSession {
    id: u64,
    tenant: Arc<Tenant>,
    last: Option<Answer>,
}

impl std::fmt::Debug for VoiceSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VoiceSession")
            .field("id", &self.id)
            .field("tenant", &self.tenant.name)
            .field("last", &self.last)
            .finish()
    }
}

impl VoiceSession {
    /// A new conversation over `tenant`, with nothing said yet.
    pub(crate) fn open(tenant: Arc<Tenant>) -> VoiceSession {
        VoiceSession {
            id: NEXT_SESSION_ID.fetch_add(1, Ordering::Relaxed),
            tenant,
            last: None,
        }
    }

    /// The stable, process-unique id of this session (stamped into
    /// every [`ServiceResponse::session`] it produces).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Handle one voice request through the tenant's answer path. A
    /// session is interactive turn-taking with no queue, so it carries
    /// no deadline and its answers stay full-quality. `Repeat` replays
    /// the previous *answer* (not just its text), so callers can still
    /// branch on the replayed structure.
    pub fn answer(&mut self, text: &str) -> ServiceResponse {
        let mut response = self.tenant.respond(
            self.tenant.name.clone(),
            text,
            Instant::now(),
            None,
            self.last.as_ref(),
        );
        response.session = Some(self.id);
        if response.request != Some(Request::Repeat) {
            self.last = Some(response.answer.clone());
        }
        response
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Configuration;
    use crate::pipeline::{ComputedValue, Unsupported};
    use crate::service::{ServiceBuilder, TenantSpec, VoiceService};
    use vqs_data::GeneratedDataset;
    use vqs_relalg::prelude::{ColumnType, Field, Schema, Table, Value};

    /// Cancellations by season and region. No Summer row is in the East,
    /// so that combination has no stored speech.
    fn service() -> VoiceService {
        let schema = Schema::new(vec![
            Field::required("season", ColumnType::Str),
            Field::required("region", ColumnType::Str),
            Field::required("cancelled", ColumnType::Float),
        ])
        .unwrap();
        let rows: Vec<Vec<Value>> = [
            ("Winter", "East", 20.0),
            ("Winter", "West", 30.0),
            ("Summer", "West", 10.0),
            ("Winter", "East", 24.0),
            ("Summer", "West", 12.0),
        ]
        .iter()
        .map(|&(season, region, cancelled)| {
            vec![
                Value::str(season),
                Value::str(region),
                Value::Float(cancelled),
            ]
        })
        .collect();
        let dataset = GeneratedDataset {
            name: "flights".to_string(),
            table: Table::from_rows(schema, rows).unwrap(),
            dims: vec!["season".to_string(), "region".to_string()],
            targets: vec!["cancelled".to_string()],
        };
        let service = ServiceBuilder::new().workers(1).build();
        service
            .register_dataset(
                TenantSpec::new(
                    "flights",
                    dataset,
                    Configuration::new("flights", &["season", "region"], &["cancelled"]),
                )
                .target_synonyms("cancelled", &["cancellations"])
                .unavailable_markers(&["flight"])
                .help_text("Ask about cancellations by season."),
            )
            .unwrap();
        service
    }

    #[test]
    fn answers_supported_query() {
        let service = service();
        let mut session = service.session("flights").unwrap();
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
        assert_eq!(response.tenant, "flights");
        assert!(response.speaking_secs > 0.0);
    }

    #[test]
    fn repeat_replays_last_answer() {
        let service = service();
        let mut session = service.session("flights").unwrap();
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
        let service = service();
        let mut session = service.session("flights").unwrap();
        assert!(session.answer("help").text().contains("Ask about"));
        // No Summer row is in the East: the store's generalization lookup
        // answers with one of the two predicates kept.
        let response = session.answer("cancellations in summer in the east");
        assert!(matches!(
            response.answer,
            Answer::Speech {
                kept_predicates: Some(1),
                ..
            }
        ));
        let response = session.answer("what is the weather");
        assert!(matches!(response.request, Some(Request::Other)));
        assert!(matches!(response.answer, Answer::Help { .. }));
    }

    #[test]
    fn unsupported_requests_are_explained() {
        let service = service();
        let mut session = service.session("flights").unwrap();
        // One side named: no plan to run, so the comparison apology.
        let response = session.answer("compare cancellations in winter");
        assert_eq!(
            response.request,
            Some(Request::Unsupported(Unsupported::Comparison))
        );
        assert!(response.text().contains("compare"));
        assert!(matches!(response.answer, Answer::Unsupported { .. }));
        let response = session.answer("cancellations of flight UA one twenty three");
        assert_eq!(
            response.request,
            Some(Request::Unsupported(Unsupported::UnavailableData))
        );
        assert!(matches!(response.answer, Answer::Unsupported { .. }));
    }

    #[test]
    fn sessions_answer_extrema_and_comparisons_live() {
        let service = service();
        let mut session = service.session("flights").unwrap();
        let extremum = session.answer("which season has the most cancellations");
        match &extremum.answer {
            Answer::Computed {
                value: ComputedValue::GroupExtremum { best, other, .. },
                ..
            } => assert_eq!((best.as_str(), other.as_str()), ("Winter", "Summer")),
            other => panic!("expected a live extremum, got {other:?}"),
        }
        // Scoped to the West: Winter 30 against Summer (10 + 12) / 2.
        let comparison =
            session.answer("compare cancellations for winter versus summer in the west");
        match &comparison.answer {
            Answer::Computed {
                value:
                    ComputedValue::Comparison {
                        left_value,
                        right_value,
                        ..
                    },
                ..
            } => assert_eq!((*left_value, *right_value), (30.0, 11.0)),
            other => panic!("expected a live comparison, got {other:?}"),
        }
        assert_eq!(session.answer("repeat that").answer, comparison.answer);
    }

    #[test]
    fn sessions_outlive_their_creator_scope() {
        // The session holds its tenant (not a borrow): open it in an inner
        // scope whose service evicts the tenant and is then dropped, and
        // use it afterwards.
        let mut session = {
            let service = service();
            let session = service.session("flights").unwrap();
            assert!(service.evict_tenant("flights"));
            session
        };
        assert!(session
            .answer("cancellations in winter")
            .text()
            .contains("Winter"));
        let computed = session.answer("which season has the most cancellations");
        assert!(matches!(computed.answer, Answer::Computed { .. }));
    }
}

/// Extremum and comparison queries — the paper's proposed extensions
/// (§IX) — answered by a session from its tenant's live table.
#[cfg(test)]
mod extension_tests {
    use super::*;
    use crate::config::Configuration;
    use crate::pipeline::ComputedValue;
    use crate::service::{ServiceBuilder, TenantSpec, VoiceService};
    use vqs_data::GeneratedDataset;
    use vqs_relalg::prelude::{ColumnType, Field, Schema, Table, Value};

    /// Cancellations by airline: Delta 60, United 20, Alaska 10.
    fn service() -> VoiceService {
        let schema = Schema::new(vec![
            Field::required("airline", ColumnType::Str),
            Field::required("cancelled", ColumnType::Float),
        ])
        .unwrap();
        let rows: Vec<Vec<Value>> = [("Delta", 60.0), ("United", 20.0), ("Alaska", 10.0)]
            .iter()
            .map(|&(airline, cancelled)| vec![Value::str(airline), Value::Float(cancelled)])
            .collect();
        let dataset = GeneratedDataset {
            name: "airlines".to_string(),
            table: Table::from_rows(schema, rows).unwrap(),
            dims: vec!["airline".to_string()],
            targets: vec!["cancelled".to_string()],
        };
        let service = ServiceBuilder::new().workers(1).build();
        service
            .register_dataset(
                TenantSpec::new(
                    "airlines",
                    dataset,
                    Configuration::new("airlines", &["airline"], &["cancelled"]),
                )
                .target_synonyms("cancelled", &["cancellations"]),
            )
            .unwrap();
        service
    }

    #[test]
    fn extensions_answer_extremum_queries() {
        let service = service();
        let mut session = service.session("airlines").unwrap();
        let response = session.answer("which airline has the most cancellations");
        match &response.answer {
            Answer::Computed {
                value:
                    ComputedValue::GroupExtremum {
                        best,
                        best_value,
                        other,
                        other_value,
                        highest,
                        ..
                    },
                ..
            } => {
                assert!(*highest);
                assert_eq!((best.as_str(), *best_value), ("Delta", 60.0));
                assert_eq!((other.as_str(), *other_value), ("Alaska", 10.0));
            }
            other => panic!("expected a live extremum, got {other:?}"),
        }
        assert!(
            response.text().contains("Delta has the highest"),
            "{}",
            response.text()
        );
    }

    #[test]
    fn extensions_answer_comparison_queries() {
        let service = service();
        let mut session = service.session("airlines").unwrap();
        let response =
            session.answer("make a comparison between cancellations for Delta and Alaska");
        match &response.answer {
            Answer::Computed {
                value:
                    ComputedValue::Comparison {
                        left,
                        left_value,
                        right,
                        right_value,
                        ..
                    },
                ..
            } => {
                assert_eq!((left.as_str(), *left_value), ("Delta", 60.0));
                assert_eq!((right.as_str(), *right_value), ("Alaska", 10.0));
            }
            other => panic!("expected a live comparison, got {other:?}"),
        }
        assert!(
            response.text().contains("Delta has higher"),
            "{}",
            response.text()
        );
    }
}
