//! The staged NL query pipeline: tokenize → analyze → plan → execute.
//!
//! This module is the single answer path of the engine
//! (`ServiceRequest` → pipeline → [`Answer`]): the facade, the serving
//! front-end, and stateful sessions all answer through the service's
//! `Tenant::respond`, the only place a `PipelineContext` is built. It
//! calls `answer` with the `Analysis` the analyzer made of the utterance:
//! the [`Extractor`]'s dictionaries turn the text into a [`Request`]
//! category ([`Extractor::classify`] returns the same one) and, where
//! the store cannot answer, a [`QueryPlan`].
//!
//! Answers resolve through a three-tier chain:
//!
//! 1. **Summary-store hit** — supported queries look up the best
//!    pre-generated speech, byte-identical to the pre-pipeline path
//!    (the §VIII-E "merely looks up" hot path is untouched). The store
//!    and the live table are published together, so the store holds a
//!    speech for every value combination of the table: a supported query
//!    misses only when the tenant's table is empty, and answers
//!    [`Answer::NoSummary`].
//! 2. **Live plan execution** — questions the store does not precompute
//!    (conjunctive filters beyond the configured length, comparatives,
//!    extrema, counts/totals) lower to a typed [`QueryPlan`] and execute
//!    over `vqs-relalg` against the tenant's live table, on the thread
//!    that answers the request (a serving worker, a facade caller or a
//!    session's owner), so a live answer never queues behind solver work.
//! 3. **Typed apology** — everything still unanswered keeps the legacy
//!    typed apologies.
//!
//! Store-served and live-computed answers additionally carry a
//! [`FollowOn`] suggestion drawn from adjacent summaries when one
//! exists.
//!
//! **Deadline-carrying requests** skip live work once their deadline
//! has passed: a live plan answers its typed apology instead, stamped
//! [`Degradation::StoreOnly`]. A store answer, a hit or a miss, is
//! served as it is whatever its deadline: batch pre-processing has
//! already solved every value combination the live table holds, so no
//! live work could improve it. Deadline-free requests never degrade.

pub(crate) mod analyze;
pub mod followon;
pub mod plan;
mod token;

pub use analyze::{Extractor, Request, Unsupported};
pub use followon::FollowOn;
pub use plan::{AggKind, ComputedValue, QueryPlan};

use std::sync::Arc;
use std::time::Instant;

use vqs_relalg::prelude::Table;

use crate::service::{
    Answer, Degradation, AGGREGATE_APOLOGY, COMPARISON_APOLOGY, CONJUNCTIVE_APOLOGY,
    EXTREMUM_APOLOGY, NOTHING_TO_REPEAT, NOT_UNDERSTOOD, UNAVAILABLE,
};
use crate::store::{Lookup, SpeechStore};

pub(crate) use analyze::Analysis;

/// One tenant's answer-time resources, borrowed for the duration of one
/// request.
pub(crate) struct PipelineContext<'a> {
    /// The tenant's speech store (tier one), solved over `live`.
    pub store: &'a SpeechStore,
    /// Spoken help text for `Help` requests.
    pub help_text: &'a str,
    /// The tenant's live table (tier two).
    pub live: &'a Arc<Table>,
    /// What a `Repeat` replays: a session's previous answer, `None` for
    /// stateless traffic and a session's first turn.
    pub last: Option<&'a Answer>,
    /// The request's absolute deadline, past which live work is
    /// skipped; `None` for deadline-free requests.
    pub deadline: Option<Instant>,
}

/// Map one analyzed request onto a typed answer (and optional follow-on
/// hint) through the three-tier chain. `Repeat` replays `ctx.last`, or
/// the no-history help text when there is none.
pub(crate) fn answer(
    analysis: &Analysis,
    ctx: &PipelineContext<'_>,
) -> (Answer, Option<FollowOn>, Degradation) {
    match &analysis.request {
        Request::Help => (
            Answer::Help {
                text: ctx.help_text.to_string(),
            },
            None,
            Degradation::None,
        ),
        Request::Repeat => (
            ctx.last.cloned().unwrap_or_else(|| Answer::Help {
                text: NOTHING_TO_REPEAT.to_string(),
            }),
            None,
            Degradation::None,
        ),
        Request::Other => (
            Answer::Help {
                text: NOT_UNDERSTOOD.to_string(),
            },
            None,
            Degradation::None,
        ),
        Request::Query(query) => {
            let (speech, kept_predicates) = match ctx.store.lookup(query) {
                Lookup::Exact(speech) => (speech, None),
                Lookup::Generalized {
                    speech,
                    kept_predicates,
                } => (speech, Some(kept_predicates)),
                // The store holds every combination of the live table, so
                // a miss means the table is empty: no plan finds rows.
                Lookup::Miss => {
                    return (
                        Answer::NoSummary {
                            query: query.clone(),
                        },
                        None,
                        Degradation::None,
                    );
                }
            };
            let follow_on = followon::suggest(ctx.store, &speech.query);
            (
                Answer::Speech {
                    speech,
                    kept_predicates,
                },
                follow_on,
                Degradation::None,
            )
        }
        Request::Unsupported(reason) => {
            let apology = |tier| {
                (
                    Answer::Unsupported {
                        reason: reason.clone(),
                        text: match reason {
                            Unsupported::Extremum => EXTREMUM_APOLOGY,
                            Unsupported::Comparison => COMPARISON_APOLOGY,
                            Unsupported::Aggregate => AGGREGATE_APOLOGY,
                            Unsupported::Conjunctive => CONJUNCTIVE_APOLOGY,
                            Unsupported::UnavailableData => UNAVAILABLE,
                        }
                        .to_string(),
                    },
                    None,
                    tier,
                )
            };
            // Tier two: execute the analyzer's typed plan live — unless
            // the request's deadline already passed, in which case the
            // apology ships immediately, stamped store-only.
            if let Some(plan) = &analysis.plan {
                if out_of_budget(ctx) {
                    return apology(Degradation::StoreOnly);
                }
                if let Some((answer, follow_on)) = live_answer(plan, ctx) {
                    return (answer, follow_on, Degradation::None);
                }
            }
            // Tier three: the typed apology.
            apology(Degradation::None)
        }
    }
}

/// Whether a deadline-carrying request has no budget left for live work.
fn out_of_budget(ctx: &PipelineContext<'_>) -> bool {
    ctx.deadline
        .is_some_and(|deadline| Instant::now() >= deadline)
}

/// Tier two: execute `plan` against the live table. The follow-on for a
/// computed answer points at the stored summary nearest to the computed
/// subset (one predicate past what the plan scoped), when it exists.
fn live_answer(plan: &QueryPlan, ctx: &PipelineContext<'_>) -> Option<(Answer, Option<FollowOn>)> {
    let (value, text) = plan::execute(plan, ctx.live)?;
    let answered = crate::problem::Query::new(plan.target(), plan.predicates().iter().cloned());
    let follow_on = followon::suggest(ctx.store, &answered);
    Some((
        Answer::Computed {
            plan: plan.clone(),
            value,
            text,
        },
        follow_on,
    ))
}
