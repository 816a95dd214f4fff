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
//!    (the §VIII-E "merely looks up" hot path is untouched).
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
//! **Deadline-carrying requests** additionally engage the degradation
//! ladder: a store miss (or generalized hit) attempts a *live solve* of
//! the exact query's summarization problem within the remaining budget;
//! when the budgeted solve times out the answer degrades to one greedy
//! pass ([`Degradation::Greedy`]), and when no budget remains at all the
//! stored (generalized) answer is served as-is
//! ([`Degradation::StoreOnly`]) — a degraded speech always beats an
//! apology. Deadline-free requests never enter the ladder, so their
//! answers stay byte-identical to the pre-deadline pipeline.

pub(crate) mod analyze;
pub mod followon;
pub mod plan;
mod token;

pub use analyze::{Extractor, Request, Unsupported};
pub use followon::FollowOn;
pub use plan::{AggKind, ComputedValue, QueryPlan};

use std::sync::Arc;
use std::time::Instant;

use vqs_core::prelude::Summarizer;
use vqs_relalg::hash::FxHashMap;
use vqs_relalg::prelude::Table;

use crate::config::Configuration;
use crate::service::faults::{FaultPlan, FaultSite};
use crate::service::{
    Answer, Degradation, AGGREGATE_APOLOGY, COMPARISON_APOLOGY, CONJUNCTIVE_APOLOGY,
    EXTREMUM_APOLOGY, NOTHING_TO_REPEAT, NOT_UNDERSTOOD, UNAVAILABLE,
};
use crate::store::{Lookup, SpeechStore};
use crate::template::SpeechTemplate;

pub(crate) use analyze::Analysis;

/// The resources needed to solve a summarization problem live at respond
/// time (the degradation ladder's top rung): the service's configured
/// summarizer plus the tenant's solve configuration.
pub(crate) struct LiveSolve<'a> {
    /// The service-wide summarization algorithm.
    pub summarizer: &'a dyn Summarizer,
    /// The tenant's solve configuration (speech length, fact scopes).
    pub config: &'a Configuration,
    /// The tenant's per-target speech templates.
    pub templates: &'a FxHashMap<String, SpeechTemplate>,
    /// The service's fault plan, drawn at [`FaultSite::RespondSolve`]
    /// before each live solve.
    pub faults: Option<&'a FaultPlan>,
}

/// One tenant's answer-time resources, borrowed for the duration of one
/// request.
pub(crate) struct PipelineContext<'a> {
    /// The tenant's speech store (tier one).
    pub store: &'a SpeechStore,
    /// Spoken help text for `Help` requests.
    pub help_text: &'a str,
    /// The tenant's live table (tier two).
    pub live: &'a Arc<Table>,
    /// What a `Repeat` replays: a session's previous answer, `None` for
    /// stateless traffic and a session's first turn.
    pub last: Option<&'a Answer>,
    /// The request's absolute deadline; `None` (every deadline-free
    /// request) keeps the pipeline byte-identical to the pre-deadline
    /// behavior.
    pub deadline: Option<Instant>,
    /// Live-solve resources for the degradation ladder; only consulted
    /// when `deadline` is set.
    pub solve: Option<LiveSolve<'a>>,
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
        Request::Query(query) => match ctx.store.lookup(query) {
            Lookup::Exact(speech) => {
                let follow_on = followon::suggest(ctx.store, &speech.query);
                (
                    Answer::Speech {
                        speech,
                        kept_predicates: None,
                    },
                    follow_on,
                    Degradation::None,
                )
            }
            // A generalized hit dropped predicates the user asked for: a
            // deadline-carrying request spends its remaining budget
            // solving the *exact* query live before settling for the
            // generalized speech.
            Lookup::Generalized {
                speech,
                kept_predicates,
            } => match solve_live_answer(query, ctx) {
                LiveSolved::Answered(answer, follow_on, tier) => (*answer, follow_on, tier),
                budget => {
                    let follow_on = followon::suggest(ctx.store, &speech.query);
                    (
                        Answer::Speech {
                            speech,
                            kept_predicates: Some(kept_predicates),
                        },
                        follow_on,
                        match budget {
                            LiveSolved::NoBudget => Degradation::StoreOnly,
                            _ => Degradation::None,
                        },
                    )
                }
            },
            // A miss on a supported query: a deadline-carrying request
            // tries a full live solve first; otherwise (and as the
            // fallback) the live tier computes the store's own semantic
            // (the average) directly.
            Lookup::Miss => match solve_live_answer(query, ctx) {
                LiveSolved::Answered(answer, follow_on, tier) => (*answer, follow_on, tier),
                LiveSolved::NoBudget => (
                    Answer::NoSummary {
                        query: query.clone(),
                    },
                    None,
                    Degradation::StoreOnly,
                ),
                LiveSolved::Unavailable => match live_answer(
                    &QueryPlan::Aggregate {
                        target: query.target().to_string(),
                        predicates: query.predicates().to_vec(),
                        agg: AggKind::Avg,
                    },
                    ctx,
                ) {
                    Some((answer, follow_on)) => (answer, follow_on, Degradation::None),
                    None => (
                        Answer::NoSummary {
                            query: query.clone(),
                        },
                        None,
                        Degradation::None,
                    ),
                },
            },
        },
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

/// Outcome of attempting a live solve for the degradation ladder.
enum LiveSolved {
    /// The live solve produced a speech (tier stamped: `Greedy` when the
    /// budgeted solve timed out and one greedy pass answered instead).
    Answered(Box<Answer>, Option<FollowOn>, Degradation),
    /// The deadline left no budget for live work at all.
    NoBudget,
    /// The ladder does not apply — deadline-free request, no solver
    /// wired, or a query not solvable against the live data — and the
    /// pre-existing tiers proceed unchanged.
    Unavailable,
}

/// The degradation ladder's top rung: solve the exact query's
/// summarization problem live, within the request's remaining budget.
fn solve_live_answer(query: &crate::problem::Query, ctx: &PipelineContext<'_>) -> LiveSolved {
    let Some(deadline) = ctx.deadline else {
        return LiveSolved::Unavailable;
    };
    let Some(solve) = &ctx.solve else {
        return LiveSolved::Unavailable;
    };
    if Instant::now() >= deadline {
        return LiveSolved::NoBudget;
    }
    // One fault draw per attempted live solve: a forced timeout makes
    // the budgeted solve behave as expired, exercising the greedy rung.
    let forced = solve
        .faults
        .is_some_and(|faults| faults.impose(FaultSite::RespondSolve));
    match crate::generator::solve_live(
        ctx.live,
        solve.config,
        solve.summarizer,
        solve.templates,
        query,
        Some(deadline),
        forced,
    ) {
        Ok(Some((speech, degraded))) => {
            let speech = Arc::new(speech);
            let follow_on = followon::suggest(ctx.store, &speech.query);
            LiveSolved::Answered(
                Box::new(Answer::Speech {
                    speech,
                    kept_predicates: None,
                }),
                follow_on,
                if degraded {
                    Degradation::Greedy
                } else {
                    Degradation::None
                },
            )
        }
        // A query the live data cannot answer (unknown dimension or
        // value, empty subset) — or a solver error — falls through to
        // the pre-existing tiers rather than failing the request.
        Ok(None) | Err(_) => LiveSolved::Unavailable,
    }
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
