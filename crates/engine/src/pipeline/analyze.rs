//! Stage two of the pipeline: dictionary-driven analysis.
//!
//! [`analyze`] is the single classification entry point: it maps an
//! utterance onto the §VIII-D [`Request`] category (the label Table III
//! counts — `Extractor::classify` delegates here) and, for questions the
//! store does not precompute, onto a typed
//! [`crate::pipeline::QueryPlan`]. No later stage reads the utterance
//! again: extrema and comparisons are answered from the plan built here,
//! scoped by every predicate it recognized. Classification is deliberately
//! bit-compatible with the legacy fixed-shape matcher: same cue tables,
//! same substring-vs-word-boundary split, same decision order. What is
//! new is that a recognized-but-unsupported request now *also* carries
//! the recognized structure instead of dead-ending in an apology.

use crate::nlq::{Extractor, Request, Unsupported};
use crate::pipeline::plan::{AggKind, QueryPlan};
use crate::pipeline::token::Utterance;
use crate::problem::Query;

/// Cues marking extremum questions. `"max "` keeps its trailing space
/// (legacy semantics: "maximum" is matched by its own entry).
const EXTREMUM_CUES: [&str; 8] = [
    "most", "highest", "maximum", "max ", "least", "lowest", "minimum", "worst",
];
/// Extremum cues asking for the *low* end; any other extremum cue (or a
/// mixed utterance) asks for the high end.
const LOWEST_CUES: [&str; 3] = ["least", "lowest", "minimum"];
const COMPARISON_CUES: [&str; 5] = [
    "compare",
    "comparison",
    "versus",
    " vs ",
    "difference between",
];
const HELP_CUES: [&str; 4] = ["help", "what can you do", "how do i", "instructions"];
const REPEAT_CUES: [&str; 4] = ["repeat", "again", "say that once more", "come again"];

/// Aggregate cues, matched on word boundaries (unlike the legacy
/// substring cues, these are new and need not inherit quirks). "average"
/// is deliberately absent: stored speeches *are* averages, so those
/// utterances stay supported queries.
const COUNT_CUES: [&str; 3] = ["how many", "count", "number of"];
const SUM_CUES: [&str; 2] = ["total", "sum"];

/// What stage two recognized: the Table III category plus, when the
/// question has live-computable structure, its typed intent.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Analysis {
    /// The §VIII-D request category (drives counters and Table III).
    pub request: Request,
    /// The live-plan intent, already lowered to a [`QueryPlan`]. Present
    /// only for unsupported-category questions whose structure the
    /// analyzer fully resolved (target, and dimension/sides where
    /// needed).
    pub plan: Option<QueryPlan>,
}

impl Analysis {
    fn bare(request: Request) -> Analysis {
        Analysis {
            request,
            plan: None,
        }
    }
}

/// Analyze one utterance against a deployment's dictionaries. The
/// decision order mirrors the legacy classifier exactly; see the module
/// docs for what each branch adds on top.
pub(crate) fn analyze(extractor: &Extractor, text: &str) -> Analysis {
    let utterance = Utterance::new(text);
    if utterance.contains_any(&HELP_CUES) {
        return Analysis::bare(Request::Help);
    }
    if utterance.contains_any(&REPEAT_CUES) {
        return Analysis::bare(Request::Repeat);
    }
    let extremum = utterance.contains_any(&EXTREMUM_CUES);
    let comparison = utterance.contains_any(&COMPARISON_CUES);
    if extractor
        .unavailable_markers()
        .iter()
        .any(|marker| utterance.contains_phrase(marker))
    {
        return Analysis::bare(Request::Unsupported(Unsupported::UnavailableData));
    }
    let target = extractor.extract_target(utterance.lower());
    let predicates = extractor.extract_predicates(utterance.lower());
    let data_access = target.is_some() || !predicates.is_empty();
    // The target a live plan computes over: the mentioned one, or — for
    // a single-target deployment — the only one ("which airline is
    // worst on Fridays?" never names the target column).
    let plan_target = target.or_else(|| extractor.sole_target());
    if data_access && comparison {
        return Analysis {
            request: Request::Unsupported(Unsupported::Comparison),
            plan: plan_target
                .and_then(|target| comparison_plan(extractor, &utterance, target, &predicates)),
        };
    }
    if data_access && extremum {
        let highest = !utterance.contains_any(&LOWEST_CUES)
            || utterance.contains_any(&["most", "highest", "maximum", "max ", "worst"]);
        return Analysis {
            request: Request::Unsupported(Unsupported::Extremum),
            plan: plan_target
                .map(|target| extremum_plan(extractor, &utterance, target, &predicates, highest)),
        };
    }
    if data_access {
        let aggregate = if COUNT_CUES.iter().any(|cue| utterance.contains_phrase(cue)) {
            Some(AggKind::Count)
        } else if SUM_CUES.iter().any(|cue| utterance.contains_phrase(cue)) {
            Some(AggKind::Sum)
        } else {
            None
        };
        if let Some(agg) = aggregate {
            return Analysis {
                request: Request::Unsupported(Unsupported::Aggregate),
                plan: plan_target.map(|target| QueryPlan::Aggregate {
                    target: target.to_string(),
                    predicates: predicates.clone(),
                    agg,
                }),
            };
        }
    }
    match target {
        Some(target) if predicates.len() <= extractor.max_query_length() => {
            Analysis::bare(Request::Query(Query::new(target.to_string(), predicates)))
        }
        // More predicates than the store pre-processed: previously an
        // out-of-deployment apology, now a conjunctive live plan (the
        // store's own semantic — the average — over the narrower
        // subset).
        Some(target) => Analysis {
            request: Request::Unsupported(Unsupported::Conjunctive),
            plan: Some(QueryPlan::Aggregate {
                target: target.to_string(),
                predicates,
                agg: AggKind::Avg,
            }),
        },
        // A predicate without a recognizable target references data we
        // cannot serve (e.g. "delays of flight UA123").
        None if !predicates.is_empty() => {
            Analysis::bare(Request::Unsupported(Unsupported::UnavailableData))
        }
        None => Analysis::bare(Request::Other),
    }
}

/// Group-extremum intent: the grouping dimension is the first dimension
/// *name* mentioned in the utterance ("which **season** has …");
/// predicates on that same dimension are dropped (they would pin the
/// group being ranked).
fn extremum_plan(
    extractor: &Extractor,
    utterance: &Utterance,
    target: &str,
    predicates: &[(String, String)],
    highest: bool,
) -> QueryPlan {
    let dimension = extractor
        .dimension_names()
        .into_iter()
        .filter(|dim| utterance.contains_phrase(&dim.replace('_', " ").to_lowercase()))
        .min_by_key(|dim| utterance.find_phrase(&dim.replace('_', " ").to_lowercase()));
    match dimension {
        Some(dimension) => QueryPlan::GroupExtremum {
            target: target.to_string(),
            predicates: predicates
                .iter()
                .filter(|(dim, _)| *dim != dimension)
                .cloned()
                .collect(),
            dimension,
            highest,
        },
        // No grouping dimension named: a global min/max over the subset
        // ("the highest delay in winter").
        None => QueryPlan::Aggregate {
            target: target.to_string(),
            predicates: predicates.to_vec(),
            agg: if highest { AggKind::Max } else { AggKind::Min },
        },
    }
}

/// Comparison intent: the first dimension with two distinct values
/// mentioned supplies the sides, ordered by mention position; predicates
/// on other dimensions scope both sides identically.
fn comparison_plan(
    extractor: &Extractor,
    utterance: &Utterance,
    target: &str,
    predicates: &[(String, String)],
) -> Option<QueryPlan> {
    // All dictionary mentions with positions, not capped at one per
    // dimension like predicate extraction.
    let mut mentions: Vec<(usize, &str, &str)> = Vec::new();
    for (phrase, (dim, value)) in extractor.value_entries() {
        if let Some(pos) = utterance.find_phrase(phrase) {
            // Longest-first dictionary order: a shorter phrase inside an
            // already-claimed span ("York" in "New York") is skipped.
            if mentions
                .iter()
                .any(|&(p, _, v)| pos >= p && pos + phrase.len() <= p + v.len())
            {
                continue;
            }
            mentions.push((pos, dim.as_str(), value.as_str()));
        }
    }
    mentions.sort();
    let (_, dimension, left) = *mentions
        .iter()
        .find(|(_, dim, _)| mentions.iter().filter(|(_, d, _)| d == dim).count() >= 2)?;
    let (_, _, right) = *mentions
        .iter()
        .find(|(pos, dim, value)| {
            *dim == dimension && *value != left && *pos > utterance.find_phrase(left).unwrap_or(0)
        })
        .or_else(|| {
            mentions
                .iter()
                .find(|(_, dim, value)| *dim == dimension && *value != left)
        })?;
    Some(QueryPlan::Comparison {
        target: target.to_string(),
        predicates: predicates
            .iter()
            .filter(|(dim, _)| dim != dimension)
            .cloned()
            .collect(),
        dimension: dimension.to_string(),
        left: left.to_string(),
        right: right.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqs_core::prelude::{EncodedRelation, Prior};

    fn extractor() -> Extractor {
        let relation = EncodedRelation::from_rows(
            &["season", "region"],
            "delay",
            vec![
                (vec!["Winter", "East"], 20.0),
                (vec!["Summer", "West"], 10.0),
            ],
            Prior::Constant(0.0),
        )
        .unwrap();
        Extractor::from_relation(&relation, 1).with_target_synonyms("delay", &["delays"])
    }

    #[test]
    fn supported_queries_carry_no_plan() {
        let analysis = analyze(&extractor(), "delay in Winter?");
        assert!(matches!(analysis.request, Request::Query(_)));
        assert!(analysis.plan.is_none());
    }

    #[test]
    fn conjunctive_beyond_max_length_plans_an_average() {
        // max_query_length = 1, two predicates.
        let analysis = analyze(&extractor(), "delays in winter in the east");
        assert_eq!(
            analysis.request,
            Request::Unsupported(Unsupported::Conjunctive)
        );
        assert_eq!(
            analysis.plan,
            Some(QueryPlan::Aggregate {
                target: "delay".into(),
                predicates: vec![
                    ("region".into(), "East".into()),
                    ("season".into(), "Winter".into()),
                ],
                agg: AggKind::Avg,
            })
        );
    }

    #[test]
    fn extremum_with_dimension_groups_and_unpins_it() {
        let analysis = analyze(&extractor(), "which season is worst for delays in the east");
        assert_eq!(
            analysis.request,
            Request::Unsupported(Unsupported::Extremum)
        );
        assert_eq!(
            analysis.plan,
            Some(QueryPlan::GroupExtremum {
                target: "delay".into(),
                predicates: vec![("region".into(), "East".into())],
                dimension: "season".into(),
                highest: true,
            })
        );
    }

    #[test]
    fn extremum_without_dimension_is_a_global_extreme() {
        let analysis = analyze(&extractor(), "the lowest delay in winter");
        assert_eq!(
            analysis.plan,
            Some(QueryPlan::Aggregate {
                target: "delay".into(),
                predicates: vec![("season".into(), "Winter".into())],
                agg: AggKind::Min,
            })
        );
    }

    #[test]
    fn comparison_sides_follow_mention_order() {
        let analysis = analyze(&extractor(), "compare delays for summer versus winter");
        assert_eq!(
            analysis.request,
            Request::Unsupported(Unsupported::Comparison)
        );
        assert_eq!(
            analysis.plan,
            Some(QueryPlan::Comparison {
                target: "delay".into(),
                predicates: vec![],
                dimension: "season".into(),
                left: "Summer".into(),
                right: "Winter".into(),
            })
        );
    }

    #[test]
    fn aggregates_classify_and_plan() {
        let analysis = analyze(&extractor(), "how many delays in winter");
        assert_eq!(
            analysis.request,
            Request::Unsupported(Unsupported::Aggregate)
        );
        assert_eq!(
            analysis.plan,
            Some(QueryPlan::Aggregate {
                target: "delay".into(),
                predicates: vec![("season".into(), "Winter".into())],
                agg: AggKind::Count,
            })
        );
        let total = analyze(&extractor(), "the total delay in the east");
        assert_eq!(
            total.plan,
            Some(QueryPlan::Aggregate {
                target: "delay".into(),
                predicates: vec![("region".into(), "East".into())],
                agg: AggKind::Sum,
            })
        );
        // Without a data-access anchor, aggregate cues stay chatter.
        assert_eq!(
            analyze(&extractor(), "count to ten").request,
            Request::Other
        );
    }

    #[test]
    fn single_target_deployments_default_the_target() {
        // "worst" + region value, target never named.
        let analysis = analyze(&extractor(), "which season is worst in the east");
        assert!(matches!(
            analysis.plan,
            Some(QueryPlan::GroupExtremum { ref target, .. }) if target == "delay"
        ));
    }
}
