//! Stage two of the pipeline: text-to-query analysis.
//!
//! §III: "To map text to queries, we train an extractor with a few
//! samples to extract names of target column and predicates on other
//! columns … from input text (this functionality is provided by the
//! Google Assistant framework)." Offline, the [`Extractor`] is a
//! dictionary matcher: target columns are recognized through configured
//! synonym samples, predicates through the value dictionaries of the
//! dimension columns.
//!
//! [`analyze`] turns one utterance into an [`Analysis`]: the §VIII-D
//! [`Request`] category (help / repeat / supported / unsupported /
//! other) that Table III and Fig. 9 count, and, for questions the store
//! does not precompute, a typed [`QueryPlan`]. [`Extractor::classify`]
//! returns the category alone. No later stage reads the utterance again:
//! extrema and comparisons are answered from the plan built here, scoped
//! by every predicate it recognized.

use vqs_core::prelude::EncodedRelation;
use vqs_relalg::hash::FxHashSet;
use vqs_relalg::prelude::Table;

use crate::config::Configuration;
use crate::pipeline::plan::{AggKind, QueryPlan};
use crate::pipeline::token::Utterance;
use crate::problem::Query;

/// Cues marking extremum questions. `"max "` keeps its trailing space
/// ("maximum" is matched by its own entry).
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

/// Aggregate cues, matched on word boundaries (unlike the substring cues
/// above). "average" is deliberately absent: stored speeches *are*
/// averages, so those utterances stay supported queries.
const COUNT_CUES: [&str; 3] = ["how many", "count", "number of"];
const SUM_CUES: [&str; 2] = ["total", "sum"];

/// Why a data-access request is not answerable from the summary store
/// (the §VIII-D examples: extrema, relative comparisons, unavailable
/// data — plus the aggregate/conjunctive shapes the analyzer
/// recognizes). "Unsupported" is a *store* property: all variants except
/// [`Unsupported::UnavailableData`] are answered by tier two of
/// [`crate::pipeline`] (live plan execution over the tenant's data)
/// whenever the analyzer resolved a plan and its subset is not empty, and
/// keep their Table III "U-Query" label either way.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Unsupported {
    /// Asks for a maximum/minimum ("which airline has the most delays").
    Extremum,
    /// Asks for a relative comparison ("compare job satisfaction between
    /// men and women").
    Comparison,
    /// Asks for a count or total ("how many delays in winter") — the
    /// store holds averages only.
    Aggregate,
    /// A recognized target with more conjunctive predicates than the
    /// deployment pre-processed.
    Conjunctive,
    /// References data the deployment does not cover.
    UnavailableData,
}

/// Classified voice request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Asking how to use the system.
    Help,
    /// Asking to repeat the last output.
    Repeat,
    /// A supported data-access query.
    Query(Query),
    /// A recognized but unsupported data-access request.
    Unsupported(Unsupported),
    /// Anything else.
    Other,
}

impl Request {
    /// Table III row label.
    pub fn label(&self) -> &'static str {
        match self {
            Request::Help => "Help",
            Request::Repeat => "Repeat",
            Request::Query(_) => "S-Query",
            Request::Unsupported(_) => "U-Query",
            Request::Other => "Other",
        }
    }
}

/// Dictionary-based extractor for one deployment.
#[derive(Debug, Clone)]
pub struct Extractor {
    /// Lowercased value → (dimension, original value), longest first.
    values: Vec<(String, (String, String))>,
    /// Target synonyms: lowercased phrase → target column.
    targets: Vec<(String, String)>,
    /// Phrases marking entities the deployment has no data for (e.g.
    /// "flight" — the §VIII-D example "questions for delays of specific
    /// flights" is unsupported because per-flight data is unavailable).
    unavailable_markers: Vec<String>,
    /// Maximum predicates the deployment pre-processed.
    max_query_length: usize,
}

impl Extractor {
    /// Build from a relation's value dictionaries; target synonyms start
    /// with just the column name (underscores spoken as spaces).
    pub fn from_relation(relation: &EncodedRelation, max_query_length: usize) -> Extractor {
        let mut values = Vec::new();
        for dim in relation.dims() {
            for value in &dim.values {
                values.push((value.to_lowercase(), (dim.name.clone(), value.to_string())));
            }
        }
        // Longest phrases first so "New York City" wins over "York".
        values.sort_by_key(|(v, _)| std::cmp::Reverse(v.len()));
        let targets = vec![(
            relation.target_name().replace('_', " ").to_lowercase(),
            relation.target_name().to_string(),
        )];
        Extractor {
            values,
            targets,
            unavailable_markers: Vec::new(),
            max_query_length,
        }
    }

    /// Build the extractor for a whole deployment: value dictionaries
    /// from `table`'s configured dimension columns, and the spoken name of
    /// *every* configured target (underscores spoken as spaces). This is
    /// how the [`crate::service::VoiceService`] facade wires tenants;
    /// add richer phrasings with [`Extractor::with_target_synonyms`].
    pub fn for_deployment(
        table: &Table,
        config: &Configuration,
    ) -> crate::error::Result<Extractor> {
        let first = config
            .targets
            .first()
            .ok_or_else(|| crate::config::ConfigError::Invalid {
                detail: "no targets configured".into(),
            })?;
        // Dimension dictionaries are identical for every target; one
        // relation supplies them all.
        let relation = crate::generator::table_relation(table, config, first)?;
        let mut extractor = Extractor::from_relation(&relation, config.max_query_length);
        for target in &config.targets[1..] {
            // Validate the remaining target columns exist up front (a
            // schema probe, not a full re-encode), so a bad
            // configuration fails at registration, not at query time.
            if table.schema().index_of(target).is_err() {
                return Err(crate::error::EngineError::MissingColumn {
                    column: target.clone(),
                });
            }
            let spoken = target.replace('_', " ");
            extractor = extractor.with_target_synonyms(target, &[spoken.as_str()]);
        }
        Ok(extractor)
    }

    /// Register phrases marking data the deployment does not cover.
    pub fn with_unavailable_markers(mut self, markers: &[&str]) -> Extractor {
        self.unavailable_markers
            .extend(markers.iter().map(|m| m.to_lowercase()));
        self
    }

    /// Register "a few samples" of phrasings for a target column —
    /// the offline stand-in for training the Assistant's extractor.
    pub fn with_target_synonyms(mut self, target: &str, synonyms: &[&str]) -> Extractor {
        for synonym in synonyms {
            self.targets
                .push((synonym.to_lowercase(), target.to_string()));
        }
        // Longest synonyms first for the same reason as values.
        self.targets
            .sort_by_key(|(s, _)| std::cmp::Reverse(s.len()));
        self
    }

    /// Classify a raw voice request (§VIII-D categories): the category
    /// half of the analysis every answer of the staged [`crate::pipeline`]
    /// starts from, so the log replay and the answers agree.
    pub fn classify(&self, text: &str) -> Request {
        analyze(self, text).request
    }

    /// The target column the utterance names, if any.
    fn extract_target(&self, utterance: &Utterance) -> Option<&str> {
        self.targets
            .iter()
            .find(|(phrase, _)| utterance.contains_phrase(phrase))
            .map(|(_, target)| target.as_str())
    }

    /// The utterance's equality predicates (at most one per dimension;
    /// longest value phrases win), sorted.
    fn extract_predicates(&self, utterance: &Utterance) -> Vec<(String, String)> {
        let mut used_dims: FxHashSet<&str> = FxHashSet::default();
        let mut out = Vec::new();
        for (phrase, (dim, value)) in &self.values {
            if used_dims.contains(dim.as_str()) {
                continue;
            }
            if utterance.contains_phrase(phrase) {
                used_dims.insert(dim);
                out.push((dim.clone(), value.clone()));
            }
        }
        out.sort();
        out
    }
}

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
/// decision order is fixed: help, repeat, unavailable-data markers, then,
/// for a request naming a target or a dictionary value, comparison,
/// extremum and aggregate cues, and last a supported, conjunctive or
/// unavailable-data query.
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
        .unavailable_markers
        .iter()
        .any(|marker| utterance.contains_phrase(marker))
    {
        return Analysis::bare(Request::Unsupported(Unsupported::UnavailableData));
    }
    let target = extractor.extract_target(&utterance);
    let predicates = extractor.extract_predicates(&utterance);
    let data_access = target.is_some() || !predicates.is_empty();
    // The target a live plan computes over: the mentioned one, or — when
    // every synonym names the same column — the only one ("which airline
    // is worst on Fridays?" never names the target column). With several
    // targets an unnamed one is ambiguous, and no plan is built.
    let plan_target = target.or_else(|| {
        let (_, first) = extractor.targets.first()?;
        extractor
            .targets
            .iter()
            .all(|(_, t)| t == first)
            .then_some(first.as_str())
    });
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
        Some(target) if predicates.len() <= extractor.max_query_length => {
            Analysis::bare(Request::Query(Query::new(target.to_string(), predicates)))
        }
        // More predicates than the store pre-processed: a conjunctive
        // live plan computing the store's own semantic (the average)
        // over the narrower subset.
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
    // Distinct dimension names in dictionary order, which breaks ties
    // between names mentioned at the same position.
    let mut names: Vec<&str> = Vec::new();
    for (_, (dim, _)) in &extractor.values {
        if !names.contains(&dim.as_str()) {
            names.push(dim);
        }
    }
    let dimension = names
        .into_iter()
        .filter_map(|dim| {
            let pos = utterance.find_phrase(&dim.replace('_', " ").to_lowercase())?;
            Some((pos, dim))
        })
        .min_by_key(|&(pos, _)| pos);
    match dimension {
        Some((_, dimension)) => QueryPlan::GroupExtremum {
            target: target.to_string(),
            predicates: predicates
                .iter()
                .filter(|(dim, _)| dim != dimension)
                .cloned()
                .collect(),
            dimension: dimension.to_string(),
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
    for (phrase, (dim, value)) in &extractor.values {
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
    // `left` is its dimension's earliest mention, so every other value of
    // that dimension comes after it.
    let (_, dimension, left) = *mentions
        .iter()
        .find(|(_, dim, _)| mentions.iter().filter(|(_, d, _)| d == dim).count() >= 2)?;
    let (_, _, right) = *mentions
        .iter()
        .find(|(_, dim, value)| *dim == dimension && *value != left)?;
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
    use vqs_core::prelude::Prior;

    fn relation() -> EncodedRelation {
        EncodedRelation::from_rows(
            &["season", "region"],
            "cancelled",
            vec![
                (vec!["Winter", "East"], 20.0),
                (vec!["Summer", "West"], 10.0),
                (vec!["Fall", "New York"], 5.0),
            ],
            Prior::Constant(0.0),
        )
        .unwrap()
    }

    fn extractor() -> Extractor {
        Extractor::from_relation(&relation(), 2).with_target_synonyms(
            "cancelled",
            &["cancellations", "cancellation probability", "cancel rate"],
        )
    }

    /// A one-target `delay` deployment that pre-processed one predicate.
    fn delay_extractor() -> Extractor {
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
    fn extracts_example5_query() {
        // The paper's Example 5 log entry: "cancellations in Winter?".
        let ex = extractor();
        match ex.classify("cancellations in Winter?") {
            Request::Query(q) => {
                assert_eq!(q.target(), "cancelled");
                assert_eq!(
                    q.predicates(),
                    &[("season".to_string(), "Winter".to_string())]
                );
            }
            other => panic!("expected query, got {other:?}"),
        }
    }

    #[test]
    fn extracts_multiple_predicates() {
        let ex = extractor();
        match ex.classify("what about cancellations in winter in the east") {
            Request::Query(q) => assert_eq!(q.len(), 2),
            other => panic!("expected query, got {other:?}"),
        }
    }

    #[test]
    fn multiword_values_match() {
        let ex = extractor();
        let preds = ex.extract_predicates(&Utterance::new("cancellations in new york"));
        assert_eq!(preds, vec![("region".to_string(), "New York".to_string())]);
    }

    #[test]
    fn help_and_repeat() {
        let ex = extractor();
        assert_eq!(ex.classify("Help me out"), Request::Help);
        assert_eq!(ex.classify("can you say that again"), Request::Repeat);
    }

    #[test]
    fn unsupported_shapes() {
        let ex = extractor();
        assert_eq!(
            ex.classify("make a comparison between cancellations in winter and summer"),
            Request::Unsupported(Unsupported::Comparison)
        );
        assert_eq!(
            ex.classify("which season has the most cancellations"),
            Request::Unsupported(Unsupported::Extremum)
        );
        // Predicate without target: unavailable data.
        assert_eq!(
            ex.classify("tell me about winter"),
            Request::Unsupported(Unsupported::UnavailableData)
        );
    }

    #[test]
    fn aggregate_shapes_classify_as_unsupported() {
        let ex = extractor();
        assert_eq!(
            ex.classify("how many cancellations in winter"),
            Request::Unsupported(Unsupported::Aggregate)
        );
        assert_eq!(
            ex.classify("the total cancellations in the east"),
            Request::Unsupported(Unsupported::Aggregate)
        );
        assert_eq!(ex.classify("how many").label(), "Other");
    }

    #[test]
    fn conjunctive_beyond_max_length_classifies_as_unsupported() {
        // max_query_length = 1: two predicates overflow the store.
        let ex = Extractor::from_relation(&relation(), 1)
            .with_target_synonyms("cancelled", &["cancellations"]);
        assert_eq!(
            ex.classify("cancellations in winter in the east"),
            Request::Unsupported(Unsupported::Conjunctive)
        );
        // Within the limit it stays a supported query.
        assert!(matches!(
            ex.classify("cancellations in winter"),
            Request::Query(_)
        ));
    }

    #[test]
    fn chatter_is_other() {
        let ex = extractor();
        assert_eq!(ex.classify("thank you very much"), Request::Other);
        assert_eq!(ex.classify("play some music"), Request::Other);
    }

    #[test]
    fn for_deployment_covers_every_target() {
        use vqs_data::{DimSpec, SynthSpec, TargetSpec};
        let dataset = SynthSpec {
            name: "dep".to_string(),
            dims: vec![DimSpec::named("season", &["Winter", "Summer"])],
            targets: vec![
                TargetSpec::new("delay", 15.0, 8.0, 2.0, (0.0, 60.0)),
                TargetSpec::new("wait_time", 30.0, 10.0, 4.0, (0.0, 100.0)),
            ],
            rows: 80,
        }
        .generate(3, 1.0);
        let config = Configuration::new("dep", &["season"], &["delay", "wait_time"]);
        let ex = Extractor::for_deployment(&dataset.table, &config).unwrap();
        assert_eq!(
            ex.extract_target(&Utterance::new("the delay in winter")),
            Some("delay")
        );
        // The second target's spoken form (underscore as space) works.
        assert_eq!(
            ex.extract_target(&Utterance::new("wait time in summer")),
            Some("wait_time")
        );
        match ex.classify("wait time in Winter") {
            Request::Query(q) => assert_eq!(q.target(), "wait_time"),
            other => panic!("expected query, got {other:?}"),
        }
        // A missing target column fails at construction time.
        let bad = Configuration::new("dep", &["season"], &["delay", "nonexistent"]);
        assert!(Extractor::for_deployment(&dataset.table, &bad).is_err());
    }

    #[test]
    fn labels_match_table3() {
        let ex = extractor();
        assert_eq!(ex.classify("help").label(), "Help");
        assert_eq!(ex.classify("cancellations in winter").label(), "S-Query");
        assert_eq!(ex.classify("highest cancellations").label(), "U-Query");
        assert_eq!(ex.classify("good morning").label(), "Other");
    }

    #[test]
    fn supported_queries_carry_no_plan() {
        let analysis = analyze(&delay_extractor(), "delay in Winter?");
        assert!(matches!(analysis.request, Request::Query(_)));
        assert!(analysis.plan.is_none());
    }

    #[test]
    fn conjunctive_beyond_max_length_plans_an_average() {
        // max_query_length = 1, two predicates.
        let analysis = analyze(&delay_extractor(), "delays in winter in the east");
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
        let analysis = analyze(
            &delay_extractor(),
            "which season is worst for delays in the east",
        );
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
        let analysis = analyze(&delay_extractor(), "the lowest delay in winter");
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
        let analysis = analyze(
            &delay_extractor(),
            "compare delays for summer versus winter",
        );
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
        let analysis = analyze(&delay_extractor(), "how many delays in winter");
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
        let total = analyze(&delay_extractor(), "the total delay in the east");
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
            analyze(&delay_extractor(), "count to ten").request,
            Request::Other
        );
    }

    #[test]
    fn single_target_deployments_default_the_target() {
        // "worst" + region value, target never named.
        let analysis = analyze(&delay_extractor(), "which season is worst in the east");
        assert!(matches!(
            analysis.plan,
            Some(QueryPlan::GroupExtremum { ref target, .. }) if target == "delay"
        ));
    }
}
