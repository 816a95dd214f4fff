//! Text-to-query extraction and request classification.
//!
//! §III: "To map text to queries, we train an extractor with a few
//! samples to extract names of target column and predicates on other
//! columns … from input text (this functionality is provided by the
//! Google Assistant framework)." Offline, the extractor is a dictionary
//! matcher: target columns are recognized through configured synonym
//! samples, predicates through the value dictionaries of the dimension
//! columns. Incoming requests are classified into the §VIII-D categories
//! (help / repeat / supported / unsupported / other) for Table III and
//! Fig. 9.

use vqs_core::prelude::EncodedRelation;
use vqs_relalg::hash::FxHashMap;
use vqs_relalg::prelude::Table;

use crate::config::Configuration;
use crate::problem::Query;

/// Why a data-access request is not answerable from the summary store
/// (the §VIII-D examples: extrema, relative comparisons, unavailable
/// data — plus the aggregate/conjunctive shapes the staged pipeline
/// recognizes). "Unsupported" is a *store* property: all variants except
/// [`Unsupported::UnavailableData`] are now answered by tier two of
/// [`crate::pipeline`] (live plan execution) when the tenant retains
/// live data, and keep their Table III "U-Query" label either way.
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

    /// Extract the target column named in `text`, if any.
    pub fn extract_target(&self, text: &str) -> Option<&str> {
        let lower = text.to_lowercase();
        self.targets
            .iter()
            .find(|(phrase, _)| contains_phrase(&lower, phrase))
            .map(|(_, target)| target.as_str())
    }

    /// Extract equality predicates from `text` (at most one per
    /// dimension; longest value phrases win).
    pub fn extract_predicates(&self, text: &str) -> Vec<(String, String)> {
        let lower = text.to_lowercase();
        let mut used_dims: FxHashMap<String, ()> = FxHashMap::default();
        let mut out = Vec::new();
        for (phrase, (dim, value)) in &self.values {
            if used_dims.contains_key(dim) {
                continue;
            }
            if contains_phrase(&lower, phrase) {
                used_dims.insert(dim.clone(), ());
                out.push((dim.clone(), value.clone()));
            }
        }
        out.sort();
        out
    }

    /// Classify a raw voice request (§VIII-D categories). This is the
    /// label side of the staged pipeline's analyzer — the one
    /// classification entry point; see [`crate::pipeline`].
    pub fn classify(&self, text: &str) -> Request {
        crate::pipeline::analyze::analyze(self, text).request
    }

    /// The value dictionary: lowercased phrase → (dimension, original
    /// value), longest phrases first.
    pub(crate) fn value_entries(&self) -> &[(String, (String, String))] {
        &self.values
    }

    /// The distinct dimension names covered by the value dictionary.
    pub(crate) fn dimension_names(&self) -> Vec<String> {
        let mut names: Vec<String> = Vec::new();
        for (_, (dim, _)) in &self.values {
            if !names.contains(dim) {
                names.push(dim.clone());
            }
        }
        names
    }

    /// The single target column of a one-target deployment, `None` when
    /// several are configured (an unnamed target is then ambiguous).
    pub(crate) fn sole_target(&self) -> Option<&str> {
        let first = self.targets.first().map(|(_, t)| t.as_str())?;
        self.targets
            .iter()
            .all(|(_, t)| t == first)
            .then_some(first)
    }

    /// Registered unavailable-data marker phrases (lowercased).
    pub(crate) fn unavailable_markers(&self) -> &[String] {
        &self.unavailable_markers
    }

    /// Maximum predicates the deployment pre-processed.
    pub(crate) fn max_query_length(&self) -> usize {
        self.max_query_length
    }
}

pub(crate) use crate::pipeline::token::contains_phrase;

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
        let preds = ex.extract_predicates("cancellations in new york");
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
    fn word_boundaries_respected() {
        assert!(contains_phrase("delays in winter", "winter"));
        assert!(!contains_phrase("winterization report", "winter"));
        assert!(contains_phrase("the east region", "east"));
        assert!(!contains_phrase("northeastern", "east"));
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
        assert_eq!(ex.extract_target("the delay in winter"), Some("delay"));
        // The second target's spoken form (underscore as space) works.
        assert_eq!(ex.extract_target("wait time in summer"), Some("wait_time"));
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
}
