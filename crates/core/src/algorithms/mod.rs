//! The summarization algorithms of §IV–§VI.
//!
//! * [`BruteForceSummarizer`] — reference enumeration (tests/baselines).
//! * [`ExactSummarizer`] — Algorithm 1: guaranteed-optimal search with
//!   permutation and utility-bound pruning.
//! * [`GreedySummarizer`] — Algorithm 2: the (1−1/e)-approximate greedy,
//!   optionally with Algorithm 3 fact-group pruning in its naive (G-P) or
//!   cost-optimized (G-O) variant.

pub mod brute;
pub mod exact;
pub mod greedy;
pub mod optimizer;
pub mod pruning;

pub use brute::BruteForceSummarizer;
pub use exact::ExactSummarizer;
pub use greedy::GreedySummarizer;
pub use optimizer::{PlanCandidate, PruneOptimizerConfig};
pub use pruning::FactPruning;

use std::borrow::Cow;

use crate::enumeration::FactCatalog;
use crate::error::{CoreError, Result};
use crate::instrument::Instrumentation;
use crate::model::relation::EncodedRelation;
use crate::model::speech::Speech;

/// One speech summarization problem instance `⟨R, F, m⟩` (Definition 7).
#[derive(Debug, Clone, Copy)]
pub struct Problem<'a> {
    /// The relation whose rows the catalog covers — all of them, or the
    /// selection given to [`FactCatalog::build_over`].
    pub relation: &'a EncodedRelation,
    /// The available facts.
    pub catalog: &'a FactCatalog,
    /// Maximum number of facts in the speech (`m`).
    pub max_facts: usize,
}

impl<'a> Problem<'a> {
    /// Build a problem instance; validates that the catalog was built over
    /// this relation and that at least one fact is requested.
    pub fn new(
        relation: &'a EncodedRelation,
        catalog: &'a FactCatalog,
        max_facts: usize,
    ) -> Result<Self> {
        if max_facts == 0 {
            return Err(CoreError::InvalidProblem {
                detail: "a speech must be allowed at least one fact".to_string(),
            });
        }
        if catalog.relation_rows() != relation.len() {
            return Err(CoreError::InvalidProblem {
                detail: format!(
                    "catalog built over {} rows but relation has {}",
                    catalog.relation_rows(),
                    relation.len()
                ),
            });
        }
        Ok(Problem {
            relation,
            catalog,
            max_facts,
        })
    }

    /// The covered rows as a relation of their own: the problem's relation
    /// when the catalog covers all of it in order, a copy otherwise.
    pub fn covered_relation(&self) -> Result<Cow<'a, EncodedRelation>> {
        let rows = self.catalog.selection();
        if rows.iter().copied().eq(0..self.relation.len() as u32) {
            return Ok(Cow::Borrowed(self.relation));
        }
        Ok(Cow::Owned(self.relation.subset(rows)?))
    }
}

/// The result of summarizing one problem instance.
#[derive(Debug, Clone)]
pub struct Summary {
    /// The selected speech.
    pub speech: Speech,
    /// Its utility `U(F)`.
    pub utility: f64,
    /// The base error `D(∅)` of the instance.
    pub base_error: f64,
    /// Work counters accumulated by the algorithm.
    pub instrumentation: Instrumentation,
    /// True when a time budget expired before the search completed; the
    /// speech is then the best found so far, with no optimality guarantee
    /// (the paper's Fig. 3 runs with a 48-hour timeout).
    pub timed_out: bool,
}

impl Summary {
    /// Utility scaled into `[0, 1]` by the base error.
    pub fn scaled_utility(&self) -> f64 {
        if self.base_error == 0.0 {
            1.0
        } else {
            self.utility / self.base_error
        }
    }

    /// Residual error `D(F) = D(∅) − U(F)`.
    pub fn error(&self) -> f64 {
        self.base_error - self.utility
    }
}

/// A speech summarization algorithm.
pub trait Summarizer {
    /// Short identifier used in experiment output (e.g. "G-O").
    fn name(&self) -> &'static str;

    /// Solve one problem instance.
    fn summarize(&self, problem: &Problem<'_>) -> Result<Summary>;
}

/// Assemble a [`Summary`] from selected fact ids, recomputing utility from
/// first principles over the covered rows in row order (so algorithm
/// bookkeeping bugs cannot misreport).
pub(crate) fn summary_from_ids(
    problem: &Problem<'_>,
    fact_ids: &[crate::model::fact::FactId],
    instrumentation: Instrumentation,
) -> Summary {
    let facts: Vec<_> = fact_ids
        .iter()
        .map(|&id| problem.catalog.fact(id))
        .collect();
    let speech = Speech::new(facts);
    let base = problem.catalog.base_error();
    let u = base - problem.catalog.speech_error(fact_ids);
    Summary {
        speech,
        utility: u,
        base_error: base,
        instrumentation,
        timed_out: false,
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use crate::model::relation::Prior;

    /// The canonical Fig. 1 grid (`vqs_data::running_example` derives it).
    pub fn fig1_relation() -> EncodedRelation {
        EncodedRelation::from_rows(
            &["season", "region"],
            "delay",
            vec![
                (vec!["Spring", "East"], 0.0),
                (vec!["Spring", "South"], 0.0),
                (vec!["Spring", "West"], 0.0),
                (vec!["Spring", "North"], 20.0),
                (vec!["Summer", "East"], 0.0),
                (vec!["Summer", "South"], 20.0),
                (vec!["Summer", "West"], 0.0),
                (vec!["Summer", "North"], 10.0),
                (vec!["Fall", "East"], 0.0),
                (vec!["Fall", "South"], 0.0),
                (vec!["Fall", "West"], 0.0),
                (vec!["Fall", "North"], 10.0),
                (vec!["Winter", "East"], 20.0),
                (vec!["Winter", "South"], 10.0),
                (vec!["Winter", "West"], 10.0),
                (vec!["Winter", "North"], 20.0),
            ],
            Prior::Constant(0.0),
        )
        .unwrap()
    }

    /// A small random relation for cross-checking algorithms.
    pub fn random_relation(seed: u64, rows: usize, dims: &[(&str, usize)]) -> EncodedRelation {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let dim_names: Vec<&str> = dims.iter().map(|&(n, _)| n).collect();
        let mut data = Vec::with_capacity(rows);
        let mut value_pool: Vec<Vec<String>> = Vec::new();
        for &(_, cardinality) in dims {
            value_pool.push((0..cardinality).map(|i| format!("v{i}")).collect());
        }
        for _ in 0..rows {
            let values: Vec<&str> = value_pool
                .iter()
                .map(|pool| pool[rng.gen_range(0..pool.len())].as_str())
                .collect();
            let target = rng.gen_range(0.0..100.0_f64).round();
            data.push((values, target));
        }
        EncodedRelation::from_rows(&dim_names, "y", data, Prior::GlobalMean).unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::fig1_relation;
    use super::*;

    #[test]
    fn problem_validation() {
        let r = fig1_relation();
        let catalog = FactCatalog::build(&r, &[0, 1], 2).unwrap();
        assert!(Problem::new(&r, &catalog, 3).is_ok());
        assert!(Problem::new(&r, &catalog, 0).is_err());
        let sub = r.subset(&[0, 1]).unwrap();
        assert!(Problem::new(&sub, &catalog, 3).is_err());
    }

    #[test]
    fn summary_scaling() {
        let r = fig1_relation();
        let catalog = FactCatalog::build(&r, &[0, 1], 2).unwrap();
        let problem = Problem::new(&r, &catalog, 2).unwrap();
        // Find the Winter fact (utility 40).
        let winter = catalog
            .facts()
            .position(|f| f.scope.len() == 1 && f.value == 15.0 && f.scope.restricts(0))
            .unwrap();
        let summary = summary_from_ids(&problem, &[winter], Instrumentation::default());
        assert_eq!(summary.base_error, 120.0);
        assert_eq!(summary.utility, 40.0);
        assert_eq!(summary.error(), 80.0);
        assert!((summary.scaled_utility() - 40.0 / 120.0).abs() < 1e-12);
    }
}
