//! The greedy summarizer (Algorithm 2, §V).
//!
//! Iteratively adds the fact with the highest utility gain. By Theorem 3
//! (submodularity of utility + Nemhauser/Wolsey), the result is within a
//! factor `1 − 1/e ≈ 0.632` of the optimum. The three experimental
//! variants G-B / G-P / G-O differ only in the [`FactPruning`] strategy
//! used to find each iteration's best fact.

use crate::algorithms::pruning::FactPruning;
use crate::algorithms::{summary_from_ids, Problem, Summarizer, Summary};
use crate::error::Result;
use crate::instrument::Instrumentation;
use crate::model::fact::FactId;

/// Greedy fact selection with configurable pruning.
#[derive(Debug, Clone, Default)]
pub struct GreedySummarizer {
    /// Per-iteration fact pruning strategy.
    pub pruning: FactPruning,
}

impl GreedySummarizer {
    /// G-B: the base greedy without pruning.
    pub fn base() -> Self {
        GreedySummarizer {
            pruning: FactPruning::Off,
        }
    }

    /// G-P: greedy with naive fact pruning.
    pub fn with_naive_pruning() -> Self {
        GreedySummarizer {
            pruning: FactPruning::naive(),
        }
    }

    /// G-O: greedy with cost-optimized fact pruning.
    pub fn with_optimized_pruning() -> Self {
        GreedySummarizer {
            pruning: FactPruning::optimized(),
        }
    }

    /// The ids of the facts the greedy speaks, in the order it picks them,
    /// with its work counters.
    pub(crate) fn select(&self, problem: &Problem<'_>) -> (Vec<FactId>, Instrumentation) {
        let mut counters = Instrumentation::default();
        let mut residual = problem.catalog.residual_state();
        let mut chosen: Vec<FactId> = Vec::with_capacity(problem.max_facts);
        // OPT PRUNE depends only on static group statistics: plan once.
        let plan = crate::algorithms::pruning::plan_for(problem, &self.pruning);
        for _ in 0..problem.max_facts {
            // Line 7–9: fact with maximal utility gain.
            let selected = crate::algorithms::pruning::select_best_fact_with_plan(
                problem,
                &residual,
                plan.as_ref(),
                &mut counters,
            );
            let Some((fact_id, _gain)) = selected else {
                break; // no fact improves expectations further
            };
            // Line 11: recalculate user expectations — through the
            // catalog's cell-ordered index, touching only in-scope rows,
            // with no undo log: the greedy never backtracks.
            let index = problem.catalog.fact_index(fact_id);
            counters.index_row_touches += index.len() as u64;
            residual.commit_indexed(index);
            chosen.push(fact_id);
        }
        (chosen, counters)
    }
}

impl Summarizer for GreedySummarizer {
    fn name(&self) -> &'static str {
        match self.pruning {
            FactPruning::Off => "G-B",
            FactPruning::Naive(_) => "G-P",
            FactPruning::Optimized(_) => "G-O",
        }
    }

    fn summarize(&self, problem: &Problem<'_>) -> Result<Summary> {
        let (chosen, counters) = self.select(problem);
        Ok(summary_from_ids(problem, &chosen, counters))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::brute::BruteForceSummarizer;
    use crate::algorithms::testutil::{fig1_relation, random_relation};
    use crate::enumeration::FactCatalog;

    #[test]
    fn example7_greedy_selects_winter_then_north() {
        let r = fig1_relation();
        // Example 7 considers "all facts … within a specific region or
        // season or both" — no overall-average fact.
        let catalog = FactCatalog::build_with_scope_sizes(&r, &[0, 1], 1, 2).unwrap();
        let problem = Problem::new(&r, &catalog, 2).unwrap();
        let summary = GreedySummarizer::base().summarize(&problem).unwrap();
        // Example 7: first pick has utility 40 (Winter or North), second
        // adds gain 25 — total 65.
        assert_eq!(summary.utility, 65.0);
        let scopes: Vec<usize> = summary
            .speech
            .facts()
            .iter()
            .map(|f| f.scope.len())
            .collect();
        assert_eq!(scopes, vec![1, 1]);
        assert!(summary.speech.facts().iter().all(|f| f.value == 15.0));
    }

    #[test]
    fn all_variants_agree_on_utility() {
        for seed in 0..8 {
            let r = random_relation(seed, 200, &[("a", 5), ("b", 4), ("c", 6)]);
            let catalog = FactCatalog::build(&r, &[0, 1, 2], 2).unwrap();
            let problem = Problem::new(&r, &catalog, 3).unwrap();
            let base = GreedySummarizer::base().summarize(&problem).unwrap();
            let naive = GreedySummarizer::with_naive_pruning()
                .summarize(&problem)
                .unwrap();
            let optimized = GreedySummarizer::with_optimized_pruning()
                .summarize(&problem)
                .unwrap();
            assert!((base.utility - naive.utility).abs() < 1e-9, "seed {seed}");
            assert!(
                (base.utility - optimized.utility).abs() < 1e-9,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn greedy_within_theoretical_factor_of_optimum() {
        // Theorem 3: greedy ≥ (1 − 1/e) · OPT.
        let factor = 1.0 - 1.0 / std::f64::consts::E;
        for seed in 0..12 {
            let r = random_relation(100 + seed, 60, &[("a", 3), ("b", 3)]);
            let catalog = FactCatalog::build(&r, &[0, 1], 2).unwrap();
            let problem = Problem::new(&r, &catalog, 3).unwrap();
            let greedy = GreedySummarizer::base().summarize(&problem).unwrap();
            let optimal = BruteForceSummarizer.summarize(&problem).unwrap();
            assert!(
                greedy.utility >= factor * optimal.utility - 1e-9,
                "seed {seed}: greedy {} < {} * optimal {}",
                greedy.utility,
                factor,
                optimal.utility
            );
        }
    }

    #[test]
    fn stops_early_when_no_gain_remains() {
        let r = fig1_relation();
        let catalog = FactCatalog::build(&r, &[0, 1], 2).unwrap();
        // Budget far larger than useful facts: greedy stops once residual
        // error hits zero.
        let problem = Problem::new(&r, &catalog, 16).unwrap();
        let summary = GreedySummarizer::base().summarize(&problem).unwrap();
        assert!(summary.speech.len() < 16);
        assert_eq!(summary.error(), 0.0);
    }

    #[test]
    fn names_match_paper_labels() {
        assert_eq!(GreedySummarizer::base().name(), "G-B");
        assert_eq!(GreedySummarizer::with_naive_pruning().name(), "G-P");
        assert_eq!(GreedySummarizer::with_optimized_pruning().name(), "G-O");
    }
}
