//! The greedy summarizer (Algorithm 2, §V).
//!
//! Iteratively adds the fact with the highest utility gain. By Theorem 3
//! (submodularity of utility + Nemhauser/Wolsey), the result is within a
//! factor `1 − 1/e ≈ 0.632` of the optimum. The three experimental
//! variants G-B / G-P / G-O differ only in the [`FactPruning`] strategy
//! used to find each iteration's best fact.

use std::sync::Arc;

use crate::algorithms::exec::{ScopedExecutor, SearchExecutor};
use crate::algorithms::pruning::FactPruning;
use crate::algorithms::{summary_from_ids, Problem, Summarizer, Summary};
use crate::error::Result;
use crate::instrument::Instrumentation;
use crate::model::fact::FactId;
use crate::model::utility::UndoArena;

/// Greedy fact selection with configurable pruning.
#[derive(Clone)]
pub struct GreedySummarizer {
    /// Per-iteration fact pruning strategy.
    pub pruning: FactPruning,
    /// Worker tasks for the unpruned per-iteration group sweep. `1` (the
    /// default) sweeps sequentially; `0` resolves to the executor's
    /// maximum. Only the pruning-off sweep fans out — Algorithm 3's
    /// threshold-growing plan execution is inherently sequential. The
    /// selected facts are identical for every worker count.
    pub workers: usize,
    /// Where the sweep fan-out runs: `None` (the default) spawns scoped
    /// threads; the engine installs its shared solver pool here.
    pub executor: Option<Arc<dyn SearchExecutor>>,
}

impl std::fmt::Debug for GreedySummarizer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GreedySummarizer")
            .field("pruning", &self.pruning)
            .field("workers", &self.workers)
            .field("executor", &self.executor.is_some())
            .finish()
    }
}

impl Default for GreedySummarizer {
    fn default() -> Self {
        GreedySummarizer {
            pruning: FactPruning::default(),
            workers: 1,
            executor: None,
        }
    }
}

impl GreedySummarizer {
    /// G-B: the base greedy without pruning.
    pub fn base() -> Self {
        GreedySummarizer {
            pruning: FactPruning::Off,
            ..Self::default()
        }
    }

    /// G-P: greedy with naive fact pruning.
    pub fn with_naive_pruning() -> Self {
        GreedySummarizer {
            pruning: FactPruning::naive(),
            ..Self::default()
        }
    }

    /// G-O: greedy with cost-optimized fact pruning.
    pub fn with_optimized_pruning() -> Self {
        GreedySummarizer {
            pruning: FactPruning::optimized(),
            ..Self::default()
        }
    }

    /// Route this summarizer's sweep fan-out through `executor` (e.g. the
    /// engine's shared solver pool) instead of per-call scoped threads.
    pub fn on_executor(mut self, executor: Arc<dyn SearchExecutor>) -> Self {
        self.executor = Some(executor);
        self
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
        let mut counters = Instrumentation::default();
        let mut residual = problem.catalog.residual_state();
        let mut chosen: Vec<FactId> = Vec::with_capacity(problem.max_facts);
        let mut arena = UndoArena::new();
        // OPT PRUNE depends only on static group statistics: plan once.
        let plan = crate::algorithms::pruning::plan_for(problem, &self.pruning);
        let scoped = ScopedExecutor;
        let executor: &dyn SearchExecutor = match &self.executor {
            Some(executor) => executor.as_ref(),
            None => &scoped,
        };
        let workers = if self.workers == 0 {
            executor.max_workers().max(1)
        } else {
            self.workers
        };
        // Only the pruning-off full sweep fans out: every group's gains
        // are independent there, while the Algorithm 3 plan grows its
        // threshold serially across target groups.
        let fan_sweep = plan.is_none() && workers > 1 && problem.catalog.groups().len() > 1;
        for _ in 0..problem.max_facts {
            // Line 7–9: fact with maximal utility gain.
            let selected = if fan_sweep {
                crate::algorithms::pruning::select_best_fact_parallel(
                    problem,
                    &residual,
                    executor,
                    workers,
                    &mut counters,
                )
            } else {
                crate::algorithms::pruning::select_best_fact_with_plan(
                    problem,
                    &residual,
                    plan.as_ref(),
                    &mut counters,
                )
            };
            let Some((fact_id, _gain)) = selected else {
                break; // no fact improves expectations further
            };
            // Line 11: recalculate user expectations — through the
            // catalog's cell-ordered index, touching only in-scope rows.
            let index = problem.catalog.fact_index(fact_id);
            counters.index_row_touches += index.len() as u64;
            residual.apply_indexed(index, &mut arena);
            arena.clear(); // greedy never backtracks
            chosen.push(fact_id);
        }
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

    /// The fanned-out group sweep must pick exactly the facts the
    /// sequential sweep picks, for any worker count.
    #[test]
    fn parallel_sweep_matches_sequential_selection() {
        for seed in 40..46 {
            let r = random_relation(seed, 200, &[("a", 5), ("b", 4), ("c", 3)]);
            let catalog = FactCatalog::build(&r, &[0, 1, 2], 2).unwrap();
            let problem = Problem::new(&r, &catalog, 3).unwrap();
            let sequential = GreedySummarizer::base().summarize(&problem).unwrap();
            for workers in [0usize, 2, 8] {
                let parallel = GreedySummarizer {
                    workers,
                    ..GreedySummarizer::base()
                }
                .summarize(&problem)
                .unwrap();
                assert_eq!(
                    parallel.utility.to_bits(),
                    sequential.utility.to_bits(),
                    "seed {seed} workers {workers}"
                );
                assert_eq!(
                    parallel.speech.facts(),
                    sequential.speech.facts(),
                    "seed {seed} workers {workers}"
                );
            }
        }
    }
}
