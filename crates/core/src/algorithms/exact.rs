//! The exact summarizer (Algorithm 1, §IV).
//!
//! Depth-first enumeration of fact combinations with the two pruning rules
//! of §IV-B:
//!
//! 1. **Permutation pruning** — facts are considered in non-increasing
//!    order of single-fact utility, so each fact *set* is enumerated once.
//! 2. **Bound pruning** — a partial speech is abandoned when even the
//!    optimistic completion `S.U + r·F.U` (Lemma 1) cannot reach the best
//!    known utility `b`, which is seeded by a greedy run (the paper's
//!    "lower bound … generated by a cheaper heuristic") and tightened as
//!    better speeches are found.
//!
//! The search hot path is index-driven: every node applies and reverts one
//! fact through the catalog's cell-ordered index
//! ([`crate::enumeration::FactCatalog::fact_index`]) and a reusable
//! [`UndoArena`], touching only in-scope rows with no per-row scope
//! decoding and no per-node allocation.
//!
//! One search runs sequentially on the calling thread; the engine's
//! solver pool spreads whole problems, not the branches of one. Under an
//! expired [`ExactSummarizer::time_budget`] the best speech found so far
//! is returned with [`Summary::timed_out`] set.
//!
//! Note on the paper's notation: Algorithm 1 writes the pruning parameter
//! as `m−i−1` while Example 6 evaluates it as `r = 1` for `m = 2, i = 2`;
//! the sound reading (used here, and consistent with the example and with
//! Lemma 1) is that a speech holding `c` facts can gain at most
//! `(m − c) · u_next` more utility.

use std::time::{Duration, Instant};

use crate::algorithms::greedy::GreedySummarizer;
use crate::algorithms::{summary_from_ids, Problem, Summarizer, Summary};
use crate::error::Result;
use crate::instrument::Instrumentation;
use crate::model::fact::FactId;
use crate::model::utility::{ResidualState, UndoArena};

/// How many node expansions pass between wall-clock deadline checks.
const DEADLINE_CHECK_PERIOD: u64 = 256;

/// Guaranteed-optimal summarizer with configurable pruning.
#[derive(Debug, Clone)]
pub struct ExactSummarizer {
    /// Seed the utility lower bound with a greedy run (on by default; the
    /// paper's Algorithm 1 takes this bound as input `b`).
    pub greedy_lower_bound: bool,
    /// Use the exact utility of the partial speech in the bound instead of
    /// the sum of single-fact utilities (`S.U`). Both are sound (Lemma 1 is
    /// stated for exact aggregate utility, of which `S.U` is an upper
    /// bound); the tight variant prunes more and is our ablation extension.
    pub tight_bounds: bool,
    /// Disable bound pruning entirely (ablation; permutation pruning
    /// always stays on, as in Theorem 5's worst-case analysis).
    pub bound_pruning: bool,
    /// Wall-clock budget; when it expires the search returns its best
    /// speech so far with [`Summary::timed_out`] set (the paper runs
    /// Fig. 3 under a 48-hour timeout).
    pub time_budget: Option<Duration>,
}

impl Default for ExactSummarizer {
    fn default() -> Self {
        ExactSummarizer {
            greedy_lower_bound: true,
            tight_bounds: false,
            bound_pruning: true,
            time_budget: None,
        }
    }
}

impl ExactSummarizer {
    /// Paper-faithful configuration (greedy seed, `S.U`-based bounds).
    pub fn paper() -> Self {
        Self::default()
    }

    /// Ablation: no bound pruning at all.
    pub fn without_bound_pruning() -> Self {
        ExactSummarizer {
            greedy_lower_bound: false,
            bound_pruning: false,
            ..Self::default()
        }
    }

    /// Extension: tight bounds from exact partial utility.
    pub fn with_tight_bounds() -> Self {
        ExactSummarizer {
            tight_bounds: true,
            ..Self::default()
        }
    }

    /// Paper configuration under a wall-clock budget.
    pub fn with_time_budget(budget: Duration) -> Self {
        ExactSummarizer {
            time_budget: Some(budget),
            ..Self::default()
        }
    }

    /// Run the greedy heuristic: its utility and the ids of its facts.
    fn greedy_seed(
        &self,
        problem: &Problem<'_>,
        counters: &mut Instrumentation,
    ) -> (f64, Vec<FactId>) {
        let (ids, greedy) = GreedySummarizer::base().select(problem);
        counters.merge(&greedy);
        let utility = problem.catalog.base_error() - problem.catalog.speech_error(&ids);
        (utility, ids)
    }
}

/// One depth-first search over the facts of a problem.
struct Search<'p, 'a> {
    problem: &'p Problem<'a>,
    /// Fact ids sorted by descending single-fact utility.
    order: Vec<FactId>,
    /// Single-fact utility aligned with `order`.
    utilities: Vec<f64>,
    m: usize,
    tight_bounds: bool,
    bound_pruning: bool,
    base_error: f64,
    deadline: Option<Instant>,
    state: ResidualState,
    arena: UndoArena,
    chosen: Vec<FactId>,
    /// Best utility found so far (the bound `b`).
    best_utility: f64,
    best_ids: Vec<FactId>,
    counters: Instrumentation,
    timed_out: bool,
}

impl Search<'_, '_> {
    /// Wall-clock deadline check: consults the clock on entry into the
    /// search (covering zero/expired budgets before any expansion) and
    /// then once every [`DEADLINE_CHECK_PERIOD`] expanded nodes,
    /// immediately after the expansion counter increments.
    fn expired(&mut self) -> bool {
        if self.timed_out {
            return true;
        }
        let Some(deadline) = self.deadline else {
            return false;
        };
        if self
            .counters
            .nodes_expanded
            .is_multiple_of(DEADLINE_CHECK_PERIOD)
            && Instant::now() >= deadline
        {
            self.timed_out = true;
        }
        self.timed_out
    }

    /// DFS over positions in `order`, starting at `start`, with the facts
    /// in `chosen` already applied to `state`. `sum_single` is `S.U`, the
    /// sum of single-fact utilities of the chosen facts.
    fn dfs(&mut self, start: usize, sum_single: f64) {
        let current_utility = self.base_error - self.state.total();
        self.counters.speeches_evaluated += 1;
        if current_utility > self.best_utility {
            self.best_utility = current_utility;
            self.best_ids = self.chosen.clone();
        }
        if self.chosen.len() == self.m {
            return;
        }
        if self.expired() {
            return;
        }
        let remaining = (self.m - self.chosen.len()) as f64;
        for idx in start..self.order.len() {
            let u_next = self.utilities[idx];
            if self.bound_pruning {
                // Upper bound on any completion through this candidate.
                let stem = if self.tight_bounds {
                    current_utility
                } else {
                    sum_single
                };
                let bound = stem + remaining * u_next;
                if bound <= self.best_utility {
                    // Candidates are sorted by descending utility: every
                    // later candidate has an equal-or-smaller bound.
                    self.counters.nodes_pruned += (self.order.len() - idx) as u64;
                    return;
                }
            }
            self.counters.nodes_expanded += 1;
            if self.expired() {
                return;
            }
            let fact_id = self.order[idx];
            let index = self.problem.catalog.fact_index(fact_id);
            self.counters.index_row_touches += index.len() as u64;
            self.state.apply_indexed(index, &mut self.arena);
            self.chosen.push(fact_id);
            self.dfs(idx + 1, sum_single + u_next);
            self.chosen.pop();
            self.state.revert_frame(&mut self.arena);
            if self.timed_out {
                return;
            }
        }
    }
}

impl Summarizer for ExactSummarizer {
    fn name(&self) -> &'static str {
        "E"
    }

    fn summarize(&self, problem: &Problem<'_>) -> Result<Summary> {
        let mut counters = Instrumentation::default();

        // Single-fact utilities (Algorithm 1 Line 6), then sort descending —
        // the permutation-pruning order of §IV-B.
        let utilities = problem.catalog.single_fact_utilities(&mut counters);
        let mut order: Vec<FactId> = (0..problem.catalog.len()).collect();
        order.sort_by(|&a, &b| utilities[b].total_cmp(&utilities[a]));
        let sorted_utilities: Vec<f64> = order.iter().map(|&id| utilities[id]).collect();

        // Lower bound b from the greedy heuristic.
        let (seed_utility, seed_ids) = if self.greedy_lower_bound {
            self.greedy_seed(problem, &mut counters)
        } else {
            (0.0, Vec::new())
        };

        let m = problem.max_facts.min(problem.catalog.len());
        let mut search = Search {
            problem,
            order,
            utilities: sorted_utilities,
            m,
            tight_bounds: self.tight_bounds,
            bound_pruning: self.bound_pruning,
            base_error: problem.catalog.base_error(),
            deadline: self.time_budget.map(|budget| Instant::now() + budget),
            state: problem.catalog.residual_state(),
            arena: UndoArena::new(),
            chosen: Vec::with_capacity(m),
            best_utility: seed_utility,
            best_ids: seed_ids,
            counters: Instrumentation::default(),
            timed_out: false,
        };
        search.dfs(0, 0.0);
        counters.merge(&search.counters);

        let mut summary = summary_from_ids(problem, &search.best_ids, counters);
        summary.timed_out = search.timed_out;
        Ok(summary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::brute::BruteForceSummarizer;
    use crate::algorithms::testutil::{fig1_relation, random_relation};
    use crate::enumeration::FactCatalog;

    #[test]
    fn optimal_on_fig1_with_pairs() {
        let r = fig1_relation();
        let catalog = FactCatalog::build(&r, &[0, 1], 2).unwrap();
        let problem = Problem::new(&r, &catalog, 3).unwrap();
        let exact = ExactSummarizer::paper().summarize(&problem).unwrap();
        let brute = BruteForceSummarizer.summarize(&problem).unwrap();
        assert!((exact.utility - brute.utility).abs() < 1e-9);
    }

    #[test]
    fn matches_brute_force_on_random_instances() {
        for seed in 0..10 {
            let r = random_relation(seed, 80, &[("a", 3), ("b", 4)]);
            let catalog = FactCatalog::build(&r, &[0, 1], 2).unwrap();
            let problem = Problem::new(&r, &catalog, 3).unwrap();
            let exact = ExactSummarizer::paper().summarize(&problem).unwrap();
            let brute = BruteForceSummarizer.summarize(&problem).unwrap();
            assert!(
                (exact.utility - brute.utility).abs() < 1e-9,
                "seed {seed}: exact {} vs brute {}",
                exact.utility,
                brute.utility
            );
        }
    }

    #[test]
    fn all_pruning_configurations_agree() {
        for seed in 20..25 {
            let r = random_relation(seed, 60, &[("a", 3), ("b", 3)]);
            let catalog = FactCatalog::build(&r, &[0, 1], 2).unwrap();
            let problem = Problem::new(&r, &catalog, 3).unwrap();
            let paper = ExactSummarizer::paper().summarize(&problem).unwrap();
            let no_bounds = ExactSummarizer::without_bound_pruning()
                .summarize(&problem)
                .unwrap();
            let tight = ExactSummarizer::with_tight_bounds()
                .summarize(&problem)
                .unwrap();
            assert!(
                (paper.utility - no_bounds.utility).abs() < 1e-9,
                "seed {seed}"
            );
            assert!((paper.utility - tight.utility).abs() < 1e-9, "seed {seed}");
        }
    }

    #[test]
    fn bound_pruning_reduces_search_effort() {
        let r = random_relation(42, 150, &[("a", 5), ("b", 5)]);
        let catalog = FactCatalog::build(&r, &[0, 1], 2).unwrap();
        let problem = Problem::new(&r, &catalog, 3).unwrap();
        let pruned = ExactSummarizer::paper().summarize(&problem).unwrap();
        let unpruned = ExactSummarizer::without_bound_pruning()
            .summarize(&problem)
            .unwrap();
        assert!(
            pruned.instrumentation.nodes_expanded < unpruned.instrumentation.nodes_expanded,
            "pruned {} vs unpruned {}",
            pruned.instrumentation.nodes_expanded,
            unpruned.instrumentation.nodes_expanded
        );
        // Tight bounds prune at least as hard as S.U bounds.
        let tight = ExactSummarizer::with_tight_bounds()
            .summarize(&problem)
            .unwrap();
        assert!(tight.instrumentation.nodes_expanded <= pruned.instrumentation.nodes_expanded);
    }

    #[test]
    fn exact_at_least_greedy() {
        for seed in 30..36 {
            let r = random_relation(seed, 100, &[("a", 4), ("b", 3), ("c", 2)]);
            let catalog = FactCatalog::build(&r, &[0, 1, 2], 2).unwrap();
            let problem = Problem::new(&r, &catalog, 3).unwrap();
            let exact = ExactSummarizer::paper().summarize(&problem).unwrap();
            let greedy = GreedySummarizer::base().summarize(&problem).unwrap();
            assert!(exact.utility >= greedy.utility - 1e-9, "seed {seed}");
        }
    }

    #[test]
    fn zero_time_budget_times_out_with_greedy_fallback() {
        let r = random_relation(77, 400, &[("a", 8), ("b", 8), ("c", 8)]);
        let catalog = FactCatalog::build(&r, &[0, 1, 2], 2).unwrap();
        let problem = Problem::new(&r, &catalog, 3).unwrap();
        let summary = ExactSummarizer::with_time_budget(std::time::Duration::ZERO)
            .summarize(&problem)
            .unwrap();
        assert!(summary.timed_out);
        // The greedy seed still provides a valid speech.
        let greedy = GreedySummarizer::base().summarize(&problem).unwrap();
        assert!(summary.utility >= greedy.utility - 1e-9);
        assert!(!greedy.timed_out);
    }

    #[test]
    fn handles_budget_exceeding_catalog() {
        let r = fig1_relation();
        let catalog = FactCatalog::build(&r, &[], 0).unwrap();
        let problem = Problem::new(&r, &catalog, 4).unwrap();
        let summary = ExactSummarizer::paper().summarize(&problem).unwrap();
        assert_eq!(summary.speech.len(), 1);
    }
}
