//! Reference brute-force summarizer: evaluates every fact combination.
//!
//! Exponential (`O(n · C(k, m))`, the complexity the paper proves for the
//! un-pruned exhaustive search in Theorem 5) and used only to validate the
//! optimized algorithms on small instances.

use crate::algorithms::{summary_from_ids, Problem, Summarizer, Summary};
use crate::error::Result;
use crate::instrument::Instrumentation;
use crate::model::fact::FactId;
use crate::model::utility::{ResidualState, UndoArena};

/// Exhaustive enumeration without any pruning.
#[derive(Debug, Clone, Copy, Default)]
pub struct BruteForceSummarizer;

impl Summarizer for BruteForceSummarizer {
    fn name(&self) -> &'static str {
        "BF"
    }

    fn summarize(&self, problem: &Problem<'_>) -> Result<Summary> {
        let k = problem.catalog.len();
        let m = problem.max_facts.min(k);
        let mut counters = Instrumentation::default();
        let mut best: (f64, Vec<FactId>) = (f64::NEG_INFINITY, Vec::new());
        let mut chosen: Vec<FactId> = Vec::with_capacity(m);
        let mut state = problem.catalog.residual_state();
        let mut arena = UndoArena::new();
        recurse(
            problem,
            0,
            m,
            &mut chosen,
            &mut state,
            &mut arena,
            &mut best,
            &mut counters,
        );
        Ok(summary_from_ids(problem, &best.1, counters))
    }
}

#[allow(clippy::too_many_arguments)]
fn recurse(
    problem: &Problem<'_>,
    start: usize,
    m: usize,
    chosen: &mut Vec<FactId>,
    state: &mut ResidualState,
    arena: &mut UndoArena,
    best: &mut (f64, Vec<FactId>),
    counters: &mut Instrumentation,
) {
    // Utility of the current (possibly partial) speech.
    let utility = {
        counters.speeches_evaluated += 1;
        // state.total() is D(F); utility = D(∅) − D(F) is tracked lazily via
        // comparison: smaller total is better, so compare totals directly.
        -state.total()
    };
    if utility > best.0 {
        *best = (utility, chosen.clone());
    }
    if chosen.len() == m {
        return;
    }
    for id in start..problem.catalog.len() {
        counters.nodes_expanded += 1;
        let index = problem.catalog.fact_index(id);
        counters.index_row_touches += index.len() as u64;
        state.apply_indexed(index, arena);
        chosen.push(id);
        recurse(problem, id + 1, m, chosen, state, arena, best, counters);
        chosen.pop();
        state.revert_frame(arena);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::testutil::fig1_relation;
    use crate::enumeration::FactCatalog;

    #[test]
    fn finds_optimum_on_fig1() {
        let r = fig1_relation();
        // Example 7's fact pool: specific region or season or both.
        let catalog = FactCatalog::build_with_scope_sizes(&r, &[0, 1], 1, 1).unwrap();
        let problem = Problem::new(&r, &catalog, 2).unwrap();
        let summary = BruteForceSummarizer.summarize(&problem).unwrap();
        // With single-dimension facts only, {Winter, North} (utility 65) is
        // optimal for m = 2.
        assert_eq!(summary.utility, 65.0);
        assert_eq!(summary.speech.len(), 2);
    }

    #[test]
    fn respects_fact_budget() {
        let r = fig1_relation();
        let catalog = FactCatalog::build_with_scope_sizes(&r, &[0, 1], 1, 2).unwrap();
        let problem = Problem::new(&r, &catalog, 1).unwrap();
        let summary = BruteForceSummarizer.summarize(&problem).unwrap();
        assert!(summary.speech.len() <= 1);
        // Best single fact has utility 40 (Winter or North).
        assert_eq!(summary.utility, 40.0);
    }

    #[test]
    fn overall_average_fact_dominates_when_allowed() {
        // With the empty scope included, the overall average (7.5) alone
        // already has utility 60 on the Fig. 1 grid.
        let r = fig1_relation();
        let catalog = FactCatalog::build(&r, &[0, 1], 2).unwrap();
        let problem = Problem::new(&r, &catalog, 1).unwrap();
        let summary = BruteForceSummarizer.summarize(&problem).unwrap();
        assert_eq!(summary.utility, 60.0);
    }

    #[test]
    fn handles_budget_larger_than_catalog() {
        let r = fig1_relation();
        let catalog = FactCatalog::build(&r, &[], 0).unwrap(); // only the overall fact
        let problem = Problem::new(&r, &catalog, 5).unwrap();
        let summary = BruteForceSummarizer.summarize(&problem).unwrap();
        assert_eq!(summary.speech.len(), 1);
    }
}
