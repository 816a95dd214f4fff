//! Fact-group pruning (Algorithm 3) and the per-iteration fact selection
//! shared by all greedy variants.

use crate::algorithms::optimizer::{naive_plan, optimal_plan, PlanCandidate, PruneOptimizerConfig};
use crate::algorithms::Problem;
use crate::instrument::Instrumentation;
use crate::model::fact::FactId;
use crate::model::utility::ResidualState;

/// Which fact-pruning strategy a greedy run uses (the G-B / G-P / G-O
/// variants of §VIII-B).
#[derive(Debug, Clone, Default)]
pub enum FactPruning {
    /// G-B: no pruning; every group's gains are computed each iteration.
    #[default]
    Off,
    /// G-P: Algorithm 3 with the naive plan (smallest group as the only
    /// source, all remaining groups as targets in Algorithm 4 order).
    Naive(PruneOptimizerConfig),
    /// G-O: Algorithm 3 with the cost-optimal plan from Algorithm 4.
    Optimized(PruneOptimizerConfig),
}

impl FactPruning {
    /// Default-configured naive pruning.
    pub fn naive() -> Self {
        FactPruning::Naive(PruneOptimizerConfig::default())
    }

    /// Default-configured optimized pruning.
    pub fn optimized() -> Self {
        FactPruning::Optimized(PruneOptimizerConfig::default())
    }
}

/// Build the pruning plan for a problem, or `None` when pruning is off.
///
/// The plan depends only on static group statistics (`M(g)` and the row
/// count), so greedy runs compute it once per problem and reuse it across
/// iterations — the `OPT PRUNE` call of Algorithm 3 with its (constant)
/// result cached.
pub fn plan_for(problem: &Problem<'_>, pruning: &FactPruning) -> Option<PlanCandidate> {
    let groups = problem.catalog.groups();
    match pruning {
        FactPruning::Off => None,
        FactPruning::Naive(config) => Some(naive_plan(groups, config)),
        FactPruning::Optimized(config) => {
            // Cost-based "if": tiny subsets are cheaper to evaluate
            // exhaustively than to plan for.
            if problem.catalog.rows() < config.min_rows {
                return None;
            }
            Some(optimal_plan(groups, problem.catalog.rows(), config))
        }
    }
}

/// Select the fact with the maximum utility gain for the current residuals.
///
/// With pruning off this evaluates every group (the joins of Algorithm 2
/// Line 7); otherwise it runs Algorithm 3: compute source-group gains,
/// check target bounds, skip dominated targets and their specializations,
/// then evaluate the surviving groups.
///
/// Returns `None` when no fact improves utility.
pub fn select_best_fact(
    problem: &Problem<'_>,
    residual: &ResidualState,
    pruning: &FactPruning,
    counters: &mut Instrumentation,
) -> Option<(FactId, f64)> {
    let plan = plan_for(problem, pruning);
    select_best_fact_with_plan(problem, residual, plan.as_ref(), counters)
}

/// [`select_best_fact`] with a pre-computed plan (`None` = no pruning).
pub fn select_best_fact_with_plan(
    problem: &Problem<'_>,
    residual: &ResidualState,
    plan: Option<&PlanCandidate>,
    counters: &mut Instrumentation,
) -> Option<(FactId, f64)> {
    let groups = problem.catalog.groups();
    let mut best: Option<(FactId, f64)> = None;
    let mut consider = |candidate: Option<(FactId, f64)>, best: &mut Option<(FactId, f64)>| {
        if let Some((id, gain)) = candidate {
            if best.is_none_or(|(_, g)| gain > g) {
                *best = Some((id, gain));
            }
        }
    };

    let mut scratch = Vec::new();
    match plan {
        None => {
            for g in 0..groups.len() {
                consider(
                    best_in_group(problem, residual, g, counters, &mut scratch),
                    &mut best,
                );
            }
        }
        Some(plan) => {
            run_plan(
                problem,
                residual,
                plan,
                counters,
                &mut scratch,
                &mut best,
                &mut consider,
            );
        }
    }
    best.filter(|&(_, gain)| gain > 0.0)
}

/// Pruning-off fact selection with the group sweep fanned over
/// `executor`: every group's gain pass is independent, so tasks sweep
/// strided subsets of the groups and the reduction below re-walks the
/// per-group winners in ascending group order. That reduction applies
/// the same strict-maximum rule as the sequential scan, so the selected
/// fact is identical for every worker count.
pub fn select_best_fact_parallel(
    problem: &Problem<'_>,
    residual: &ResidualState,
    executor: &dyn crate::algorithms::exec::SearchExecutor,
    workers: usize,
    counters: &mut Instrumentation,
) -> Option<(FactId, f64)> {
    let groups = problem.catalog.groups().len();
    let fan = workers.min(groups).max(1);
    if fan <= 1 {
        return select_best_fact_with_plan(problem, residual, None, counters);
    }
    let outputs = crate::algorithms::exec::run_collect(executor, fan, |t| {
        let mut local = Instrumentation::default();
        let mut scratch = Vec::new();
        let mut found: Vec<(usize, Option<(FactId, f64)>)> = Vec::new();
        let mut g = t;
        while g < groups {
            found.push((
                g,
                best_in_group(problem, residual, g, &mut local, &mut scratch),
            ));
            g += fan;
        }
        (found, local)
    });
    let mut per_group: Vec<Option<(FactId, f64)>> = vec![None; groups];
    for (_, (found, local)) in outputs {
        // Counter merging is commutative, so collection order is moot.
        counters.merge(&local);
        for (g, candidate) in found {
            per_group[g] = candidate;
        }
    }
    let mut best: Option<(FactId, f64)> = None;
    for (id, gain) in per_group.into_iter().flatten() {
        if best.is_none_or(|(_, g)| gain > g) {
            best = Some((id, gain));
        }
    }
    best.filter(|&(_, gain)| gain > 0.0)
}

fn run_plan(
    problem: &Problem<'_>,
    residual: &ResidualState,
    plan: &PlanCandidate,
    counters: &mut Instrumentation,
    scratch: &mut Vec<f64>,
    best: &mut Option<(FactId, f64)>,
    consider: &mut impl FnMut(Option<(FactId, f64)>, &mut Option<(FactId, f64)>),
) {
    let groups = problem.catalog.groups();
    let mut alive = vec![true; groups.len()];
    let mut evaluated = vec![false; groups.len()];

    // Line 9: utility for the pruning sources; m is their best gain.
    let mut threshold = 0.0f64;
    for &s in &plan.sources {
        let candidate = best_in_group(problem, residual, s, counters, scratch);
        if let Some((_, gain)) = candidate {
            threshold = threshold.max(gain);
        }
        consider(candidate, best);
        evaluated[s] = true;
    }

    // Lines 11–22: check targets, prune dominated groups + specializations.
    // As in the paper's Example 8 ("assume we calculate utility gain of
    // the fact stating average delays in the North *first* — based on its
    // utility gain and the upper bounds we can exclude all other facts"),
    // the threshold grows with every gain actually computed: a target
    // that survives its bound check is evaluated immediately so later
    // targets face the strongest available threshold.
    for &t in &plan.targets {
        if !alive[t] {
            continue; // already pruned as a specialization of an earlier target
        }
        let bound = problem.catalog.group_bound(residual, t, counters);
        if threshold > bound {
            for (g, group) in groups.iter().enumerate() {
                if alive[g] && !evaluated[g] && groups[t].mask & group.mask == groups[t].mask {
                    alive[g] = false;
                    counters.groups_pruned += 1;
                }
            }
        } else {
            let candidate = best_in_group(problem, residual, t, counters, scratch);
            if let Some((_, gain)) = candidate {
                threshold = threshold.max(gain);
            }
            consider(candidate, best);
            evaluated[t] = true;
        }
    }

    // Line 24: utility for the surviving groups.
    for g in 0..groups.len() {
        if alive[g] && !evaluated[g] {
            consider(best_in_group(problem, residual, g, counters, scratch), best);
        }
    }
}

/// Gains of one group; returns its best fact. `scratch` is a reusable
/// gains buffer so a sweep over many groups allocates once.
fn best_in_group(
    problem: &Problem<'_>,
    residual: &ResidualState,
    group: usize,
    counters: &mut Instrumentation,
    scratch: &mut Vec<f64>,
) -> Option<(FactId, f64)> {
    problem
        .catalog
        .group_gains_into(residual, group, counters, scratch);
    let start = problem.catalog.groups()[group].fact_start;
    scratch
        .iter()
        .enumerate()
        .max_by(|(_, a), (_, b)| a.total_cmp(b))
        .map(|(offset, &gain)| (start + offset, gain))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::testutil::{fig1_relation, random_relation};
    use crate::enumeration::FactCatalog;

    #[test]
    fn all_strategies_select_a_max_gain_fact() {
        let r = fig1_relation();
        // Example 7 fact pool (no overall-average fact).
        let catalog = FactCatalog::build_with_scope_sizes(&r, &[0, 1], 1, 2).unwrap();
        let problem = Problem::new(&r, &catalog, 3).unwrap();
        let residual = ResidualState::new(&r);
        for pruning in [
            FactPruning::Off,
            FactPruning::naive(),
            FactPruning::optimized(),
        ] {
            let mut counters = Instrumentation::default();
            let (id, gain) =
                select_best_fact(&problem, &residual, &pruning, &mut counters).unwrap();
            // First greedy pick on Fig. 1 has gain 40 (Winter or North).
            assert_eq!(gain, 40.0, "strategy {pruning:?}");
            let fact = catalog.fact(id);
            assert_eq!(fact.value, 15.0);
            assert_eq!(fact.scope.len(), 1);
        }
    }

    #[test]
    fn pruned_selection_matches_unpruned_on_random_data() {
        for seed in 0..10 {
            let r = random_relation(seed, 300, &[("a", 4), ("b", 7), ("c", 3)]);
            let catalog = FactCatalog::build(&r, &[0, 1, 2], 2).unwrap();
            let problem = Problem::new(&r, &catalog, 3).unwrap();
            let residual = ResidualState::new(&r);
            let mut c0 = Instrumentation::default();
            let mut c1 = Instrumentation::default();
            let mut c2 = Instrumentation::default();
            let off = select_best_fact(&problem, &residual, &FactPruning::Off, &mut c0);
            let naive = select_best_fact(&problem, &residual, &FactPruning::naive(), &mut c1);
            let opt = select_best_fact(&problem, &residual, &FactPruning::optimized(), &mut c2);
            let gain = |x: &Option<(FactId, f64)>| x.map(|(_, g)| g).unwrap_or(0.0);
            // Pruning must not change the selected gain (guarantee of §VI-A).
            assert!((gain(&off) - gain(&naive)).abs() < 1e-9, "seed {seed}");
            assert!((gain(&off) - gain(&opt)).abs() < 1e-9, "seed {seed}");
        }
    }

    #[test]
    fn pruning_reduces_gain_passes_on_skewed_data() {
        // Construct data where the coarse fact explains everything, so all
        // fine-grained groups are prunable after the first bound check.
        let r = random_relation(3, 2000, &[("a", 2), ("b", 30), ("c", 30)]);
        let catalog = FactCatalog::build(&r, &[0, 1, 2], 2).unwrap();
        let problem = Problem::new(&r, &catalog, 3).unwrap();
        let residual = ResidualState::new(&r);
        let mut off = Instrumentation::default();
        let mut opt = Instrumentation::default();
        select_best_fact(&problem, &residual, &FactPruning::Off, &mut off);
        select_best_fact(&problem, &residual, &FactPruning::optimized(), &mut opt);
        assert_eq!(off.groups_pruned, 0);
        // The optimized plan must never do more gain passes than no pruning.
        assert!(opt.gain_passes <= off.gain_passes);
    }

    #[test]
    fn returns_none_when_nothing_helps() {
        // Prior already matches the data exactly.
        let r = random_relation(1, 50, &[("a", 3)]);
        let perfect = r
            .clone()
            .with_prior(crate::model::relation::Prior::PerRow(r.targets().to_vec()))
            .unwrap();
        let catalog = FactCatalog::build(&perfect, &[0], 1).unwrap();
        let problem = Problem::new(&perfect, &catalog, 2).unwrap();
        let residual = ResidualState::new(&perfect);
        let mut counters = Instrumentation::default();
        assert!(select_best_fact(&problem, &residual, &FactPruning::Off, &mut counters).is_none());
    }
}
