//! The pruning-plan cost model and optimizer of §VI-C/§VI-D.
//!
//! A pruning *plan* is a pair `(S, T)`: utility is computed first for the
//! *source* groups `S`; the best gain found there is then compared against
//! cheap deviation upper bounds of the *target* groups `T`, and dominated
//! targets (with all their specializations) are skipped. The optimizer
//! enumerates the candidate plans of Algorithm 4 and picks the one with the
//! lowest estimated cost under the §VI-C model.

use vqs_relalg::cost::CostModel;

use crate::enumeration::FactGroup;

/// Configuration of the plan optimizer.
#[derive(Debug, Clone)]
pub struct PruneOptimizerConfig {
    /// Operator cost model (join vs group-by asymmetry).
    pub cost_model: CostModel,
    /// Standard deviation `σ` of the per-fact utility distribution
    /// (§VI-C models per-fact utility as `N(1/M(g), σ²)` after normalizing
    /// total utility mass to 1).
    pub sigma: f64,
    /// Below this relation size, cost-based planning skips pruning
    /// entirely: per-pass setup dominates tiny subsets and the planning
    /// effort cannot amortize. This is the "decide *if* … to try
    /// excluding facts" half of §VI-A, and it is what separates G-O from
    /// the naive G-P, which pays pruning overheads unconditionally
    /// ("naive pruning may even increase computational overheads").
    pub min_rows: usize,
}

impl Default for PruneOptimizerConfig {
    fn default() -> Self {
        // σ = 0.1 makes a coarse group (M=1..4) reliably dominate fine
        // groups (M ≥ 50) while keeping mid-size comparisons uncertain,
        // which matches the paper's qualitative description.
        PruneOptimizerConfig {
            cost_model: CostModel::default(),
            sigma: 0.1,
            min_rows: 256,
        }
    }
}

/// A candidate pruning plan over group indexes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanCandidate {
    /// Source groups: gains computed unconditionally, their maximum is the
    /// pruning threshold.
    pub sources: Vec<usize>,
    /// Target groups, in the order their bounds are checked.
    pub targets: Vec<usize>,
}

/// `Φ`, the standard normal CDF, via the Abramowitz–Stegun erf
/// approximation (maximum absolute error ≈ 1.5e-7 — far below what the
/// cost model needs).
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    sign * (1.0 - poly * (-x * x).exp())
}

/// `Pr(P_{s→t})`: probability that the maximum utility in source group `s`
/// exceeds the bound of target group `t`, comparing `N(1/M(s), σ²)` with
/// `N(1/M(t), σ²)` (§VI-C): `Φ((1/M(s) − 1/M(t)) / (σ√2))`.
pub fn prune_probability(m_source: usize, m_target: usize, sigma: f64) -> f64 {
    let mu_s = 1.0 / m_source.max(1) as f64;
    let mu_t = 1.0 / m_target.max(1) as f64;
    normal_cdf((mu_s - mu_t) / (sigma * std::f64::consts::SQRT_2))
}

/// Dense matrix of `Pr(P_{s→t})` over group pairs, computed once per
/// optimization (the `erf` behind `Φ` is by far the hottest part of plan
/// enumeration).
struct ProbMatrix {
    probs: Vec<f64>,
    n: usize,
}

impl ProbMatrix {
    fn new(groups: &[FactGroup], sigma: f64) -> ProbMatrix {
        let n = groups.len();
        let mut probs = vec![0.0; n * n];
        for s in 0..n {
            for t in 0..n {
                probs[s * n + t] =
                    prune_probability(groups[s].fact_count, groups[t].fact_count, sigma);
            }
        }
        ProbMatrix { probs, n }
    }

    #[inline]
    fn get(&self, s: usize, t: usize) -> f64 {
        self.probs[s * self.n + t]
    }
}

/// `Pr(P_t)` given sources `S`: `1 − Π_s (1 − Pr(P_{s→t}))`.
fn target_prune_probability(matrix: &ProbMatrix, sources: &[usize], t: usize) -> f64 {
    let mut keep = 1.0;
    for &s in sources {
        keep *= 1.0 - matrix.get(s, t);
    }
    1.0 - keep
}

/// The heuristic `H(t, S, L) = Pr(P_t) · |{l ∈ L : t ⊆ l}|`: the expected
/// number of groups removed by checking target `t` (Algorithm 4).
fn target_value(
    groups: &[FactGroup],
    matrix: &ProbMatrix,
    sources: &[usize],
    remaining: &[usize],
    t: usize,
) -> f64 {
    let specializations = remaining
        .iter()
        .filter(|&&l| groups[t].mask & groups[l].mask == groups[t].mask)
        .count();
    target_prune_probability(matrix, sources, t) * specializations as f64
}

/// The remaining group of highest `H`, each evaluated once; a tie goes
/// to the last of the tied groups, as [`Iterator::max_by`] breaks it.
fn best_target(
    groups: &[FactGroup],
    matrix: &ProbMatrix,
    sources: &[usize],
    remaining: &[usize],
) -> usize {
    remaining
        .iter()
        .map(|&t| (t, target_value(groups, matrix, sources, remaining, t)))
        .max_by(|(_, a), (_, b)| a.total_cmp(b))
        .expect("remaining is non-empty")
        .0
}

/// Group indexes by ascending fact count, then mask.
fn by_size(groups: &[FactGroup]) -> Vec<usize> {
    let mut by_size: Vec<usize> = (0..groups.len()).collect();
    by_size.sort_by_key(|&g| (groups[g].fact_count, groups[g].mask));
    by_size
}

/// Enumerate the plan candidates of Algorithm 4.
///
/// Sources are prefixes of the groups sorted by ascending fact count
/// ("prioritizes fact groups with few member facts"); for each source set,
/// targets are added greedily by `H`, each addition yielding one
/// candidate, and every chosen target removes its specializations from
/// further consideration. A no-pruning candidate (all groups are sources,
/// no targets) is always included so the optimizer can decide *whether*
/// to prune at all.
pub fn enumerate_plans(groups: &[FactGroup], config: &PruneOptimizerConfig) -> Vec<PlanCandidate> {
    enumerate_plans_with(groups, &ProbMatrix::new(groups, config.sigma))
}

fn enumerate_plans_with(groups: &[FactGroup], matrix: &ProbMatrix) -> Vec<PlanCandidate> {
    let by_size = by_size(groups);

    // §VI-D: "To reduce optimization overheads, we use several heuristics
    // to obtain a smaller set of candidate plans." Beyond the paper's
    // prefix restriction we grow prefixes geometrically past 4 — adjacent
    // prefix sizes yield nearly identical costs, so this loses little
    // while keeping per-problem optimization cheap.
    let mut prefixes: Vec<usize> = Vec::new();
    let mut size = 1usize;
    while size < groups.len() {
        prefixes.push(size);
        size = if size < 4 { size + 1 } else { size + size / 2 };
    }

    let mut plans = Vec::new();
    for prefix in prefixes {
        let sources: Vec<usize> = by_size[..prefix].to_vec();
        let mut remaining: Vec<usize> = by_size[prefix..].to_vec();
        let mut targets: Vec<usize> = Vec::new();
        while !remaining.is_empty() {
            let t = best_target(groups, matrix, &sources, &remaining);
            targets.push(t);
            plans.push(PlanCandidate {
                sources: sources.clone(),
                targets: targets.clone(),
            });
            remaining.retain(|&l| groups[t].mask & groups[l].mask != groups[t].mask);
        }
    }
    // Degenerate plan: compute everything, prune nothing.
    plans.push(PlanCandidate {
        sources: by_size,
        targets: Vec::new(),
    });
    plans
}

/// Estimated execution cost of a plan (§VI-C):
/// `Σ_s CU(s) + Σ_t CD(t) + Σ_{g∈G\S} Pr(¬P_g)·CU(g)`.
pub fn plan_cost(
    groups: &[FactGroup],
    rows: usize,
    plan: &PlanCandidate,
    config: &PruneOptimizerConfig,
) -> f64 {
    let matrix = ProbMatrix::new(groups, config.sigma);
    plan_cost_with(groups, rows, plan, config, &matrix)
}

fn plan_cost_with(
    groups: &[FactGroup],
    rows: usize,
    plan: &PlanCandidate,
    config: &PruneOptimizerConfig,
    matrix: &ProbMatrix,
) -> f64 {
    let cu = |g: usize| config.cost_model.utility_cost(rows, groups[g].fact_count);
    let cd = |g: usize| config.cost_model.deviation_cost(rows, groups[g].fact_count);

    let mut cost = 0.0;
    for &s in &plan.sources {
        cost += cu(s);
    }
    for &t in &plan.targets {
        cost += cd(t);
    }
    for g in 0..groups.len() {
        if plan.sources.contains(&g) {
            continue;
        }
        // Pr(¬P_g) = Π_{s∈S} Π_{t∈T: t⊆g} (1 − Pr(P_{s→t})).
        let mut survive = 1.0;
        for &t in &plan.targets {
            if groups[t].mask & groups[g].mask != groups[t].mask {
                continue;
            }
            for &s in &plan.sources {
                survive *= 1.0 - matrix.get(s, t);
            }
        }
        cost += survive * cu(g);
    }
    cost
}

/// `OPTPRUNE`: the minimum-cost candidate plan, the first of several
/// tied ones. One probability matrix serves enumeration and costing, and
/// each candidate's cost is evaluated once.
pub fn optimal_plan(
    groups: &[FactGroup],
    rows: usize,
    config: &PruneOptimizerConfig,
) -> PlanCandidate {
    let matrix = ProbMatrix::new(groups, config.sigma);
    enumerate_plans_with(groups, &matrix)
        .into_iter()
        .map(|plan| {
            let cost = plan_cost_with(groups, rows, &plan, config, &matrix);
            (plan, cost)
        })
        .min_by(|(_, a), (_, b)| a.total_cmp(b))
        .expect("enumerate_plans always yields at least one candidate")
        .0
}

/// The naive plan used by the paper's G-P variant: the smallest-source
/// candidate whose target list covers all remaining groups "in the same
/// order in which they are considered by Algorithm 4" — i.e. the last
/// candidate generated for the first source prefix.
pub fn naive_plan(groups: &[FactGroup], config: &PruneOptimizerConfig) -> PlanCandidate {
    let matrix = ProbMatrix::new(groups, config.sigma);
    let by_size = by_size(groups);
    let sources = vec![by_size[0]];
    let mut remaining: Vec<usize> = by_size[1..].to_vec();
    let mut targets = Vec::new();
    while !remaining.is_empty() {
        let t = best_target(groups, &matrix, &sources, &remaining);
        targets.push(t);
        remaining.retain(|&l| groups[t].mask & groups[l].mask != groups[t].mask);
    }
    PlanCandidate { sources, targets }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::testutil::random_relation;
    use crate::enumeration::FactCatalog;

    fn groups() -> Vec<FactGroup> {
        let r = random_relation(7, 200, &[("a", 3), ("b", 8), ("c", 20)]);
        FactCatalog::build(&r, &[0, 1, 2], 2)
            .unwrap()
            .groups()
            .to_vec()
    }

    #[test]
    fn normal_cdf_sanity() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!(normal_cdf(3.0) > 0.998);
        assert!(normal_cdf(-3.0) < 0.002);
        // Symmetry.
        assert!((normal_cdf(1.2) + normal_cdf(-1.2) - 1.0).abs() < 1e-7);
    }

    #[test]
    fn prune_probability_prefers_small_sources() {
        // A coarse source (few facts, high expected utility) should
        // dominate a fine-grained target with high probability.
        let p = prune_probability(1, 100, 0.1);
        assert!(p > 0.99, "p = {p}");
        // Equal sizes: a coin flip.
        assert!((prune_probability(10, 10, 0.1) - 0.5).abs() < 1e-9);
        // Reversed: nearly never.
        assert!(prune_probability(100, 1, 0.1) < 0.01);
    }

    #[test]
    fn enumerate_includes_no_pruning_plan() {
        let groups = groups();
        let config = PruneOptimizerConfig::default();
        let plans = enumerate_plans(&groups, &config);
        assert!(plans
            .iter()
            .any(|p| p.targets.is_empty() && p.sources.len() == groups.len()));
        // Every candidate's sources are disjoint from its targets.
        for plan in &plans {
            for t in &plan.targets {
                assert!(!plan.sources.contains(t));
            }
        }
    }

    #[test]
    fn optimal_plan_beats_or_matches_naive() {
        let groups = groups();
        let config = PruneOptimizerConfig::default();
        let optimal = optimal_plan(&groups, 200, &config);
        let naive = naive_plan(&groups, &config);
        assert!(
            plan_cost(&groups, 200, &optimal, &config)
                <= plan_cost(&groups, 200, &naive, &config) + 1e-9
        );
    }

    #[test]
    fn naive_plan_uses_smallest_group_as_source() {
        let groups = groups();
        let config = PruneOptimizerConfig::default();
        let plan = naive_plan(&groups, &config);
        assert_eq!(plan.sources.len(), 1);
        let min_count = groups.iter().map(|g| g.fact_count).min().unwrap();
        assert_eq!(groups[plan.sources[0]].fact_count, min_count);
        // Targets plus pruned specializations cover everything else.
        assert!(!plan.targets.is_empty());
    }

    /// The optimizer as first written: every comparison evaluates both
    /// sides, and `optimal_plan` builds the probability matrix twice.
    mod reference {
        use super::super::*;

        fn pick_target(
            groups: &[FactGroup],
            matrix: &ProbMatrix,
            sources: &[usize],
            remaining: &[usize],
        ) -> usize {
            *remaining
                .iter()
                .max_by(|&&a, &&b| {
                    target_value(groups, matrix, sources, remaining, a)
                        .total_cmp(&target_value(groups, matrix, sources, remaining, b))
                })
                .unwrap()
        }

        pub fn optimal_plan(
            groups: &[FactGroup],
            rows: usize,
            config: &PruneOptimizerConfig,
        ) -> PlanCandidate {
            let matrix = ProbMatrix::new(groups, config.sigma);
            enumerate_plans(groups, config)
                .into_iter()
                .min_by(|a, b| {
                    plan_cost_with(groups, rows, a, config, &matrix)
                        .total_cmp(&plan_cost_with(groups, rows, b, config, &matrix))
                })
                .unwrap()
        }

        pub fn enumerate_plans(
            groups: &[FactGroup],
            config: &PruneOptimizerConfig,
        ) -> Vec<PlanCandidate> {
            let mut by_size: Vec<usize> = (0..groups.len()).collect();
            by_size.sort_by_key(|&g| (groups[g].fact_count, groups[g].mask));
            let mut prefixes: Vec<usize> = Vec::new();
            let mut size = 1usize;
            while size < groups.len() {
                prefixes.push(size);
                size = if size < 4 { size + 1 } else { size + size / 2 };
            }
            let matrix = ProbMatrix::new(groups, config.sigma);
            let mut plans = Vec::new();
            for prefix in prefixes {
                let sources: Vec<usize> = by_size[..prefix].to_vec();
                let mut remaining: Vec<usize> = by_size[prefix..].to_vec();
                let mut targets: Vec<usize> = Vec::new();
                while !remaining.is_empty() {
                    let t = pick_target(groups, &matrix, &sources, &remaining);
                    targets.push(t);
                    plans.push(PlanCandidate {
                        sources: sources.clone(),
                        targets: targets.clone(),
                    });
                    remaining.retain(|&l| groups[t].mask & groups[l].mask != groups[t].mask);
                }
            }
            plans.push(PlanCandidate {
                sources: by_size,
                targets: Vec::new(),
            });
            plans
        }

        pub fn naive_plan(groups: &[FactGroup], config: &PruneOptimizerConfig) -> PlanCandidate {
            let matrix = ProbMatrix::new(groups, config.sigma);
            let mut by_size: Vec<usize> = (0..groups.len()).collect();
            by_size.sort_by_key(|&g| (groups[g].fact_count, groups[g].mask));
            let sources = vec![by_size[0]];
            let mut remaining: Vec<usize> = by_size[1..].to_vec();
            let mut targets = Vec::new();
            while !remaining.is_empty() {
                let t = pick_target(groups, &matrix, &sources, &remaining);
                targets.push(t);
                remaining.retain(|&l| groups[t].mask & groups[l].mask != groups[t].mask);
            }
            PlanCandidate { sources, targets }
        }
    }

    /// Evaluating each cost and value once picks the very plans the
    /// pairwise comparisons picked, ties included: on random catalogs of
    /// one to four dimensions, with σ values that make many groups tie,
    /// and a cost model that costs every plan 0.
    #[test]
    fn plans_match_the_pairwise_reference() {
        let shapes: [&[(&str, usize)]; 4] = [
            &[("a", 4)],
            &[("a", 3), ("b", 3)],
            &[("a", 2), ("b", 5), ("c", 9)],
            &[("a", 2), ("b", 2), ("c", 3), ("d", 12)],
        ];
        for seed in 0..12u64 {
            for shape in shapes {
                let relation = random_relation(seed, 150, shape);
                let dims: Vec<usize> = (0..shape.len()).collect();
                for max_dims in 1..=shape.len().min(3) {
                    let catalog = FactCatalog::build(&relation, &dims, max_dims).unwrap();
                    let groups = catalog.groups();
                    let free = CostModel {
                        join_row_weight: 0.0,
                        group_row_weight: 0.0,
                        operator_setup: 0.0,
                        output_row_weight: 0.0,
                    };
                    for (sigma, cost_model) in [
                        (0.01, CostModel::default()),
                        (0.1, CostModel::default()),
                        (1.0, CostModel::default()),
                        (0.1, free),
                    ] {
                        let config = PruneOptimizerConfig {
                            sigma,
                            cost_model,
                            ..PruneOptimizerConfig::default()
                        };
                        let at = format!("seed {seed}, {shape:?}, {max_dims} dims, {config:?}");
                        assert_eq!(
                            enumerate_plans(groups, &config),
                            reference::enumerate_plans(groups, &config),
                            "{at}"
                        );
                        assert_eq!(
                            optimal_plan(groups, 150, &config),
                            reference::optimal_plan(groups, 150, &config),
                            "{at}"
                        );
                        assert_eq!(
                            naive_plan(groups, &config),
                            reference::naive_plan(groups, &config),
                            "{at}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn plan_cost_penalizes_useless_bound_checks() {
        let groups = groups();
        let config = PruneOptimizerConfig::default();
        // A plan whose targets can never be pruned (source = largest group)
        // must cost more than just computing everything.
        let mut by_size: Vec<usize> = (0..groups.len()).collect();
        by_size.sort_by_key(|&g| groups[g].fact_count);
        let worst = PlanCandidate {
            sources: vec![*by_size.last().unwrap()],
            targets: by_size[..by_size.len() - 1].to_vec(),
        };
        let all_sources = PlanCandidate {
            sources: by_size,
            targets: Vec::new(),
        };
        assert!(
            plan_cost(&groups, 200, &worst, &config)
                > plan_cost(&groups, 200, &all_sources, &config) * 0.9
        );
    }
}
