//! Relational execution of the paper's algorithms.
//!
//! §IV: "Our implementation executes the algorithm by issuing a series of
//! SQL queries (thereby removing the need for transferring data out of the
//! database system)." This module is that implementation path: Algorithms
//! 1 and 2 expressed as operator trees over [`vqs_relalg`] — grouping Γ,
//! selection σ, projection Π, the fact-scope join ⋊⋉M and the Cartesian
//! product × of the pseudo-code. It produces bit-identical utilities to
//! the direct in-memory implementations (cross-checked by tests and the
//! `equivalence` integration suite) and exists for fidelity, not speed:
//! the direct implementations are the fast path.

use vqs_relalg::ops::aggregate::{AggFunc, AggItem};
use vqs_relalg::ops::join::JoinType;
use vqs_relalg::ops::ProjectItem;
use vqs_relalg::plan::Plan;
use vqs_relalg::prelude::{ColumnType, Expr, Field, Schema, Table, Value};

use crate::algorithms::{summary_from_ids, Problem, Summarizer, Summary};
use crate::enumeration::FactCatalog;
use crate::error::Result;
use crate::instrument::Instrumentation;
use crate::model::fact::FactId;
use crate::model::relation::EncodedRelation;

/// Materialize the data relation as a relalg table:
/// `[row_id, d_0..d_{D-1}, target, prior, expect]` with `expect`
/// initialized to the prior (Algorithm 2 "initialized with the prior").
pub fn data_table(relation: &EncodedRelation) -> Result<Table> {
    let mut fields = vec![Field::required("row_id", ColumnType::Int)];
    for dim in relation.dims() {
        fields.push(Field::required(&dim.name, ColumnType::Str));
    }
    fields.push(Field::required("target", ColumnType::Float));
    fields.push(Field::required("prior", ColumnType::Float));
    fields.push(Field::required("expect", ColumnType::Float));
    let mut table = Table::empty(Schema::new(fields)?);
    let priors = relation.prior_values();
    for (row, &prior) in priors.iter().enumerate() {
        let mut values: Vec<Value> = vec![Value::Int(row as i64)];
        for d in 0..relation.dim_count() {
            values.push(Value::str(relation.value_str(d, row)));
        }
        values.push(Value::Float(relation.target(row)));
        values.push(Value::Float(prior));
        values.push(Value::Float(prior));
        table.push_row(values)?;
    }
    Ok(table)
}

/// Materialize the fact candidates as a relalg table:
/// `[fact_id, d_0..d_{D-1}, value]` with NULL for unrestricted dimensions.
pub fn fact_table(relation: &EncodedRelation, catalog: &FactCatalog) -> Result<Table> {
    let mut fields = vec![Field::required("fact_id", ColumnType::Int)];
    for dim in relation.dims() {
        fields.push(Field::nullable(&dim.name, ColumnType::Str));
    }
    fields.push(Field::required("value", ColumnType::Float));
    let mut table = Table::empty(Schema::new(fields)?);
    for (id, fact) in catalog.facts().enumerate() {
        let mut values: Vec<Value> = vec![Value::Int(id as i64)];
        for d in 0..relation.dim_count() {
            match fact.scope.value_for(d) {
                Some(code) => values.push(Value::str(&relation.dims()[d].values[code as usize])),
                None => values.push(Value::Null),
            }
        }
        values.push(Value::Float(fact.value));
        table.push_row(values)?;
    }
    Ok(table)
}

/// Dimension column pairs for the scope join ⋊⋉M (facts side, data side).
fn dim_pairs(dim_count: usize) -> Vec<(usize, usize)> {
    (0..dim_count).map(|d| (1 + d, 1 + d)).collect()
}

/// Per-fact utility gains against the data table's current `expect`
/// column: `Γ_{ΣU, F}(R ⋊⋉M F)` of Algorithm 2 Line 7 (equivalently the
/// initialization of Algorithm 1 Line 6 where `expect` = prior).
///
/// Returns a table `[fact_id, gain]`.
fn fact_gains(facts: &Table, data: &Table, dim_count: usize) -> Result<Table> {
    let fact_width = facts.schema().len();
    let value_col = fact_width - 1;
    let target_col = fact_width + 1 + dim_count;
    let expect_col = fact_width + 3 + dim_count;

    // U per (fact, row) = max(0, |expect − target| − |value − target|).
    let improvement = Expr::Greatest(vec![
        Expr::lit(0.0),
        Expr::col(expect_col)
            .sub(Expr::col(target_col))
            .abs()
            .sub(Expr::col(value_col).sub(Expr::col(target_col)).abs()),
    ]);

    let plan = Plan::values(facts.clone())
        .scope_join(Plan::values(data.clone()), dim_pairs(dim_count))
        .project(vec![
            ProjectItem::new(Expr::col(0), "fact_id"),
            ProjectItem::new(improvement, "u"),
        ])
        .aggregate(
            vec![Expr::col(0)],
            vec!["fact_id".to_string()],
            vec![AggItem::new(AggFunc::Sum, Expr::col(1), "gain")],
        );
    Ok(plan.execute()?)
}

/// Highest-gain fact id in a `[fact_id, gain]` table, with its gain.
fn argmax_gain(gains: &Table) -> Option<(FactId, f64)> {
    let mut best: Option<(FactId, f64)> = None;
    for row in gains.iter_rows() {
        let id = row[0].as_i64()? as FactId;
        let gain = row[1].as_f64().unwrap_or(0.0);
        if best.is_none_or(|(_, g)| gain > g) {
            best = Some((id, gain));
        }
    }
    best
}

/// Algorithm 2 Line 11: recalculate the expectation column after adding
/// one fact — for rows within the fact's scope, `expect` becomes the value
/// closest to the target among `{expect, value}`.
fn update_expectations(
    data: &Table,
    relation: &EncodedRelation,
    catalog: &FactCatalog,
    fact_id: FactId,
) -> Result<Table> {
    let fact = catalog.fact(fact_id);
    let dim_count = relation.dim_count();
    let target_col = 1 + dim_count;
    let expect_col = 3 + dim_count;

    // Scope predicate over the data table's dimension columns.
    let mut in_scope = Expr::lit(true);
    for (d, code) in fact.scope.pairs() {
        let value = &relation.dims()[d].values[code as usize];
        in_scope = in_scope.and(Expr::col(1 + d).eq(Expr::lit(value.as_ref())));
    }
    let closer = Expr::lit(fact.value)
        .sub(Expr::col(target_col))
        .abs()
        .lt(Expr::col(expect_col).sub(Expr::col(target_col)).abs());
    let new_expect = Expr::Case {
        branches: vec![(in_scope.and(closer), Expr::lit(fact.value))],
        otherwise: Box::new(Expr::col(expect_col)),
    };

    let mut items = Vec::with_capacity(data.schema().len());
    for (i, field) in data.schema().fields().iter().enumerate() {
        if i == expect_col {
            items.push(ProjectItem::new(new_expect.clone(), "expect"));
        } else {
            items.push(ProjectItem::new(Expr::col(i), field.name.clone()));
        }
    }
    Ok(Plan::values(data.clone()).project(items).execute()?)
}

/// Algorithm 2 executed as relational operators ("G-B over SQL").
#[derive(Debug, Clone, Copy, Default)]
pub struct RelationalGreedy;

impl Summarizer for RelationalGreedy {
    fn name(&self) -> &'static str {
        "G-SQL"
    }

    fn summarize(&self, problem: &Problem<'_>) -> Result<Summary> {
        let (chosen, counters) = self.select(problem)?;
        Ok(summary_from_ids(problem, &chosen, counters))
    }
}

impl RelationalGreedy {
    /// The ids of the facts the relational greedy speaks, in the order it
    /// picks them, with its work counters.
    fn select(&self, problem: &Problem<'_>) -> Result<(Vec<FactId>, Instrumentation)> {
        let mut counters = Instrumentation::default();
        let relation = problem.covered_relation()?;
        let facts = fact_table(&relation, problem.catalog)?;
        let mut data = data_table(&relation)?;
        let dim_count = relation.dim_count();

        let mut chosen: Vec<FactId> = Vec::new();
        for _ in 0..problem.max_facts {
            let gains = fact_gains(&facts, &data, dim_count)?;
            counters.gain_passes += 1;
            counters.gain_row_touches += (problem.catalog.groups().len() * data.len()) as u64;
            let Some((fact_id, gain)) = argmax_gain(&gains) else {
                break;
            };
            if gain <= 0.0 {
                break;
            }
            data = update_expectations(&data, &relation, problem.catalog, fact_id)?;
            chosen.push(fact_id);
        }
        Ok((chosen, counters))
    }
}

/// Algorithm 1 executed as relational operators ("E over SQL"):
/// level-wise speech expansion `σ_P(Π(S × F))` with both pruning atoms,
/// then exact utility evaluation `Γ_{ΣU,S}(R ⋊⋉M S)`.
#[derive(Debug, Clone, Default)]
pub struct RelationalExact {
    /// Lower bound `b` on the optimal utility (0 disables bound pruning;
    /// Algorithm 1 takes it as input — seed it from a greedy run).
    pub lower_bound: f64,
    /// The speech achieving `lower_bound`, kept as the incumbent. Without
    /// it the search could prune every expansion whose optimistic bound
    /// only *equals* `b` (legitimate — they cannot *exceed* the bound's
    /// provider) and then return a strictly worse speech than the
    /// heuristic it was seeded from.
    pub incumbent: Vec<FactId>,
}

impl RelationalExact {
    /// Seed the bound from a relational greedy run, as the paper does.
    pub fn with_greedy_bound(problem: &Problem<'_>) -> Result<Self> {
        let (incumbent, _) = RelationalGreedy.select(problem)?;
        Ok(RelationalExact {
            lower_bound: problem.catalog.base_error() - problem.catalog.speech_error(&incumbent),
            incumbent,
        })
    }
}

impl Summarizer for RelationalExact {
    fn name(&self) -> &'static str {
        "E-SQL"
    }

    fn summarize(&self, problem: &Problem<'_>) -> Result<Summary> {
        let mut counters = Instrumentation::default();
        let relation = problem.covered_relation()?;
        let facts = fact_table(&relation, problem.catalog)?;
        let data = data_table(&relation)?;
        let dim_count = relation.dim_count();
        let m = problem.max_facts.min(problem.catalog.len());

        // Line 6: single-fact utilities (expect column still equals prior).
        let singles = fact_gains(&facts, &data, dim_count)?;
        counters.gain_passes += 1;

        // S ← speeches of length 1: [f1, last_u, sum_u].
        let mut speeches = Plan::values(singles.clone())
            .project(vec![
                ProjectItem::new(Expr::col(0), "f1"),
                ProjectItem::new(Expr::col(1), "last_u"),
                ProjectItem::new(Expr::col(1), "sum_u"),
            ])
            .execute()?;

        let mut best: Option<(Vec<FactId>, f64)> =
            (!self.incumbent.is_empty()).then(|| (self.incumbent.clone(), self.lower_bound));
        for level in 1..=m {
            counters.speeches_evaluated += speeches.len() as u64;
            // Evaluate exact utility at every level: "up to m facts".
            if let Some((ids, utility)) =
                best_speech_at_level(&speeches, level, &facts, &data, dim_count)?
            {
                if best.as_ref().is_none_or(|(_, u)| utility > *u) {
                    best = Some((ids, utility));
                }
            }
            if level == m {
                break;
            }
            // Lines 8–11: expand and prune. r counts the current fact too
            // (see the exact::ExactSummarizer docs on the paper's Example 6).
            let bound = self
                .lower_bound
                .max(best.as_ref().map(|&(_, u)| u).unwrap_or(0.0));
            speeches = expand_level(&speeches, &singles, level, m, bound, &mut counters)?;
            if speeches.is_empty() {
                break;
            }
        }

        let (ids, _) = best.unwrap_or_default();
        Ok(summary_from_ids(problem, &ids, counters))
    }
}

/// One expansion step: `σ_P(Π_{Ũ,S,F}(S × F))`.
fn expand_level(
    speeches: &Table,
    singles: &Table,
    level: usize,
    m: usize,
    bound: f64,
    counters: &mut Instrumentation,
) -> Result<Table> {
    let s_width = speeches.schema().len();
    let last_u = s_width - 2;
    let sum_u = s_width - 1;
    let cand_id = s_width; // fact_id of the cross-joined candidate
    let cand_u = s_width + 1;
    let remaining = (m - level) as f64;

    // Pruning atom 1: facts ordered by decreasing single-fact utility
    // (ties broken by id so each set is kept exactly once).
    let ordered = Expr::col(last_u).gt(Expr::col(cand_u)).or(Expr::col(last_u)
        .eq(Expr::col(cand_u))
        .and(Expr::col(s_width - 3).lt(Expr::col(cand_id))));
    // Pruning atom 2: optimistic completion must reach the bound b:
    // sum_u + r·F.U ≥ b.
    let reachable = Expr::col(sum_u)
        .add(Expr::lit(remaining).mul(Expr::col(cand_u)))
        .ge(Expr::lit(bound));

    let mut items: Vec<ProjectItem> = Vec::new();
    for j in 0..level {
        items.push(ProjectItem::new(Expr::col(j), format!("f{}", j + 1)));
    }
    items.push(ProjectItem::new(
        Expr::col(cand_id),
        format!("f{}", level + 1),
    ));
    items.push(ProjectItem::new(Expr::col(cand_u), "last_u"));
    items.push(ProjectItem::new(
        Expr::col(sum_u).add(Expr::col(cand_u)),
        "sum_u",
    ));

    let out = Plan::values(speeches.clone())
        .cross(Plan::values(singles.clone()))
        .filter(ordered.and(reachable))
        .project(items)
        .execute()?;
    counters.nodes_expanded += out.len() as u64;
    counters.nodes_pruned += (speeches.len() * singles.len()) as u64 - out.len() as u64;
    Ok(out)
}

/// Exact utility of every speech at a level: explode to (speech, fact)
/// pairs, join facts, scope-join the data, take the per-(speech,row)
/// minimum deviation, sum improvements per speech, return the best.
fn best_speech_at_level(
    speeches: &Table,
    level: usize,
    facts: &Table,
    data: &Table,
    dim_count: usize,
) -> Result<Option<(Vec<FactId>, f64)>> {
    if speeches.is_empty() {
        return Ok(None);
    }
    // Explode: [speech_id, fact_id] for every member fact.
    let mut pair_table = Table::empty(Schema::new(vec![
        Field::required("speech_id", ColumnType::Int),
        Field::required("fact_id", ColumnType::Int),
    ])?);
    for (speech_id, row) in speeches.iter_rows().enumerate() {
        for fact_id in row.iter().take(level) {
            pair_table.push_row(vec![Value::Int(speech_id as i64), fact_id.clone()])?;
        }
    }

    // pairs ⋈ facts on fact_id → [speech_id, fact_id, fact dims.., value].
    let with_facts = Plan::values(pair_table)
        .hash_join(Plan::values(facts.clone()), vec![(1, 0)], JoinType::Inner)
        .execute()?;

    // Scope join against the data. Fact dims start at column 3
    // (speech_id, fact_id, fact_id again from the join's right side).
    let fact_dim_base = 3;
    let fw = with_facts.schema().len();
    let value_col = fw - 1;
    let dims: Vec<(usize, usize)> = (0..dim_count).map(|d| (fact_dim_base + d, 1 + d)).collect();
    let target_col = fw + 1 + dim_count;
    let prior_col = fw + 2 + dim_count;
    let row_id_col = fw;

    let joined = Plan::values(with_facts)
        .scope_join(Plan::values(data.clone()), dims)
        .project(vec![
            ProjectItem::new(Expr::col(0), "speech_id"),
            ProjectItem::new(Expr::col(row_id_col), "row_id"),
            ProjectItem::new(Expr::col(value_col).sub(Expr::col(target_col)).abs(), "dev"),
            ProjectItem::new(
                Expr::col(prior_col).sub(Expr::col(target_col)).abs(),
                "base_dev",
            ),
        ])
        .aggregate(
            vec![Expr::col(0), Expr::col(1)],
            vec!["speech_id".to_string(), "row_id".to_string()],
            vec![
                AggItem::new(AggFunc::Min, Expr::col(2), "min_dev"),
                AggItem::new(AggFunc::Min, Expr::col(3), "base_dev"),
            ],
        )
        .project(vec![
            ProjectItem::new(Expr::col(0), "speech_id"),
            ProjectItem::new(
                Expr::Greatest(vec![Expr::lit(0.0), Expr::col(3).sub(Expr::col(2))]),
                "improvement",
            ),
        ])
        .aggregate(
            vec![Expr::col(0)],
            vec!["speech_id".to_string()],
            vec![AggItem::new(AggFunc::Sum, Expr::col(1), "utility")],
        )
        .execute()?;

    let Some((speech_id, utility)) = argmax_gain(&joined) else {
        return Ok(None);
    };
    let row = speeches.row(speech_id);
    let ids: Vec<FactId> = (0..level)
        .map(|j| row[j].as_i64().unwrap_or_default() as FactId)
        .collect();
    Ok(Some((ids, utility)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::testutil::{fig1_relation, random_relation};
    use crate::algorithms::{ExactSummarizer, GreedySummarizer};

    #[test]
    fn data_and_fact_tables_have_expected_shape() {
        let r = fig1_relation();
        let catalog = FactCatalog::build(&r, &[0, 1], 2).unwrap();
        let data = data_table(&r).unwrap();
        assert_eq!(data.len(), 16);
        // row_id + 2 dims + target + prior + expect.
        assert_eq!(data.schema().len(), 6);
        let facts = fact_table(&r, &catalog).unwrap();
        assert_eq!(facts.len(), catalog.len());
        // Unrestricted dims are NULL.
        let overall = facts.row(0);
        assert!(overall[1].is_null() && overall[2].is_null());
    }

    #[test]
    fn relational_greedy_matches_direct_greedy() {
        let r = fig1_relation();
        let catalog = FactCatalog::build_with_scope_sizes(&r, &[0, 1], 1, 2).unwrap();
        let problem = Problem::new(&r, &catalog, 2).unwrap();
        let direct = GreedySummarizer::base().summarize(&problem).unwrap();
        let relational = RelationalGreedy.summarize(&problem).unwrap();
        assert!((direct.utility - relational.utility).abs() < 1e-9);
    }

    #[test]
    fn relational_greedy_matches_on_random_data() {
        for seed in 0..4 {
            let r = random_relation(seed, 40, &[("a", 3), ("b", 3)]);
            let catalog = FactCatalog::build(&r, &[0, 1], 2).unwrap();
            let problem = Problem::new(&r, &catalog, 3).unwrap();
            let direct = GreedySummarizer::base().summarize(&problem).unwrap();
            let relational = RelationalGreedy.summarize(&problem).unwrap();
            assert!(
                (direct.utility - relational.utility).abs() < 1e-9,
                "seed {seed}: direct {} vs relational {}",
                direct.utility,
                relational.utility
            );
        }
    }

    #[test]
    fn relational_exact_finds_optimum() {
        let r = fig1_relation();
        let catalog = FactCatalog::build_with_scope_sizes(&r, &[0, 1], 1, 1).unwrap();
        let problem = Problem::new(&r, &catalog, 2).unwrap();
        let exact = ExactSummarizer::paper().summarize(&problem).unwrap();
        let relational = RelationalExact::with_greedy_bound(&problem)
            .unwrap()
            .summarize(&problem)
            .unwrap();
        assert!((exact.utility - relational.utility).abs() < 1e-9);
        assert_eq!(relational.utility, 65.0);
    }

    #[test]
    fn relational_exact_matches_on_random_data() {
        for seed in 0..3 {
            let r = random_relation(50 + seed, 25, &[("a", 3), ("b", 2)]);
            let catalog = FactCatalog::build(&r, &[0, 1], 2).unwrap();
            let problem = Problem::new(&r, &catalog, 2).unwrap();
            let direct = ExactSummarizer::paper().summarize(&problem).unwrap();
            let relational = RelationalExact::with_greedy_bound(&problem)
                .unwrap()
                .summarize(&problem)
                .unwrap();
            assert!(
                (direct.utility - relational.utility).abs() < 1e-9,
                "seed {seed}: direct {} vs relational {}",
                direct.utility,
                relational.utility
            );
        }
    }

    #[test]
    fn bound_pruning_shrinks_levels() {
        let r = random_relation(9, 30, &[("a", 3), ("b", 2)]);
        let catalog = FactCatalog::build(&r, &[0, 1], 2).unwrap();
        let problem = Problem::new(&r, &catalog, 2).unwrap();
        let strong = RelationalExact::with_greedy_bound(&problem)
            .unwrap()
            .summarize(&problem)
            .unwrap();
        let weak = RelationalExact {
            lower_bound: 0.0,
            incumbent: Vec::new(),
        }
        .summarize(&problem)
        .unwrap();
        assert!((strong.utility - weak.utility).abs() < 1e-9);
        assert!(strong.instrumentation.nodes_expanded <= weak.instrumentation.nodes_expanded);
    }
}
