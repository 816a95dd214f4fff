//! Stage three of the pipeline: typed logical plans and their execution
//! over `vqs-relalg`.
//!
//! A [`QueryPlan`] is the engine-side logical form of a live question —
//! small, comparable ([`PartialEq`], unlike `vqs_relalg::plan::Plan`)
//! and carried verbatim inside `Answer::Computed` so callers can branch
//! on *what* was computed. [`QueryPlan::to_relalg`] lowers it onto the
//! relational operators (σ → Γ → ORDER BY), and `execute` materializes
//! it against the tenant's live table, interpreting the result into a
//! typed [`ComputedValue`] plus its deterministic voice rendering.

use std::sync::Arc;

use vqs_relalg::error::Result as RelalgResult;
use vqs_relalg::ops::aggregate::{AggFunc, AggItem};
use vqs_relalg::prelude::{ColumnType, Expr, Plan, Table, Value};

use crate::template::format_value;

/// Aggregate function of a live [`QueryPlan::Aggregate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggKind {
    /// Mean of the target over the subset (the store's own semantic,
    /// used for conjunctive questions beyond the pre-processed length).
    Avg,
    /// Sum of the target over the subset ("total …").
    Sum,
    /// Row count of the subset ("how many …").
    Count,
    /// Smallest target value in the subset ("minimum …", no grouping
    /// dimension mentioned).
    Min,
    /// Largest target value in the subset ("maximum …", no grouping
    /// dimension mentioned).
    Max,
}

impl AggKind {
    fn func(self) -> AggFunc {
        match self {
            AggKind::Avg => AggFunc::Avg,
            AggKind::Sum => AggFunc::Sum,
            AggKind::Count => AggFunc::CountAll,
            AggKind::Min => AggFunc::Min,
            AggKind::Max => AggFunc::Max,
        }
    }
}

/// The typed logical plan of one live-path question. Dimensions and
/// values are carried by name; [`QueryPlan::to_relalg`] resolves them
/// against the live table's schema at execution time.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryPlan {
    /// σ(predicates) → Γ(agg(target)): a single aggregate over one data
    /// subset (conjunctive filters, counts, totals, global extrema).
    Aggregate {
        /// Target column the aggregate ranges over.
        target: String,
        /// Conjunctive equality predicates scoping the subset.
        predicates: Vec<(String, String)>,
        /// The aggregate to compute.
        agg: AggKind,
    },
    /// σ(predicates) → Γ(dimension; avg(target)) → ORDER BY avg: which
    /// group of `dimension` has the highest/lowest average target
    /// ("which airline is worst on Fridays?").
    GroupExtremum {
        /// Target column averaged per group.
        target: String,
        /// Predicates scoping the subset first.
        predicates: Vec<(String, String)>,
        /// Grouping dimension.
        dimension: String,
        /// `true` = highest average wins, `false` = lowest.
        highest: bool,
    },
    /// σ(predicates ∧ dimension ∈ {left, right}) → Γ(dimension;
    /// avg(target)): relative comparison of two values of one dimension.
    Comparison {
        /// Target column averaged per side.
        target: String,
        /// Predicates scoping both sides identically.
        predicates: Vec<(String, String)>,
        /// Dimension the compared values belong to.
        dimension: String,
        /// First-mentioned value.
        left: String,
        /// Second-mentioned value.
        right: String,
    },
}

impl QueryPlan {
    /// The target column this plan computes over.
    pub fn target(&self) -> &str {
        match self {
            QueryPlan::Aggregate { target, .. }
            | QueryPlan::GroupExtremum { target, .. }
            | QueryPlan::Comparison { target, .. } => target,
        }
    }

    /// The equality predicates scoping this plan's subset.
    pub fn predicates(&self) -> &[(String, String)] {
        match self {
            QueryPlan::Aggregate { predicates, .. }
            | QueryPlan::GroupExtremum { predicates, .. }
            | QueryPlan::Comparison { predicates, .. } => predicates,
        }
    }

    /// Lower onto `vqs-relalg` operators over `table`. Fails when a
    /// referenced column is missing from the live schema (e.g. a synonym
    /// added for a column the projection does not retain).
    pub fn to_relalg(&self, table: &Arc<Table>) -> RelalgResult<Plan> {
        let schema = table.schema();
        let target_col = Expr::col(schema.index_of(self.target())?);
        // `dimension = value`, with the value resolved against the
        // column's type once per plan.
        let equals = |dimension: &str, value: &str| -> RelalgResult<Expr> {
            let index = schema.index_of(dimension)?;
            let literal = literal(schema.field(index)?.ty, value);
            Ok(Expr::col(index).eq(Expr::lit(literal)))
        };
        let mut selection: Option<Expr> = None;
        for (dim, value) in self.predicates() {
            let eq = equals(dim, value)?;
            selection = Some(match selection {
                Some(prev) => prev.and(eq),
                None => eq,
            });
        }
        match self {
            QueryPlan::Aggregate { agg, .. } => {
                let mut plan = Plan::shared(Arc::clone(table));
                if let Some(predicate) = selection {
                    plan = plan.filter(predicate);
                }
                Ok(plan.aggregate(
                    vec![],
                    vec![],
                    vec![
                        AggItem::new(agg.func(), target_col.clone(), "value"),
                        AggItem::new(AggFunc::CountAll, target_col, "support"),
                    ],
                ))
            }
            QueryPlan::GroupExtremum { dimension, .. } => {
                let dim_col = Expr::col(schema.index_of(dimension)?);
                let mut plan = Plan::shared(Arc::clone(table));
                if let Some(predicate) = selection {
                    plan = plan.filter(predicate);
                }
                Ok(plan
                    .aggregate(
                        vec![dim_col],
                        vec![dimension.clone()],
                        vec![
                            AggItem::new(AggFunc::Avg, target_col.clone(), "value"),
                            AggItem::new(AggFunc::CountAll, target_col, "support"),
                        ],
                    )
                    // Ascending by average; the interpreter reads both
                    // ends, so one sort serves either polarity.
                    .sort(vec![Expr::col(1)]))
            }
            QueryPlan::Comparison {
                dimension,
                left,
                right,
                ..
            } => {
                let dim_col = Expr::col(schema.index_of(dimension)?);
                let sides = equals(dimension, left)?.or(equals(dimension, right)?);
                let predicate = match selection {
                    Some(prev) => prev.and(sides),
                    None => sides,
                };
                Ok(Plan::shared(Arc::clone(table)).filter(predicate).aggregate(
                    vec![dim_col],
                    vec![dimension.clone()],
                    vec![
                        AggItem::new(AggFunc::Avg, target_col.clone(), "value"),
                        AggItem::new(AggFunc::CountAll, target_col, "support"),
                    ],
                ))
            }
        }
    }
}

/// The typed result of executing a [`QueryPlan`] — the structured
/// payload of `Answer::Computed`.
#[derive(Debug, Clone, PartialEq)]
pub enum ComputedValue {
    /// A single aggregate over one subset (`Avg`/`Sum`/`Min`/`Max`).
    Scalar {
        /// Which aggregate produced the value.
        agg: AggKind,
        /// The aggregate value.
        value: f64,
        /// Rows in the subset.
        support: usize,
    },
    /// A row count ([`AggKind::Count`]).
    Count {
        /// Rows in the subset.
        rows: usize,
    },
    /// Best/worst group of a dimension by average target.
    GroupExtremum {
        /// Grouping dimension.
        dimension: String,
        /// The group at the asked-for end.
        best: String,
        /// Its average target value.
        best_value: f64,
        /// The group at the opposite end.
        other: String,
        /// Its average target value.
        other_value: f64,
        /// Polarity asked for.
        highest: bool,
    },
    /// Averages of the two compared values.
    Comparison {
        /// Dimension the values belong to.
        dimension: String,
        /// First-mentioned value.
        left: String,
        /// Its average target value.
        left_value: f64,
        /// Second-mentioned value.
        right: String,
        /// Its average target value.
        right_value: f64,
    },
}

/// Execute `plan` against the live `table` on the calling thread and
/// interpret the result. `None` means the live tier cannot answer
/// (missing column, empty subset, one comparison side absent …) and the
/// caller falls through to the typed apology tier.
pub(crate) fn execute(plan: &QueryPlan, table: &Arc<Table>) -> Option<(ComputedValue, String)> {
    let result = plan.to_relalg(table).ok()?.execute().ok()?;
    let value = interpret(plan, &result)?;
    let text = render(plan, &value);
    Some((value, text))
}

/// Read the materialized result back into a [`ComputedValue`].
fn interpret(plan: &QueryPlan, result: &Table) -> Option<ComputedValue> {
    match plan {
        QueryPlan::Aggregate { agg, .. } => {
            // Global aggregates always yield exactly one row.
            let support = as_count(result.value(0, 1))?;
            if support == 0 {
                // The subset is absent from the live data: let the
                // apology tier answer rather than voicing a NULL.
                return None;
            }
            if *agg == AggKind::Count {
                return Some(ComputedValue::Count { rows: support });
            }
            let value = result.value(0, 0).as_f64()?;
            Some(ComputedValue::Scalar {
                agg: *agg,
                value,
                support,
            })
        }
        QueryPlan::GroupExtremum {
            dimension, highest, ..
        } => {
            if result.is_empty() {
                return None;
            }
            // Sorted ascending by average: the ends are the extremes.
            let (low, high) = (0, result.len() - 1);
            let (best_row, other_row) = if *highest { (high, low) } else { (low, high) };
            Some(ComputedValue::GroupExtremum {
                dimension: dimension.clone(),
                best: as_name(result.value(best_row, 0))?,
                best_value: result.value(best_row, 1).as_f64()?,
                other: as_name(result.value(other_row, 0))?,
                other_value: result.value(other_row, 1).as_f64()?,
                highest: *highest,
            })
        }
        QueryPlan::Comparison {
            dimension,
            left,
            right,
            ..
        } => {
            let side = |name: &str| -> Option<f64> {
                (0..result.len())
                    .find(|&row| as_name(result.value(row, 0)).as_deref() == Some(name))
                    .and_then(|row| result.value(row, 1).as_f64())
            };
            Some(ComputedValue::Comparison {
                dimension: dimension.clone(),
                left: left.clone(),
                left_value: side(left)?,
                right: right.clone(),
                right_value: side(right)?,
            })
        }
    }
}

fn as_count(value: Value) -> Option<usize> {
    match value {
        Value::Int(n) if n >= 0 => Some(n as usize),
        _ => None,
    }
}

/// The literal a question's `text` stands for in a column of type `ty`.
/// A string column compares with the text itself. Any other column
/// compares with the text parsed to its type, provided the parsed value
/// displays as that same text — the spelling
/// `EncodedRelation::from_table` gives its values, so a `Float` 1.0 is
/// "1.0". Text that no value of the type spells stays a string literal,
/// which equals no cell of the column.
fn literal(ty: ColumnType, text: &str) -> Value {
    let parsed = match ty {
        ColumnType::Str => None,
        ColumnType::Bool => text.parse().ok().map(Value::Bool),
        ColumnType::Int => text.parse().ok().map(Value::Int),
        ColumnType::Float => text.parse().ok().map(Value::Float),
    };
    parsed
        .filter(|value| value.to_string() == text)
        .unwrap_or_else(|| Value::str(text))
}

/// A group's name: a string as it is, any other value by the same
/// display text [`literal`] accepts.
fn as_name(value: Value) -> Option<String> {
    match value {
        Value::Str(s) => Some(s.to_string()),
        Value::Null => None,
        other => Some(other.to_string()),
    }
}

/// "for season Winter and region East", or "" for the overall subset —
/// the same phrasing stored speeches use for fact scopes.
fn scope_suffix(predicates: &[(String, String)]) -> String {
    if predicates.is_empty() {
        return String::new();
    }
    let parts: Vec<String> = predicates
        .iter()
        .map(|(d, v)| format!("{} {}", d.replace('_', " "), v))
        .collect();
    format!(" for {}", parts.join(" and "))
}

/// Deterministic voice rendering of a computed value. Prefixed "From the
/// live data" so transcripts distinguish tier-two answers from stored
/// speeches.
fn render(plan: &QueryPlan, value: &ComputedValue) -> String {
    let spoken_target = plan.target().replace('_', " ");
    let scope = scope_suffix(plan.predicates());
    match value {
        ComputedValue::Scalar {
            agg,
            value,
            support,
        } => {
            let what = match agg {
                AggKind::Avg => "average",
                AggKind::Sum => "total",
                AggKind::Min => "minimum",
                AggKind::Max => "maximum",
                AggKind::Count => unreachable!("counts render as ComputedValue::Count"),
            };
            format!(
                "From the live data, the {what} {spoken_target}{scope} is about {}, over {} rows.",
                format_value(*value),
                support,
            )
        }
        ComputedValue::Count { rows } => {
            format!("From the live data, I count {rows} rows{scope}.")
        }
        ComputedValue::GroupExtremum {
            dimension,
            best,
            best_value,
            other,
            other_value,
            highest,
        } => {
            let spoken_dim = dimension.replace('_', " ");
            let (best_end, other_end) = if *highest {
                ("highest", "lowest")
            } else {
                ("lowest", "highest")
            };
            format!(
                "From the live data{scope}, {best} has the {best_end} average {spoken_target} \
                 of any {spoken_dim} at about {}; {other} has the {other_end} at about {}.",
                format_value(*best_value),
                format_value(*other_value),
            )
        }
        ComputedValue::Comparison {
            left,
            left_value,
            right,
            right_value,
            ..
        } => {
            let relation = if (left_value - right_value).abs() < 1e-9 {
                "about the same"
            } else if left_value > right_value {
                "higher"
            } else {
                "lower"
            };
            format!(
                "From the live data{scope}, {left} has {relation} average {spoken_target} \
                 than {right}: about {} versus {}.",
                format_value(*left_value),
                format_value(*right_value),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqs_relalg::prelude::{Field, Schema};

    fn live_table() -> Arc<Table> {
        let schema = Schema::new(vec![
            Field::required("season", ColumnType::Str),
            Field::required("region", ColumnType::Str),
            Field::required("delay", ColumnType::Float),
        ])
        .unwrap();
        Arc::new(
            Table::from_rows(
                schema,
                vec![
                    vec!["Winter".into(), "East".into(), 30.0.into()],
                    vec!["Winter".into(), "West".into(), 20.0.into()],
                    vec!["Summer".into(), "East".into(), 10.0.into()],
                    vec!["Summer".into(), "West".into(), 4.0.into()],
                ],
            )
            .unwrap(),
        )
    }

    #[test]
    fn conjunctive_average_executes() {
        let plan = QueryPlan::Aggregate {
            target: "delay".into(),
            predicates: vec![
                ("region".into(), "East".into()),
                ("season".into(), "Winter".into()),
            ],
            agg: AggKind::Avg,
        };
        let (value, text) = execute(&plan, &live_table()).unwrap();
        assert_eq!(
            value,
            ComputedValue::Scalar {
                agg: AggKind::Avg,
                value: 30.0,
                support: 1
            }
        );
        assert!(text.contains("for region East and season Winter"), "{text}");
    }

    #[test]
    fn counts_and_totals_execute() {
        let count = QueryPlan::Aggregate {
            target: "delay".into(),
            predicates: vec![("season".into(), "Winter".into())],
            agg: AggKind::Count,
        };
        let (value, text) = execute(&count, &live_table()).unwrap();
        assert_eq!(value, ComputedValue::Count { rows: 2 });
        assert!(text.contains("2 rows"), "{text}");

        let sum = QueryPlan::Aggregate {
            target: "delay".into(),
            predicates: vec![],
            agg: AggKind::Sum,
        };
        let (value, _) = execute(&sum, &live_table()).unwrap();
        assert_eq!(
            value,
            ComputedValue::Scalar {
                agg: AggKind::Sum,
                value: 64.0,
                support: 4
            }
        );
    }

    #[test]
    fn group_extremum_reads_both_ends() {
        let plan = QueryPlan::GroupExtremum {
            target: "delay".into(),
            predicates: vec![("region".into(), "East".into())],
            dimension: "season".into(),
            highest: true,
        };
        let (value, text) = execute(&plan, &live_table()).unwrap();
        match value {
            ComputedValue::GroupExtremum {
                best,
                other,
                best_value,
                ..
            } => {
                assert_eq!(best, "Winter");
                assert_eq!(other, "Summer");
                assert_eq!(best_value, 30.0);
            }
            other => panic!("expected group extremum, got {other:?}"),
        }
        assert!(text.contains("Winter has the highest"), "{text}");
    }

    #[test]
    fn comparison_keeps_mention_order() {
        let plan = QueryPlan::Comparison {
            target: "delay".into(),
            predicates: vec![],
            dimension: "season".into(),
            left: "Summer".into(),
            right: "Winter".into(),
        };
        let (value, text) = execute(&plan, &live_table()).unwrap();
        match value {
            ComputedValue::Comparison {
                left_value,
                right_value,
                ..
            } => {
                assert_eq!(left_value, 7.0);
                assert_eq!(right_value, 25.0);
            }
            other => panic!("expected comparison, got {other:?}"),
        }
        assert!(text.contains("Summer has lower"), "{text}");
    }

    #[test]
    fn empty_subsets_and_missing_columns_fall_through() {
        let absent = QueryPlan::Aggregate {
            target: "delay".into(),
            predicates: vec![("season".into(), "Monsoon".into())],
            agg: AggKind::Avg,
        };
        assert!(execute(&absent, &live_table()).is_none());
        let bad_column = QueryPlan::Aggregate {
            target: "nonexistent".into(),
            predicates: vec![],
            agg: AggKind::Avg,
        };
        assert!(execute(&bad_column, &live_table()).is_none());
        let one_sided = QueryPlan::Comparison {
            target: "delay".into(),
            predicates: vec![],
            dimension: "season".into(),
            left: "Winter".into(),
            right: "Monsoon".into(),
        };
        assert!(execute(&one_sided, &live_table()).is_none());
    }

    #[test]
    fn non_string_values_match_only_their_display_text() {
        assert_eq!(literal(ColumnType::Int, "2019"), Value::Int(2019));
        assert_eq!(literal(ColumnType::Float, "1.0"), Value::Float(1.0));
        assert_eq!(literal(ColumnType::Float, "2.5"), Value::Float(2.5));
        assert_eq!(literal(ColumnType::Bool, "true"), Value::Bool(true));
        // Parseable, but no cell of the column is spelled this way.
        for (ty, text) in [
            (ColumnType::Int, "02019"),
            (ColumnType::Int, "+7"),
            (ColumnType::Float, "1"),
            (ColumnType::Float, "2.50"),
        ] {
            assert_eq!(literal(ty, text), Value::str(text), "{ty} {text}");
        }
        assert_eq!(literal(ColumnType::Str, "2019"), Value::str("2019"));
        assert_eq!(as_name(Value::Float(1.0)).as_deref(), Some("1.0"));
        assert_eq!(as_name(Value::Int(2019)).as_deref(), Some("2019"));
        assert_eq!(as_name(Value::Null), None);
    }
}
