//! Materialized relational operators.
//!
//! Each operator consumes references to input [`Table`]s and produces a new
//! materialized `Table`. The set matches the operators in the paper's
//! pseudo-code: selection σ ([`filter`]), projection Π ([`project`]),
//! grouping/aggregation Γ ([`aggregate::aggregate`]), joins ⋊⋉
//! ([`join::hash_join`], [`join::scope_join`]) and Cartesian product ×
//! ([`cross::cross_join`]).

pub mod aggregate;
pub mod cross;
pub mod join;

use crate::error::{RelalgError, Result};
use crate::expr::Expr;
use crate::schema::{Field, Schema};
use crate::table::{null_in_required, ColumnData, Table};
use crate::value::Value;

/// σ: keep rows where `predicate` evaluates to `true`.
///
/// NULL predicate results drop the row, as in SQL `WHERE`.
pub fn filter(input: &Table, predicate: &Expr) -> Result<Table> {
    let mut keep = Vec::new();
    for row in 0..input.len() {
        if predicate.eval(input, row)?.as_bool() == Some(true) {
            keep.push(row);
        }
    }
    input.take(&keep)
}

/// One output column of a projection.
#[derive(Debug, Clone)]
pub struct ProjectItem {
    /// Expression producing the column.
    pub expr: Expr,
    /// Output column name.
    pub name: String,
}

impl ProjectItem {
    /// Build a projection item.
    pub fn new(expr: Expr, name: impl Into<String>) -> Self {
        ProjectItem {
            expr,
            name: name.into(),
        }
    }

    /// Pass a column through unchanged, keeping its name.
    pub fn passthrough(input: &Table, column: &str) -> Result<Self> {
        let index = input.schema().index_of(column)?;
        Ok(ProjectItem {
            expr: Expr::col(index),
            name: column.to_string(),
        })
    }
}

/// Π: compute one output column per [`ProjectItem`], column by column.
///
/// A bare column reference clones the input column, dictionary and codes.
/// Any other expression is evaluated row by row into a column of its own,
/// under the checks [`Table::push_row`] makes. When several rows fail,
/// the error is the one a row-major evaluation meets first: the smallest
/// row, and within it evaluation before the NULL check before the type
/// check, each in item order.
pub fn project(input: &Table, items: &[ProjectItem]) -> Result<Table> {
    let mut fields = Vec::with_capacity(items.len());
    for item in items {
        fields.push(Field {
            name: item.name.clone(),
            ty: item.expr.infer_type(input.schema())?,
            nullable: item.expr.infer_nullable(input.schema()),
        });
    }
    let schema = Schema::new(fields)?;
    let mut columns = Vec::with_capacity(items.len());
    // The first failure in row-major order: (row, check, item, error).
    let mut failure: Option<(usize, u8, usize, RelalgError)> = None;
    for (i, (item, field)) in items.iter().zip(schema.fields()).enumerate() {
        if let Expr::Column(index) = item.expr {
            columns.push(input.column(index)?.clone());
            continue;
        }
        let mut column = ColumnData::empty(field.ty);
        // Rows past an earlier failure cannot fail first.
        let rows = failure.as_ref().map_or(input.len(), |f| f.0 + 1);
        for row in 0..rows {
            let outcome = match item.expr.eval(input, row) {
                Err(error) => Err((0, error)),
                Ok(Value::Null) if !field.nullable => Err((1, null_in_required(field, i))),
                Ok(value) => column.push(value).map_err(|error| (2, error)),
            };
            if let Err((check, error)) = outcome {
                if failure
                    .as_ref()
                    .is_none_or(|f| (row, check, i) < (f.0, f.1, f.2))
                {
                    failure = Some((row, check, i, error));
                }
                break;
            }
        }
        columns.push(column);
    }
    match failure {
        Some((.., error)) => Err(error),
        None => Ok(Table::from_columns(schema, columns, input.len())),
    }
}

/// Keep the first `n` rows.
pub fn limit(input: &Table, n: usize) -> Result<Table> {
    let indices: Vec<usize> = (0..input.len().min(n)).collect();
    input.take(&indices)
}

/// Remove duplicate rows (full-row DISTINCT), keeping first occurrences.
pub fn distinct(input: &Table) -> Result<Table> {
    use crate::hash::FxHashSet;
    let mut seen: FxHashSet<Vec<Value>> = FxHashSet::default();
    let mut keep = Vec::new();
    for row in 0..input.len() {
        if seen.insert(input.row(row)) {
            keep.push(row);
        }
    }
    input.take(&keep)
}

/// ORDER BY the given expressions (ascending, NULLs first).
pub fn sort(input: &Table, keys: &[Expr]) -> Result<Table> {
    let mut decorated: Vec<(Vec<Value>, usize)> = Vec::with_capacity(input.len());
    for row in 0..input.len() {
        let mut key = Vec::with_capacity(keys.len());
        for expr in keys {
            key.push(expr.eval(input, row)?);
        }
        decorated.push((key, row));
    }
    decorated.sort();
    let indices: Vec<usize> = decorated.into_iter().map(|(_, r)| r).collect();
    input.take(&indices)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::ColumnType;

    fn table() -> Table {
        let schema = Schema::new(vec![
            Field::required("region", ColumnType::Str),
            Field::required("delay", ColumnType::Float),
        ])
        .unwrap();
        Table::from_rows(
            schema,
            vec![
                vec!["East".into(), 20.0.into()],
                vec!["South".into(), 10.0.into()],
                vec!["East".into(), 20.0.into()],
                vec!["North".into(), 15.0.into()],
            ],
        )
        .unwrap()
    }

    #[test]
    fn filter_keeps_matching_rows() {
        let t = table();
        let out = filter(&t, &Expr::col(1).gt(Expr::lit(12.0))).unwrap();
        assert_eq!(out.len(), 3);
        assert!(out.iter_rows().all(|r| r[1].as_f64().unwrap() > 12.0));
    }

    #[test]
    fn filter_drops_null_predicate_rows() {
        let schema = Schema::new(vec![Field::nullable("x", ColumnType::Float)]).unwrap();
        let t = Table::from_rows(schema, vec![vec![Value::Null], vec![1.0.into()]]).unwrap();
        let out = filter(&t, &Expr::col(0).gt(Expr::lit(0.0))).unwrap();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn project_computes_and_names() {
        let t = table();
        let out = project(
            &t,
            &[
                ProjectItem::passthrough(&t, "region").unwrap(),
                ProjectItem::new(Expr::col(1).mul(Expr::lit(2.0)), "double_delay"),
            ],
        )
        .unwrap();
        assert_eq!(out.schema().index_of("double_delay").unwrap(), 1);
        assert_eq!(out.value(0, 1), Value::Float(40.0));
    }

    #[test]
    fn distinct_removes_duplicates() {
        let out = distinct(&table()).unwrap();
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn sort_orders_by_key() {
        let t = table();
        let out = sort(&t, &[Expr::col(1)]).unwrap();
        let delays: Vec<f64> = out.iter_rows().map(|r| r[1].as_f64().unwrap()).collect();
        assert_eq!(delays, vec![10.0, 15.0, 20.0, 20.0]);
    }

    #[test]
    fn limit_truncates() {
        assert_eq!(limit(&table(), 2).unwrap().len(), 2);
        assert_eq!(limit(&table(), 99).unwrap().len(), 4);
    }
}
