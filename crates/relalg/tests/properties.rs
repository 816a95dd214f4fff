//! Property-based tests of the relational engine's invariants.

use proptest::prelude::*;

use vqs_relalg::ops::aggregate::{aggregate, AggFunc, AggItem};
use vqs_relalg::ops::join::{hash_join, scope_join, scope_join_nested_loop, JoinType};
use vqs_relalg::ops::{distinct, filter, project, sort};
use vqs_relalg::prelude::*;

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        (-1000i64..1000).prop_map(Value::Int),
        (-1000.0f64..1000.0).prop_map(|f| Value::Float((f * 4.0).round() / 4.0)),
        "[a-z]{0,6}".prop_map(Value::str),
    ]
}

fn arb_table() -> impl Strategy<Value = Table> {
    prop::collection::vec((0u8..4, -50i64..50, 0.0f64..100.0, "[a-c]{1,2}"), 0..40).prop_map(
        |rows| {
            let schema = Schema::new(vec![
                Field::required("k", ColumnType::Int),
                Field::required("v", ColumnType::Float),
                Field::nullable("s", ColumnType::Str),
            ])
            .unwrap();
            Table::from_rows(
                schema,
                rows.into_iter().map(|(kind, k, v, s)| {
                    vec![
                        Value::Int(k % 5),
                        Value::Float(v.round()),
                        if kind == 0 {
                            Value::Null
                        } else {
                            Value::str(&s)
                        },
                    ]
                }),
            )
            .unwrap()
        },
    )
}

/// Computed projections over `arb_table()`'s columns (`k` int, `v` float,
/// `s` nullable string) that evaluate to their inferred type without
/// failing.
fn computed_exprs() -> Vec<Expr> {
    vec![
        Expr::col(0).add(Expr::col(1)),
        Expr::col(1).mul(Expr::lit(2.0)),
        Expr::col(0).neg(),
        Expr::col(2).is_null(),
        Expr::col(0).gt(Expr::lit(1i64)),
        Expr::Coalesce(vec![Expr::col(2), Expr::lit("none")]),
        Expr::Case {
            branches: vec![(Expr::col(0).ge(Expr::lit(2i64)), Expr::col(2))],
            otherwise: Box::new(Expr::lit("low")),
        },
        Expr::lit("constant"),
        Expr::Literal(Value::Null),
    ]
}

/// Computed projections over `arb_table()` that fail on some rows: when
/// evaluating (`v / k` at `k = 0`, `NOT s`), at the NULL check (`k AND v`
/// is NULL but inferred non-nullable) and at the type check (`LEAST(k)`
/// is a float in a column inferred int).
fn failing_exprs() -> Vec<Expr> {
    vec![
        Expr::col(1).div(Expr::col(0)),
        Expr::col(2).not(),
        Expr::col(0).and(Expr::col(1)),
        Expr::Least(vec![Expr::col(0)]),
    ]
}

/// Project items named `p0`, `p1`, … (names must be distinct).
fn named(exprs: Vec<Expr>) -> Vec<ProjectItem> {
    exprs
        .into_iter()
        .enumerate()
        .map(|(i, expr)| ProjectItem::new(expr, format!("p{i}")))
        .collect()
}

/// The row-at-a-time projection: evaluate every item of a row, then push
/// the row.
fn project_row_major(input: &Table, items: &[ProjectItem]) -> Result<Table> {
    let mut fields = Vec::new();
    for item in items {
        fields.push(Field {
            name: item.name.clone(),
            ty: item.expr.infer_type(input.schema())?,
            nullable: item.expr.infer_nullable(input.schema()),
        });
    }
    let mut output = Table::empty(Schema::new(fields)?);
    for row in 0..input.len() {
        let values = items
            .iter()
            .map(|item| item.expr.eval(input, row))
            .collect::<Result<Vec<_>>>()?;
        output.push_row(values)?;
    }
    Ok(output)
}

/// Debug renderings of every row, which tell an int from an equal float.
fn rendered_rows(table: &Table) -> Vec<String> {
    table.iter_rows().map(|row| format!("{row:?}")).collect()
}

/// A row that fits `arb_table()`'s schema. Some `v` values are ints (the
/// float column coerces them) and some `s` strings are new to the table.
fn arb_row() -> impl Strategy<Value = Vec<Value>> {
    (
        -5i64..5,
        prop_oneof![
            (0i64..100).prop_map(Value::Int),
            (0u8..100).prop_map(|v| Value::Float(f64::from(v))),
        ],
        prop_oneof![Just(Value::Null), "[a-e]{1,2}".prop_map(Value::str)],
    )
        .prop_map(|(k, v, s)| vec![Value::Int(k), v, s])
}

/// One table edit; `pick` is taken modulo the row count when applied.
#[derive(Debug, Clone)]
enum Edit {
    Push(Vec<Value>),
    Set { pick: usize, row: Vec<Value> },
    Remove { pick: usize },
}

fn arb_edit() -> impl Strategy<Value = Edit> {
    prop_oneof![
        arb_row().prop_map(Edit::Push),
        (any::<usize>(), arb_row()).prop_map(|(pick, row)| Edit::Set { pick, row }),
        any::<usize>().prop_map(|pick| Edit::Remove { pick }),
    ]
}

/// Distinct strings in the dictionary of `table`'s column `s`.
fn dictionary_len(table: &Table) -> usize {
    match table.column_by_name("s").unwrap() {
        ColumnData::Str { dict, .. } => dict.len(),
        other => panic!("`s` is a string column, found {other:?}"),
    }
}

proptest! {
    #[test]
    fn project_column_major_matches_row_evaluation(
        table in arb_table(),
        bare in prop::collection::vec(0usize..3, 1..6),
        picks in prop::collection::vec(0usize..12, 0..7),
    ) {
        let computed = computed_exprs();
        let menu: Vec<Expr> = (0..3).map(Expr::col).chain(computed.iter().cloned()).collect();
        let cases = [
            // Bare columns, repeated and permuted.
            bare.iter().map(|&c| Expr::col(c)).collect::<Vec<_>>(),
            computed,
            // A mix of bare and computed items.
            picks.iter().map(|&p| menu[p].clone()).collect(),
            Vec::new(),
        ];
        for exprs in cases {
            let items = named(exprs);
            let out = project(&table, &items).unwrap();
            let reference = project_row_major(&table, &items).unwrap();
            prop_assert_eq!(out.schema(), reference.schema());
            prop_assert_eq!(out.len(), table.len());
            for row in 0..table.len() {
                for (i, item) in items.iter().enumerate() {
                    prop_assert_eq!(out.value(row, i), item.expr.eval(&table, row).unwrap());
                }
            }
            prop_assert_eq!(rendered_rows(&out), rendered_rows(&reference));
        }
    }

    #[test]
    fn project_reports_the_row_major_first_error(
        table in arb_table(),
        picks in prop::collection::vec(0usize..16, 0..6),
    ) {
        let menu: Vec<Expr> = (0..3)
            .map(Expr::col)
            .chain(computed_exprs())
            .chain(failing_exprs())
            .collect();
        let items = named(picks.iter().map(|&p| menu[p].clone()).collect());
        match (project(&table, &items), project_row_major(&table, &items)) {
            (Ok(out), Ok(reference)) => {
                prop_assert_eq!(out.schema(), reference.schema());
                prop_assert_eq!(rendered_rows(&out), rendered_rows(&reference));
            }
            (Err(error), Err(expected)) => prop_assert_eq!(error, expected),
            (got, expected) => prop_assert!(
                false,
                "column-major {:?} but row-major {:?}",
                got.map(|t| t.len()),
                expected.map(|t| t.len())
            ),
        }
    }

    #[test]
    fn table_edits_match_rebuilding_from_rows(
        table in arb_table(),
        edits in prop::collection::vec(arb_edit(), 0..24),
    ) {
        let mut patched = table.clone();
        let mut rows: Vec<Vec<Value>> = table.iter_rows().collect();
        for edit in edits {
            match edit {
                Edit::Push(row) => {
                    patched.push_row(row.clone()).unwrap();
                    rows.push(row);
                }
                Edit::Set { pick, row } if !rows.is_empty() => {
                    let index = pick % rows.len();
                    patched.set_row(index, row.clone()).unwrap();
                    rows[index] = row;
                }
                Edit::Remove { pick } if !rows.is_empty() => {
                    let index = pick % rows.len();
                    patched.remove_row(index).unwrap();
                    rows.remove(index);
                }
                Edit::Set { .. } | Edit::Remove { .. } => {}
            }
        }
        let rebuilt = Table::from_rows(table.schema().clone(), rows).unwrap();
        prop_assert_eq!(patched.len(), rebuilt.len());
        prop_assert_eq!(rendered_rows(&patched), rendered_rows(&rebuilt));
    }

    #[test]
    fn rejected_writes_leave_the_table_unchanged(
        table in arb_table(),
        row in arb_row(),
        pick in any::<usize>(),
    ) {
        let mut edited = table.clone();
        let len = table.len();
        // Each bad row carries a string new to the dictionary, which a
        // write that changed columns before checking would intern.
        let fresh = Value::str("zzz");
        let bad_rows = [
            vec![row[0].clone(), fresh.clone()],
            vec![Value::Null, row[1].clone(), fresh.clone()],
            vec![row[0].clone(), Value::str("x"), fresh],
        ];
        for bad in bad_rows {
            prop_assert!(edited.push_row(bad.clone()).is_err());
            if len > 0 {
                prop_assert!(edited.set_row(pick % len, bad).is_err());
            }
        }
        let beyond = len + pick % 3;
        prop_assert!(edited.set_row(beyond, row.clone()).is_err());
        prop_assert!(edited.remove_row(beyond).is_err());
        prop_assert_eq!(edited.len(), len);
        prop_assert_eq!(rendered_rows(&edited), rendered_rows(&table));
        prop_assert_eq!(dictionary_len(&edited), dictionary_len(&table));
        // No column grew either: the next row lands aligned.
        edited.push_row(row.clone()).unwrap();
        let mut expected = table.clone();
        expected.push_row(row).unwrap();
        prop_assert_eq!(rendered_rows(&edited), rendered_rows(&expected));
    }

    #[test]
    fn value_ordering_is_total_and_consistent(a in arb_value(), b in arb_value(), c in arb_value()) {
        use std::cmp::Ordering;
        // Antisymmetry.
        match a.cmp(&b) {
            Ordering::Less => prop_assert_eq!(b.cmp(&a), Ordering::Greater),
            Ordering::Greater => prop_assert_eq!(b.cmp(&a), Ordering::Less),
            Ordering::Equal => prop_assert_eq!(b.cmp(&a), Ordering::Equal),
        }
        // Transitivity.
        if a <= b && b <= c {
            prop_assert!(a <= c);
        }
        // Hash consistency: equal values hash equal.
        if a == b {
            use std::hash::{Hash, Hasher};
            let h = |v: &Value| {
                let mut hasher = vqs_relalg::hash::FxHasher::default();
                v.hash(&mut hasher);
                hasher.finish()
            };
            prop_assert_eq!(h(&a), h(&b));
        }
    }

    #[test]
    fn filter_partitions_rows(table in arb_table(), threshold in 0.0f64..100.0) {
        let predicate = Expr::col(1).ge(Expr::lit(threshold));
        let kept = filter(&table, &predicate).unwrap();
        let dropped = filter(&table, &predicate.clone().not()).unwrap();
        prop_assert_eq!(kept.len() + dropped.len(), table.len());
        for row in kept.iter_rows() {
            prop_assert!(row[1].as_f64().unwrap() >= threshold);
        }
    }

    #[test]
    fn sort_is_permutation_and_ordered(table in arb_table()) {
        let sorted = sort(&table, &[Expr::col(1)]).unwrap();
        prop_assert_eq!(sorted.len(), table.len());
        let mut previous = f64::NEG_INFINITY;
        for row in sorted.iter_rows() {
            let v = row[1].as_f64().unwrap();
            prop_assert!(v >= previous);
            previous = v;
        }
        let mut a: Vec<String> = table.iter_rows().map(|r| format!("{r:?}")).collect();
        let mut b: Vec<String> = sorted.iter_rows().map(|r| format!("{r:?}")).collect();
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn distinct_is_idempotent(table in arb_table()) {
        let once = distinct(&table).unwrap();
        let twice = distinct(&once).unwrap();
        prop_assert_eq!(once.len(), twice.len());
        prop_assert!(once.len() <= table.len());
    }

    #[test]
    fn grouped_counts_sum_to_row_count(table in arb_table()) {
        let grouped = aggregate(
            &table,
            &[Expr::col(0)],
            &["k"],
            &[AggItem::new(AggFunc::CountAll, Expr::col(0), "n")],
        )
        .unwrap();
        let total: i64 = grouped.iter_rows().map(|r| r[1].as_i64().unwrap()).sum();
        prop_assert_eq!(total as usize, table.len());
    }

    #[test]
    fn hash_join_matches_filtered_cross_product(left in arb_table(), right in arb_table()) {
        let joined = hash_join(&left, &right, &[(0, 0)], JoinType::Inner).unwrap();
        // Expected size: Σ over keys of count_left(k)·count_right(k).
        let histogram = |t: &Table| {
            let mut map = std::collections::HashMap::new();
            for row in t.iter_rows() {
                *map.entry(row[0].clone()).or_insert(0usize) += 1;
            }
            map
        };
        let lh = histogram(&left);
        let rh = histogram(&right);
        let expected: usize = lh
            .iter()
            .map(|(k, lc)| lc * rh.get(k).copied().unwrap_or(0))
            .sum();
        prop_assert_eq!(joined.len(), expected);
    }

    #[test]
    fn scope_join_strategies_agree(facts_rows in prop::collection::vec((0u8..3, 0u8..3, 0.0f64..10.0), 0..12),
                                   data_rows in prop::collection::vec((0u8..3, 0u8..3, 0.0f64..10.0), 0..20)) {
        let fact_schema = Schema::new(vec![
            Field::nullable("a", ColumnType::Str),
            Field::nullable("b", ColumnType::Str),
            Field::required("v", ColumnType::Float),
        ])
        .unwrap();
        let data_schema = Schema::new(vec![
            Field::required("a", ColumnType::Str),
            Field::required("b", ColumnType::Str),
            Field::required("y", ColumnType::Float),
        ])
        .unwrap();
        // Encode code 0 as NULL on the fact side (unrestricted dimension).
        let facts = Table::from_rows(
            fact_schema,
            facts_rows.into_iter().map(|(a, b, v)| {
                let encode = |c: u8| {
                    if c == 0 { Value::Null } else { Value::str(format!("x{c}")) }
                };
                vec![encode(a), encode(b), Value::Float(v)]
            }),
        )
        .unwrap();
        let data = Table::from_rows(
            data_schema,
            data_rows.into_iter().map(|(a, b, y)| {
                vec![
                    Value::str(format!("x{}", a.max(1))),
                    Value::str(format!("x{}", b.max(1))),
                    Value::Float(y),
                ]
            }),
        )
        .unwrap();
        let fast = scope_join(&facts, &data, &[(0, 0), (1, 1)]).unwrap();
        let slow = scope_join_nested_loop(&facts, &data, &[(0, 0), (1, 1)]).unwrap();
        let canon = |t: &Table| {
            let mut rows: Vec<String> = t.iter_rows().map(|r| format!("{r:?}")).collect();
            rows.sort();
            rows
        };
        prop_assert_eq!(canon(&fast), canon(&slow));
    }

    #[test]
    fn aggregate_avg_between_min_and_max(table in arb_table()) {
        prop_assume!(!table.is_empty());
        let out = aggregate(
            &table,
            &[],
            &[],
            &[
                AggItem::new(AggFunc::Min, Expr::col(1), "lo"),
                AggItem::new(AggFunc::Avg, Expr::col(1), "avg"),
                AggItem::new(AggFunc::Max, Expr::col(1), "hi"),
            ],
        )
        .unwrap();
        let row = out.row(0);
        let (lo, avg, hi) = (
            row[0].as_f64().unwrap(),
            row[1].as_f64().unwrap(),
            row[2].as_f64().unwrap(),
        );
        prop_assert!(lo <= avg + 1e-9 && avg <= hi + 1e-9);
    }
}
