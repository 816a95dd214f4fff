//! Row-level scalar expressions with SQL-style NULL semantics.
//!
//! Expressions are evaluated against a `(Table, row)` pair. Comparisons and
//! arithmetic propagate NULL; `AND`/`OR` follow three-valued logic, which
//! matters for the scope-join condition `F.d IS NULL OR F.d = R.d` used by
//! the paper's Algorithm 1.

use std::fmt;

use crate::error::{RelalgError, Result};
use crate::schema::Schema;
use crate::table::Table;
use crate::value::{ColumnType, Value};

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// Numeric addition.
    Add,
    /// Numeric subtraction.
    Sub,
    /// Numeric multiplication.
    Mul,
    /// Numeric division (errors on zero divisor).
    Div,
    /// Equality (NULL-propagating).
    Eq,
    /// Inequality.
    Neq,
    /// Less-than.
    Lt,
    /// Less-or-equal.
    Le,
    /// Greater-than.
    Gt,
    /// Greater-or-equal.
    Ge,
    /// Three-valued logical AND.
    And,
    /// Three-valued logical OR.
    Or,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// Numeric negation.
    Neg,
    /// Logical NOT (three-valued).
    Not,
    /// Absolute value.
    Abs,
}

/// A scalar expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Reference to the column at an index of the input schema.
    Column(usize),
    /// A literal value.
    Literal(Value),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// `expr IS NULL` (never NULL itself).
    IsNull(Box<Expr>),
    /// First non-NULL argument.
    Coalesce(Vec<Expr>),
    /// Smallest non-NULL numeric argument (SQL `LEAST`, ignoring NULLs).
    Least(Vec<Expr>),
    /// Largest non-NULL numeric argument (SQL `GREATEST`, ignoring NULLs).
    Greatest(Vec<Expr>),
    /// Searched CASE expression.
    Case {
        /// `(condition, result)` arms, evaluated in order.
        branches: Vec<(Expr, Expr)>,
        /// Result when no arm matches.
        otherwise: Box<Expr>,
    },
}

// The builder methods deliberately mirror SQL operator names; they build
// expression trees rather than computing values, so implementing the std
// operator traits would be misleading.
#[allow(clippy::should_implement_trait)]
impl Expr {
    /// Column reference.
    pub fn col(index: usize) -> Expr {
        Expr::Column(index)
    }

    /// Literal.
    pub fn lit(value: impl Into<Value>) -> Expr {
        Expr::Literal(value.into())
    }

    fn binary(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }

    /// `self = rhs`.
    pub fn eq(self, rhs: Expr) -> Expr {
        Expr::binary(BinOp::Eq, self, rhs)
    }

    /// `self < rhs`.
    pub fn lt(self, rhs: Expr) -> Expr {
        Expr::binary(BinOp::Lt, self, rhs)
    }

    /// `self > rhs`.
    pub fn gt(self, rhs: Expr) -> Expr {
        Expr::binary(BinOp::Gt, self, rhs)
    }

    /// `self >= rhs`.
    pub fn ge(self, rhs: Expr) -> Expr {
        Expr::binary(BinOp::Ge, self, rhs)
    }

    /// `self AND rhs`.
    pub fn and(self, rhs: Expr) -> Expr {
        Expr::binary(BinOp::And, self, rhs)
    }

    /// `self OR rhs`.
    pub fn or(self, rhs: Expr) -> Expr {
        Expr::binary(BinOp::Or, self, rhs)
    }

    /// `self + rhs`.
    pub fn add(self, rhs: Expr) -> Expr {
        Expr::binary(BinOp::Add, self, rhs)
    }

    /// `self - rhs`.
    pub fn sub(self, rhs: Expr) -> Expr {
        Expr::binary(BinOp::Sub, self, rhs)
    }

    /// `self * rhs`.
    pub fn mul(self, rhs: Expr) -> Expr {
        Expr::binary(BinOp::Mul, self, rhs)
    }

    /// `self / rhs`.
    pub fn div(self, rhs: Expr) -> Expr {
        Expr::binary(BinOp::Div, self, rhs)
    }

    /// `ABS(self)`.
    pub fn abs(self) -> Expr {
        Expr::Unary {
            op: UnOp::Abs,
            expr: Box::new(self),
        }
    }

    /// `NOT self`.
    pub fn not(self) -> Expr {
        Expr::Unary {
            op: UnOp::Not,
            expr: Box::new(self),
        }
    }

    /// `-self`.
    pub fn neg(self) -> Expr {
        Expr::Unary {
            op: UnOp::Neg,
            expr: Box::new(self),
        }
    }

    /// `self IS NULL`.
    pub fn is_null(self) -> Expr {
        Expr::IsNull(Box::new(self))
    }

    /// Evaluate against one row of `table`.
    pub fn eval(&self, table: &Table, row: usize) -> Result<Value> {
        match self {
            Expr::Column(index) => {
                table.column(*index)?;
                Ok(table.value(row, *index))
            }
            Expr::Literal(value) => Ok(value.clone()),
            Expr::Binary { op, lhs, rhs } => {
                eval_binary(*op, lhs.eval(table, row)?, rhs.eval(table, row)?)
            }
            Expr::Unary { op, expr } => eval_unary(*op, expr.eval(table, row)?),
            Expr::IsNull(expr) => Ok(Value::Bool(expr.eval(table, row)?.is_null())),
            Expr::Coalesce(items) => {
                for item in items {
                    let value = item.eval(table, row)?;
                    if !value.is_null() {
                        return Ok(value);
                    }
                }
                Ok(Value::Null)
            }
            Expr::Least(items) => fold_numeric(items, table, row, |a, b| a.min(b)),
            Expr::Greatest(items) => fold_numeric(items, table, row, |a, b| a.max(b)),
            Expr::Case {
                branches,
                otherwise,
            } => {
                for (condition, result) in branches {
                    if condition.eval(table, row)?.as_bool() == Some(true) {
                        return result.eval(table, row);
                    }
                }
                otherwise.eval(table, row)
            }
        }
    }

    /// Static result type of the expression under `schema`.
    ///
    /// Used by projections to derive output schemas. Mixed int/float
    /// arithmetic infers float; comparisons infer bool.
    pub fn infer_type(&self, schema: &Schema) -> Result<ColumnType> {
        match self {
            Expr::Column(index) => Ok(schema.field(*index)?.ty),
            Expr::Literal(value) => Ok(value.column_type().unwrap_or(ColumnType::Float)),
            Expr::Binary { op, lhs, rhs } => match op {
                BinOp::Add | BinOp::Sub | BinOp::Mul => {
                    let l = lhs.infer_type(schema)?;
                    let r = rhs.infer_type(schema)?;
                    if l == ColumnType::Int && r == ColumnType::Int {
                        Ok(ColumnType::Int)
                    } else {
                        Ok(ColumnType::Float)
                    }
                }
                BinOp::Div => Ok(ColumnType::Float),
                _ => Ok(ColumnType::Bool),
            },
            Expr::Unary { op, expr } => match op {
                UnOp::Not => Ok(ColumnType::Bool),
                UnOp::Neg | UnOp::Abs => expr.infer_type(schema),
            },
            Expr::IsNull(_) => Ok(ColumnType::Bool),
            Expr::Coalesce(items) | Expr::Least(items) | Expr::Greatest(items) => items
                .first()
                .map(|e| e.infer_type(schema))
                .unwrap_or(Ok(ColumnType::Float)),
            Expr::Case {
                branches,
                otherwise,
            } => branches
                .first()
                .map(|(_, r)| r.infer_type(schema))
                .unwrap_or_else(|| otherwise.infer_type(schema)),
        }
    }

    /// Whether the expression can produce NULL under `schema`.
    pub fn infer_nullable(&self, schema: &Schema) -> bool {
        match self {
            Expr::Column(index) => schema.field(*index).map(|f| f.nullable).unwrap_or(true),
            Expr::Literal(value) => value.is_null(),
            Expr::Binary { lhs, rhs, .. } => {
                lhs.infer_nullable(schema) || rhs.infer_nullable(schema)
            }
            Expr::Unary { expr, .. } => expr.infer_nullable(schema),
            Expr::IsNull(_) => false,
            Expr::Coalesce(items) => items.iter().all(|e| e.infer_nullable(schema)),
            Expr::Least(items) | Expr::Greatest(items) => {
                items.iter().all(|e| e.infer_nullable(schema))
            }
            Expr::Case {
                branches,
                otherwise,
            } => {
                branches.iter().any(|(_, r)| r.infer_nullable(schema))
                    || otherwise.infer_nullable(schema)
            }
        }
    }
}

fn fold_numeric(
    items: &[Expr],
    table: &Table,
    row: usize,
    combine: impl Fn(f64, f64) -> f64,
) -> Result<Value> {
    let mut acc: Option<f64> = None;
    for item in items {
        let value = item.eval(table, row)?;
        if value.is_null() {
            continue;
        }
        let v = value.expect_numeric("least/greatest")?;
        acc = Some(match acc {
            Some(current) => combine(current, v),
            None => v,
        });
    }
    Ok(acc.map(Value::Float).unwrap_or(Value::Null))
}

fn eval_unary(op: UnOp, value: Value) -> Result<Value> {
    if value.is_null() {
        return Ok(Value::Null);
    }
    match op {
        UnOp::Neg => match value {
            Value::Int(i) => Ok(Value::Int(-i)),
            other => Ok(Value::Float(-other.expect_numeric("negation")?)),
        },
        UnOp::Abs => match value {
            Value::Int(i) => Ok(Value::Int(i.abs())),
            other => Ok(Value::Float(other.expect_numeric("abs")?.abs())),
        },
        UnOp::Not => match value.as_bool() {
            Some(b) => Ok(Value::Bool(!b)),
            None => Err(RelalgError::TypeMismatch {
                operation: "NOT".to_string(),
                found: value.type_name().to_string(),
            }),
        },
    }
}

fn eval_binary(op: BinOp, lhs: Value, rhs: Value) -> Result<Value> {
    use BinOp::*;
    match op {
        And => return Ok(three_valued_and(lhs, rhs)),
        Or => return Ok(three_valued_or(lhs, rhs)),
        _ => {}
    }
    if lhs.is_null() || rhs.is_null() {
        return Ok(Value::Null);
    }
    match op {
        Add | Sub | Mul | Div => {
            // Keep integer arithmetic exact when both sides are ints.
            if let (Value::Int(a), Value::Int(b)) = (&lhs, &rhs) {
                return match op {
                    Add => Ok(Value::Int(a.wrapping_add(*b))),
                    Sub => Ok(Value::Int(a.wrapping_sub(*b))),
                    Mul => Ok(Value::Int(a.wrapping_mul(*b))),
                    Div => {
                        if *b == 0 {
                            Err(RelalgError::DivisionByZero)
                        } else {
                            Ok(Value::Float(*a as f64 / *b as f64))
                        }
                    }
                    _ => unreachable!(),
                };
            }
            let a = lhs.expect_numeric("arithmetic")?;
            let b = rhs.expect_numeric("arithmetic")?;
            match op {
                Add => Ok(Value::Float(a + b)),
                Sub => Ok(Value::Float(a - b)),
                Mul => Ok(Value::Float(a * b)),
                Div => {
                    if b == 0.0 {
                        Err(RelalgError::DivisionByZero)
                    } else {
                        Ok(Value::Float(a / b))
                    }
                }
                _ => unreachable!(),
            }
        }
        Eq => Ok(Value::Bool(lhs == rhs)),
        Neq => Ok(Value::Bool(lhs != rhs)),
        Lt => Ok(Value::Bool(lhs < rhs)),
        Le => Ok(Value::Bool(lhs <= rhs)),
        Gt => Ok(Value::Bool(lhs > rhs)),
        Ge => Ok(Value::Bool(lhs >= rhs)),
        And | Or => unreachable!(),
    }
}

fn three_valued_and(lhs: Value, rhs: Value) -> Value {
    match (lhs.as_bool(), rhs.as_bool(), lhs.is_null() || rhs.is_null()) {
        (Some(false), _, _) | (_, Some(false), _) => Value::Bool(false),
        (Some(true), Some(true), _) => Value::Bool(true),
        _ => Value::Null,
    }
}

fn three_valued_or(lhs: Value, rhs: Value) -> Value {
    match (lhs.as_bool(), rhs.as_bool()) {
        (Some(true), _) | (_, Some(true)) => Value::Bool(true),
        (Some(false), Some(false)) => Value::Bool(false),
        _ => Value::Null,
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column(i) => write!(f, "#{i}"),
            Expr::Literal(v) => write!(f, "{v}"),
            Expr::Binary { op, lhs, rhs } => {
                let symbol = match op {
                    BinOp::Add => "+",
                    BinOp::Sub => "-",
                    BinOp::Mul => "*",
                    BinOp::Div => "/",
                    BinOp::Eq => "=",
                    BinOp::Neq => "!=",
                    BinOp::Lt => "<",
                    BinOp::Le => "<=",
                    BinOp::Gt => ">",
                    BinOp::Ge => ">=",
                    BinOp::And => "AND",
                    BinOp::Or => "OR",
                };
                write!(f, "({lhs} {symbol} {rhs})")
            }
            Expr::Unary { op, expr } => match op {
                UnOp::Neg => write!(f, "(-{expr})"),
                UnOp::Not => write!(f, "(NOT {expr})"),
                UnOp::Abs => write!(f, "ABS({expr})"),
            },
            Expr::IsNull(e) => write!(f, "({e} IS NULL)"),
            Expr::Coalesce(items) => write_call(f, "COALESCE", items),
            Expr::Least(items) => write_call(f, "LEAST", items),
            Expr::Greatest(items) => write_call(f, "GREATEST", items),
            Expr::Case {
                branches,
                otherwise,
            } => {
                f.write_str("CASE")?;
                for (c, r) in branches {
                    write!(f, " WHEN {c} THEN {r}")?;
                }
                write!(f, " ELSE {otherwise} END")
            }
        }
    }
}

fn write_call(f: &mut fmt::Formatter<'_>, name: &str, items: &[Expr]) -> fmt::Result {
    write!(f, "{name}(")?;
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            f.write_str(", ")?;
        }
        write!(f, "{item}")?;
    }
    f.write_str(")")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Field;

    fn table() -> Table {
        let schema = Schema::new(vec![
            Field::nullable("dim", ColumnType::Str),
            Field::required("x", ColumnType::Float),
            Field::required("n", ColumnType::Int),
        ])
        .unwrap();
        Table::from_rows(
            schema,
            vec![
                vec!["a".into(), 2.5.into(), 4.into()],
                vec![Value::Null, (-3.0).into(), 7.into()],
            ],
        )
        .unwrap()
    }

    fn eval(expr: &Expr, row: usize) -> Value {
        expr.eval(&table(), row).unwrap()
    }

    #[test]
    fn arithmetic_and_coercion() {
        let e = Expr::col(1).add(Expr::col(2));
        assert_eq!(eval(&e, 0), Value::Float(6.5));
        let int_sum = Expr::col(2).add(Expr::lit(1));
        assert_eq!(eval(&int_sum, 0), Value::Int(5));
    }

    #[test]
    fn division_by_zero_is_error() {
        let e = Expr::lit(1).div(Expr::lit(0));
        assert_eq!(
            e.eval(&table(), 0).unwrap_err(),
            RelalgError::DivisionByZero
        );
        let e = Expr::lit(1.0).div(Expr::lit(0.0));
        assert!(e.eval(&table(), 0).is_err());
    }

    #[test]
    fn abs_and_neg() {
        assert_eq!(eval(&Expr::col(1).abs(), 1), Value::Float(3.0));
        assert_eq!(eval(&Expr::col(2).neg(), 1), Value::Int(-7));
    }

    #[test]
    fn neg_of_int_stays_int() {
        assert_eq!(eval(&Expr::col(2).neg(), 0), Value::Int(-4));
    }

    #[test]
    fn comparisons_propagate_null() {
        let e = Expr::col(0).eq(Expr::lit("a"));
        assert_eq!(eval(&e, 0), Value::Bool(true));
        assert_eq!(eval(&e, 1), Value::Null);
    }

    #[test]
    fn scope_join_condition_semantics() {
        // F.d IS NULL OR F.d = R.d — the paper's join condition M.
        let cond = Expr::col(0).is_null().or(Expr::col(0).eq(Expr::lit("b")));
        assert_eq!(eval(&cond, 0), Value::Bool(false)); // "a" != "b"
        assert_eq!(eval(&cond, 1), Value::Bool(true)); // NULL dim matches everything
    }

    #[test]
    fn three_valued_logic_tables() {
        let t = Value::Bool(true);
        let f_ = Value::Bool(false);
        let n = Value::Null;
        assert_eq!(three_valued_and(n.clone(), f_.clone()), Value::Bool(false));
        assert_eq!(three_valued_and(n.clone(), t.clone()), Value::Null);
        assert_eq!(three_valued_or(n.clone(), t.clone()), Value::Bool(true));
        assert_eq!(three_valued_or(n.clone(), f_.clone()), Value::Null);
        assert_eq!(three_valued_or(n.clone(), n.clone()), Value::Null);
    }

    #[test]
    fn coalesce_picks_first_non_null() {
        let e = Expr::Coalesce(vec![Expr::col(0), Expr::lit("fallback")]);
        assert_eq!(eval(&e, 0), Value::str("a"));
        assert_eq!(eval(&e, 1), Value::str("fallback"));
    }

    #[test]
    fn least_greatest_skip_nulls() {
        let e = Expr::Least(vec![Expr::lit(Value::Null), Expr::lit(4.0), Expr::lit(2.0)]);
        assert_eq!(eval(&e, 0), Value::Float(2.0));
        let e = Expr::Greatest(vec![Expr::lit(Value::Null), Expr::lit(4.0), Expr::lit(2.0)]);
        assert_eq!(eval(&e, 0), Value::Float(4.0));
        let e = Expr::Least(vec![Expr::lit(Value::Null)]);
        assert_eq!(eval(&e, 0), Value::Null);
    }

    #[test]
    fn case_expression() {
        let e = Expr::Case {
            branches: vec![(Expr::col(1).gt(Expr::lit(0.0)), Expr::lit("pos"))],
            otherwise: Box::new(Expr::lit("neg")),
        };
        assert_eq!(eval(&e, 0), Value::str("pos"));
        assert_eq!(eval(&e, 1), Value::str("neg"));
    }

    #[test]
    fn type_inference() {
        let schema = table().schema().clone();
        assert_eq!(Expr::col(1).infer_type(&schema).unwrap(), ColumnType::Float);
        assert_eq!(
            Expr::col(2).add(Expr::lit(1)).infer_type(&schema).unwrap(),
            ColumnType::Int
        );
        assert_eq!(
            Expr::col(2).add(Expr::col(1)).infer_type(&schema).unwrap(),
            ColumnType::Float
        );
        assert_eq!(
            Expr::col(0).eq(Expr::lit("a")).infer_type(&schema).unwrap(),
            ColumnType::Bool
        );
        assert!(Expr::col(0).infer_nullable(&schema));
        assert!(!Expr::col(1).infer_nullable(&schema));
        assert!(!Expr::col(0).is_null().infer_nullable(&schema));
    }

    #[test]
    fn display_round_trips_structure() {
        let e = Expr::col(0).is_null().or(Expr::col(0).eq(Expr::lit("b")));
        assert_eq!(e.to_string(), "((#0 IS NULL) OR (#0 = b))");
    }
}
