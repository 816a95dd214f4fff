//! Columnar, materialized tables.
//!
//! Storage is column-major with a validity-free representation: nullable
//! positions are `Option`s inside the column vectors. String columns are
//! dictionary encoded — each distinct string is stored once and rows hold
//! `u32` codes — which keeps the scope joins and group-bys used by the
//! summarization algorithms cheap.

use std::fmt;
use std::sync::Arc;

use crate::error::{RelalgError, Result};
use crate::hash::FxHashMap;
use crate::schema::{Field, Schema};
use crate::value::{ColumnType, Value};

/// A dictionary of distinct strings for one column.
#[derive(Debug, Clone, Default)]
pub struct Dictionary {
    strings: Vec<Arc<str>>,
    codes: FxHashMap<Arc<str>, u32>,
}

impl Dictionary {
    /// Intern `s`, returning its code.
    pub fn intern(&mut self, s: &str) -> u32 {
        if let Some(&code) = self.codes.get(s) {
            return code;
        }
        let arc: Arc<str> = Arc::from(s);
        let code = self.strings.len() as u32;
        self.strings.push(arc.clone());
        self.codes.insert(arc, code);
        code
    }

    /// Code of `s` if already interned.
    pub fn lookup(&self, s: &str) -> Option<u32> {
        self.codes.get(s).copied()
    }

    /// String for `code`.
    pub fn resolve(&self, code: u32) -> Option<&Arc<str>> {
        self.strings.get(code as usize)
    }

    /// Number of distinct strings.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// True when no strings are interned.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// All interned strings, in code order.
    pub fn strings(&self) -> &[Arc<str>] {
        &self.strings
    }
}

/// The data of one column.
#[derive(Debug, Clone)]
pub enum ColumnData {
    /// Booleans.
    Bool(Vec<Option<bool>>),
    /// Integers.
    Int(Vec<Option<i64>>),
    /// Floats.
    Float(Vec<Option<f64>>),
    /// Dictionary-encoded strings.
    Str {
        /// Distinct strings of this column.
        dict: Dictionary,
        /// Per-row dictionary codes.
        codes: Vec<Option<u32>>,
    },
}

impl ColumnData {
    /// Empty column of the given type.
    pub fn empty(ty: ColumnType) -> Self {
        match ty {
            ColumnType::Bool => ColumnData::Bool(Vec::new()),
            ColumnType::Int => ColumnData::Int(Vec::new()),
            ColumnType::Float => ColumnData::Float(Vec::new()),
            ColumnType::Str => ColumnData::Str {
                dict: Dictionary::default(),
                codes: Vec::new(),
            },
        }
    }

    /// Number of rows stored.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Bool(v) => v.len(),
            ColumnData::Int(v) => v.len(),
            ColumnData::Float(v) => v.len(),
            ColumnData::Str { codes, .. } => codes.len(),
        }
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Value at `row`.
    pub fn value(&self, row: usize) -> Value {
        match self {
            ColumnData::Bool(v) => v[row].map(Value::Bool).unwrap_or(Value::Null),
            ColumnData::Int(v) => v[row].map(Value::Int).unwrap_or(Value::Null),
            ColumnData::Float(v) => v[row].map(Value::Float).unwrap_or(Value::Null),
            ColumnData::Str { dict, codes } => codes[row]
                .and_then(|c| dict.resolve(c).cloned())
                .map(Value::Str)
                .unwrap_or(Value::Null),
        }
    }

    /// Append a value, coercing ints to floats where the column is float.
    pub fn push(&mut self, value: Value) -> Result<()> {
        self.write(self.len(), value)
    }

    /// Store `value` at `row`, or append it when `row` is the column's
    /// length, coercing ints to floats where the column is float.
    fn write(&mut self, row: usize, value: Value) -> Result<()> {
        fn put<T>(cells: &mut Vec<Option<T>>, row: usize, cell: Option<T>) {
            match cells.get_mut(row) {
                Some(slot) => *slot = cell,
                None => cells.push(cell),
            }
        }
        match (self, value) {
            (ColumnData::Bool(v), Value::Bool(b)) => put(v, row, Some(b)),
            (ColumnData::Bool(v), Value::Null) => put(v, row, None),
            (ColumnData::Int(v), Value::Int(i)) => put(v, row, Some(i)),
            (ColumnData::Int(v), Value::Null) => put(v, row, None),
            (ColumnData::Float(v), Value::Float(f)) => put(v, row, Some(f)),
            (ColumnData::Float(v), Value::Int(i)) => put(v, row, Some(i as f64)),
            (ColumnData::Float(v), Value::Null) => put(v, row, None),
            (ColumnData::Str { dict, codes }, Value::Str(s)) => {
                let code = dict.intern(&s);
                put(codes, row, Some(code));
            }
            (ColumnData::Str { codes, .. }, Value::Null) => put(codes, row, None),
            (this, value) => return Err(push_mismatch(&value, this.column_type())),
        }
        Ok(())
    }

    /// Remove the value at `row`, shifting later rows down by one.
    fn remove(&mut self, row: usize) {
        match self {
            ColumnData::Bool(v) => _ = v.remove(row),
            ColumnData::Int(v) => _ = v.remove(row),
            ColumnData::Float(v) => _ = v.remove(row),
            ColumnData::Str { codes, .. } => _ = codes.remove(row),
        }
    }

    fn column_type(&self) -> ColumnType {
        match self {
            ColumnData::Bool(_) => ColumnType::Bool,
            ColumnData::Int(_) => ColumnType::Int,
            ColumnData::Float(_) => ColumnType::Float,
            ColumnData::Str { .. } => ColumnType::Str,
        }
    }
}

/// The error of pushing `value` into a column of type `ty`.
pub(crate) fn push_mismatch(value: &Value, ty: ColumnType) -> RelalgError {
    RelalgError::TypeMismatch {
        operation: "column push".to_string(),
        found: format!("{} into {ty} column", value.type_name()),
    }
}

/// The error of a NULL in the non-nullable `field`, column `index` of its
/// schema.
pub(crate) fn null_in_required(field: &Field, index: usize) -> RelalgError {
    RelalgError::Invalid {
        detail: format!("NULL in non-nullable column '{}' (#{index})", field.name),
    }
}

/// A materialized table: a schema plus column data of equal length.
#[derive(Debug, Clone)]
pub struct Table {
    schema: Schema,
    columns: Vec<ColumnData>,
    rows: usize,
}

impl Table {
    /// Empty table with the given schema.
    pub fn empty(schema: Schema) -> Self {
        let columns = schema
            .fields()
            .iter()
            .map(|f| ColumnData::empty(f.ty))
            .collect();
        Table {
            schema,
            columns,
            rows: 0,
        }
    }

    /// A table over built columns, one per schema field, each holding
    /// exactly `rows` values.
    pub(crate) fn from_columns(schema: Schema, columns: Vec<ColumnData>, rows: usize) -> Self {
        debug_assert_eq!(columns.len(), schema.len());
        debug_assert!(columns.iter().all(|column| column.len() == rows));
        Table {
            schema,
            columns,
            rows,
        }
    }

    /// Build a table from row-major values.
    pub fn from_rows(schema: Schema, rows: impl IntoIterator<Item = Vec<Value>>) -> Result<Self> {
        let mut table = Table::empty(schema);
        for row in rows {
            table.push_row(row)?;
        }
        Ok(table)
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Column data by index.
    pub fn column(&self, index: usize) -> Result<&ColumnData> {
        self.columns
            .get(index)
            .ok_or_else(|| RelalgError::ColumnNotFound {
                column: format!("#{index}"),
            })
    }

    /// Column data by name.
    pub fn column_by_name(&self, name: &str) -> Result<&ColumnData> {
        self.column(self.schema.index_of(name)?)
    }

    /// Value at (`row`, `col`).
    pub fn value(&self, row: usize, col: usize) -> Value {
        self.columns[col].value(row)
    }

    /// Append a row of values. Every value is checked
    /// ([`Schema::check_row`]) before any column takes one, so a rejected
    /// row leaves the table unchanged.
    pub fn push_row(&mut self, row: Vec<Value>) -> Result<()> {
        self.schema.check_row(&row)?;
        for (column, value) in self.columns.iter_mut().zip(row) {
            column.push(value)?;
        }
        self.rows += 1;
        Ok(())
    }

    /// Replace the row at `row` with `values`. The index and every value
    /// are checked as [`Table::push_row`] checks them before any column
    /// changes, so a rejected write leaves the table unchanged.
    ///
    /// A string the old row held stays in its column's [`Dictionary`] even
    /// when no row uses it any more. No output sees it:
    /// `EncodedRelation::from_table` codes values by their first appearance
    /// in the rows, and every operator reads values through the rows.
    pub fn set_row(&mut self, row: usize, values: Vec<Value>) -> Result<()> {
        self.check_index(row)?;
        self.schema.check_row(&values)?;
        for (column, value) in self.columns.iter_mut().zip(values) {
            column.write(row, value)?;
        }
        Ok(())
    }

    /// Remove the row at `row`, shifting every later row down by one, as
    /// `Vec::remove` does. An out-of-range index is rejected and leaves
    /// the table unchanged. Like [`Table::set_row`], the removal keeps
    /// strings no row uses any more in the dictionaries.
    pub fn remove_row(&mut self, row: usize) -> Result<()> {
        self.check_index(row)?;
        for column in &mut self.columns {
            column.remove(row);
        }
        self.rows -= 1;
        Ok(())
    }

    fn check_index(&self, row: usize) -> Result<()> {
        if row < self.rows {
            return Ok(());
        }
        Err(RelalgError::Invalid {
            detail: format!("row index {row} out of bounds ({} rows)", self.rows),
        })
    }

    /// Materialize one row as a `Vec<Value>`.
    pub fn row(&self, row: usize) -> Vec<Value> {
        (0..self.schema.len()).map(|c| self.value(row, c)).collect()
    }

    /// Iterate rows as `Vec<Value>` (convenience for tests and small data).
    pub fn iter_rows(&self) -> impl Iterator<Item = Vec<Value>> + '_ {
        (0..self.rows).map(|r| self.row(r))
    }

    /// Copy the rows at `indices` (in order) into a new table.
    pub fn take(&self, indices: &[usize]) -> Result<Table> {
        let mut out = Table::empty(self.schema.clone());
        for &idx in indices {
            out.push_row(self.row(idx))?;
        }
        Ok(out)
    }

    /// Append all rows of `other`; schemas must match exactly.
    pub fn append(&mut self, other: &Table) -> Result<()> {
        if self.schema != *other.schema() {
            return Err(RelalgError::SchemaMismatch {
                detail: format!("{} vs {}", self.schema, other.schema()),
            });
        }
        for row in other.iter_rows() {
            self.push_row(row)?;
        }
        Ok(())
    }

    /// Sort rows by the given value extracted per row (stable).
    pub fn sorted_by_key<K: Ord>(&self, key: impl Fn(usize) -> K) -> Result<Table> {
        let mut indices: Vec<usize> = (0..self.rows).collect();
        indices.sort_by_key(|&r| key(r));
        self.take(&indices)
    }
}

impl fmt::Display for Table {
    /// Render as an aligned ASCII table (used by examples and EXPLAIN-style
    /// debugging; not meant for large tables).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let headers: Vec<String> = self.schema.names().map(str::to_string).collect();
        let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
        let mut rendered: Vec<Vec<String>> = Vec::with_capacity(self.rows.min(50));
        for row in 0..self.rows.min(50) {
            let cells: Vec<String> = (0..self.schema.len())
                .map(|c| self.value(row, c).to_string())
                .collect();
            for (w, cell) in widths.iter_mut().zip(&cells) {
                *w = (*w).max(cell.len());
            }
            rendered.push(cells);
        }
        for (header, width) in headers.iter().zip(&widths) {
            write!(f, "{header:width$} | ")?;
        }
        writeln!(f)?;
        for cells in rendered {
            for (cell, width) in cells.iter().zip(&widths) {
                write!(f, "{cell:width$} | ")?;
            }
            writeln!(f)?;
        }
        if self.rows > 50 {
            writeln!(f, "... ({} rows total)", self.rows)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delays_schema() -> Schema {
        Schema::new(vec![
            Field::required("region", ColumnType::Str),
            Field::required("season", ColumnType::Str),
            Field::required("delay", ColumnType::Float),
        ])
        .unwrap()
    }

    fn delays_table() -> Table {
        Table::from_rows(
            delays_schema(),
            vec![
                vec!["East".into(), "Winter".into(), 20.0.into()],
                vec!["South".into(), "Winter".into(), 10.0.into()],
                vec!["South".into(), "Summer".into(), 20.0.into()],
            ],
        )
        .unwrap()
    }

    #[test]
    fn roundtrip_rows() {
        let t = delays_table();
        assert_eq!(t.len(), 3);
        assert_eq!(t.value(0, 0), Value::str("East"));
        assert_eq!(t.value(2, 2), Value::Float(20.0));
    }

    #[test]
    fn dictionary_shares_codes() {
        let t = delays_table();
        let col = t.column_by_name("region").unwrap();
        // "South" appears twice but is interned once.
        match col {
            ColumnData::Str { dict, codes } => {
                assert_eq!(dict.len(), 2);
                assert_eq!(codes[1], codes[2]);
            }
            _ => panic!("expected string column"),
        }
    }

    #[test]
    fn int_widens_to_float_column() {
        let mut t = Table::empty(delays_schema());
        t.push_row(vec!["West".into(), "Fall".into(), Value::Int(5)])
            .unwrap();
        assert_eq!(t.value(0, 2), Value::Float(5.0));
    }

    #[test]
    fn arity_checked() {
        let mut t = Table::empty(delays_schema());
        let err = t.push_row(vec!["West".into()]).unwrap_err();
        assert!(matches!(
            err,
            RelalgError::ArityMismatch {
                expected: 3,
                found: 1
            }
        ));
    }

    #[test]
    fn null_rejected_in_required_column() {
        let mut t = Table::empty(delays_schema());
        let err = t
            .push_row(vec![Value::Null, "Fall".into(), 1.0.into()])
            .unwrap_err();
        assert!(err.to_string().contains("non-nullable"));
    }

    #[test]
    fn rejected_row_leaves_columns_aligned() {
        let schema = Schema::new(vec![
            Field::required("a", ColumnType::Int),
            Field::required("b", ColumnType::Int),
        ])
        .unwrap();
        let mut t = Table::empty(schema);
        let err = t.push_row(vec![Value::Int(1), "x".into()]).unwrap_err();
        assert_eq!(
            err.to_string(),
            "type mismatch in column push: found str into int column"
        );
        assert_eq!(t.len(), 0);
        t.push_row(vec![Value::Int(2), Value::Int(3)]).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.row(0), vec![Value::Int(2), Value::Int(3)]);
        assert!(t.columns.iter().all(|column| column.len() == t.len()));
    }

    #[test]
    fn nullable_column_accepts_null() {
        let schema = Schema::new(vec![Field::nullable("dim", ColumnType::Str)]).unwrap();
        let mut t = Table::empty(schema);
        t.push_row(vec![Value::Null]).unwrap();
        assert_eq!(t.value(0, 0), Value::Null);
    }

    #[test]
    fn take_copies_selected_rows() {
        let t = delays_table();
        let picked = t.take(&[2, 0]).unwrap();
        assert_eq!(picked.len(), 2);
        assert_eq!(picked.value(0, 1), Value::str("Summer"));
        assert_eq!(picked.value(1, 0), Value::str("East"));
    }

    #[test]
    fn append_requires_equal_schema() {
        let mut t = delays_table();
        let other = delays_table();
        t.append(&other).unwrap();
        assert_eq!(t.len(), 6);
        let mismatched = Table::empty(Schema::empty());
        assert!(t.append(&mismatched).is_err());
    }

    #[test]
    fn sorted_by_key_is_stable() {
        let t = delays_table();
        let sorted = t
            .sorted_by_key(|r| t.value(r, 0).as_str().unwrap().to_string())
            .unwrap();
        assert_eq!(sorted.value(0, 0), Value::str("East"));
        // The two "South" rows keep their relative order.
        assert_eq!(sorted.value(1, 1), Value::str("Winter"));
        assert_eq!(sorted.value(2, 1), Value::str("Summer"));
    }

    #[test]
    fn display_renders_header() {
        let text = delays_table().to_string();
        assert!(text.contains("region"));
        assert!(text.contains("East"));
    }
}
