//! The relation to summarize, in dictionary-encoded columnar form
//! (Definition 1 of the paper).

use std::sync::Arc;

use vqs_relalg::prelude::{ColumnData, Table, Value};

use crate::error::{CoreError, Result};

/// Metadata of one dimension column: its name and value dictionary.
///
/// Rows store `u32` codes indexing into `values`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dimension {
    /// Column name (e.g. "season").
    pub name: String,
    /// Distinct values in code order (e.g. `["Spring", "Summer", ...]`).
    pub values: Vec<Arc<str>>,
}

impl Dimension {
    /// Number of distinct values.
    pub fn cardinality(&self) -> usize {
        self.values.len()
    }

    /// Code of `value`, if present.
    pub fn code_of(&self, value: &str) -> Option<u32> {
        self.values
            .iter()
            .position(|v| v.as_ref() == value)
            .map(|i| i as u32)
    }
}

/// How user expectations are initialized before any fact is heard
/// (the prior `P(r)` of Definition 4).
#[derive(Debug, Clone, PartialEq)]
pub enum Prior {
    /// The same constant expectation for every row (e.g. "no delays").
    Constant(f64),
    /// The global mean of the target column — the prior used throughout the
    /// paper's experiments ("we use the average value in the target column
    /// as a (constant) prior", §VIII-A).
    GlobalMean,
    /// An arbitrary per-row prior.
    PerRow(Vec<f64>),
}

/// A relation with dictionary-encoded dimension columns and one numeric
/// target column (Definition 1).
///
/// `dim_codes` is column-major: `dim_codes[d][row]` is the code of row
/// `row` in dimension `d`.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedRelation {
    dims: Vec<Dimension>,
    dim_codes: Vec<Vec<u32>>,
    target: Vec<f64>,
    target_name: String,
    prior: Prior,
}

impl EncodedRelation {
    /// Build a relation; validates column lengths and value codes.
    pub fn new(
        dims: Vec<Dimension>,
        dim_codes: Vec<Vec<u32>>,
        target: Vec<f64>,
        target_name: impl Into<String>,
        prior: Prior,
    ) -> Result<Self> {
        if dims.len() != dim_codes.len() {
            return Err(CoreError::LengthMismatch {
                detail: format!(
                    "{} dimensions but {} code columns",
                    dims.len(),
                    dim_codes.len()
                ),
            });
        }
        for (d, codes) in dim_codes.iter().enumerate() {
            if codes.len() != target.len() {
                return Err(CoreError::LengthMismatch {
                    detail: format!(
                        "dimension {d} has {} rows, target has {}",
                        codes.len(),
                        target.len()
                    ),
                });
            }
            let cardinality = dims[d].cardinality() as u32;
            if let Some(&bad) = codes.iter().find(|&&c| c >= cardinality) {
                return Err(CoreError::ValueOutOfRange { dim: d, value: bad });
            }
        }
        if let Prior::PerRow(p) = &prior {
            if p.len() != target.len() {
                return Err(CoreError::LengthMismatch {
                    detail: format!("prior has {} rows, target has {}", p.len(), target.len()),
                });
            }
        }
        Ok(EncodedRelation {
            dims,
            dim_codes,
            target,
            target_name: target_name.into(),
            prior,
        })
    }

    /// Build from string-valued rows: each row is (dimension values, target).
    pub fn from_rows<'a>(
        dim_names: &[&str],
        target_name: &str,
        rows: impl IntoIterator<Item = (Vec<&'a str>, f64)>,
        prior: Prior,
    ) -> Result<Self> {
        let mut dims: Vec<Dimension> = dim_names
            .iter()
            .map(|&n| Dimension {
                name: n.to_string(),
                values: Vec::new(),
            })
            .collect();
        let mut dim_codes: Vec<Vec<u32>> = vec![Vec::new(); dim_names.len()];
        let mut target = Vec::new();
        for (values, t) in rows {
            if values.len() != dims.len() {
                return Err(CoreError::LengthMismatch {
                    detail: format!("row has {} dims, expected {}", values.len(), dims.len()),
                });
            }
            for (d, value) in values.iter().enumerate() {
                let code = match dims[d].code_of(value) {
                    Some(c) => c,
                    None => {
                        dims[d].values.push(Arc::from(*value));
                        (dims[d].values.len() - 1) as u32
                    }
                };
                dim_codes[d].push(code);
            }
            target.push(t);
        }
        EncodedRelation::new(dims, dim_codes, target, target_name, prior)
    }

    /// Import from a relalg [`Table`]: `dim_cols` name the dimension
    /// columns, `target_col` the numeric target. Dimension values are
    /// coded in order of first appearance, as [`EncodedRelation::from_rows`]
    /// codes them: a string column's dictionary codes are remapped in one
    /// pass, any other column's values are coded by their text.
    pub fn from_table(
        table: &Table,
        dim_cols: &[&str],
        target_col: &str,
        prior: Prior,
    ) -> Result<Self> {
        let schema = table.schema();
        let mut dims = Vec::with_capacity(dim_cols.len());
        let mut dim_codes: Vec<Vec<u32>> = Vec::with_capacity(dim_cols.len());
        for &name in dim_cols {
            let null_at = |row: usize| CoreError::InvalidProblem {
                detail: format!("NULL dimension value in '{name}' at row {row}"),
            };
            let mut dim = Dimension {
                name: name.to_string(),
                values: Vec::new(),
            };
            let mut codes = Vec::with_capacity(table.len());
            match table.column(schema.index_of(name)?)? {
                ColumnData::Str {
                    dict,
                    codes: table_codes,
                } => {
                    // Table code → relation code, assigned on first appearance.
                    let mut remap = vec![u32::MAX; dict.len()];
                    for (row, code) in table_codes.iter().enumerate() {
                        let code = code.ok_or_else(|| null_at(row))? as usize;
                        if remap[code] == u32::MAX {
                            remap[code] = dim.values.len() as u32;
                            dim.values.push(dict.strings()[code].clone());
                        }
                        codes.push(remap[code]);
                    }
                }
                column => {
                    for row in 0..table.len() {
                        let text: Arc<str> = match column.value(row) {
                            Value::Null => return Err(null_at(row)),
                            other => Arc::from(other.to_string().as_str()),
                        };
                        let code = match dim.values.iter().position(|v| *v == text) {
                            Some(i) => i as u32,
                            None => {
                                dim.values.push(text);
                                (dim.values.len() - 1) as u32
                            }
                        };
                        codes.push(code);
                    }
                }
            }
            dims.push(dim);
            dim_codes.push(codes);
        }
        let target = numeric_column(table, target_col)?;
        EncodedRelation::new(dims, dim_codes, target, target_col, prior)
    }

    /// This relation's dimensions and codes over another numeric column
    /// of `table` as the target: a relation built once serves every
    /// target of its table without coding the rows again.
    pub fn retargeted(&self, table: &Table, target_col: &str, prior: Prior) -> Result<Self> {
        EncodedRelation::new(
            self.dims.clone(),
            self.dim_codes.clone(),
            numeric_column(table, target_col)?,
            target_col,
            prior,
        )
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.target.len()
    }

    /// True when the relation has no rows.
    pub fn is_empty(&self) -> bool {
        self.target.is_empty()
    }

    /// Number of dimension columns.
    pub fn dim_count(&self) -> usize {
        self.dims.len()
    }

    /// Dimension metadata.
    pub fn dims(&self) -> &[Dimension] {
        &self.dims
    }

    /// Dimension by index.
    pub fn dim(&self, d: usize) -> Result<&Dimension> {
        self.dims.get(d).ok_or(CoreError::DimensionOutOfRange {
            dim: d,
            dims: self.dims.len(),
        })
    }

    /// Index of the dimension named `name`.
    pub fn dim_index(&self, name: &str) -> Option<usize> {
        self.dims.iter().position(|d| d.name == name)
    }

    /// Code of row `row` in dimension `d`.
    #[inline]
    pub fn code(&self, d: usize, row: usize) -> u32 {
        self.dim_codes[d][row]
    }

    /// All codes of dimension `d`, row-aligned.
    pub fn codes(&self, d: usize) -> &[u32] {
        &self.dim_codes[d]
    }

    /// Target value of row `row`.
    #[inline]
    pub fn target(&self, row: usize) -> f64 {
        self.target[row]
    }

    /// The whole target column.
    pub fn targets(&self) -> &[f64] {
        &self.target
    }

    /// Name of the target column.
    pub fn target_name(&self) -> &str {
        &self.target_name
    }

    /// The configured prior.
    pub fn prior(&self) -> &Prior {
        &self.prior
    }

    /// Replace the prior (builder style).
    pub fn with_prior(mut self, prior: Prior) -> Result<Self> {
        if let Prior::PerRow(p) = &prior {
            if p.len() != self.target.len() {
                return Err(CoreError::LengthMismatch {
                    detail: format!(
                        "prior has {} rows, target has {}",
                        p.len(),
                        self.target.len()
                    ),
                });
            }
        }
        self.prior = prior;
        Ok(self)
    }

    /// Mean of the target column (0 for an empty relation).
    pub fn target_mean(&self) -> f64 {
        if self.target.is_empty() {
            0.0
        } else {
            self.target.iter().sum::<f64>() / self.target.len() as f64
        }
    }

    /// Materialize the prior as one value per row.
    pub fn prior_values(&self) -> Vec<f64> {
        match &self.prior {
            Prior::Constant(c) => vec![*c; self.len()],
            Prior::GlobalMean => vec![self.target_mean(); self.len()],
            Prior::PerRow(p) => p.clone(),
        }
    }

    /// Restrict to the rows at `keep` (preserving order); dictionaries are
    /// shared unchanged so codes remain comparable with the parent.
    pub fn subset(&self, keep: &[usize]) -> Result<Self> {
        for &row in keep {
            if row >= self.len() {
                return Err(CoreError::LengthMismatch {
                    detail: format!("row {row} out of range ({} rows)", self.len()),
                });
            }
        }
        let dim_codes: Vec<Vec<u32>> = self
            .dim_codes
            .iter()
            .map(|codes| keep.iter().map(|&r| codes[r]).collect())
            .collect();
        let target: Vec<f64> = keep.iter().map(|&r| self.target[r]).collect();
        let prior = match &self.prior {
            Prior::PerRow(p) => Prior::PerRow(keep.iter().map(|&r| p[r]).collect()),
            other => other.clone(),
        };
        EncodedRelation::new(
            self.dims.clone(),
            dim_codes,
            target,
            self.target_name.clone(),
            prior,
        )
    }

    /// Human-readable value of row `row` in dimension `d`.
    pub fn value_str(&self, d: usize, row: usize) -> &str {
        &self.dims[d].values[self.dim_codes[d][row] as usize]
    }
}

/// The values of the numeric column `name` of `table`, as floats.
fn numeric_column(table: &Table, name: &str) -> Result<Vec<f64>> {
    let null_at = |row: usize| CoreError::InvalidProblem {
        detail: format!("NULL target value at row {row}"),
    };
    match table.column(table.schema().index_of(name)?)? {
        ColumnData::Float(values) => values
            .iter()
            .enumerate()
            .map(|(row, v)| v.ok_or_else(|| null_at(row)))
            .collect(),
        ColumnData::Int(values) => values
            .iter()
            .enumerate()
            .map(|(row, v)| v.map(|v| v as f64).ok_or_else(|| null_at(row)))
            .collect(),
        _ => Err(CoreError::InvalidProblem {
            detail: format!("target column '{name}' is not numeric"),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqs_relalg::prelude::{ColumnType, Field, Schema};

    pub(crate) fn two_by_two() -> EncodedRelation {
        EncodedRelation::from_rows(
            &["region", "season"],
            "delay",
            vec![
                (vec!["East", "Winter"], 20.0),
                (vec!["South", "Winter"], 10.0),
                (vec!["South", "Summer"], 20.0),
                (vec!["East", "Summer"], 0.0),
            ],
            Prior::Constant(0.0),
        )
        .unwrap()
    }

    #[test]
    fn encodes_and_decodes() {
        let r = two_by_two();
        assert_eq!(r.len(), 4);
        assert_eq!(r.dim_count(), 2);
        assert_eq!(r.dim(0).unwrap().cardinality(), 2);
        assert_eq!(r.value_str(0, 1), "South");
        assert_eq!(r.code(0, 0), r.code(0, 3)); // both East
        assert_eq!(r.target(1), 10.0);
    }

    #[test]
    fn dim_lookup_by_name() {
        let r = two_by_two();
        assert_eq!(r.dim_index("season"), Some(1));
        assert_eq!(r.dim_index("missing"), None);
        assert!(r.dim(7).is_err());
    }

    #[test]
    fn priors_materialize() {
        let r = two_by_two();
        assert_eq!(r.prior_values(), vec![0.0; 4]);
        let r = r.with_prior(Prior::GlobalMean).unwrap();
        assert_eq!(r.prior_values(), vec![12.5; 4]);
        let r = r
            .with_prior(Prior::PerRow(vec![1.0, 2.0, 3.0, 4.0]))
            .unwrap();
        assert_eq!(r.prior_values()[2], 3.0);
    }

    #[test]
    fn per_row_prior_length_checked() {
        let r = two_by_two();
        assert!(r.with_prior(Prior::PerRow(vec![1.0])).is_err());
    }

    #[test]
    fn invalid_codes_rejected() {
        let dims = vec![Dimension {
            name: "d".into(),
            values: vec![Arc::from("a")],
        }];
        let err = EncodedRelation::new(dims, vec![vec![1]], vec![0.0], "t", Prior::Constant(0.0))
            .unwrap_err();
        assert!(matches!(
            err,
            CoreError::ValueOutOfRange { dim: 0, value: 1 }
        ));
    }

    #[test]
    fn subset_preserves_dictionaries() {
        let r = two_by_two();
        let s = r.subset(&[1, 2]).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.value_str(0, 0), "South");
        // Codes stay comparable with the parent relation.
        assert_eq!(s.code(0, 0), r.code(0, 1));
        assert!(r.subset(&[99]).is_err());
    }

    #[test]
    fn from_table_roundtrip() {
        let schema = Schema::new(vec![
            Field::required("region", ColumnType::Str),
            Field::required("delay", ColumnType::Float),
        ])
        .unwrap();
        let table = Table::from_rows(
            schema,
            vec![
                vec!["East".into(), 20.0.into()],
                vec!["South".into(), 10.0.into()],
            ],
        )
        .unwrap();
        let r = EncodedRelation::from_table(&table, &["region"], "delay", Prior::Constant(0.0))
            .unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.value_str(0, 0), "East");
        assert_eq!(r.target(1), 10.0);
        assert!(
            EncodedRelation::from_table(&table, &["region"], "region", Prior::Constant(0.0))
                .is_err()
        );
    }

    /// A table with string and integer dimensions, first appearances out
    /// of sorted order, and a float and an integer target.
    fn mixed_table() -> Table {
        let schema = Schema::new(vec![
            Field::required("region", ColumnType::Str),
            Field::required("month", ColumnType::Int),
            Field::required("delay", ColumnType::Float),
            Field::required("flights", ColumnType::Int),
        ])
        .unwrap();
        let rows = [
            ("South", 3, 12.5, 40),
            ("East", 1, 20.0, 10),
            ("South", 1, 7.0, 25),
            ("North", 12, 0.5, 5),
            ("East", 3, 15.0, 30),
            ("North", 1, 3.0, 20),
        ];
        Table::from_rows(
            schema,
            rows.iter().map(|&(region, month, delay, flights)| {
                vec![
                    region.into(),
                    Value::Int(month),
                    delay.into(),
                    Value::Int(flights),
                ]
            }),
        )
        .unwrap()
    }

    /// `from_table` over `table` must equal `from_rows` over the same rows
    /// as strings: same dimensions, codes and targets.
    fn assert_matches_rows(table: &Table, dims: &[&str], target: &str) {
        let schema = table.schema();
        let cols: Vec<usize> = dims.iter().map(|d| schema.index_of(d).unwrap()).collect();
        let target_col = schema.index_of(target).unwrap();
        let texts: Vec<(Vec<String>, f64)> = (0..table.len())
            .map(|row| {
                let values = cols.iter().map(|&c| table.value(row, c).to_string());
                (
                    values.collect(),
                    table.value(row, target_col).as_f64().unwrap(),
                )
            })
            .collect();
        let expected = EncodedRelation::from_rows(
            dims,
            target,
            texts
                .iter()
                .map(|(values, t)| (values.iter().map(String::as_str).collect(), *t)),
            Prior::Constant(0.0),
        )
        .unwrap();
        let actual =
            EncodedRelation::from_table(table, dims, target, Prior::Constant(0.0)).unwrap();
        assert_eq!(actual, expected);
    }

    #[test]
    fn from_table_codes_like_from_rows() {
        let table = mixed_table();
        // String dimensions only.
        assert_matches_rows(&table, &["region"], "delay");
        // An integer dimension takes the stringifying path.
        assert_matches_rows(&table, &["month", "region"], "flights");
        // Rows reordered: codes follow the new first appearances.
        let sorted = table
            .sorted_by_key(|row| table.value(row, 2).as_f64().unwrap().to_bits())
            .unwrap();
        assert_matches_rows(&sorted, &["region", "month"], "delay");
        // No rows.
        let empty = Table::empty(table.schema().clone());
        assert_matches_rows(&empty, &["region", "month"], "flights");
    }

    #[test]
    fn retargeted_equals_a_fresh_import() {
        let table = mixed_table();
        let dims = ["region", "month"];
        let delay =
            EncodedRelation::from_table(&table, &dims, "delay", Prior::Constant(0.0)).unwrap();
        let flights =
            EncodedRelation::from_table(&table, &dims, "flights", Prior::GlobalMean).unwrap();
        assert_eq!(
            delay
                .retargeted(&table, "flights", Prior::GlobalMean)
                .unwrap(),
            flights
        );
        assert!(delay
            .retargeted(&table, "region", Prior::GlobalMean)
            .is_err());
    }

    #[test]
    fn from_table_rejects_nulls() {
        let schema = Schema::new(vec![
            Field::nullable("region", ColumnType::Str),
            Field::nullable("month", ColumnType::Int),
            Field::nullable("delay", ColumnType::Float),
        ])
        .unwrap();
        let table = Table::from_rows(
            schema,
            vec![
                vec!["East".into(), Value::Int(1), 20.0.into()],
                vec!["South".into(), Value::Int(2), Value::Null],
                vec![Value::Null, Value::Null, 10.0.into()],
            ],
        )
        .unwrap();
        let error = |dims: &[&str]| {
            EncodedRelation::from_table(&table, dims, "delay", Prior::Constant(0.0))
                .unwrap_err()
                .to_string()
        };
        let invalid = |detail: &str| {
            CoreError::InvalidProblem {
                detail: detail.to_string(),
            }
            .to_string()
        };
        // Dimensions are checked before the target, whose NULL comes first.
        assert_eq!(
            error(&["region"]),
            invalid("NULL dimension value in 'region' at row 2")
        );
        assert_eq!(
            error(&["month"]),
            invalid("NULL dimension value in 'month' at row 2")
        );
        assert_eq!(error(&[]), invalid("NULL target value at row 1"));
    }

    #[test]
    fn target_mean_of_empty_is_zero() {
        let r = EncodedRelation::from_rows(&["d"], "t", Vec::new(), Prior::GlobalMean).unwrap();
        assert_eq!(r.target_mean(), 0.0);
        assert!(r.is_empty());
    }
}
