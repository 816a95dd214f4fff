//! Table schemas: named, typed, nullable columns.

use std::fmt;

use crate::error::{RelalgError, Result};
use crate::table::{null_in_required, push_mismatch};
use crate::value::{ColumnType, Value};

/// One column of a schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Column name, unique within a schema.
    pub name: String,
    /// Scalar type of the column.
    pub ty: ColumnType,
    /// Whether the column may contain NULLs.
    pub nullable: bool,
}

impl Field {
    /// A non-nullable field.
    pub fn required(name: impl Into<String>, ty: ColumnType) -> Self {
        Field {
            name: name.into(),
            ty,
            nullable: false,
        }
    }

    /// A nullable field.
    pub fn nullable(name: impl Into<String>, ty: ColumnType) -> Self {
        Field {
            name: name.into(),
            ty,
            nullable: true,
        }
    }
}

/// An ordered list of [`Field`]s.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    fields: Vec<Field>,
}

impl Schema {
    /// Build a schema, rejecting duplicate column names.
    pub fn new(fields: Vec<Field>) -> Result<Self> {
        for (i, field) in fields.iter().enumerate() {
            if fields[..i].iter().any(|other| other.name == field.name) {
                return Err(RelalgError::Invalid {
                    detail: format!("duplicate column name '{}'", field.name),
                });
            }
        }
        Ok(Schema { fields })
    }

    /// Schema with no columns (the result of projecting nothing).
    pub fn empty() -> Self {
        Schema { fields: Vec::new() }
    }

    /// The fields in declaration order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True when the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Field at `index`.
    pub fn field(&self, index: usize) -> Result<&Field> {
        self.fields
            .get(index)
            .ok_or_else(|| RelalgError::ColumnNotFound {
                column: format!("#{index}"),
            })
    }

    /// Index of the column named `name`.
    pub fn index_of(&self, name: &str) -> Result<usize> {
        self.fields
            .iter()
            .position(|f| f.name == name)
            .ok_or_else(|| RelalgError::ColumnNotFound {
                column: name.to_string(),
            })
    }

    /// Concatenate two schemas (for joins / cross products), renaming
    /// right-side duplicates with a `right.` prefix so names stay unique.
    pub fn join(&self, right: &Schema) -> Result<Schema> {
        let mut fields = self.fields.clone();
        for field in &right.fields {
            let mut field = field.clone();
            if fields.iter().any(|f| f.name == field.name) {
                field.name = format!("right.{}", field.name);
            }
            fields.push(field);
        }
        Schema::new(fields)
    }

    /// Column names in order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.fields.iter().map(|f| f.name.as_str())
    }

    /// Check that `row` fits this schema: one value per column, no NULL in
    /// a non-nullable column, and every value of its column's type (an int
    /// fits a float column). Every table write makes this check before it
    /// changes anything.
    pub fn check_row(&self, row: &[Value]) -> Result<()> {
        if row.len() != self.len() {
            return Err(RelalgError::ArityMismatch {
                expected: self.len(),
                found: row.len(),
            });
        }
        for (i, (value, field)) in row.iter().zip(&self.fields).enumerate() {
            if value.is_null() && !field.nullable {
                return Err(null_in_required(field, i));
            }
        }
        for (value, field) in row.iter().zip(&self.fields) {
            if !value.fits(field.ty) {
                return Err(push_mismatch(value, field.ty));
            }
        }
        Ok(())
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("(")?;
        for (i, field) in self.fields.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{}: {}", field.name, field.ty)?;
            if field.nullable {
                f.write_str("?")?;
            }
        }
        f.write_str(")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schema {
        Schema::new(vec![
            Field::required("region", ColumnType::Str),
            Field::required("season", ColumnType::Str),
            Field::required("delay", ColumnType::Float),
        ])
        .unwrap()
    }

    #[test]
    fn index_lookup() {
        let schema = sample();
        assert_eq!(schema.index_of("season").unwrap(), 1);
        assert!(schema.index_of("missing").is_err());
    }

    #[test]
    fn duplicate_names_rejected() {
        let err = Schema::new(vec![
            Field::required("a", ColumnType::Int),
            Field::required("a", ColumnType::Str),
        ])
        .unwrap_err();
        assert!(err.to_string().contains("duplicate"));
    }

    #[test]
    fn join_renames_collisions() {
        let left = sample();
        let right = Schema::new(vec![
            Field::required("delay", ColumnType::Float),
            Field::required("count", ColumnType::Int),
        ])
        .unwrap();
        let joined = left.join(&right).unwrap();
        assert_eq!(joined.len(), 5);
        assert!(joined.index_of("right.delay").is_ok());
        assert!(joined.index_of("count").is_ok());
    }

    #[test]
    fn display_lists_columns() {
        let text = sample().to_string();
        assert!(text.contains("region: str"));
        assert!(text.contains("delay: float"));
    }
}
